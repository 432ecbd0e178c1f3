"""Acceptance suite: one test per shipped guarantee.

Each test pins the advertised behavior of the toolkit end to end; run with
pytest -v to get a per-guarantee pass/fail line.
"""

import gc
import itertools
import random
import time

from aspcert.checker import CheckerState, check
from aspcert.completion import (
    BodyRegistry,
    backward_family,
    body_catalog,
    body_definition,
    forward_family,
)
from aspcert.core import Program, weight_rule
from aspcert.fuzz import differential_run, random_program, random_tight_program
from aspcert.loops import all_loop_nogoods, dependency_graph, is_loop
from aspcert.oracle import entails, enumerate_answer_sets
from aspcert.program_io import parse_program
from aspcert.propagation import WeightRulePropagator
from aspcert.proof import Proof, parse_proof, serialize_proof
from aspcert.solver import INCONSISTENT, solve
from reference import is_rup, reference_rup_run, unit_propagate


def _completion_nogoods(program, with_loops):
    catalog = body_catalog(program)
    registry = BodyRegistry(program.atom_count)
    for body in catalog.order:
        registry.intern(body)
    nogoods = []
    for body_id, body in registry.public_items():
        nogoods.extend(body_definition(body_id, body))
    nogoods.extend(n for _, _, n in forward_family(program, catalog, registry))
    nogoods.extend(backward_family(program, catalog, registry))
    if with_loops:
        nogoods.extend(all_loop_nogoods(program, catalog, registry))
    return nogoods, registry


def _completion_models(program):
    """Atom sets extending to total assignments that violate no completion nogood."""
    nogoods, registry = _completion_nogoods(program, with_loops=False)
    models = set()
    for mask in range(1 << program.atom_count):
        assignment = {
            a if mask >> (a - 1) & 1 else -a
            for a in range(1, program.atom_count + 1)
        }
        for body_id, body in registry.public_items():
            holds = all(l in assignment for l in body)
            assignment.add(body_id if holds else -body_id)
        if not any(n <= assignment for n in nogoods):
            models.add(frozenset(l for l in assignment if 0 < l <= program.atom_count))
    return models


def _inconsistent_instances(count, *, base_seed, **kwargs):
    """First `count` seeded random programs the solver refutes, with proofs."""
    collected = []
    index = 0
    while len(collected) < count:
        assert index < 200 * count, "inconsistent instances are too rare"
        program = random_program(random.Random(base_seed + index), **kwargs)
        result = solve(program)
        if result.status == INCONSISTENT:
            collected.append((program, result.proof))
        index += 1
    return collected


def test_golden_proof_is_accepted(ex1_program, fig1_text):
    proof = parse_proof(fig1_text)
    assert len(fig1_text.splitlines()) == 26
    start = time.perf_counter()
    result = check(ex1_program, proof)
    elapsed = time.perf_counter() - start
    assert result.ok
    assert result.render() == "Success"
    assert elapsed < 0.1


def test_golden_step_rup_derivation(ex1_program, fig1_text):
    # replay the proof through its first loop addition, then test the next step
    steps = parse_proof(fig1_text).steps[:14]
    assert steps[-1].lits == (1, 2)
    state = CheckerState(ex1_program)
    for step in steps:
        state.step(step)
    store = state.store.live()
    delta = frozenset({-6, 1})     # F {c}, T a
    assert is_rup(store, delta)
    run = reference_rup_run(store, delta)
    assert run.is_conflict
    # unit chain: F c, then F {c,d}, then the loop nogood becomes empty
    assert -3 in run.derived and -11 in run.derived
    assert run.derived.index(-3) < run.derived.index(-11)
    assert run.conflict == frozenset({1, -6, -11})


def test_solver_reports_and_certifies_inconsistency(ex1_program):
    start = time.perf_counter()
    result = solve(ex1_program)
    assert result.status == INCONSISTENT
    verdict = check(ex1_program, result.proof)
    elapsed = time.perf_counter() - start
    assert verdict.ok
    assert elapsed < 1.0


def test_differential_fuzzing_thousand_instances():
    assert differential_run(1000, max_atoms=6, max_rules=10, seed=0) == []


def test_mutated_proofs_are_rejected():
    instances = _inconsistent_instances(100, base_seed=10_000)
    loop_mutations = 0
    for program, proof in instances:
        assert check(program, proof).ok

        # dropping the final empty addition leaves the refutation unfinished
        truncated = Proof(proof.steps[:-1])
        result = check(program, truncated)
        assert not result.ok
        assert "empty nogood" in result.reason

        # replacing a loop step's atom set with a non-loop set fails there
        index = next(
            (i for i, s in enumerate(proof.steps, start=1) if s.kind == "l"), None
        )
        if index is None:
            continue
        graph = dependency_graph(program)
        atoms = range(1, program.atom_count + 1)
        candidates = itertools.chain(
            ((a,) for a in atoms), itertools.combinations(atoms, 2)
        )
        bad = next(
            (c for c in candidates if not is_loop(graph, frozenset(c))), None
        )
        if bad is None:
            continue
        mutated = list(proof.steps)
        mutated[index - 1] = mutated[index - 1].__class__("l", lits=tuple(bad))
        result = check(program, Proof(tuple(mutated)))
        assert not result.ok
        assert result.step == index
        loop_mutations += 1
    assert loop_mutations > 0


def test_store_entailment_at_every_prefix():
    collected = []
    index = 0
    while len(collected) < 50:
        assert index < 20_000, "small refuted programs are too rare"
        program = random_program(random.Random(50_000 + index), max_atoms=4, max_rules=6)
        catalog = body_catalog(program)
        if program.atom_count + len(catalog.order) <= 8:
            result = solve(program)
            if result.status == INCONSISTENT:
                collected.append((program, result.proof))
        index += 1
    for program, proof in collected:
        premises, _ = _completion_nogoods(program, with_loops=True)
        state = CheckerState(program)
        for step in proof:
            state.step(step)
            assert entails(premises, state.store.live())


def test_tight_completion_equivalence():
    rng = random.Random(77)
    for _ in range(200):
        program = random_tight_program(rng, max_atoms=6, max_rules=10)
        expected = set(enumerate_answer_sets(program))
        assert _completion_models(program) == expected


def _weight_rule_family():
    atoms = (2, 3, 4)
    for size in (1, 2, 3):
        for chosen in itertools.combinations(atoms, size):
            for signs in itertools.product((1, -1), repeat=size):
                literals = tuple(a * s for a, s in zip(chosen, signs))
                for weights in ({l: 1 for l in literals}, {l: 2 - i % 2 for i, l in enumerate(literals)}):
                    total = sum(weights.values())
                    for bound in range(total + 2):
                        yield weight_rule(1, bound, weights)


def _seeded_weight_rules(count, literal_count):
    rng = random.Random(88)
    for _ in range(count):
        atoms = rng.sample(range(2, 8), literal_count)
        literals = [a * rng.choice((1, -1)) for a in atoms]
        weights = {l: rng.randint(1, 3) for l in literals}
        yield weight_rule(1, rng.randint(0, sum(weights.values()) + 1), weights)


def _assert_propagator_matches_expansion(rule):
    variables = sorted({1} | {abs(l) for l, _ in rule.weights})
    names = tuple(f"x{i}" for i in range(1, max(variables) + 1))
    program = Program(atom_names=names, rules=(rule,))
    catalog = body_catalog(program)
    registry = BodyRegistry(program.atom_count)
    for body in catalog.order:
        registry.intern(body)
    # the rule's own expansion: body definitions plus the head's two families
    nogoods = []
    for body_id, body in registry.public_items():
        nogoods.extend(body_definition(body_id, body))
    nogoods.extend(
        n for atom, _, n in forward_family(program, catalog, registry) if atom == 1
    )
    nogoods.extend(backward_family(program, catalog, registry))
    propagator = WeightRulePropagator(rule)
    for states in itertools.product((1, -1, 0), repeat=len(variables)):
        assumed = tuple(v * s for v, s in zip(variables, states) if s)
        expanded = unit_propagate(nogoods, assumptions=assumed)
        direct = unit_propagate([], assumptions=assumed, propagators=(propagator,))
        assert expanded.is_conflict == direct.is_conflict
        if not expanded.is_conflict:
            atom_view = {l for l in expanded.assignment if abs(l) <= len(names)}
            assert atom_view == direct.assignment


def test_weight_propagator_equivalence():
    for rule in _weight_rule_family():
        _assert_propagator_matches_expansion(rule)
    for rule in _seeded_weight_rules(10, 6):
        _assert_propagator_matches_expansion(rule)


def _chain_program(length):
    lines = ["x1."]
    lines.extend(f"x{i} :- x{i - 1}." for i in range(2, length + 1))
    lines.append(f":- x{length}.")
    return parse_program("\n".join(lines))


def test_checker_time_scales_polynomially():
    sizes = [100, 200, 400, 800, 1600]
    lengths = []
    timings = []
    for size in sizes:
        program = _chain_program(size)
        result = solve(program)
        assert result.status == INCONSISTENT
        lengths.append(len(result.proof.steps))
        best = min(
            _timed_check(program, result.proof) for _ in range(3)
        )
        timings.append(best)
    for shorter, longer in zip(lengths, lengths[1:]):
        assert 1.7 <= longer / shorter <= 2.3
    floor = 0.005
    for faster, slower in zip(timings, timings[1:]):
        assert max(slower, floor) / max(faster, floor) <= 4.5


def test_checker_time_scales_linearly():
    # linear growth doubles the time per doubling, quadratic growth quadruples it
    instances = []
    for size in (1600, 3200, 6400):
        program = _chain_program(size)
        result = solve(program)
        assert result.status == INCONSISTENT
        instances.append((program, result.proof))
    # Best of five, timed in rounds over the sizes, so that a slow or fast
    # spell of the machine falls on every size rather than on one.
    samples = [[] for _ in instances]
    for _ in range(5):
        for times, (program, proof) in zip(samples, instances):
            times.append(_timed_check(program, proof))
    timings = [min(times) for times in samples]
    floor = 0.005
    for faster, slower in zip(timings, timings[1:]):
        assert max(slower, floor) / max(faster, floor) <= 3.0


def _timed_check(program, proof):
    # Collect first and keep the collector off while timing, so that garbage
    # left by earlier work is not collected inside one size's measurement.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        assert check(program, proof).ok
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_proof_serialization_roundtrip():
    instances = _inconsistent_instances(1000, base_seed=1_000_000)
    for _, proof in instances:
        assert parse_proof(serialize_proof(proof)) == proof
