"""Acceptance suite: one test per shipped guarantee.

Each test pins the advertised behavior of the toolkit end to end; run with
pytest -v to get a per-guarantee pass/fail line.
"""

import ast
import gc
import itertools
import random
import time
from pathlib import Path

import aspcert
from aspcert.checker import CheckerState, check
from aspcert.completion import body_catalog, body_definition
from aspcert.fuzz import differential_run, random_program
from aspcert.loops import dependency_graph, is_loop
from aspcert.oracle import enumerate_answer_sets
from aspcert.program_io import parse_program
from aspcert.proof import Proof, parse_proof, serialize_proof
from aspcert.solver import INCONSISTENT, solve
from reference import (
    all_loop_nogoods, backward_family, declared_registry, entails, forward_family, is_rup,
    public_items, random_tight_program, reference_rup_run,
)


def _completion_nogoods(program, with_loops):
    catalog = body_catalog(program)
    registry = declared_registry(program, catalog)
    nogoods = []
    for body_id, body in public_items(registry):
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
        for body_id, body in public_items(registry):
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
    assert differential_run(1000, max_atoms=6, seed=0) == []


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
        if program.atom_count + len(catalog.ids) <= 8:
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


def test_checker_work_scales_linearly():
    """The counter twin of the wall-clock test above, free of machine noise:
    per doubling of the chain, the checker's watch visits, its assigned
    literals and its store slots each at most about double. The proofs are
    checked as written and, without their c and s lines, preloaded. As
    written, each c line names its body first, so every nogood is unit or
    satisfied when it is inserted and no run visits a watch list; preloaded,
    the final RUP test visits about one watch-list entry per nogood."""
    for preloaded in (False, True):
        counts = []
        for size in (1600, 3200, 6400):
            program = _chain_program(size)
            state = CheckerState(program, preloaded=preloaded)
            for step in solve(program).proof:
                if not preloaded or step.kind not in "cs":
                    state.step(step)
            assert state.result().ok
            counts.append((state.store.visits, state.store.assigned, len(state.store)))
        assert all(counts[0][1:]) and (counts[0][0] or not preloaded)
        for smaller, larger in zip(counts, counts[1:]):
            for small, large in zip(smaller, larger):
                assert large <= 2.1 * small


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


def test_readme_library_snippet_runs_as_written():
    """README's Library example runs against the package root, each line
    whose comment is a Python literal evaluates to it, and every name the
    example imports is exported in __all__."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    claims = 0
    for statement in ast.parse(snippet).body:
        code = ast.get_source_segment(snippet, statement)
        if isinstance(statement, ast.ImportFrom):
            assert statement.module == "aspcert"
            assert {alias.name for alias in statement.names} <= set(aspcert.__all__)
        comment = snippet.splitlines()[statement.lineno - 1].partition("#")[2].strip()
        try:
            claimed = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert isinstance(statement, ast.Expr), code
        assert eval(code, namespace) == claimed, code
        claims += 1
    assert claims == 2
