"""Random program generation and differential checking."""

import random

from aspcert import fuzz
from aspcert.checker import CheckResult
from aspcert.core import Program, RuleKind
from aspcert.oracle import is_answer_set
from aspcert.proof import Proof
from aspcert.solver import CONSISTENT, INCONSISTENT, SolveResult
from aspcert.fuzz import (
    differential_run,
    random_program,
    random_rich_program,
)
from aspcert.loops import cyclic_atoms, dependency_graph
from aspcert.program_io import emit_program, parse_program
from reference import has_loops, random_tight_program


def test_random_program_is_seed_deterministic():
    first = [emit_program(random_program(random.Random(5))) for _ in range(20)]
    second = [emit_program(random_program(random.Random(5))) for _ in range(20)]
    assert first == second


def test_random_program_respects_bounds():
    rng = random.Random(1)
    for _ in range(200):
        program = random_program(rng, max_atoms=6, max_rules=10)
        assert 1 <= program.atom_count <= 6
        assert 1 <= len(program.rules) <= 10
        for rule in program.rules:
            assert rule.kind is RuleKind.BASIC
            assert len(rule.head) == 1
            assert len(rule.pos_body) + len(rule.neg_body) <= 3
            assert not rule.pos_body & rule.neg_body


def test_random_tight_program_has_no_loops():
    rng = random.Random(2)
    for _ in range(100):
        assert not has_loops(random_tight_program(rng))


def test_random_rich_program_draws_every_construct():
    """Every construct is drawn, and weight rules whose head lies on a
    positive cycle are drawn too."""
    rng = random.Random(8)
    kinds = set()
    several_constraints = 0
    cyclic_weight_heads = 0
    for _ in range(200):
        program = random_rich_program(rng)
        cyclic = cyclic_atoms(dependency_graph(program))
        # Constraints add no atoms: every atom is one of the letters drawn.
        assert program.atom_names == tuple("abcdef"[: program.atom_count])
        several_constraints += sum(not rule.head for rule in program.rules) >= 2
        for rule in program.rules:
            if rule.kind is RuleKind.WEIGHT:
                cyclic_weight_heads += rule.head[0] in cyclic
                assert 0 <= rule.bound <= sum(w for _, w in rule.weights) + 1
                kinds.add("weight")
            elif rule.kind is RuleKind.CHOICE:
                kinds.add("choice")
            elif not rule.head:
                assert 1 <= len(rule.body) <= 3
                kinds.add("constraint")
            else:
                kinds.add("basic")
        assert parse_program(emit_program(program)) == program
    assert kinds == {"basic", "choice", "weight", "constraint"}
    assert several_constraints > 0
    assert cyclic_weight_heads > 0


def test_differential_run_covers_choice_weight_and_constraints():
    assert differential_run(300, seed=9) == []


def test_differential_run_is_clean_and_deterministic():
    assert differential_run(60, seed=4) == []
    assert differential_run(60, seed=4) == differential_run(60, seed=4)


def test_differential_run_reports_nothing_on_zero_instances():
    assert differential_run(0) == []


def test_differential_run_reports_a_program_the_parser_does_not_give_back(monkeypatch):
    monkeypatch.setattr(fuzz, "parse_program", lambda text: Program((), ()))
    found = differential_run(5, seed=3)
    assert [d.index for d in found] == list(range(5))
    assert {d.detail for d in found} == {"emitted text parses to another program"}

    monkeypatch.undo()
    monkeypatch.setattr(fuzz, "emit_program", lambda program: "a :- .\n")
    found = differential_run(2, seed=3)
    assert [(d.program_text, d.detail) for d in found] == [
        ("a :- .\n", "emitted text does not parse: line 1: rule body is empty")
    ] * 2


def test_differential_run_checks_each_refutation_preloaded_too(monkeypatch):
    """Each refutation is checked as written and then, with its c and s lines
    removed, against the preloaded completion; a rejection in either mode is
    a discrepancy that names the mode."""
    calls = []

    def spy(program, proof, preloaded=False):
        calls.append((preloaded, {step.kind for step in proof}))
        return CheckResult(not preloaded, 1, "forced")

    monkeypatch.setattr(fuzz, "check", spy)
    found = differential_run(40, seed=9)
    assert found and len(calls) == 2 * len(found)
    assert [preloaded for preloaded, _ in calls] == [False, True] * len(found)
    assert not any(kinds & set("bcs") for preloaded, kinds in calls if preloaded)
    assert any(kinds & set("cs") for preloaded, kinds in calls if not preloaded)
    assert {d.detail for d in found} == {
        "proof rejected with the completion preloaded: Error at step 1: forced"
    }


def _solve_spy(monkeypatch, fake):
    """Replace the fuzzer's solve with fake(program, real result); returns the
    list of (program, real result) per call, in draw order."""
    real_solve, calls = fuzz.solve, []

    def spy(program, **kwargs):
        result = real_solve(program, **kwargs)
        calls.append((program, result))
        return fake(program, result)

    monkeypatch.setattr(fuzz, "solve", spy)
    return calls


def test_differential_run_reports_a_verdict_the_oracle_contradicts(monkeypatch):
    """Every draw whose verdict is flipped is reported, in both directions."""
    def flipped(program, result):
        if result.status == CONSISTENT:
            return SolveResult(INCONSISTENT, proof=Proof(()))
        return SolveResult(CONSISTENT, answer_set=frozenset())

    calls = _solve_spy(monkeypatch, flipped)
    found = differential_run(40, seed=9)
    assert [d.index for d in found] == list(range(40)) and len(calls) == 40
    other = {CONSISTENT: INCONSISTENT, INCONSISTENT: CONSISTENT}
    assert [d.detail for d in found] == [
        f"solver said {other[result.status]}, oracle says {result.status}" for _, result in calls
    ]
    assert {result.status for _, result in calls} == {CONSISTENT, INCONSISTENT}


def test_differential_run_reports_a_rejected_proof(monkeypatch):
    """A refutation the checker rejects as written is reported at its draw."""
    calls = _solve_spy(monkeypatch, lambda program, result: result)
    monkeypatch.setattr(
        fuzz, "check", lambda program, proof, preloaded=False: CheckResult(preloaded, 1, "forced"))
    found = differential_run(40, seed=9)
    refuted = [index for index, (_, result) in enumerate(calls) if result.status == INCONSISTENT]
    assert refuted and [d.index for d in found] == refuted
    assert {d.detail for d in found} == {"proof rejected: Error at step 1: forced"}


def test_differential_run_reports_an_unstable_answer_set(monkeypatch):
    """An answer set swapped for its complement is reported, with the
    complement's atom names, wherever the complement is not stable."""
    def complement(program, result):
        if result.status == INCONSISTENT:
            return result
        return SolveResult(CONSISTENT, frozenset(program.atom_ids()) - result.answer_set)

    calls = _solve_spy(monkeypatch, complement)
    found = differential_run(40, seed=9)
    expected = []
    for index, (program, result) in enumerate(calls):
        fake = complement(program, result)
        if fake.status == CONSISTENT and not is_answer_set(program, fake.answer_set):
            names = ", ".join(sorted(program.name(a) for a in fake.answer_set))
            expected.append((index, f"unstable answer set {{{names}}}"))
    assert expected and [(d.index, d.detail) for d in found] == expected
