"""Random program generation and differential checking."""

import random

from aspcert.core import RuleKind
from aspcert.fuzz import (
    differential_run,
    random_program,
    random_rich_program,
    random_tight_program,
)
from aspcert.loops import cyclic_atoms, dependency_graph, has_loops
from aspcert.program_io import emit_program, parse_program


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
    rng = random.Random(8)
    kinds = set()
    several_constraints = 0
    for _ in range(200):
        program = random_rich_program(rng)
        cyclic = cyclic_atoms(dependency_graph(program))
        bots = [name for name in program.atom_names if name.startswith("__bot")]
        # The k-th constraint's atom __botk, after every other atom.
        assert program.atom_names[program.atom_count - len(bots):] == tuple(
            f"__bot{k}" for k in range(1, len(bots) + 1)
        )
        several_constraints += len(bots) >= 2
        for rule in program.rules:
            if rule.kind is RuleKind.WEIGHT:
                assert rule.head[0] not in cyclic
                assert 0 <= rule.bound <= sum(w for _, w in rule.weights) + 1
                kinds.add("weight")
            elif rule.kind is RuleKind.CHOICE:
                kinds.add("choice")
            elif program.name(rule.head[0]).startswith("__bot"):
                assert rule.head[0] in rule.neg_body
                assert [r.head for r in program.rules].count(rule.head) == 1
                kinds.add("constraint")
            else:
                kinds.add("basic")
        assert parse_program(emit_program(program)) == program
    assert kinds == {"basic", "choice", "weight", "constraint"}
    assert several_constraints > 0


def test_differential_run_covers_choice_weight_and_constraints():
    assert differential_run(300, seed=9) == []


def test_differential_run_is_clean_and_deterministic():
    assert differential_run(60, seed=4) == []
    assert differential_run(60, seed=4) == differential_run(60, seed=4)


def test_differential_run_reports_nothing_on_zero_instances():
    assert differential_run(0) == []
