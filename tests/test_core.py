"""Core value types: literal consistency, rules, programs."""

import pytest

from aspcert.core import (
    Program,
    RuleKind,
    basic_rule,
    choice_rule,
    is_consistent,
    weight_rule,
)


def test_is_consistent():
    assert is_consistent([1, 2, -3])
    assert not is_consistent([2, -2])


def test_basic_rule_construction():
    rule = basic_rule((1,), pos=(2,), neg=(3,))
    assert rule.kind is RuleKind.BASIC
    assert rule.head == (1,)
    assert rule.pos_body == frozenset({2})
    assert rule.neg_body == frozenset({3})
    assert not rule.is_disjunctive
    assert rule.body_literals() == frozenset({2, -3})


def test_disjunctive_flag():
    assert basic_rule((1, 2)).is_disjunctive
    assert not choice_rule((1, 2)).is_disjunctive


def test_integrity_constraint_is_a_basic_rule_without_head():
    rule = basic_rule((), pos=(1,), neg=(2,))
    assert rule.head == () and not rule.is_disjunctive
    assert rule.body_literals() == frozenset({1, -2})
    with pytest.raises(ValueError, match="only a basic rule"):
        choice_rule((), pos=(1,))


def test_rule_rejects_empty_or_contradictory_parts():
    with pytest.raises(ValueError, match="needs a body"):
        basic_rule(())
    with pytest.raises(ValueError):
        basic_rule((1, 1))
    with pytest.raises(ValueError):
        basic_rule((1,), pos=(2,), neg=(2,))


def test_weight_rule_construction():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    assert rule.kind is RuleKind.WEIGHT
    assert rule.bound == 2
    assert rule.weight_of(-4) == 2
    assert dict(rule.weights) == {2: 1, 3: 1, -4: 2}


def test_weight_rule_rejects_bad_weights():
    with pytest.raises(ValueError):
        weight_rule(1, 2, {2: 0})
    with pytest.raises(ValueError):
        weight_rule(1, 2, {2: 1, -2: 1})
    with pytest.raises(ValueError):
        weight_rule(1, -1, {2: 1})


def test_program_atom_table():
    program = Program(("p", "q"), (basic_rule((1,), pos=(2,)),))
    assert program.atom_count == 2
    assert list(program.atom_ids()) == [1, 2]
    assert program.atom("q") == 2
    assert program.name(1) == "p"


def test_program_rejects_out_of_range_rule_atoms():
    """The message names the first unknown id in rule order."""
    for rules, unknown in (
        ((basic_rule((2,)),), 2),
        ((basic_rule((1,)), basic_rule((1,), pos=(3,)), basic_rule((4,))), 3),
        ((basic_rule((1,), neg=(0,)),), 0),
    ):
        with pytest.raises(ValueError, match=rf"^rule uses unknown atom id {unknown}$"):
            Program(("p",), rules)


def test_program_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Program(("p", "p"), ())
