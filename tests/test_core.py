"""Core value types: literal consistency, rules, programs."""

import copy
import pickle

import pytest

from aspcert.core import (
    Program,
    Rule,
    RuleKind,
    basic_rule,
    choice_rule,
    is_consistent,
    weight_rule,
)
from aspcert.program_io import parse_program

# One rule of each kind, over the atoms a=1 .. e=5, and its text.
RULES_AND_TEXT = [
    (basic_rule((1,), pos=(2,), neg=(3,)), "a :- b, not c."),
    (basic_rule((1,)), "a."),
    (basic_rule((1, 2), pos=(4,), neg=(5,)), "a | b :- d, not e."),
    (basic_rule((), pos=(1,), neg=(2,)), ":- a, not b."),
    (choice_rule((1, 2), neg=(3,)), "{a; b} :- not c."),
    (weight_rule(1, 2, {2: 1, 3: 1, -4: 2}), "a :- 2 <= { b=1, c=1, not d=2 }."),
]


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
    assert rule.body == frozenset({2, -3})


def test_disjunctive_flag():
    assert basic_rule((1, 2)).is_disjunctive
    assert not choice_rule((1, 2)).is_disjunctive


def test_integrity_constraint_is_a_basic_rule_without_head():
    rule = basic_rule((), pos=(1,), neg=(2,))
    assert rule.head == () and not rule.is_disjunctive
    assert rule.body == frozenset({1, -2})
    with pytest.raises(ValueError, match="only a basic rule"):
        choice_rule((), pos=(1,))


def test_rule_rejects_empty_or_contradictory_parts():
    with pytest.raises(ValueError, match="^a rule with an empty head needs a body$"):
        basic_rule(())
    with pytest.raises(ValueError, match="^duplicate head atom$"):
        basic_rule((1, 1))
    with pytest.raises(ValueError, match="^duplicate head atom$"):
        choice_rule((2, 1, 2))
    with pytest.raises(ValueError, match="^head atoms are positive ids$"):
        basic_rule((1, 0))
    with pytest.raises(ValueError, match="^atom occurs positively and negatively in one body$"):
        basic_rule((1,), pos=(2,), neg=(2,))
    with pytest.raises(ValueError, match="^only weight rules carry weights and a bound$"):
        Rule(RuleKind.BASIC, (1,), bound=1)
    with pytest.raises(ValueError, match="^only weight rules carry weights and a bound$"):
        Rule(RuleKind.CHOICE, (1,), weights=((2, 1),))


def test_weight_rule_construction():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    assert rule.kind is RuleKind.WEIGHT
    assert rule.bound == 2
    assert dict(rule.weights) == {2: 1, 3: 1, -4: 2}


def test_weight_rule_rejects_bad_weights():
    with pytest.raises(ValueError, match="^weights are positive$"):
        weight_rule(1, 2, {2: 0})
    with pytest.raises(ValueError, match="^weight literals must be distinct and consistent$"):
        weight_rule(1, 2, {2: 1, -2: 1})
    with pytest.raises(ValueError, match="^weight literals must be distinct and consistent$"):
        Rule(RuleKind.WEIGHT, (1,), frozenset({2}), bound=1, weights=((2, 1), (2, 1)))
    with pytest.raises(ValueError, match="^weight bound is non-negative$"):
        weight_rule(1, -1, {2: 1})
    with pytest.raises(ValueError, match="^weight rule has exactly one head atom$"):
        Rule(RuleKind.WEIGHT, (1, 2), frozenset({3}), bound=1, weights=((3, 1),))


@pytest.mark.parametrize("rule, text", RULES_AND_TEXT, ids=[text for _, text in RULES_AND_TEXT])
def test_rule_survives_copy_and_pickle(rule, text):
    copies = [copy.copy(rule), copy.deepcopy(rule)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(rule, protocol)))
    for other in copies:
        assert type(other) is Rule
        assert other == rule and hash(other) == hash(rule)
        assert other.body == rule.body and other.is_disjunctive == rule.is_disjunctive


@pytest.mark.parametrize("rule, text", RULES_AND_TEXT, ids=[text for _, text in RULES_AND_TEXT])
def test_parsed_rule_equals_the_built_one(rule, text):
    parsed = parse_program("#atoms a b c d e.\n" + text).rules[0]
    assert parsed == rule and hash(parsed) == hash(rule)


def test_rule_keyword_constructor_and_fields():
    rule = Rule(kind=RuleKind.BASIC, head=(1,), pos_body=frozenset({2}), neg_body=frozenset({3}))
    assert rule == basic_rule((1,), pos=(2,), neg=(3,))
    assert (rule.bound, rule.weights) == (0, ())
    assert rule.body == frozenset({2, -3})
    weight = Rule(
        kind=RuleKind.WEIGHT, head=(1,), pos_body=frozenset({2}), neg_body=frozenset({4}),
        bound=2, weights=((2, 1), (-4, 2)),
    )
    assert weight.body == frozenset({2, -4}) and not weight.is_disjunctive


def test_rule_is_immutable():
    rule = basic_rule((1,), pos=(2,))
    for name in ("kind", "head", "pos_body", "body", "is_disjunctive"):
        with pytest.raises(AttributeError):
            setattr(rule, name, None)
    with pytest.raises(AttributeError):
        rule.extra = 1
    assert rule == basic_rule((1,), pos=(2,))


def test_program_atom_table():
    program = Program(("p", "q"), (basic_rule((1,), pos=(2,)),))
    assert program.atom_count == 2
    assert list(program.atom_ids()) == [1, 2]
    assert (program.name(1), program.name(2)) == ("p", "q")


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
