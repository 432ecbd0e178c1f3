"""Brute-force semantics: answer sets and nogood entailment."""

import random

import pytest

from aspcert.core import Program, RuleKind, basic_rule
from aspcert.fuzz import random_program, random_rich_program
from aspcert.oracle import (
    ATOM_GUARD,
    OracleError,
    enumerate_answer_sets,
    is_answer_set,
)
from aspcert.program_io import parse_program
from reference import (
    atom_id, entails, reference_minimal_weight_sets, with_complement_atoms,
    with_disjunctions_and_a_wide_weight_rule,
)


def test_running_example_has_no_answer_sets(ex1_program):
    assert enumerate_answer_sets(ex1_program) == []


def test_empty_program_has_the_empty_answer_set():
    assert enumerate_answer_sets(parse_program("")) == [frozenset()]


def test_even_loop_has_two_answer_sets():
    program = parse_program("c :- not d.\nd :- not c.\n")
    assert set(enumerate_answer_sets(program)) == {
        frozenset({1}),
        frozenset({2}),
    }


def test_facts_and_chaining():
    program = parse_program("a.\nb :- a.\nc :- b, not d.\n")
    assert enumerate_answer_sets(program) == [frozenset({1, 2, 3})]


def test_positive_loops_are_not_self_supporting():
    program = parse_program("a :- b.\nb :- a.\n")
    assert enumerate_answer_sets(program) == [frozenset()]


def test_choice_rule_branches():
    """A choice rule read by its reduct gives the answer sets of its
    complement-atom translation. On disjunctive rich draws with a wide weight
    rule, every set of the draw's atoms is an answer set both ways or
    neither, alone and with one of the weight rule's 15 atoms, which head no
    rule; many draws with a choice rule have answer sets."""
    program = parse_program("{a}.\n")
    assert set(enumerate_answer_sets(program)) == {frozenset(), frozenset({1})}
    rng = random.Random(17)
    found = 0
    for _ in range(100):
        drawn = random_rich_program(rng, max_atoms=4, max_rules=8)
        program = with_disjunctions_and_a_wide_weight_rule(rng, drawn)
        translated, pairs = with_complement_atoms(program)
        wide = range(drawn.atom_count + 1, program.atom_count + 1)
        for mask in range(1 << drawn.atom_count):
            model = frozenset(a for a in drawn.atom_ids() if mask >> (a - 1) & 1)
            for candidate in (model, model | {rng.choice(wide)}):
                extended = candidate | {comp for atom, comp in pairs if atom not in candidate}
                stable = is_answer_set(program, candidate)
                assert stable == is_answer_set(translated, extended)
                found += stable and bool(pairs)
    assert found > 50


def test_choice_with_weight_rule():
    program = parse_program("{b}.\na :- 1 <= {b=1}.\n")
    assert set(enumerate_answer_sets(program)) == {
        frozenset(),
        frozenset({1, 2}),
    }


def test_disjunction_is_minimal():
    program = parse_program("a | b.\n")
    assert set(enumerate_answer_sets(program)) == {
        frozenset({1}),
        frozenset({2}),
    }


def test_disjunction_with_closure_keeps_both():
    program = parse_program("a | b.\na :- b.\nb :- a.\n")
    assert enumerate_answer_sets(program) == [frozenset({1, 2})]


@pytest.mark.parametrize(
    "text, models",
    [
        ("{a}.\n{b}.\n:- a, not b.\n", [set(), {2}, {1, 2}]),
        ("a :- not b.\nb :- not a.\n:- a.\n", [{2}]),
        ("a.\n:- a.\n", []),
        ("a | b.\n:- a.\n", [{2}]),
        ("a | b.\nc :- a.\n:- not c.\n", [{1, 3}]),
        ("a | b.\na :- b.\nb :- a.\n:- a.\n", []),
    ],
)
def test_constraints_remove_the_candidates_that_satisfy_their_body(text, models):
    """A constraint is no rule of the reduct: it only removes candidates, in
    normal and in disjunctive programs."""
    program = parse_program(text)
    assert sorted(map(sorted, enumerate_answer_sets(program))) == sorted(map(sorted, models))


def test_constraints_agree_with_self_blocking_atoms():
    """Each constraint `:- B.` acts as `x :- B, not x.` over an atom x of its
    own, projected away, in random normal and disjunctive programs; in some
    of either kind the constraints remove answer sets."""
    rng = random.Random(7)
    removed = {False: 0, True: 0}
    for index in range(300):
        atoms = rng.randint(1, 5)
        rules = []
        for _ in range(rng.randint(1, 7)):
            body = rng.sample(range(1, atoms + 1), rng.randint(0, min(2, atoms)))
            neg = {a for a in body if rng.random() < 0.4}
            heads = rng.randint(1, min(2, atoms))
            head = () if rng.random() < 0.3 else rng.sample(range(1, atoms + 1), heads)
            if head or body:
                rules.append(basic_rule(head, set(body) - neg, neg))
        names = tuple(f"x{i}" for i in range(1, atoms + 1))
        program = Program(names, tuple(rules))
        blocked, extra = [], list(names)
        for rule in rules:
            if not rule.head:
                extra.append(f"bot{len(extra)}")
                rule = basic_rule((len(extra),), rule.pos_body, rule.neg_body | {len(extra)})
            blocked.append(rule)
        expected = enumerate_answer_sets(Program(tuple(extra), tuple(blocked)))
        assert enumerate_answer_sets(program) == expected, index
        unconstrained = Program(names, tuple(rule for rule in rules if rule.head))
        if len(expected) < len(enumerate_answer_sets(unconstrained)):
            removed[any(rule.is_disjunctive for rule in rules)] += 1
    assert removed[False] > 10 and removed[True] > 10


def test_enumeration_cap():
    program = parse_program("{a}.\n{b}.\n")
    assert len(enumerate_answer_sets(program, cap=3)) == 3
    assert len(enumerate_answer_sets(program)) == 4


def test_is_answer_set_examples(ex1_program):
    assert is_answer_set(parse_program("a.\n"), frozenset({1}))
    assert not is_answer_set(parse_program("a.\n"), frozenset())
    for mask in range(1 << ex1_program.atom_count):
        candidate = frozenset(
            a for a in range(1, ex1_program.atom_count + 1) if mask >> (a - 1) & 1
        )
        assert not is_answer_set(ex1_program, candidate)


def test_is_answer_set_rejects_foreign_atoms():
    with pytest.raises(ValueError):
        is_answer_set(parse_program("a.\n"), frozenset({9}))


def test_oracle_answers_a_rule_with_6435_minimal_bodies(wide_weight_rule):
    """The oracle reads the rule by its reduct, not by its minimal bodies, so
    enumeration answers at once: with b0, ..., b6 true, a is derived, and the
    other eight b atoms stay false."""
    program = parse_program(wide_weight_rule + "".join(f"b{i}.\n" for i in range(7)))
    facts = frozenset(atom_id(program, f"b{i}") for i in range(7))
    assert enumerate_answer_sets(program) == [facts | {atom_id(program, "a")}]
    assert is_answer_set(program, facts | {atom_id(program, "a")})
    assert not is_answer_set(program, facts)


def test_weight_rules_by_their_reduct():
    """A negative literal lowers the bound when its atom is false, and a
    weight rule on a positive cycle supports nothing by itself."""
    program = parse_program("{c}.\na :- 2 <= {b=1, not c=1}.\nb :- a.\n")
    assert enumerate_answer_sets(program) == [frozenset(), frozenset({atom_id(program, "c")})]
    program = parse_program("{c}.\na :- 2 <= {b=1, not c=2}.\nb :- a.\n")
    a, b, c = (atom_id(program, x) for x in "abc")
    assert set(enumerate_answer_sets(program)) == {frozenset({a, b}), frozenset({c})}
    program = parse_program("a | d.\na :- 1 <= {b=1}.\nb :- 1 <= {a=2}.\n")
    assert set(enumerate_answer_sets(program)) == {
        frozenset({atom_id(program, "a"), atom_id(program, "b")}), frozenset({atom_id(program, "d")})}


def test_weight_reduct_matches_the_minimal_body_expansion():
    """On rich draws, recursive weight rules included, reading weight rules by
    their reduct gives the answer sets of the program with each weight rule
    expanded into one normal rule per subset-minimal body."""
    rng = random.Random(31)
    weighted = 0
    for _ in range(300):
        program = random_rich_program(rng, max_atoms=6, max_rules=12)
        rules = []
        for rule in program.rules:
            if rule.kind is not RuleKind.WEIGHT:
                rules.append(rule)
                continue
            weighted += 1
            for body in reference_minimal_weight_sets(dict(rule.weights), rule.bound):
                rules.append(basic_rule(rule.head, [l for l in body if l > 0], [-l for l in body if l < 0]))
        expanded = Program(program.atom_names, tuple(rules))
        assert set(enumerate_answer_sets(program)) == set(enumerate_answer_sets(expanded))
    assert weighted > 100


def test_atom_guard():
    names = " ".join(f"x{i}" for i in range(1, ATOM_GUARD + 2))
    program = parse_program(f"#atoms {names}.\n")
    with pytest.raises(OracleError):
        enumerate_answer_sets(program)


def test_entails_membership_and_weakening():
    assert entails([frozenset({1})], [frozenset({1})])
    assert entails([frozenset({1})], [frozenset({1, 2})])
    assert not entails([], [frozenset({1})])


def test_entails_resolution():
    premises = [frozenset({1, 2}), frozenset({1, -2})]
    assert entails(premises, [frozenset({1})])
    assert not entails(premises, [frozenset({-1})])


def test_entails_vacuous_under_unsat_premises():
    assert entails([frozenset({1}), frozenset({-1})], [frozenset({2})])


def test_entails_empty_conclusions():
    assert entails([frozenset({1})], [])


def test_entails_variable_guard():
    premises = [frozenset({i}) for i in range(1, ATOM_GUARD + 2)]
    with pytest.raises(OracleError):
        entails(premises, [frozenset({1})])


def test_answer_sets_are_self_consistent():
    rng = random.Random(23)
    for _ in range(60):
        program = random_program(rng)
        for model in enumerate_answer_sets(program):
            assert is_answer_set(program, model)
