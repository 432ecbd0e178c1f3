"""Brute-force semantics: answer sets and nogood entailment."""

import random

import pytest

from aspcert.fuzz import random_program
from aspcert.oracle import (
    ATOM_GUARD,
    OracleError,
    enumerate_answer_sets,
    is_answer_set,
)
from aspcert.program_io import parse_program
from reference import entails


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
    program = parse_program("{a}.\n")
    assert set(enumerate_answer_sets(program)) == {frozenset(), frozenset({1})}


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
