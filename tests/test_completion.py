"""Induced bodies, completion nogood families, and normalization."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcert.cli import normalize_short_body
from aspcert.completion import (
    DEFAULT_BODY_BUDGET,
    INTERNAL_ID_BASE,
    BodyRegistry,
    BudgetError,
    body_catalog,
    body_definition,
    induced_bodies_of_rule,
    minimal_weight_sets,
)
from aspcert.core import basic_rule, choice_rule, is_consistent, weight_rule
from aspcert.fuzz import random_program, random_rich_program
from aspcert.loops import loop_nogood
from aspcert.oracle import enumerate_answer_sets
from aspcert.program_io import emit_program, parse_program
from reference import (
    backward_family, declared_registry, forward_family, public_items,
    reference_minimal_weight_sets, with_disjunctions_and_a_deferred_rule,
)


def test_induced_bodies_basic_rule():
    rule = basic_rule((1,), pos=(2, 4))
    assert induced_bodies_of_rule(rule, 1) == [frozenset({2, 4})]


def test_induced_bodies_disjunctive_shifts_other_heads():
    rule = basic_rule((1, 2), pos=(3,))
    assert induced_bodies_of_rule(rule, 1) == [frozenset({3, -2})]
    assert induced_bodies_of_rule(rule, 2) == [frozenset({3, -1})]


def test_induced_bodies_disjunctive_drops_contradictory_shifts():
    # a | b :- b. would shift to a :- b, not b, which never holds.
    rule = basic_rule((1, 2), pos=(2,))
    assert induced_bodies_of_rule(rule, 1) == []
    assert induced_bodies_of_rule(rule, 2) == [frozenset({2, -1})]


def test_induced_bodies_weight_rule():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    got = set(induced_bodies_of_rule(rule, 1))
    assert got == {frozenset({2, 3}), frozenset({-4})}


def test_induced_bodies_choice_rule():
    rule = choice_rule((1, 2), pos=(3,), neg=(4,))
    assert induced_bodies_of_rule(rule, 1) == [frozenset({3, -4})]


def test_induced_bodies_rejects_non_head_atom():
    with pytest.raises(ValueError):
        induced_bodies_of_rule(basic_rule((1,)), 2)


def _brute_minimal(weights, bound):
    lits = list(weights)
    reaching = [
        frozenset(combo)
        for r in range(len(lits) + 1)
        for combo in combinations(lits, r)
        if sum(weights[l] for l in combo) >= bound
    ]
    return {s for s in reaching if not any(t < s for t in reaching)}


weight_maps = st.dictionaries(
    st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0),
    st.integers(min_value=1, max_value=5),
    min_size=0,
    max_size=6,
).filter(lambda d: not any(-k in d for k in d))


@settings(max_examples=300, deadline=None)
@given(weight_maps, st.integers(min_value=0, max_value=20))
def test_minimal_weight_sets_match_brute_force(weights, bound):
    got = minimal_weight_sets(weights, bound)
    assert set(got) == _brute_minimal(weights, bound)
    assert len(set(got)) == len(got)


def _weight_sets_or_refusal(enumerate_sets, weights, bound, budget):
    try:
        return enumerate_sets(weights, bound, budget)
    except BudgetError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    weight_maps,
    st.integers(min_value=-2, max_value=32),
    st.sampled_from([None, 0, 1, 3, 20]),
)
def test_minimal_weight_sets_match_the_recursive_reference(weights, bound, budget):
    """The same sets in the same order, which numbers a weight rule's bodies,
    and the same refusal past the budget."""
    assert _weight_sets_or_refusal(minimal_weight_sets, weights, bound, budget) == (
        _weight_sets_or_refusal(reference_minimal_weight_sets, weights, bound, budget)
    )


def test_minimal_weight_sets_budget():
    weights = {i: 1 for i in range(1, 13)}
    with pytest.raises(BudgetError):
        minimal_weight_sets(weights, 6, budget=10)


def test_body_definition_examples():
    assert body_definition(6, frozenset({3})) == (
        frozenset({-6, 3}),
        frozenset({6, -3}),
    )
    assert body_definition(9, frozenset()) == (frozenset({-9}),)
    assert body_definition(10, frozenset({2, 4})) == (
        frozenset({-10, 2, 4}),
        frozenset({10, -2}),
        frozenset({10, -4}),
    )


def test_forward_and_backward_nogood_shapes():
    # loop_nogood builds the support nogood too, from all of an atom's bodies.
    assert loop_nogood(1, (10, 6)) == frozenset({1, -10, -6})
    assert loop_nogood(3, ()) == frozenset({3})
    program = parse_program("a :- b.")
    catalog = body_catalog(program)
    assert catalog.ids == {frozenset({2}): 3}
    registry = declared_registry(program, catalog)
    assert backward_family(program, catalog, registry) == [frozenset({-1, 3})]


def test_catalog_on_example(ex1_program):
    catalog = body_catalog(ex1_program)
    assert catalog.bodies_of(1) == (frozenset({2, 4}), frozenset({3}))
    assert catalog.bodies_of(5) == (frozenset({3, -5}), frozenset({-1, -5}))
    # the eight rule bodies in first-use order, numbered from atom_count + 1
    assert list(catalog.ids.items()) == [
        (frozenset({2, 4}), 6),
        (frozenset({1, 4}), 7),
        (frozenset({3}), 8),
        (frozenset({3, 4}), 9),
        (frozenset({-4}), 10),
        (frozenset({-3}), 11),
        (frozenset({3, -5}), 12),
        (frozenset({-1, -5}), 13),
    ]


def test_families_on_example(ex1_program):
    catalog = body_catalog(ex1_program)
    registry = declared_registry(ex1_program, catalog)
    forwards = {atom: nogood for atom, _, nogood in forward_family(ex1_program, catalog, registry)}
    bid = registry.id_of
    assert forwards[1] == frozenset({1, -bid(frozenset({2, 4})), -bid(frozenset({3}))})
    assert forwards[5] == frozenset(
        {5, -bid(frozenset({3, -5})), -bid(frozenset({-1, -5}))}
    )
    backwards = set(backward_family(ex1_program, catalog, registry))
    assert frozenset({-3, bid(frozenset({-4}))}) in backwards
    assert frozenset({-1, bid(frozenset({2, 4}))}) in backwards
    assert len(backwards) == 8


def test_choice_rules_have_no_backward_but_do_support():
    program = parse_program("{a} :- c.")
    catalog = body_catalog(program)
    registry = declared_registry(program, catalog)
    assert list(catalog.firing) == []
    assert backward_family(program, catalog, registry) == []
    forwards = {atom: nogood for atom, _, nogood in forward_family(program, catalog, registry)}
    assert forwards[1] == frozenset({1, -registry.id_of(frozenset({2}))})


def test_catalog_orders_constraint_bodies_but_gives_them_to_no_atom():
    program = parse_program("#atoms a b c.\n:- a, b.\nc :- a.\n:- not c.\nc :- not c.\n:- a.\n")
    catalog = body_catalog(program)
    assert catalog.ids == {frozenset({1, 2}): 4, frozenset({1}): 5, frozenset({-3}): 6}
    assert catalog.constraints == {frozenset({1, 2}), frozenset({1}), frozenset({-3})}
    assert [catalog.bodies_of(atom) for atom in (1, 2, 3)] == [
        (), (), (frozenset({1}), frozenset({-3})),
    ]
    # the constraints contribute no firing pair
    assert list(catalog.firing) == [(3, frozenset({1})), (3, frozenset({-3}))]


def test_catalog_budget_deferral(over_budget_rule):
    program = parse_program(over_budget_rule)
    catalog = body_catalog(program)
    assert catalog.deferred == program.rules
    assert catalog.bodies_of(1) == ()
    assert catalog.ids == {} and list(catalog.firing) == []
    # one body fewer in the rule and its expansion fits the budget
    smaller = body_catalog(parse_program("a :- 7 <= {" + ", ".join(
        f"b{i}=1" for i in range(14)) + "}.\n"))
    assert not smaller.deferred and len(smaller.ids) == 3432 <= DEFAULT_BODY_BUDGET


def test_firing_matches_the_reference_rule_firing_family():
    """catalog.firing lists the pairs of backward_family, which is built from
    the rules, in its order, on rich draws with choice rules, constraints,
    disjunctive rules and a deferred weight rule; ids count up from
    atom_count + 1 and hold every body of ib and every constraint body, each
    consistent and over program atoms only (the checker's b step relies on
    that to skip both checks for a body it finds)."""
    rng = random.Random(61)
    kinds = set()
    for _ in range(150):
        program = with_disjunctions_and_a_deferred_rule(
            rng, random_rich_program(rng, max_atoms=6, max_rules=12))
        catalog = body_catalog(program)
        assert len(catalog.deferred) == 1
        assert list(catalog.ids.values()) == list(
            range(program.atom_count + 1, program.atom_count + 1 + len(catalog.ids)))
        induced = {body for bodies in catalog.ib.values() for body in bodies}
        assert set(catalog.ids) == induced | catalog.constraints
        for body in catalog.ids:
            assert is_consistent(body)
            assert all(1 <= abs(lit) <= program.atom_count for lit in body)
        registry = declared_registry(program, catalog)
        pairs = [(-min(nogood), registry.lits_of(max(nogood)))
                 for nogood in backward_family(program, catalog, registry)]
        assert list(catalog.firing) == pairs
        kinds.update(rule.kind.name for rule in program.rules if rule.head)
        kinds.update("constraint" for rule in program.rules if not rule.head)
        kinds.update("disjunctive" for rule in program.rules if rule.is_disjunctive)
    assert kinds == {"BASIC", "CHOICE", "WEIGHT", "constraint", "disjunctive"}


def test_registry_declare_and_intern():
    registry = BodyRegistry(5)
    registry.declare(6, frozenset({2, 4}))
    assert registry.id_of(frozenset({2, 4})) == 6
    assert registry.lits_of(6) == frozenset({2, 4})
    with pytest.raises(ValueError):
        registry.declare(6, frozenset({3}))          # id reuse
    with pytest.raises(ValueError):
        registry.declare(8, frozenset({2, 4}))       # set reuse
    with pytest.raises(ValueError):
        registry.declare(3, frozenset({1}))          # collides with atoms
    registry.declare(7, frozenset({-1}))
    # an id names one body or one extension variable, never both
    registry.extend(8)
    assert registry.knows(8) and registry.is_extension(8) and registry.lits_of(8) is None
    assert registry.knows(3) and not registry.is_extension(7) and not registry.knows(11)
    with pytest.raises(ValueError, match="already defined"):
        registry.declare(8, frozenset({3}))          # extension id as a body
    with pytest.raises(ValueError, match="already defined"):
        registry.extend(7)                            # body id as an extension
    with pytest.raises(ValueError, match="collides"):
        registry.extend(2)
    registry.declare(9, frozenset({3}))
    registry.declare(10, frozenset({-2}))
    # an internal id is the lowest free id from the base, skipping ids already taken
    registry.extend(INTERNAL_ID_BASE)
    registry.declare(registry.internal_id(), frozenset({1, 2}))
    registry.declare(registry.internal_id(), frozenset({1, 3}))
    assert registry.id_of(frozenset({1, 2})) == INTERNAL_ID_BASE + 1
    assert registry.id_of(frozenset({1, 3})) == INTERNAL_ID_BASE + 2
    assert registry.id_of(frozenset({3})) == 9
    assert [i for i, _ in public_items(registry)] == [6, 7, 9, 10]


def is_short_body_form(program):
    """Each atom has at most one body, or only bodies of at most one literal."""
    catalog = body_catalog(program)
    return all(
        len(bodies) <= 1 or all(len(b) <= 1 for b in bodies)
        for bodies in (catalog.bodies_of(a) for a in program.atom_ids())
    )


def test_normalize_short_body_example():
    program = parse_program("a :- b, d.\na :- c.")
    normalized = normalize_short_body(program)
    assert emit_program(normalized) == (
        "#atoms a b d c __aux1.\n"
        "__aux1 :- b, d.\n"
        "a :- __aux1.\n"
        "a :- c.\n"
    )
    assert is_short_body_form(normalized)


def test_normalize_passes_constraints_through():
    program = parse_program("a :- b, d.\na :- c.\n:- a, b.\n:- not c.\n")
    normalized = normalize_short_body(program)
    assert normalized.rules[-2:] == program.rules[-2:]
    assert emit_program(normalized).endswith(":- a, b.\n:- not c.\n")
    assert is_short_body_form(normalized)


def test_normalize_single_body_unchanged():
    program = parse_program("a :- b, not c.")
    assert normalize_short_body(program) == program
    assert is_short_body_form(program)


def test_normalize_rejects_non_normal():
    with pytest.raises(ValueError):
        normalize_short_body(parse_program("{a} :- b."))
    with pytest.raises(ValueError):
        normalize_short_body(parse_program("a | b."))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_normalize_preserves_answer_sets(seed):
    program = random_program(random.Random(seed))
    normalized = normalize_short_body(program)
    assert is_short_body_form(normalized)
    count = program.atom_count
    original = {frozenset(m) for m in enumerate_answer_sets(program)}
    projected = {
        frozenset(a for a in m if a <= count)
        for m in enumerate_answer_sets(normalized)
    }
    assert original == projected


@settings(max_examples=150, deadline=None)
@given(weight_maps, st.integers(min_value=0, max_value=12))
def test_weight_bodies_pairwise_non_subset(weights, bound):
    rule_sets = minimal_weight_sets(weights, bound)
    for left in rule_sets:
        for right in rule_sets:
            assert not left < right
