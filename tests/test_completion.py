"""Induced bodies, the weight-rule counter, completion nogood families, and
normalization."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspcert.completion as completion_module
from aspcert.completion import (
    INTERNAL_ID_BASE,
    BodyRegistry,
    BudgetError,
    body_catalog,
    body_definition,
    normalize_weights,
)
from aspcert.core import Program, basic_rule, choice_rule, is_consistent, weight_rule
from aspcert.fuzz import random_program, random_rich_program
from aspcert.loops import loop_nogood
from aspcert.oracle import enumerate_answer_sets
from aspcert.program_io import emit_program, parse_program
from reference import (
    atom_id, backward_family, declared_registry, forward_family, normalize_short_body,
    public_items, reference_minimal_weight_sets, with_disjunctions_and_a_wide_weight_rule,
)


def _induced(rule, atom):
    """The catalog's bodies of the atom in a program of the rule over atoms a-d."""
    return body_catalog(Program(tuple("abcd"), (rule,))).bodies_of(atom)


def test_induced_bodies_basic_rule():
    rule = basic_rule((1,), pos=(2, 4))
    assert _induced(rule, 1) == (frozenset({2, 4}),)


def test_induced_bodies_disjunctive_shifts_other_heads():
    rule = basic_rule((1, 2), pos=(3,))
    assert _induced(rule, 1) == (frozenset({3, -2}),)
    assert _induced(rule, 2) == (frozenset({3, -1}),)


def test_induced_bodies_disjunctive_drops_contradictory_shifts():
    # a | b :- b. would shift to a :- b, not b, which never holds.
    rule = basic_rule((1, 2), pos=(2,))
    assert _induced(rule, 1) == ()
    assert _induced(rule, 2) == (frozenset({2, -1}),)


def test_induced_bodies_weight_rule():
    """A weight rule reaches the catalog only as its counter of normal rules:
    literals by ascending weight b, c, d, counter atoms after the program's."""
    program = parse_program("b.\nc.\na :- 2 <= {b=1, c=1, d=2}.\n")
    with pytest.raises(ValueError, match="normalize_weights"):
        body_catalog(program)
    normal = normalize_weights(program)
    assert normal.atom_names == ("b", "c", "a", "d", "#3.2.2", "#3.1.1")
    assert emit_program(normal).splitlines()[1:] == [
        "b.", "c.", "a :- #3.2.2.", "a :- d.", "#3.2.2 :- c, #3.1.1.", "#3.1.1 :- b.",
    ]
    assert body_catalog(normal).bodies_of(atom_id(program, "a")) == (frozenset({5}), frozenset({4}))
    assert normalize_weights(parse_program("a :- b.\n")) == parse_program("a :- b.\n")


def test_induced_bodies_choice_rule():
    rule = choice_rule((1, 2), pos=(3,), neg=(4,))
    assert _induced(rule, 1) == _induced(rule, 2) == (frozenset({3, -4}),)


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
    """The reference enumeration the counter is held against is itself exact."""
    got = reference_minimal_weight_sets(weights, bound)
    assert set(got) == _brute_minimal(weights, bound)
    assert len(set(got)) == len(got)


def _counter_derives(normal, head, true_atoms):
    """Is head in the least model of the normalized rules' reduct, with
    true_atoms as facts? The counter's rules come from the head down, so a
    pass in reverse order derives bottom up."""
    derived = set(true_atoms)
    changed = True
    while changed:
        changed = False
        for rule in reversed(normal.rules):
            atom = rule.head[0]
            if atom not in derived and rule.pos_body <= derived and not rule.neg_body & true_atoms:
                derived.add(atom)
                changed = True
    return head in derived


counter_maps = st.dictionaries(
    st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
    st.one_of(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=10**6)),
    max_size=8,
).filter(lambda d: not any(-k in d for k in d))


@settings(max_examples=200, deadline=None)
@given(counter_maps, st.integers(min_value=0, max_value=105), st.integers(min_value=-2, max_value=2))
def test_counter_matches_minimal_weight_sets(weights, percent, jitter):
    """Under every assignment to its literals, the head of a weight rule is in
    the least model of its counter exactly when one of its subset-minimal
    literal sets holds."""
    bound = max(0, sum(weights.values()) * percent // 100 + jitter)
    head = 9
    program = Program(tuple("abcdefghi"), (weight_rule(head, bound, weights),))
    normal = normalize_weights(program)
    minimal = reference_minimal_weight_sets(weights, bound)
    atoms = sorted({abs(lit) for lit in weights})
    for mask in range(1 << len(atoms)):
        true_atoms = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        holds = any(all((abs(l) in true_atoms) == (l > 0) for l in s) for s in minimal)
        assert _counter_derives(normal, head, true_atoms) == holds


def test_minimal_weight_sets_budget():
    """The reference enumeration refuses past its budget, which the sample of
    rules with up to 4,096 minimal bodies relies on."""
    weights = {i: 1 for i in range(1, 13)}
    assert len(reference_minimal_weight_sets(weights, 6, budget=924)) == 924
    with pytest.raises(BudgetError):
        reference_minimal_weight_sets(weights, 6, budget=923)


def test_counter_cap_refuses_one_atom_past_it(monkeypatch):
    """The cap bounds the fresh atoms of one rule: 7 <= {15 atoms} needs 62."""
    program = parse_program("a :- 7 <= {" + ", ".join(f"b{i}=1" for i in range(15)) + "}.\n")
    monkeypatch.setattr(completion_module, "COUNTER_CAP", 62)
    assert normalize_weights(program).atom_count == program.atom_count + 62
    monkeypatch.setattr(completion_module, "COUNTER_CAP", 61)
    with pytest.raises(BudgetError, match="^weight rule 1, for a, needs more than 61 counter atoms$"):
        normalize_weights(program)


def test_rules_with_up_to_4096_minimal_bodies_fit_under_the_cap():
    """Every weight rule with at most 4,096 subset-minimal bodies gets its
    counter under the cap: a seeded sample of 2 to 22 literals, weights up to
    10^9."""
    rng = random.Random(3)
    kept = 0
    for _ in range(200):
        size = rng.randint(2, 22)
        top = 10 ** rng.randint(0, 9)
        weights = {a if rng.random() < 0.5 else -a: rng.randint(1, top) for a in range(1, size + 1)}
        bound = rng.randint(0, sum(weights.values()))
        try:
            reference_minimal_weight_sets(weights, bound, 4096)
        except BudgetError:
            continue
        kept += 1
        names = tuple(f"x{i}" for i in range(size + 1))
        normalize_weights(Program(names, (weight_rule(size + 1, bound, weights),)))
    assert kept > 150


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


def test_catalog_of_a_wide_weight_rule(wide_weight_rule):
    """The rule with 6,435 subset-minimal bodies reaches the catalog as 62
    counter atoms and 119 normal rules, one body each, numbered after them;
    its head a has the two bodies of the top level, {(14, 7)} and
    {b14, (14, 6)}."""
    program = parse_program(wide_weight_rule)
    normal = normalize_weights(program)
    catalog = body_catalog(normal)
    assert normal.atom_count == 16 + 62 and len(normal.rules) == 119
    assert len(catalog.ids) == 119 and catalog.first_id == 79
    a, b14 = atom_id(program, "a"), atom_id(program, "b14")
    top, rest = atom_id(normal, "#1.14.7"), atom_id(normal, "#1.14.6")
    assert catalog.bodies_of(a) == (frozenset({top}), frozenset({b14, rest}))


def test_firing_matches_the_reference_rule_firing_family():
    """catalog.firing lists the pairs of backward_family, which is built from
    the rules, in its order, on rich draws with choice rules, constraints,
    disjunctive rules and a wide weight rule, normalized first; ids count up
    from atom_count + 1 and hold every body of ib and every constraint body,
    each consistent and over program atoms only (the checker's b step relies
    on that to skip both checks for a body it finds)."""
    rng = random.Random(61)
    kinds = set()
    for _ in range(150):
        raw = with_disjunctions_and_a_wide_weight_rule(
            rng, random_rich_program(rng, max_atoms=6, max_rules=12))
        kinds.update(rule.kind.name for rule in raw.rules if rule.head)
        program = normalize_weights(raw)
        catalog = body_catalog(program)
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


def test_normalize_skips_aux_names_the_program_has():
    """A program that already has an atom __aux1 gets __aux2 for its first
    long body, and the next counter name after that for its second."""
    program = parse_program("a :- b, d.\na :- c.\n__aux1 :- c, d.\n__aux1 :- b.\n__aux3.\n")
    normalized = normalize_short_body(program)
    assert emit_program(normalized) == (
        "#atoms a b d c __aux1 __aux3 __aux2 __aux4.\n"
        "__aux2 :- b, d.\n"
        "a :- __aux2.\n"
        "a :- c.\n"
        "__aux4 :- d, c.\n"
        "__aux1 :- __aux4.\n"
        "__aux1 :- b.\n"
        "__aux3.\n"
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
    rule_sets = reference_minimal_weight_sets(weights, bound)
    for left in rule_sets:
        for right in rule_sets:
            assert not left < right
