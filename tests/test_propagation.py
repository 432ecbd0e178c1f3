"""Unit propagation, RUP checks, and the weight-rule propagator."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from aspcert.checker import CheckerState
from aspcert.core import weight_rule
from aspcert.oracle import entails
from aspcert.program_io import parse_program
from aspcert.propagation import NogoodStore, WeightRulePropagator, rup_run
from aspcert.solver import solve
from reference import is_rup, reference_rup_run, unit_propagate


def test_unit_propagate_chain():
    result = unit_propagate([frozenset({1, -2}), frozenset({2})])
    assert not result.is_conflict
    assert result.derived == (-2, -1)
    assert result.assignment == frozenset({-2, -1})


def test_unit_propagate_conflict():
    result = unit_propagate([frozenset({1}), frozenset({-1})])
    assert result.is_conflict
    assert result.conflict in {frozenset({1}), frozenset({-1})}


def test_unit_propagate_assumption_contradiction():
    result = unit_propagate([], assumptions=(2, -2))
    assert result.is_conflict


def test_unit_propagate_stable_under_no_units():
    result = unit_propagate([frozenset({1, 2})], assumptions=(-3,))
    assert not result.is_conflict
    assert result.derived == ()
    assert result.assignment == frozenset({-3})


def test_rup_member_nogood():
    nogoods = [frozenset({1, -2}), frozenset({2, 3})]
    assert is_rup(nogoods, frozenset({1, -2}))
    assert reference_rup_run(nogoods, frozenset({1, -2})).is_conflict


def test_rup_fresh_variable_is_not_rup():
    assert not is_rup([], frozenset({7}))


def test_rup_resolvent():
    nogoods = [frozenset({1, 2}), frozenset({1, -2})]
    assert is_rup(nogoods, frozenset({1}))
    assert not is_rup(nogoods, frozenset({-1}))


nogood_sets = st.lists(
    st.frozensets(
        st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
        min_size=1,
        max_size=3,
    ).filter(lambda s: not any(-l in s for l in s)),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(nogood_sets, nogood_sets)
def test_rup_monotone_under_added_nogoods(base, extra):
    delta = frozenset({1, -2})
    if is_rup(base, delta):
        assert is_rup(base + extra, delta)


@settings(max_examples=200, deadline=None)
@given(nogood_sets, st.integers(min_value=0, max_value=2**32 - 1))
def test_unit_propagate_order_independent(nogoods, seed):
    baseline = unit_propagate(nogoods)
    shuffled = list(nogoods)
    random.Random(seed).shuffle(shuffled)
    other = unit_propagate(shuffled)
    assert baseline.is_conflict == other.is_conflict
    if not baseline.is_conflict:
        assert baseline.assignment == other.assignment


@settings(max_examples=200, deadline=None)
@given(
    nogood_sets,
    st.frozensets(
        st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
        min_size=1,
        max_size=3,
    ).filter(lambda s: not any(-l in s for l in s)),
)
def test_rup_additions_are_entailed(nogoods, delta):
    if is_rup(nogoods, delta):
        assert entails(nogoods, [delta])


def test_weight_propagate_head_from_satisfied_body():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    conflict, derivations = WeightRulePropagator(rule)(frozenset({-4}))
    assert conflict is None
    assert [lit for lit, _ in derivations] == [1]
    literal, reason = derivations[0]
    assert -literal in reason and reason <= frozenset({-4, -1})


def test_weight_propagate_body_literal_from_false_head():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    conflict, derivations = WeightRulePropagator(rule)(frozenset({-1, 4, 2}))
    assert conflict is None
    assert [lit for lit, _ in derivations] == [-3]


def test_weight_propagate_quiet_on_empty_assignment():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    assert WeightRulePropagator(rule)(frozenset()) == (None, [])


def test_weight_propagate_conflict():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    conflict, _ = WeightRulePropagator(rule)(frozenset({-1, -4}))
    assert conflict is not None
    assert conflict <= frozenset({-1, -4})


def test_weight_propagator_plugs_into_unit_propagate():
    rule = weight_rule(1, 2, {2: 1, 3: 1, -4: 2})
    propagator = WeightRulePropagator(rule)
    result = unit_propagate([], assumptions=(-4,), propagators=(propagator,))
    assert not result.is_conflict
    assert 1 in result.assignment


small_lits = st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0)
# With no assumption, {-2} and {2, -3} imply 2 and 3; the rest of chain
# extends that to -4 (with a second reason {2, 3, 4}) and 5, which {3, 5}
# then violates, as do {1} and {-1} together. Drawing from it makes deletes
# often take away a unit reason, a reason in mid-chain, or a nogood while a
# top-level conflict stands. The small pool makes duplicate copies, unit
# nogoods and the empty nogood frequent.
chain = st.sampled_from(
    [frozenset({-2}), frozenset({2, -3}), frozenset({3, 4}), frozenset({2, 3, 4}),
     frozenset({-4, -5}), frozenset({3, 5})]
)
pool = chain | st.sampled_from(
    [frozenset(), frozenset({1}), frozenset({-1}), frozenset({1, -2}), frozenset({1, 3})]
)
# A delete names a nogood, or by an index one of the copies present.
store_operations = st.lists(
    st.tuples(st.just("insert"), chain)
    | st.tuples(st.just("insert"), pool | st.frozensets(small_lits, max_size=4))
    | st.tuples(st.just("delete"), pool | st.integers(min_value=0, max_value=39))
    | st.tuples(st.just("query"), pool | st.frozensets(small_lits, max_size=4)),
    min_size=10,
    max_size=40,
)
weight_rules = st.builds(
    lambda signed, bound: weight_rule(1, bound, {v * sign: w for v, (sign, w) in signed.items()}),
    st.dictionaries(
        st.integers(min_value=2, max_value=5),
        st.tuples(st.sampled_from((1, -1)), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=6),
)


@settings(max_examples=300, deadline=None)
@given(store_operations, st.none() | weight_rules)
def test_nogood_store_matches_reference_propagation(operations, rule):
    propagators = () if rule is None else (WeightRulePropagator(rule),)
    store = NogoodStore()
    reference: list = []
    for kind, nogood in operations:
        if kind == "insert":
            store.insert(nogood)
            reference.append(nogood)
        elif kind == "delete":
            if isinstance(nogood, int):
                nogood = reference[nogood % len(reference)] if reference else frozenset()
            assert store.remove(nogood) == (nogood in reference)
            if nogood in reference:
                reference.remove(nogood)
        else:
            watched = rup_run(store, nogood, propagators)
            naive = reference_rup_run(reference, nogood, propagators)
            assert watched.is_conflict == naive.is_conflict
            if not naive.is_conflict:
                assert watched.assignment == naive.assignment
        assert Counter(store.live()) == Counter(reference)
        assert store.empty == reference.count(frozenset())


def test_nogood_store_keeps_watches_after_a_conflict():
    store = NogoodStore()
    for nogood in ({1, 2}, {1, 3}):
        store.insert(frozenset(nogood))
    # both binary nogoods watch 1; the run assumes 1 and 2, and the first one
    # is violated before the second is visited
    assert rup_run(store, frozenset({1, 2})).conflict == frozenset({1, 2})
    store.remove(frozenset({1, 2}))
    assert -3 in rup_run(store, frozenset({1})).assignment


def _php_text(pigeons, holes):
    rules = []
    for i in range(1, pigeons + 1):
        rules.append("{" + "; ".join(f"p{i}_{j}" for j in range(1, holes + 1)) + "}.")
        rules.append(":- " + ", ".join(f"not p{i}_{j}" for j in range(1, holes + 1)) + ".")
        for j in range(1, holes + 1):
            rules.extend(f":- p{i}_{j}, p{k}_{j}." for k in range(i + 1, pigeons + 1))
    return "\n".join(rules) + "\n"


def test_nogood_store_reuses_its_top_level_across_rup_tests():
    # Every RUP test of unit_propagate starts from nothing; the store's
    # count covers its top level, its runs and their assumptions.
    program = parse_program(_php_text(5, 4))
    proof = solve(program).proof
    state = CheckerState(program)
    from_scratch = 0
    for step in proof:
        if step.kind == "a":
            from_scratch += len(reference_rup_run(state.store.live(), frozenset(step.lits)).derived)
        state.step(step)
    assert state.result().ok
    assert state.store.assigned < from_scratch / 2


def test_nogood_store_takes_ids_of_any_size():
    big = 1 << 40
    store = NogoodStore()
    for nogood in ({-big, 1}, {big, -(big + 1)}, {big + 1, 10**30}, {-(10**30)}):
        store.insert(frozenset(nogood))
    assert rup_run(store, frozenset({1})).is_conflict
    assert not rup_run(store, frozenset({-1})).is_conflict
    assert len(store) == 4
    assert store.remove(frozenset({-(10**30)}))
    assert not rup_run(store, frozenset({1})).is_conflict
    assert len(store) == 4


def test_nogood_store_stops_visiting_nogoods_the_top_level_satisfies():
    # The units {k} make each -k true at the top level, so each {1, k} is
    # satisfied there: the first test that assumes 1 visits them, and later
    # ones find 1's watch list empty.
    store = NogoodStore()
    for k in range(2, 7):
        store.insert(frozenset({1, k}))
        store.insert(frozenset({k}))
    assert not rup_run(store, frozenset({1})).is_conflict
    assert store.visits == 5
    for _ in range(3):
        result = rup_run(store, frozenset({1}))
        assert not result.is_conflict
        assert result.assignment == {1, -2, -3, -4, -5, -6}
    assert store.visits == 5


def test_nogood_store_restores_dropped_watches_when_it_rebuilds_the_top_level():
    # Under 1, {1, 2} forces -2, and under 5, -2 makes {-2, 3, 5} and
    # {-2, -3, 5} force -3 and 3. No other nogood forces -2, and without -2
    # none of them forces 2, 3 or -3, so only {1, 2} leads to the conflict.
    store = NogoodStore()
    for nogood in ({1, 2}, {-2, 3, 5}, {-2, -3, 5}, {2}):
        store.insert(frozenset(nogood))
    # -2 holds at the top level, so this test drops {1, 2} from 1's list.
    assert not rup_run(store, frozenset({1})).is_conflict
    visits = store.visits
    assert not rup_run(store, frozenset({1})).is_conflict
    assert store.visits == visits
    # Deleting the reason of -2 rebuilds the top level, which must put
    # {1, 2} back on 1's list: it is the only route to the conflict.
    assert store.remove(frozenset({2}))
    assert rup_run(store, frozenset({1, 5})).is_conflict
    assert rup_run(store, frozenset({1})).derived == (-2,)
