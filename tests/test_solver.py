"""Conflict-driven solving with proof logging."""

import hashlib
import io
import random

import pytest

import aspcert.solver as solver_module
from aspcert.checker import CheckerState, check
from aspcert.core import Program, basic_rule
from aspcert.completion import body_catalog, body_definition, normalize_weights
from aspcert.fuzz import random_program, random_rich_program
from aspcert.oracle import enumerate_answer_sets, is_answer_set
from aspcert.loops import cyclic_atoms, dependency_graph, external_bodies
from aspcert.proof import Proof, Step, parse_proof, serialize_proof, sorted_lits
from aspcert.program_io import parse_program
from aspcert.solver import (
    CONSISTENT,
    HEURISTICS,
    INCONSISTENT,
    SolveError,
    solve,
)
from reference import (
    backward_family, declared_registry, forward_family, public_items, random_3sat_program,
    random_3sat_program_with_units,
)


def test_consistent_program():
    result = solve(parse_program("a :- not b.\n"))
    assert result.status == CONSISTENT
    assert result.answer_set == frozenset({1})
    assert result.proof is None


def test_empty_program_has_empty_answer_set():
    result = solve(parse_program(""))
    assert result.status == CONSISTENT
    assert result.answer_set == frozenset()


def test_inconsistent_program_yields_checkable_proof(ex1_program):
    result = solve(ex1_program)
    assert result.status == INCONSISTENT
    assert result.answer_set is None
    assert result.proof.steps[-1].lits == ()
    assert check(ex1_program, result.proof).ok


def test_constraint_only_inconsistency():
    program = parse_program("a.\n:- a.\n")
    result = solve(program)
    assert result.status == INCONSISTENT
    assert check(program, result.proof).ok


@pytest.mark.parametrize("text", [
    ":- a.\n:- not a.\n",
    "a.\n:- a.\n",
    "#atoms a b.\n:- not a.\n",
    "a :- not b.\nb :- not a.\n:- a.\n:- b.\n",
])
def test_refutations_at_level_0(text):
    """Set-up reports no conflict; the first propagation finds one at level 0,
    before any decision, and run refutes it. Under every heuristic, with and
    without restarts, the proof holds no a line but `a 0` and checks as
    written and, without its c and s lines, preloaded."""
    program = parse_program(text)
    for heuristic in HEURISTICS:
        for restarts in (False, True):
            result = solve(program, heuristic=heuristic, restarts=restarts)
            assert result.status == INCONSISTENT
            assert [step for step in result.proof if step.kind == "a"] == [Step("a")]
            assert _checks_in_both_modes(program, result.proof)


def test_weight_rules_solve():
    program = parse_program("b.\nc.\na :- 2 <= {b=1, c=1, d=2}.\n")
    result = solve(program)
    assert result.status == CONSISTENT
    assert result.answer_set == frozenset({1, 2, 3})


def test_choice_rules_solve():
    program = parse_program("{a}.\n:- not a.\n")
    result = solve(program)
    assert result.status == CONSISTENT
    assert result.answer_set == frozenset({1})


def test_heuristics_agree_on_verdict():
    rng = random.Random(7)
    for _ in range(40):
        program = random_program(rng)
        verdicts = {solve(program, heuristic=h).status for h in HEURISTICS}
        assert len(verdicts) == 1


def test_random_heuristic_is_seed_deterministic(ex1_program):
    first = solve(ex1_program, heuristic="random", seed=11)
    second = solve(ex1_program, heuristic="random", seed=11)
    assert serialize_proof(first.proof) == serialize_proof(second.proof)


def test_proof_sink_streams_serialized_steps(ex1_program):
    """A sink gets the text of the proof a sink-less solve returns, and the
    result keeps none; the sink-less proof numbers its steps' lines 1..n, as
    parsing that text does."""
    sink = io.StringIO()
    result = solve(ex1_program, proof_sink=sink)
    assert result.status == INCONSISTENT and result.proof is None
    proof = solve(ex1_program).proof
    assert sink.getvalue() == serialize_proof(proof)
    assert proof.lines == tuple(range(1, len(proof) + 1))


def test_consistent_program_without_conflicts_writes_no_line():
    """No lemma rests on any completion, loop or constraint nogood, so the log stays empty."""
    for text in ("a :- not b.\nb :- c.\n{c}.\n", "{a}. {b}.\n:- a, b.\n:- not a.\n",
                 "a :- b.\nb :- a.\nb :- not c.\n"):
        sink = io.StringIO()
        result = solve(parse_program(text), proof_sink=sink)
        assert result.status == CONSISTENT
        assert sink.getvalue() == ""


def test_loop_line_names_its_external_body_by_its_catalog_id():
    """The refutation rests on the loop nogood of {a, b}, whose external body
    {not b} (id 5) is named first by the rule-firing nogood of `a :- not b`
    (c 5 1): the lines are written in nogood-index order, every completion
    nogood before every loop nogood, and no b line. The checker declares
    body 5 at the c line, and the l line's nogood names it by that id; with
    the l line first, the l line declares it under the same catalog id."""
    program = parse_program("#atoms a b.\nb :- a, b.\na :- a, b.\nb :- a, not b.\na :- not b.\n")
    result = solve(program)
    assert result.status == INCONSISTENT
    lines = serialize_proof(result.proof).splitlines()
    assert lines == ["s 2 3 4 0", "c 4 2 0", "c 5 1 0", "l 1 2 0", "a 1 -5 0", "a 1 0", "a 0"]
    loop_first = [lines[3], *lines[:3], *lines[4:]]
    for proof in (result.proof, parse_proof("\n".join(loop_first))):
        state = CheckerState(program)
        for step in proof:
            state.step(step)
        assert state.result().ok
        assert state.registry.lits_of(5) == frozenset({-2})
        assert frozenset({1, -5}) in state.store.live()


def test_verdicts_and_witnesses_match_oracle():
    rng = random.Random(3)
    for _ in range(120):
        program = random_program(rng)
        result = solve(program)
        models = enumerate_answer_sets(program, cap=1)
        if result.status == CONSISTENT:
            assert models
            assert is_answer_set(program, result.answer_set)
        else:
            assert result.status == INCONSISTENT
            assert models == []
            assert check(program, result.proof).ok


def _count_restarts(monkeypatch):
    """Spy on backjumps; a restart is a second backjump after the same conflict.
    It undoes decisions when the search is above level 0 then."""
    backjump = solver_module._Search.backjump
    counts = {"restarts": 0, "undoing": 0, "last": None}

    def counted_backjump(search, target):
        if counts["last"] == (search, search.conflicts):
            assert target == 0
            counts["restarts"] += 1
            counts["undoing"] += search.dl > 0
        counts["last"] = (search, search.conflicts)
        backjump(search, target)

    monkeypatch.setattr(solver_module._Search, "backjump", counted_backjump)
    return counts


def test_restarts_preserve_verdicts_and_proofs(monkeypatch):
    """Restarts happen, keep the verdict, and forget nothing: no proof has a d step."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 2)
    counts = _count_restarts(monkeypatch)
    rng = random.Random(19)
    refuted = 0
    for _ in range(80):
        program = random_program(rng, max_atoms=7, max_rules=14)
        result = solve(program, restarts=True)
        assert result.status == solve(program).status
        if result.status == INCONSISTENT:
            refuted += 1
            assert check(program, result.proof).ok
            assert not [step for step in result.proof if step.kind == "d"]
    assert refuted > 0 and counts["restarts"] > 0


def test_rejects_disjunctive_programs():
    with pytest.raises(SolveError, match="disjunctive"):
        solve(parse_program("a | b.\n"))


def test_solves_recursive_weight_rules():
    """a and b support only each other through a weight rule: {} is the one
    answer set."""
    result = solve(parse_program("a :- 1 <= {b=1}.\nb :- a.\n"))
    assert result.status == CONSISTENT
    assert result.answer_set == frozenset()


def test_rejects_unknown_heuristic():
    with pytest.raises(SolveError, match="heuristic"):
        solve(parse_program("a.\n"), heuristic="bogus")


def _cardinality_text(n, k):
    """{x1..xn}, a when k of them hold, b when n-k+1 of them fail, and both
    required: no answer set. a's rule has C(n, k) subset-minimal bodies."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return (
        "{" + "; ".join(xs) + "}.\n"
        + f"a :- {k} <= {{" + ", ".join(f"{x}=1" for x in xs) + "}.\n"
        + f"b :- {n - k + 1} <= {{" + ", ".join(f"not {x}=1" for x in xs) + "}.\n"
        + ":- not a.\n:- not b.\n"
    )


def test_certifies_cardinality_rules_with_exponentially_many_minimal_bodies():
    """C(16, 8) = 12,870 up to C(40, 20), about 1.4 * 10^11, minimal bodies:
    their counters are refuted, and each proof checks both as written and,
    without its c and s lines, preloaded."""
    for n, k in ((16, 8), (24, 12), (40, 20)):
        program = parse_program(_cardinality_text(n, k))
        result = solve(program, heuristic="min-false")
        assert result.status == INCONSISTENT
        assert check(program, result.proof).ok
        bare = Proof(tuple(step for step in result.proof if step.kind not in "cs"))
        assert check(program, bare, preloaded=True).ok


def _php_text(pigeons, holes, rng):
    """Pigeonhole as choice rules and constraints, in a shuffled rule order."""
    rules = []
    for i in range(1, pigeons + 1):
        rules.append("{" + "; ".join(f"p{i}_{j}" for j in range(1, holes + 1)) + "}.")
        rules.append(":- " + ", ".join(f"not p{i}_{j}" for j in range(1, holes + 1)) + ".")
        for j in range(1, holes + 1):
            rules.extend(f":- p{i}_{j}, p{k}_{j}." for k in range(i + 1, pigeons + 1))
    rng.shuffle(rules)
    return "\n".join(rules) + "\n"


# Out-edges of an 8-vertex digraph with no Hamiltonian path from vertex 1;
# refuting it takes loop nogoods (l steps), since reachability is recursive.
_NO_PATH_GRAPH = {
    1: (3, 4, 5), 2: (1, 4, 8), 3: (4, 5, 8), 4: (2, 7, 8),
    5: (1, 3, 4), 6: (3, 5, 8), 7: (1, 3, 5), 8: (2, 4, 6),
}


def _hampath_text(succ):
    """Choose one out-edge and one in-edge per vertex, every vertex reachable from 1."""
    rules = ["r1."]
    for u, targets in succ.items():
        for v in targets:
            rules += [f"{{e{u}_{v}}}.", f"r{v} :- r{u}, e{u}_{v}."]
        rules += [f":- e{u}_{a}, e{u}_{b}." for a in targets for b in targets if a < b]
    for v in succ:
        sources = [u for u in succ if v in succ[u]]
        if v == 1:
            rules += [f":- e{u}_1." for u in sources]
            continue
        rules += [f":- e{a}_{v}, e{b}_{v}." for a in sources for b in sources if a < b]
        rules.append(f":- not r{v}.")
    return "\n".join(rules) + "\n"


def _chain_text(length):
    rules = ["x1."] + [f"x{i} :- x{i - 1}." for i in range(2, length + 1)]
    return "\n".join(rules + [f":- x{length}."]) + "\n"


# sha256 over every run of test_search_and_proofs_are_pinned, recorded when
# set-up began to attach each constraint's nogood right after its body and
# stopped giving self-blocking atoms unit nogoods, which changed set-up order
# and so search order and lemmas.
PINNED_DIGEST = "61ea63608669b212bdb75cee1f0e3ea3a26810a25a78c8b62d60e0bb03681af6"


def test_search_and_proofs_are_pinned(monkeypatch):
    """Status, answer set and proof text of a fixed corpus match a recorded hash.

    The corpus is a shuffled PHP(4,3) and PHP(5,4), an 8-vertex
    Hamiltonian-path program without a path (so l steps occur), a 300-atom
    chain, and 200 random normal programs under every heuristic, with and
    without restarts at an interval of two conflicts. PHP(5,4) restarts
    under every heuristic, and under the random one its text depends on
    where the restarts fall. A change that speeds up search must leave this
    hash alone. A change that alters search order, learning, restarts or
    proof emission on purpose updates PINNED_DIGEST and says so in CHANGES.md.
    Every refutation in the corpus checks as written and preloaded.
    """
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 2)
    counts = _count_restarts(monkeypatch)
    texts = [_php_text(4, 3, random.Random(1)), _php_text(5, 4, random.Random(1)),
             _hampath_text(_NO_PATH_GRAPH), _chain_text(300)]
    rng = random.Random(23)
    programs = [parse_program(text) for text in texts]
    programs += [random_program(rng, max_atoms=7, max_rules=14) for _ in range(200)]
    digest = hashlib.sha256()
    refuted = 0
    for program in programs:
        for heuristic in HEURISTICS:
            for restarts in (False, True):
                sink = io.StringIO()
                result = solve(program, heuristic=heuristic, restarts=restarts, seed=5,
                               proof_sink=sink)
                answer = sorted(result.answer_set or ())
                digest.update(f"{result.status} {answer}\n{sink.getvalue()}".encode())
                if result.status == INCONSISTENT:
                    assert _checks_in_both_modes(program, parse_proof(sink.getvalue()))
                    refuted += 1
    assert counts["undoing"] > 0 and refuted > 200
    assert digest.hexdigest() == PINNED_DIGEST


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("pigeons, interval", [(7, 100), (4, 2)])
def test_restarts_finish_on_pigeonhole(monkeypatch, heuristic, pigeons, interval):
    """PHP(7,6) at the default interval and PHP(4,3) at interval 2 did not
    finish while each restart dropped the learned nogoods; now each is
    refuted with restarts, its proof checks and has no d step."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", interval)
    counts = _count_restarts(monkeypatch)
    program = parse_program(_php_text(pigeons, pigeons - 1, random.Random(1)))
    result = solve(program, heuristic=heuristic, restarts=True)
    assert result.status == INCONSISTENT
    assert counts["restarts"] > 0
    assert not [step for step in result.proof if step.kind == "d"]
    assert check(program, result.proof).ok


def _count_dropped(monkeypatch):
    """Spy on runs; sums the literals minimisation dropped in each search."""
    run = solver_module._Search.run
    counts = {"dropped": 0}

    def counted_run(search, restarts):
        try:
            return run(search, restarts)
        finally:
            counts["dropped"] += search.dropped

    monkeypatch.setattr(solver_module._Search, "run", counted_run)
    return counts


def _checks_in_both_modes(program, proof):
    """The proof checks as written and, without its c and s lines, against
    the preloaded completion."""
    bare = Proof(tuple(step for step in proof if step.kind not in "cs"))
    return check(program, proof).ok and check(program, bare, preloaded=True).ok


def _search_over(names, nogoods):
    """A search over the atoms `names` holding the given untagged nogoods,
    each watched on its first two entries, as set-up watches a nogood of two
    or more entries."""
    search = solver_module._Search(parse_program(f"#atoms {names}.\n"), "min-true", None,
                                   frozenset())
    for idx, entries in enumerate(nogoods):
        search.nogoods.append(entries)
        search.tags.append(None)
        search.watched.append(entries[:2])
        for lit in entries[:2]:
            search.watches[lit].append(idx)
    return search


def test_satisfied_nogood_keeps_its_watches():
    """A nogood whose other watched entry is false is satisfied: when its
    first watch becomes true it keeps both watches and its place on that
    watch's list, with no replacement scan, while a nogood beside it whose
    other watch is free moves to a replacement."""
    search = _search_over("a b c d", ((1, 4), (1, 2, 3), (1, 3, 4)))
    assert search.watches[1] == [0, 1, 2]
    search.decide(-2)
    assert search.propagate() is None
    search.decide(1)
    assert search.propagate() is None
    # (1, 4) implied -4, so (1, 3, 4) moved its watch from 1 to 4.
    assert search.trail == [-2, 1, -4]
    assert search.watches[1] == [0, 1]
    assert search.watched[1] == (1, 2)
    assert 1 not in search.watches[3]
    assert search.watched[2] == (4, 3) and 2 in search.watches[4]


_MINIMISABLE = """{x1; y; x2; z; u; w}.
f.
:- x1, f, not y.
:- x2, y, z.
:- x2, x1, not z.
:- not x2, x1, u.
:- not x2, x1, not u.
:- not x1, w.
:- not x1, not w.
"""


def test_minimisation_drops_a_literal_its_reason_implies(monkeypatch):
    """The fact f holds at level 0. Deciding x1 implies y by
    `:- x1, f, not y.`; deciding x2 then implies z and violates
    `:- x2, y, z.`. The first-UIP nogood {x1, y, x2} holds y, whose reason's
    other entries are x1, in the nogood, and f, at level 0, so minimisation
    drops y and the lemma is {x1, x2}. Nothing else in the refutation uses
    y's reason or f, so their lines (`c 9 0`, and `c 8 7 0` for f's rule)
    are written only because the lemma records them. The proof checks in
    both modes."""
    dropped = _count_dropped(monkeypatch)
    program = parse_program(_MINIMISABLE)
    result = solve(program)
    assert result.status == INCONSISTENT
    lemmas = [step.lits for step in result.proof if step.kind == "a"]
    assert lemmas == [(1, 3), (1,), ()]
    assert dropped["dropped"] == 1
    assert Step("c", 9) in result.proof.steps and Step("c", 8, (7,)) in result.proof.steps
    assert _checks_in_both_modes(program, result.proof)


def test_3sat_refutations_check_in_both_modes(monkeypatch):
    """3-SAT draws of 12-20 atoms need search: plain ones, and ones with
    facts or one-literal constraints, whose atoms are assigned at level 0,
    so that the reasons minimisation uses name level-0 variables whose lines
    nothing else may need. Every heuristic, with and without restarts every
    four conflicts, gives the same verdict on each draw; every answer set is
    stable, and for each kind of draw each of 40 refuted draws' proofs
    checks as written and preloaded without its c and s lines. The floors
    keep the draws from going trivial: many lemmas have two or more
    literals, and minimisation drops many literals."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 4)
    restarts_seen = _count_restarts(monkeypatch)
    dropped = _count_dropped(monkeypatch)
    rng = random.Random(41)
    draws = long_lemmas = 0
    for draw in (random_3sat_program, random_3sat_program_with_units):
        refuted = 0
        while refuted < 40:
            draws += 1
            program = draw(rng, rng.randint(12, 20))
            results = [solve(program, heuristic=heuristic, restarts=restarts, seed=draws)
                       for heuristic in HEURISTICS for restarts in (False, True)]
            (status,) = {result.status for result in results}
            if status == CONSISTENT:
                assert all(is_answer_set(program, result.answer_set) for result in results)
                continue
            refuted += 1
            for result in results:
                assert _checks_in_both_modes(program, result.proof)
                long_lemmas += sum(step.kind == "a" and len(step.lits) >= 2
                                   for step in result.proof)
    assert restarts_seen["restarts"] > 0
    assert long_lemmas > 1000 and dropped["dropped"] > 500


def _lone_constraint_bodies(catalog):
    """Constraint bodies that no atom's catalog entry holds."""
    induced = {body for atom_bodies in catalog.ib.values() for body in atom_bodies}
    return catalog.constraints - induced


def _reference_setup(search):
    """The tagged nogoods set-up should build, from completion.py's
    families: after each body's definition, or in its place if no rule
    induces the body, a constraint's nogood B, whatever its length; then the
    support and the rule-firing nogoods."""
    program, catalog = search.program, search.catalog
    lone = _lone_constraint_bodies(catalog)
    registry = declared_registry(program, catalog)
    nogoods = []
    for body_id, body in public_items(registry):
        if body not in lone:
            nogoods += [(nogood, None) for nogood in body_definition(body_id, body)]
        if body in catalog.constraints:
            nogoods.append((body, ("c", body_id, ())))
    for atom, body_ids, nogood in forward_family(program, catalog, registry):
        nogoods.append((nogood, ("s", atom, body_ids)))
    for nogood in backward_family(program, catalog, registry):
        (atom,) = (-lit for lit in nogood if lit < 0)
        (body_id,) = (lit for lit in nogood if lit > 0)
        nogoods.append((nogood, ("c", body_id, (atom,))))
    return [(sorted_lits(nogood), tag) for nogood, tag in nogoods]


def test_setup_attaches_the_completion_families_in_order(ex1_program):
    """The one-pass set-up builds the same nogoods, in the same order and
    with the same tags, as sorted_lits applied to body_definition (bodies in
    id order, each constraint's nogood after its body), forward_family and
    backward_family, and nothing else. Each nogood watches its first two
    entries, a unit nogood its one entry twice, and no unit nogood's entry is
    left free. The body of each constraint that no rule induces is false at
    level 0 and named by no nogood."""
    rng = random.Random(37)
    programs = [ex1_program, parse_program("{a}. {b}. :- a. :- not a, b. :- b, c.\nc :- not a.\n"),
                parse_program("{a}. {b}. c :- a, b. :- a, b. :- b, a. :- not c.\n")]
    for index in range(300):
        generate = random_rich_program if index % 2 else random_program
        programs.append(generate(rng, max_atoms=8, max_rules=16))
    lone = shared = 0
    for program in map(normalize_weights, programs):
        search = solver_module._Search(
            program, "min-true", None, cyclic_atoms(dependency_graph(program)),
        )
        search.load_completion()
        nogoods = _reference_setup(search)
        assert list(zip(search.nogoods, search.tags)) == nogoods
        assert search.dl == search.qhead == 0
        for idx, entries in enumerate(search.nogoods):
            pair = search.watched[idx]
            assert pair == (entries * 2)[:2] and all(idx in search.watches[l] for l in pair)
            assert len(entries) > 1 or search.val[entries[0]] is not None
        named = {abs(l) for entries in search.nogoods for l in entries}
        lone_bodies = _lone_constraint_bodies(search.catalog)
        for body in lone_bodies:
            var = search.catalog.ids[body]
            assert search.val[var] is False and search.level[var] == 0
            assert var not in named
        lone += len(lone_bodies)
        shared += len(search.catalog.constraints - lone_bodies)
    assert lone > 50 and shared > 0


def _solver_refutations(seed):
    """(program, proof) for every refutation of PHP(4,3), the pathless
    8-vertex hampath program (l lines) and 200 random normal and rich
    programs, under every heuristic, with and without restarts."""
    rng = random.Random(seed)
    programs = [parse_program(_php_text(4, 3, random.Random(1))),
                parse_program(_hampath_text(_NO_PATH_GRAPH))]
    for index in range(200):
        generate = random_rich_program if index % 2 else random_program
        programs.append(generate(rng, max_atoms=8, max_rules=16))
    for program in programs:
        for heuristic in HEURISTICS:
            for restarts in (False, True):
                result = solve(program, heuristic=heuristic, restarts=restarts, seed=3)
                if result.status == INCONSISTENT:
                    yield program, result.proof


def _named_body_ids(program, catalog, step):
    """The ids above the atoms a solver proof line names, in order; an l
    line names the catalog ids of its loop's external bodies."""
    if step.kind == "l":
        return [catalog.ids[body] for body in external_bodies(program, catalog, step.lits)]
    ids = [step.head] if step.kind == "c" else []
    return ids + [abs(lit) for lit in step.lits if abs(lit) > program.atom_count]


def test_solver_proofs_name_catalog_ids_with_no_b_line(ex1_program):
    """A solver proof has no b line, and every id above the atoms it names is
    a catalog id, which the checker declares at its first use. Preloaded
    mode numbers the bodies the same way, so the proof also checks there
    with its c and s lines removed."""
    named = 0
    for program, proof in [(ex1_program, solve(ex1_program).proof), *_solver_refutations(43)]:
        normal = normalize_weights(program)
        catalog = body_catalog(normal)
        assert not [step for step in proof if step.kind == "b"]
        for step in proof:
            for body_id in _named_body_ids(normal, catalog, step):
                assert catalog.body_of(body_id) is not None
                named += 1
        assert check(program, proof).ok
        bare = Proof(tuple(step for step in proof if step.kind not in "cs"))
        assert check(program, bare, preloaded=True).ok
    assert named > 1000


def _final_store(program, proof):
    state = CheckerState(program)
    for step in proof:
        state.step(step)
    return state.result().ok, sorted(sorted(nogood) for nogood in state.store.live())


def test_catalog_b_lines_put_back_change_no_verdict():
    """A solver proof with the catalog's b line put back before the first line
    that names each body checks, as it does without them, and leaves the
    checker the same multiset of nogoods: a first use declares exactly what
    that b line would."""
    restored = 0
    for program, proof in _solver_refutations(47):
        normal = normalize_weights(program)
        catalog = body_catalog(normal)
        steps, named = [], set()
        for step in proof:
            for body_id in _named_body_ids(normal, catalog, step):
                if body_id not in named:
                    named.add(body_id)
                    steps.append(Step("b", body_id, sorted_lits(catalog.body_of(body_id))))
                    restored += 1
            steps.append(step)
        ok, store = _final_store(program, proof)
        assert ok
        assert _final_store(program, Proof(tuple(steps))) == (ok, store)
    assert restored > 500


def test_branch_picks_the_smallest_unassigned_variable(monkeypatch):
    """min-true/min-false branch on the least free variable, restarts included."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 8)
    pick = solver_module._Search.pick_branch
    picks = 0

    def checked_pick(search):
        nonlocal picks
        free = [v for v in range(1, search.var_count + 1) if search.val[v] is None]
        branch = pick(search)
        assert (branch is None) == (not free)
        if branch is not None:
            assert abs(branch) == free[0]
            assert branch > 0 if search.heuristic == "min-true" else branch < 0
            picks += 1
        return branch

    monkeypatch.setattr(solver_module._Search, "pick_branch", checked_pick)
    rng = random.Random(29)
    for index in range(300):
        generate = random_rich_program if index % 2 else random_program
        program = generate(rng, max_atoms=8, max_rules=16)
        for heuristic in ("min-true", "min-false"):
            solve(program, heuristic=heuristic, restarts=True)
    assert picks > 100


def test_backjump_pops_a_suffix():
    """A backjump keeps the trail up to the first undone decision, and only that."""
    search = _search_over("a b c d e f", ((1, 4), (2, 5), (3, 6)))
    for _ in range(3):
        search.decide(search.pick_branch())
        assert search.propagate() is None
    assert search.trail == [1, -4, 2, -5, 3, -6]
    assert search.pick_branch() is None
    search.backjump(1)
    assert search.trail == [1, -4]
    levels = [search.level[abs(lit)] for lit in search.trail]
    assert levels == sorted(levels)
    assert search.qhead == len(search.trail)
    assert search.pick_branch() == 2


def test_trail_stays_level_ordered_under_fuzzing(monkeypatch):
    """Levels never fall along the trail, a backjump keeps exactly the prefix at or
    below its target, and every decision finds the trail fully propagated."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 8)
    backjump, pick = solver_module._Search.backjump, solver_module._Search.pick_branch
    counts = {"backjumps": 0, "decisions": 0}

    def assert_level_ordered(search):
        levels = [search.level[abs(lit)] for lit in search.trail]
        assert levels == sorted(levels)

    def checked_backjump(search, target):
        assert_level_ordered(search)
        kept = [lit for lit in search.trail if search.level[abs(lit)] <= target]
        backjump(search, target)
        assert search.trail == kept
        counts["backjumps"] += 1

    def checked_pick(search):
        assert search.qhead == len(search.trail)
        assert_level_ordered(search)
        counts["decisions"] += 1
        return pick(search)

    monkeypatch.setattr(solver_module._Search, "backjump", checked_backjump)
    monkeypatch.setattr(solver_module._Search, "pick_branch", checked_pick)
    rng = random.Random(31)
    for index in range(450):
        generate = random_rich_program if index % 2 else random_program
        program = generate(rng, max_atoms=8, max_rules=16)
        for heuristic in HEURISTICS:
            solve(program, heuristic=heuristic, restarts=True, seed=index)
    assert counts["backjumps"] > 100 and counts["decisions"] > 500


def test_attach_takes_only_nogoods_search_derives(monkeypatch):
    """Set-up attaches nothing: attach receives only learned nogoods (a tags)
    and loop nogoods (l tags), in search. Neither has a false entry; a learned
    nogood has exactly one free entry, and a loop nogood at most one. That is
    what lets attach watch a free entry beside the highest true one, or with
    none report a conflict. Every refutation checks as written and
    preloaded."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 8)
    attach, load_completion = solver_module._Search.attach, solver_module._Search.load_completion
    counts = {"learned": 0, "loop": 0, "loop_conflict": 0}
    loaded = set()

    def checked_load_completion(search):
        load_completion(search)
        loaded.add(id(search))

    def checked_attach(search, entries, tag):
        assert id(search) in loaded
        values = [search.val[l] for l in entries]
        frees = values.count(None)
        assert False not in values and frees <= 1
        if tag[0] == "a":
            assert tag[1] == 0 and frees == 1
            counts["learned"] += 1
        else:
            assert tag[0] == "l"
            counts["loop"] += 1
        conflict = attach(search, entries, tag)
        assert (conflict is None) == (frees == 1)
        counts["loop_conflict"] += conflict is not None
        return conflict

    monkeypatch.setattr(solver_module._Search, "load_completion", checked_load_completion)
    monkeypatch.setattr(solver_module._Search, "attach", checked_attach)
    rng = random.Random(61)
    programs = [parse_program(_hampath_text(_NO_PATH_GRAPH)),
                parse_program(_php_text(5, 4, random.Random(2)))]
    for index in range(300):
        generate = random_rich_program if index % 2 else random_program
        programs.append(generate(rng, max_atoms=8, max_rules=16))
    for index, program in enumerate(programs):
        for heuristic in HEURISTICS:
            for restarts in (False, True):
                result = solve(program, heuristic=heuristic, restarts=restarts, seed=index)
                if result.status == INCONSISTENT:
                    assert _checks_in_both_modes(program, result.proof)
    assert counts["learned"] > 300 and counts["loop"] > 100 and counts["loop_conflict"] > 0


def _rested_on(search, conflict):
    """Indices of the learned nogoods a level-0 conflict rests on: those
    reachable from it through the level-0 reason of every variable that the
    conflict or a reached reason names, and through the reasons and level-0
    variables each reached learned nogood recorded as its antecedents."""
    nogoods, reason, antecedents = search.nogoods, search.reason, search.antecedents
    reached, justified = set(), set()
    work = [("reason", conflict)]
    while work:
        kind, item = work.pop()
        if kind == "var":
            if item not in justified:
                justified.add(item)
                work.append(("reason", reason[item]))
        elif kind == "reason":
            work += [("var", abs(l)) for l in nogoods[item]]
            work.append(("nogood", item))
        elif item not in reached:
            reached.add(item)
            resolved, roots = antecedents.get(item, ((), ()))
            work += [("nogood", idx) for idx in resolved] + [("var", var) for var in roots]
    return sorted(reached & antecedents.keys())


def test_written_lemmas_are_those_the_refutation_rests_on(monkeypatch):
    """Under every heuristic, with and without restarts, the learned nogoods
    that get an a line are exactly those reachable from the final conflict
    through recorded antecedents and level-0 reasons, written in the order
    they were learned, and each proof checks. Some learned nogoods are left
    out, so writing every one would fail here."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 8)
    refute = solver_module._Search.refute
    final = []

    def recorded_refute(search, conflict):
        final.append((search, conflict))
        return refute(search, conflict)

    monkeypatch.setattr(solver_module._Search, "refute", recorded_refute)
    rng = random.Random(71)
    programs = [parse_program(_php_text(5, 4, random.Random(3))),
                parse_program(_hampath_text(_NO_PATH_GRAPH))]
    for index in range(150):
        generate = random_rich_program if index % 2 else random_program
        programs.append(generate(rng, max_atoms=8, max_rules=16))
    refuted = learned = left_out = 0
    for index, program in enumerate(programs):
        for heuristic in HEURISTICS:
            for restarts in (False, True):
                del final[:]
                result = solve(program, heuristic=heuristic, restarts=restarts, seed=index)
                if result.status != INCONSISTENT:
                    continue
                ((search, conflict),) = final
                written = [step.lits for step in result.proof if step.kind == "a" and step.lits]
                rested_on = _rested_on(search, conflict)
                assert written == [search.nogoods[idx] for idx in rested_on]
                assert check(program, result.proof).ok
                refuted += 1
                learned += len(search.antecedents)
                left_out += len(search.antecedents) - len(rested_on)
    assert refuted > 200 and learned > 200 and left_out > 10


def test_constraints_get_lines_only_when_the_refutation_needs_them():
    """The two constraints on `a` refute the program, so only they get lines:
    each one's c line with no atoms, which names its body by its catalog id.
    The constraint on `b` (body 6) takes no part and gets none."""
    program = parse_program("{a}. {b}. :- a. :- not a. :- b.\n")
    result = solve(program)
    assert result.status == INCONSISTENT
    assert check(program, result.proof).ok
    lines = serialize_proof(result.proof).splitlines()
    assert lines == ["c 4 0", "c 5 0", "a 0"]


def _blocking_for_constraints(program):
    """The program with each constraint `:- B.` written `x :- B, not x.` over
    an atom x of its own, numbered after the others: a self-blocking atom."""
    names, rules = list(program.atom_names), []
    for rule in program.rules:
        if not rule.head:
            names.append(f"blocked{len(names) + 1}")
            rule = basic_rule((len(names),), rule.pos_body, rule.neg_body | {len(names)})
        rules.append(rule)
    return Program(tuple(names), tuple(rules))


def _setup_tags(monkeypatch):
    """Spy on set-up; lists, per search, the tags of the nogoods it built."""
    load_completion = solver_module._Search.load_completion
    seen = []

    def recorded_load_completion(search):
        conflict = load_completion(search)
        seen.append([tag for tag in search.tags if tag])
        return conflict

    monkeypatch.setattr(solver_module._Search, "load_completion", recorded_load_completion)
    return seen


def test_self_blocking_lines_come_in_order_and_at_most_once(monkeypatch):
    """The rich programs' constraints are written as self-blocking atoms, each
    false in every answer set. Under every heuristic, with and without
    restarts, set-up builds no a line for them, only each one's support
    nogood with its s tag, as for any atom; search refutes such an atom like
    any other. Every witness is an answer set, and every streamed proof checks
    as written and preloaded."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 8)
    setups = _setup_tags(monkeypatch)
    rng = random.Random(53)
    refuted = blocked = 0
    for index in range(300):
        generate = random_rich_program if index % 2 else random_program
        drawn = generate(rng, max_atoms=8, max_rules=16)
        program = _blocking_for_constraints(drawn)
        blocking = range(drawn.atom_count + 1, program.atom_count + 1)
        for heuristic in HEURISTICS:
            for restarts in (False, True):
                del setups[:]
                sink = io.StringIO()
                result = solve(program, heuristic=heuristic, restarts=restarts, seed=index,
                               proof_sink=sink)
                (tags,) = setups
                assert not [tag for tag in tags if tag[0] == "a"]
                supported = {tag[1] for tag in tags if tag[0] == "s"}
                assert supported.issuperset(blocking)
                blocked += len(blocking)
                if result.status == CONSISTENT:
                    assert is_answer_set(program, result.answer_set)
                    continue
                refuted += 1
                assert _checks_in_both_modes(program, parse_proof(sink.getvalue()))
    assert refuted > 300 and blocked > 1000


@pytest.mark.parametrize("snippet", [
    "{a} :- c, not a, not b.",
    "a :- b, not a.\nc :- a.",
    "a :- b, not a.\na :- c, not a.",
    "a :- not a.",
    "a :- b, not a.",
])
def test_self_blocking_atoms_that_are_not_constraints_keep_their_completion(monkeypatch, snippet):
    """A self-blocking atom `a` keeps its support nogood, and set-up builds
    no a line for it, whether it heads a choice rule, is named in a second
    rule, has an empty B' or is named nowhere else, as in the rule
    `a :- b, not a.` that the constraint `:- b.` behaves like. Treating the
    choice rule as a constraint would refute `{a} :- c, not a, not b. c.`,
    which has an answer set. Verdicts match the oracle under every
    heuristic, with and without restarts, witnesses are answer sets and
    every proof checks as written and preloaded."""
    monkeypatch.setattr(solver_module, "RESTART_INTERVAL", 2)
    setups = _setup_tags(monkeypatch)
    contexts = ["", "b.", "c.", "b.\nc.", "{b}.\n{c}.", "{b; c}.\n:- not b.", "{c}.\n:- not c.",
                "{b}.\nc :- not b.", "{c}.\nb :- c.\n:- b, not c.", "c.\n:- not a."]
    refuted = 0
    for context in contexts:
        program = parse_program(f"#atoms a b c.\n{snippet}\n{context}\n")
        consistent = bool(enumerate_answer_sets(program, cap=1))
        for heuristic in HEURISTICS:
            for restarts in (False, True):
                del setups[:]
                result = solve(program, heuristic=heuristic, restarts=restarts, seed=3)
                (tags,) = setups
                assert not [tag for tag in tags if tag[0] == "a"]
                assert [tag for tag in tags if tag[0] == "s" and tag[1] == 1]
                if consistent:
                    assert result.status == CONSISTENT
                    assert is_answer_set(program, result.answer_set)
                else:
                    assert result.status == INCONSISTENT
                    assert _checks_in_both_modes(program, result.proof)
                    refuted += 1
    assert refuted > 0


def test_each_constraint_is_one_nogood_and_no_other_names_its_body(monkeypatch):
    """Solving PHP(5,4) holds exactly one nogood per constraint, the body's
    literals tagged with its c line, and no other nogood, learned ones
    included, names a constraint's body, which no rule induces."""
    run = solver_module._Search.run
    searches = []

    def recorded_run(search, restarts):
        searches.append(search)
        return run(search, restarts)

    monkeypatch.setattr(solver_module._Search, "run", recorded_run)
    program = parse_program(_php_text(5, 4, random.Random(2)))
    constraints = [rule.body for rule in program.rules if not rule.head]
    assert len(constraints) == len(set(constraints)) == 45
    for heuristic in HEURISTICS:
        for restarts in (False, True):
            del searches[:]
            result = solve(program, heuristic=heuristic, restarts=restarts)
            assert result.status == INCONSISTENT
            assert check(program, result.proof).ok
            (search,) = searches
            held = list(zip(search.nogoods, search.tags))
            assert len(held) > len(search.antecedents) > 0
            hidden = {search.catalog.ids[body] for body in constraints}
            assert _lone_constraint_bodies(search.catalog) == set(constraints)
            tagged = [(entries, tag) for entries, tag in held
                      if tag and tag[0] == "c" and not tag[2]]
            assert sorted(tag[1] for _, tag in tagged) == sorted(hidden)
            body_of = {body_id: body for body, body_id in search.catalog.ids.items()}
            assert all(entries == sorted_lits(body_of[tag[1]]) for entries, tag in tagged)
            for entries, tag in held:
                assert not hidden & {abs(l) for l in entries}
                assert not (tag and tag[0] == "c" and tag[1] in hidden and tag[2])
