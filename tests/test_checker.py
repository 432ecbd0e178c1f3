"""Proof checking: step validation, deletion, and preloaded mode."""

import ast
import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

import aspcert.checker as checker_module
from aspcert.checker import CheckerState, ProofFormatError, check
from aspcert.completion import INTERNAL_ID_BASE, body_catalog, normalize_weights
from aspcert.core import Program, basic_rule
from aspcert.fuzz import random_program, random_rich_program
from aspcert.loops import dependency_graph, loop_nogood, strongly_connected_components
from aspcert.oracle import enumerate_answer_sets
from aspcert.proof import Proof, Step, parse_proof
from aspcert.program_io import emit_program, parse_program
from aspcert.solver import INCONSISTENT, solve
from reference import atom_id, with_disjunctions_and_a_wide_weight_rule

# The last rule excludes every answer set without a, as `:- not a.` would,
# but over an atom of its own, x (id 3), which the hand-written proofs name.
LOOP_TEXT = "a :- b.\nb :- a.\nx :- not a, not x.\n"

LOOP_PROOF = (
    "b 4 2 0\n"
    "b 5 1 0\n"
    "b 6 -1 -3 0\n"
    "u 2 1 2 1 0\n"
    "c 6 3 0\n"
    "s 3 6 0\n"
    "a -1 -3 0\n"
    "a -1 3 0\n"
    "a -1 0\n"
    "a 0\n"
)


def _check_text(program_text, proof_text, **kwargs):
    return check(parse_program(program_text), parse_proof(proof_text), **kwargs)


def test_figure_proof_is_accepted(ex1_program, fig1_text):
    result = check(ex1_program, parse_proof(fig1_text))
    assert result.ok
    assert bool(result)
    assert result.render() == "Success"


def test_missing_final_box_is_an_error(ex1_program, fig1_text):
    truncated = fig1_text.rsplit("a 0\n", 1)[0]
    result = check(ex1_program, parse_proof(truncated))
    assert not result.ok
    assert result.step is None
    assert "empty nogood" in result.reason


def test_invalid_loop_step_is_reported_at_its_index(ex1_program, fig1_text):
    mutated = fig1_text.replace("l 1 2 0", "l 1 5 0")
    result = check(ex1_program, parse_proof(mutated))
    assert not result.ok
    assert result.step == 14
    assert "loop" in result.reason


def test_errors_name_the_proof_file_line(ex1_program, fig1_text):
    mutated = fig1_text.replace("a -6 1 0", "\n\na 6 0")
    result = check(ex1_program, parse_proof(mutated))
    assert (result.step, result.line) == (15, 17)
    assert result.render().startswith("Error at step 15 (line 17): ")
    unparsed = check(ex1_program, Proof(parse_proof(mutated).steps))
    assert unparsed.line is None and unparsed.render().startswith("Error at step 15: ")


def test_non_rup_addition_is_reported(ex1_program, fig1_text):
    mutated = fig1_text.replace("a -6 1 0", "a 6 0")
    result = check(ex1_program, parse_proof(mutated))
    assert not result.ok
    assert result.step == 15
    assert "unit-propagation" in result.reason


def test_u_step_proof_is_accepted():
    assert _check_text(LOOP_TEXT, LOOP_PROOF).ok


def test_u_step_rejects_founded_sets():
    result = _check_text(LOOP_TEXT, "u 1 1 1 0\n")
    assert not result.ok
    assert result.step == 1
    assert "not unfounded" in result.reason


def test_u_step_needs_a_true_unfounded_atom():
    result = _check_text(LOOP_TEXT, "u 2 1 2 -1 0\n")
    assert not result.ok
    assert "no unfounded atom" in result.reason


def test_disjunctive_proof_is_accepted():
    # The constraints' bodies {not a} and {not b} are also the shifted bodies
    # of b and of a.
    result = _check_text(
        "a | b.\n:- not a.\n:- not b.\n",
        "b 3 -2 0\nb 4 -1 0\nc 3 0\nc 4 0\ns 1 3 0\na 0\n",
    )
    assert result.ok


def test_loop_step_uses_the_disjunctive_loop_formula():
    # {a, b} is an answer set. For the loop {a, b}, `a | b.` supports it from
    # outside through the empty body, not through the shifted bodies
    # {not b} and {not a}, so the loop nogood cannot refute `a`.
    result = _check_text(
        "a | b.\na :- b.\nb :- a.\n",
        "b 3 -2 0\nb 4 -1 0\nb 5 2 0\nb 6 1 0\nc 6 2 0\nl 1 2 0\na 1 0\n"
        "c 3 1 0\nc 5 1 0\nc 4 2 0\na 0\n",
    )
    assert not result.ok
    assert result.step == 7


def _shifted(program):
    """The normal program that replaces a | b :- body by a :- body, not b and b :- body, not a.

    A shifted rule whose body would hold an atom and its negation never
    fires, so it is left out.
    """
    rules = tuple(
        basic_rule((atom,), rule.pos_body, rule.neg_body | others)
        for rule in program.rules
        for atom in rule.head
        if not (others := set(rule.head) - {atom}) & rule.pos_body
    ) + tuple(rule for rule in program.rules if not rule.head)
    return Program(program.atom_names, rules)


def _random_disjunctive_program(rng):
    """Two to eight rules over two to four atoms, heads of one or two atoms."""
    atoms = range(1, rng.randint(2, 4) + 1)
    rules = []
    for _ in range(rng.randint(2, 8)):
        body = rng.sample(atoms, rng.randint(0, 2))
        neg = {a for a in body if rng.random() < 0.3}
        rules.append(basic_rule(rng.sample(atoms, rng.randint(1, 2)), set(body) - neg, neg))
    return Program(tuple("abcd"[: len(atoms)]), tuple(rules))


def _head_cycle_free(program):
    """No two head atoms of a disjunctive rule share a positive SCC."""
    components = strongly_connected_components(dependency_graph(program))
    scc_of = {atom: i for i, component in enumerate(components) for atom in component}
    return all(
        len({scc_of[a] for a in rule.head}) == len(rule.head)
        for rule in program.rules
        if rule.is_disjunctive
    )


def test_shifted_proof_of_a_rule_whose_head_meets_its_body_checks():
    # a | b :- b. shifts to b :- b, not a. alone: the shifted a :- b, not b.
    # never fires, so a has no support and the program is inconsistent.
    program = parse_program("a | b :- b.\n:- not a.\n")
    result = solve(_shifted(program))
    assert result.status == INCONSISTENT
    assert check(program, result.proof).ok


def test_shifted_proofs_never_refute_a_consistent_disjunctive_program():
    # Shifting a program that is not head-cycle-free can lose answer sets,
    # so the solver then refutes the shifted program of a consistent one;
    # that proof must fail against the disjunctive original. Shifting a
    # head-cycle-free program keeps its answer sets, and the proof of an
    # inconsistent one must check against the original.
    rng = random.Random(3)
    refuted = hcf_refuted = 0
    for _ in range(1500):
        program = _random_disjunctive_program(rng)
        result = solve(_shifted(program))
        if result.status != INCONSISTENT:
            continue
        if _head_cycle_free(program):
            hcf_refuted += 1
            assert check(program, result.proof).ok, emit_program(program)
        elif enumerate_answer_sets(program, cap=1):
            refuted += 1
            assert not check(program, result.proof).ok, emit_program(program)
    assert refuted >= 5 and hcf_refuted >= 50


def _random_step_line(rng, program, bodies):
    """One proof line of a random kind that parse_proof accepts.

    Ids come from the atoms, the catalog ids and the next few ids, with an
    occasional INTERNAL_ID_BASE, the id an l step gives an external body
    whose catalog id is taken, so atoms, bodies and extension variables
    collide often. Atom fields mostly name atoms, and b steps
    mostly declare one of the program's induced bodies.
    """
    atoms = range(1, program.atom_count + 1)
    ids = range(1, program.atom_count + len(bodies) + 3)

    def var(atom=False):
        if rng.random() < 0.05:
            return INTERNAL_ID_BASE
        return rng.choice(atoms if atom and rng.random() < 0.9 else ids)

    def lits(most):
        return [v if rng.random() < 0.5 else -v for v in (var() for _ in range(rng.randint(0, most)))]

    def atom_set():
        return list(dict.fromkeys(var(atom=True) for _ in range(rng.randint(1, 3))))

    kind = rng.choice("acsedlub")
    if kind in "ad":
        payload = lits(3)
    elif kind == "c":
        payload = [var(), *(var(atom=True) for _ in range(rng.choice((0, 1, 1, 1, 2))))]
    elif kind == "s":
        payload = [var(atom=True), *(var() for _ in range(rng.randint(0, 3)))]
    elif kind == "e":
        payload = [var()]
    elif kind == "b":
        if bodies and rng.random() < 0.7:
            payload = [var(), *sorted(rng.choice(bodies), key=abs)]
        else:
            payload = [var(), *lits(3)]
    elif kind == "l":
        payload = atom_set()
    else:
        unfounded = atom_set()
        payload = [len(unfounded), *unfounded, *lits(3)]
    return " ".join(map(str, (kind, *payload, 0)))


def test_random_step_sequences_never_refute_a_consistent_program():
    """Grammar-drawn proofs over all eight step kinds must never check against
    a program that has an answer set.

    Each proof grows one drawn line at a time: the checker runs on the proof
    so far plus the new line, and the line is kept when the checker gets
    past it, so that proofs reach deep states. A line may fail or be
    ill-formed (ProofFormatError); any other exception is a checker bug.
    """
    rng = random.Random(41)
    generators = (random_program, random_rich_program, _random_disjunctive_program)
    programs = []
    while len(programs) < 60:
        generate = generators[len(programs) % len(generators)]
        if generate is _random_disjunctive_program:
            program = generate(rng)
        else:
            program = generate(rng, max_atoms=4, max_rules=8)
        if enumerate_answer_sets(program, cap=1):
            programs.append(program)
    kept = set()
    for program in programs:
        # Lines name the normalized program's ids: its counter atoms follow
        # the program's atoms, and its catalog ids follow them.
        normal = normalize_weights(program)
        bodies = list(body_catalog(normal).ids)
        # Half the proofs that are not preloaded start with a b line for
        # every consistent body under its catalog id; the others leave the
        # catalog ids to be declared at their first use.
        declared = [
            " ".join(map(str, ("b", body_id, *sorted(body, key=abs), 0)))
            for body_id, body in enumerate(bodies, normal.atom_count + 1)
            if all(-lit not in body for lit in body)
        ]
        for _ in range(8):
            options = {"preloaded": rng.random() < 0.2, "strict_delete": rng.random() < 0.2}
            lines = declared[:] if not options["preloaded"] and rng.random() < 0.5 else []
            for _ in range(24):
                line = "a 0" if rng.random() < 0.15 else _random_step_line(rng, normal, bodies)
                text = "".join(f"{kept_line}\n" for kept_line in (*lines, line))
                try:
                    result = check(program, parse_proof(text), **options)
                except ProofFormatError:
                    continue
                assert not result.ok, emit_program(program) + text
                if result.step is None:
                    lines.append(line)
                    kept.add(line[0] if len(line.split()) != 3 or line[0] != "c" else "constraint")
    assert kept == set("acsedlub") | {"constraint"}


def test_extension_variable_must_be_fresh():
    result = _check_text(LOOP_TEXT, "e 2 0\na 0\n")
    assert not result.ok
    assert result.step == 1
    assert "not fresh" in result.reason
    result = _check_text(LOOP_TEXT, "b 4 2 0\ne 4 0\na 0\n")
    assert result.step == 2


def test_extension_variable_can_appear_in_later_steps():
    proof = LOOP_PROOF.replace("a -1 0\n", "e 9 0\na -1 0\na -1 9 0\n")
    assert _check_text(LOOP_TEXT, proof).ok


def test_delete_of_absent_nogood_is_silent_by_default():
    assert _check_text(LOOP_TEXT, "d 1 2 0\n" + LOOP_PROOF).ok


def test_strict_delete_of_absent_nogood_fails():
    result = _check_text(LOOP_TEXT, "d 1 2 0\n" + LOOP_PROOF, strict_delete=True)
    assert not result.ok
    assert result.step == 1
    assert "not present" in result.reason


def test_delete_declares_nothing():
    """`d 3 0` names catalog body 3, {not b}, which no line has declared, so
    its nogood cannot be present: the deletion adds no nogood and claims no
    id, a later `b 9 -2 0` names that body as it would alone, and under
    --strict-delete the deletion fails."""
    two = "a :- not b.\nb :- not a.\n:- a.\n:- b.\n"

    def final_state(proof_text):
        state = CheckerState(parse_program(two))
        for step in parse_proof(proof_text):
            state.step(step)
        return state

    deleted = final_state("d 3 0\n")
    assert not list(deleted.store.live()) and not deleted.registry.knows(3)
    both, alone = final_state("d 3 0\nb 9 -2 0\n"), final_state("b 9 -2 0\n")
    assert both.registry.id_of(frozenset({-2})) == 9
    stores = [sorted(sorted(nogood) for nogood in state.store.live()) for state in (both, alone)]
    assert stores[0] == stores[1] != []
    result = _check_text(two, "d 3 0\n", strict_delete=True)
    assert not result.ok and result.step == 1 and "not present" in result.reason


def test_delete_removes_one_copy_at_a_time():
    double = LOOP_PROOF.replace("u 2 1 2 1 0\n", "u 2 1 2 1 0\nu 2 1 2 1 0\nd 1 0\n")
    assert _check_text(LOOP_TEXT, double).ok
    gone = LOOP_PROOF.replace(
        "u 2 1 2 1 0\n", "u 2 1 2 1 0\nu 2 1 2 1 0\nd 1 0\nd 1 0\n"
    )
    result = _check_text(LOOP_TEXT, gone)
    assert not result.ok
    assert result.step == 13    # the final box now fails


def test_deleted_nogood_no_longer_supports_additions():
    proof = LOOP_PROOF.replace("a 0\n", "d 1 0\na 0\n")
    result = _check_text(LOOP_TEXT, proof)
    assert not result.ok
    assert result.step == 11


@pytest.mark.parametrize(
    "proof_text, message",
    [
        ("c 9 3 0\n", "unknown body id"),
        ("b 4 2 0\nb 4 2 0\n", "already defined"),
        ("b 1 2 0\n", "collides"),
        ("b 4 1 2 3 0\n", "not an induced body"),
        ("u 2 1 2 1 -1 0\n", "contradictory"),
        ("a 99 0\n", "unknown"),
        ("b 4 99 0\n", ": unknown atom 99$"),
        ("b 4 1 -1 0\n", ": contradictory body literals$"),
        # 4-6 are the catalog ids; an id past them names nothing
        ("a -7 0\n", ": unknown variable 7$"),
        ("c 7 3 0\n", ": unknown body id 7$"),
        ("s 3 6 7 0\n", ": unknown body id 7$"),
    ],
)
def test_format_violations_raise(proof_text, message):
    with pytest.raises(ProofFormatError, match=message):
        check(parse_program(LOOP_TEXT), parse_proof(proof_text))


def test_a_catalog_id_names_its_body_at_its_first_use():
    """The catalog ids of LOOP_TEXT are 4 {b}, 5 {a} and 6 {not a, not x}.
    LOOP_PROOF checks without its b lines: `c 6 3 0`, the first line that
    names 6, declares that body and adds its definition, as `b 6 -1 -3 0` did."""
    bare = "".join(line + "\n" for line in LOOP_PROOF.splitlines() if line[0] != "b")
    assert "c 6 3 0" in bare and "b" not in bare
    assert _check_text(LOOP_TEXT, bare).ok
    state = CheckerState(parse_program(LOOP_TEXT))
    state.step(Step("c", 6, (3,)))
    assert state.registry.lits_of(6) == frozenset({-1, -3})
    definition = {frozenset({-1, -3, -6}), frozenset({6, 1}), frozenset({6, 3})}
    assert definition <= set(state.store.live())


def test_an_e_line_on_a_catalog_id_keeps_it_an_extension_variable():
    """Catalog id 4 names body {b}, whose definition holds the nogood
    {T 4, F b}. After `e 4 0`, 4 is an extension variable with no
    definition, so that nogood is not RUP, and no c line may name 4."""
    assert _check_text(LOOP_TEXT, "a 4 -2 0\n").step is None
    result = _check_text(LOOP_TEXT, "e 4 0\na 4 -2 0\n")
    assert (result.ok, result.step) == (False, 2)
    assert "unit-propagation" in result.reason
    with pytest.raises(ProofFormatError, match=r"^step 2 \(line 2\): unknown body id 4$"):
        _check_text(LOOP_TEXT, "e 4 0\nc 4 1 0\n")


@pytest.mark.parametrize("use", ["a 5 0", "c 5 2 0", "s 1 5 0"])
def test_a_catalog_id_given_to_another_body_bars_that_bodys_own_id(use):
    """`b 4 1 0` names body {a}, whose catalog id is 5, by id 4; a later first
    use of 5 would name {a} a second time, so it is a format error."""
    message = r"^step 2 \(line 2\): body \[1\] is already named by id 4$"
    with pytest.raises(ProofFormatError, match=message):
        _check_text(LOOP_TEXT, f"b 4 1 0\n{use}\n")


def test_b_line_after_an_l_line_that_named_its_body_is_refused():
    """An l line gives every external body no line has named yet its catalog
    id, so a later b line for one of them takes an id already defined; a b
    line first and the l line after pass."""
    text = "#atoms a b.\nb :- a, b.\na :- a, b.\nb :- a, not b.\na :- not b.\n"
    rest = "a 1 -5 0\nb 4 1 -2 0\nc 4 2 0\na 1 0\nb 3 1 2 0\ns 2 3 4 0\nc 5 1 0\na 0\n"
    assert _check_text(text, "b 5 -2 0\nl 1 2 0\n" + rest).ok
    with pytest.raises(ProofFormatError, match="id 5 is already defined"):
        _check_text(text, "l 1 2 0\nb 5 -2 0\n" + rest)


@pytest.mark.parametrize(
    "program_text, proof_text, refusal",
    [
        # {a} and {b} are answer sets; body ids 3 and 4 are first made
        # extension variables, forced true, then declared as bodies
        (
            "a :- not b.\nb :- not a.\n",
            "e 3 0\nb 3 -2 0\ne 4 0\nb 4 -1 0\nc 3 1 0\nc 4 2 0\na 1 0\na 0\n",
            "already defined",
        ),
        # {} is an answer set; the extension variable takes the catalog id 6
        # of the l step's external body {c}, which therefore gets the first
        # free id from INTERNAL_ID_BASE, which the constraint `:- c.` then
        # names; the final a step fails
        (
            "a :- b.\nb :- a.\na :- c.\n{c}.\n:- c.\n",
            "e 6 0\nl 1 2 0\nc 1099511627776 0\na 0\n",
            4,
        ),
    ],
)
def test_extension_variables_share_no_id_with_bodies(program_text, proof_text, refusal):
    if isinstance(refusal, str):
        with pytest.raises(ProofFormatError, match=refusal):
            _check_text(program_text, proof_text)
    else:
        result = _check_text(program_text, proof_text)
        assert (result.ok, result.step) == (False, refusal)


@pytest.mark.parametrize(
    "proof_text",
    [
        LOOP_PROOF.replace("a -1 0\n", f"e {INTERNAL_ID_BASE} 0\na -1 0\na -1 {INTERNAL_ID_BASE} 0\n"),
        LOOP_PROOF.replace(" 6 ", f" {INTERNAL_ID_BASE} ").replace(" 6 0", f" {INTERNAL_ID_BASE} 0"),
        f"e {INTERNAL_ID_BASE} 0\nl 1 2 0\n" + LOOP_PROOF,
    ],
)
def test_fresh_ids_of_any_size_are_accepted(proof_text):
    assert str(INTERNAL_ID_BASE) in proof_text
    assert _check_text(LOOP_TEXT, proof_text).ok


def test_support_step_must_match_induced_bodies():
    result = _check_text(LOOP_TEXT, "b 4 2 0\ns 2 4 0\n")
    assert not result.ok
    assert result.step == 2
    assert "induced bodies" in result.reason
    result = _check_text(LOOP_TEXT, "b 4 2 0\nb 5 1 0\ns 1 4 5 0\n")
    assert result.step == 3


def test_rule_firing_step_must_match_a_rule():
    result = _check_text(LOOP_TEXT, "b 4 2 0\nc 4 2 0\n")
    assert not result.ok
    assert "rule-firing" in result.reason


def test_c_step_names_at_most_one_atom():
    """`c 4 1 0` and `c 4 3 0` are the rule-firing nogoods of `a :- c.` and
    `b :- c.`; one line naming both atoms is no rule-firing nogood."""
    program = "a :- c.\nb :- c.\nc.\n"
    for atom in (1, 3):
        assert _check_text(program, f"b 4 2 0\nc 4 {atom} 0\n").step is None
    result = _check_text(program, "b 4 2 0\nc 4 1 3 0\n")
    assert (result.ok, result.step) == (False, 2)
    assert "rule-firing" in result.reason


def test_e_step_with_literals_is_a_format_error():
    """The text format cannot give an e line literals; a Step built in code
    with them is refused, not read as a definition."""
    program = parse_program(LOOP_TEXT)
    with pytest.raises(ProofFormatError, match=r"^step 1: an e step carries no literals$"):
        check(program, Proof((Step("e", 9, (1,)), Step("a"))))
    assert check(program, Proof((Step("e", 9), Step("a", lits=(-9,))))).step is None


def test_c_step_without_atoms_adds_a_constraint_body_nogood():
    # `:- a.` and `:- not a.` refute `{a}.`; body 3 is also a rule's body.
    program = "{a}.\n:- a.\n:- not a.\nb :- not a.\n"
    assert _check_text(program, "b 3 1 0\nc 3 0\nb 4 -1 0\nc 4 0\na 0\n").ok
    assert _check_text(program, "b 3 1 0\nc 3 0\nb 4 -1 0\nc 4 2 0\na 0\n").step == 5


@pytest.mark.parametrize("body", ["", "1", "-1 -3", "-1 -2"])
def test_c_step_without_atoms_is_refused_for_other_bodies(body):
    """The choice body {}, the rule body {a} and the shifted bodies of
    `b | c :- not a.` are no constraint's body, so no c line without atoms
    may name them; the constraint's body {b, c} may."""
    program = "#atoms a b c.\n{a}.\nd :- a.\nb | c :- not a.\n:- b, c.\n"
    assert _check_text(program, "b 5 2 3 0\nc 5 0\n").step is None
    result = _check_text(program, f"b 5 {body} 0\nc 5 0\n".replace("  ", " "))
    assert (result.ok, result.step) == (False, 2)
    assert "rule-firing" in result.reason


def test_preloaded_constraints_alone_refute():
    # The preloaded {T B} of both constraints leave a no value.
    program = parse_program("{a}.\n:- a.\n:- not a.\n")
    assert check(program, parse_proof("a 1 0\na 0\n"), preloaded=True).ok
    consistent = parse_program("{a}.\n:- a.\n")
    assert check(consistent, parse_proof("a 1 0\na 0\n"), preloaded=True).step == 2


def test_preloaded_two_line_proof():
    program = parse_program("a :- not a.\n")
    assert check(program, parse_proof("a 1 0\na 0\n"), preloaded=True).ok
    assert check(program, parse_proof("a -1 0\na 0\n"), preloaded=True).ok


def test_preloaded_rejects_declaration_steps():
    program = parse_program("a :- not a.\n")
    for line in ("b 9 -1 0\n", "c 9 1 0\n", "s 1 9 0\n"):
        with pytest.raises(ProofFormatError, match="preloaded"):
            check(program, parse_proof(line + "a 0\n"), preloaded=True)


def _support_nogood(state, atom):
    """{T atom} + {F B} per catalog body B of the atom."""
    catalog = state.catalog
    return loop_nogood(atom, (catalog.ids[body] for body in catalog.bodies_of(atom)))


def test_preloaded_weight_rule_uses_bound_propagation(wide_weight_rule):
    """b0, ..., b6 reach the bound of a's weight rule, so against `:- a.` the
    program has no answer set. Preloaded mode loads the counter's completion,
    whose unit propagation carries the facts up to a: the empty nogood is
    RUP at once.
    The solver's proof checks both as written and, without its c and s
    lines, preloaded."""
    facts = "".join(f"b{i}.\n" for i in range(7))
    program = parse_program(wide_weight_rule + facts + ":- a.\n")
    state = CheckerState(program, preloaded=True)
    assert _support_nogood(state, atom_id(program, "a")) in state.store.live()
    assert check(program, parse_proof("a 0\n"), preloaded=True).ok
    result = solve(program)
    assert result.status == INCONSISTENT
    assert check(program, result.proof).ok
    bare = Proof(tuple(step for step in result.proof if step.kind not in "cs"))
    assert check(program, bare, preloaded=True).ok


def test_both_modes_load_the_same_completion():
    """Written mode fed every c line the catalog allows and every s line
    holds, as a multiset, what preloaded mode loads, on rich draws with
    disjunctive rules and a wide weight rule, whose counter atoms the lines
    name. A b line declares any catalog body no c or s line named."""
    rng = random.Random(24)
    for _ in range(150):
        program = with_disjunctions_and_a_wide_weight_rule(
            rng, random_rich_program(rng, max_atoms=6, max_rules=12))
        preloaded = CheckerState(program, preloaded=True)
        written = CheckerState(program)
        catalog = written.catalog
        ids = catalog.ids
        steps = [Step("c", ids[body], (atom,)) for atom, body in catalog.firing]
        steps += [Step("c", ids[body]) for body in catalog.constraints]
        steps += [Step("s", atom, tuple(ids[body] for body in catalog.bodies_of(atom)))
                  for atom in written.program.atom_ids()]
        for step in steps:
            written.step(step)
        for body, body_id in ids.items():
            if written.registry.lits_of(body_id) is None:
                written.step(Step("b", body_id, tuple(body)))
        assert Counter(written.store.live()) == Counter(preloaded.store.live())


def test_s_line_for_a_weight_head_lists_its_counter_bodies(wide_weight_rule):
    """The s line of a weight rule's head lists the bodies of its counter's
    top level, by the ids after the counter atoms; a subset-minimal literal
    set of the rule is no body, so no b line can declare one."""
    program = parse_program(wide_weight_rule)
    state = CheckerState(program)
    normal, ids = state.program, state.catalog.ids
    top, rest = atom_id(normal, "#1.14.7"), atom_id(normal, "#1.14.6")
    first = ids[frozenset({top})]
    second = ids[frozenset({atom_id(program, "b14"), rest})]
    assert program.atom_count < normal.atom_count < first < second
    state.step(Step("s", 1, (first, second)))
    assert frozenset({1, -first, -second}) in state.store.live()
    result = check(program, parse_proof(f"s 1 {first} 0\na 0\n"))
    assert (result.ok, result.step) == (False, 1)
    assert "induced bodies" in result.reason
    body = " ".join(str(i) for i in range(2, 9))
    with pytest.raises(ProofFormatError, match="not an induced body"):
        check(program, parse_proof(f"b 200 {body} 0\na 0\n"))


def test_checker_state_incremental_interface():
    state = CheckerState(parse_program(LOOP_TEXT))
    state.step(Step("u", lits=(1,), unfounded=(1, 2)))
    assert state.store.live() == [frozenset({1})]
    pending = state.result()
    assert not pending.ok
    assert pending.step is None
    state.step(Step("a", lits=(1, 2)))
    assert frozenset({1, 2}) in state.store.live()


# A 300-atom implication chain whose last atom is forbidden, and PHP(4, 3) as
# choice rules and constraints: both are refuted with no l line.
CHAIN_TEXT = "x1.\n" + "".join(f"x{i} :- x{i - 1}.\n" for i in range(2, 301)) + ":- x300.\n"
PHP_TEXT = "".join(
    "{" + "; ".join(f"p{i}_{j}" for j in (1, 2, 3)) + "}.\n"
    + ":- " + ", ".join(f"not p{i}_{j}" for j in (1, 2, 3)) + ".\n"
    + "".join(f":- p{i}_{j}, p{k}_{j}.\n" for j in (1, 2, 3) for k in range(i + 1, 5))
    for i in range(1, 5)
)


def _refutation(text):
    program = parse_program(text)
    result = solve(program)
    assert result.status == INCONSISTENT
    return program, result.proof


def test_refutations_check_with_each_lemma_deleted_and_added_again():
    """Each a line of a refutation, followed by a d line for it and the same
    a line again, still checks: the d line restores the store the first a
    line was tested against. A unit lemma is a top-level reason, so its
    deletion makes the next step rebuild the store's top level; PHP(4, 3)
    adds longer lemmas, most of which no top-level literal rests on. Each
    proof checks as written and, without its c and s lines, preloaded."""
    rng = random.Random(25)
    refutations = [_refutation(PHP_TEXT)]
    while len(refutations) < 151:
        program = random_rich_program(rng, max_atoms=6, max_rules=12)
        result = solve(program)
        if result.status == INCONSISTENT:
            refutations.append((program, result.proof))
    for program, proof in refutations:
        steps = []
        for step in proof:
            steps.append(step)
            if step.kind == "a":
                steps += [Step("d", lits=step.lits), step]
        text = emit_program(program)
        assert check(program, Proof(tuple(steps))), text
        bare = Proof(tuple(step for step in steps if step.kind not in "cs"))
        assert check(program, bare, preloaded=True), text


def test_dependency_graph_is_built_at_the_first_l_step(monkeypatch, ex1_program, fig1_text):
    """Only l steps read the dependency graph, so proofs without one check
    without building it; the golden proof's l line does build it."""
    proofs = [_refutation(CHAIN_TEXT), _refutation(PHP_TEXT)]

    def refuse(program):
        raise RuntimeError("dependency graph built")

    monkeypatch.setattr(checker_module, "dependency_graph", refuse)
    for program, proof in proofs:
        assert all(step.kind != "l" for step in proof)
        assert check(program, proof).ok
    with pytest.raises(RuntimeError, match="graph built"):
        check(ex1_program, parse_proof(fig1_text))
    monkeypatch.undo()
    assert check(ex1_program, parse_proof(fig1_text)).ok


def test_checker_state_is_freed_without_the_cycle_collector(ex1_program, fig1_text):
    """A checker state holds no reference cycle, so dropping it frees it and
    its store at once. With a cycle, every store would wait for the cyclic
    collector, and peak memory and solve time would grow with them."""
    cases = [_refutation(CHAIN_TEXT), (ex1_program, parse_proof(fig1_text))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for program, proof in cases:
            state = CheckerState(program)
            for step in proof:
                state.step(step)
            assert state.result().ok
            freed = weakref.ref(state)
            del state
            assert freed() is None
    finally:
        if enabled:
            gc.enable()


def _relative_imports(source):
    """The sibling modules a module's source imports (from .x import ...)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else (alias.name for alias in node.names)


def test_trusted_base_is_the_six_checker_modules():
    """The modules checker.py imports, followed to their closure, are exactly
    the six of the trusted base. Read from source, since importing the
    package root loads the solver too."""
    package = Path(checker_module.__file__).parent
    base, pending = set(), ["checker"]
    while pending:
        name = pending.pop()
        if name not in base:
            base.add(name)
            pending.extend(_relative_imports((package / f"{name}.py").read_text()))
    assert base == {"checker", "completion", "core", "loops", "proof", "propagation"}
