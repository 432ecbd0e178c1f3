"""LP-lite parsing, canonical emission, and the dictionary format."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcert.core import RuleKind
from aspcert.fuzz import random_program, random_rich_program
from aspcert.program_io import ParseError, emit_program, parse_program

from reference import reference_parse_program


def test_first_occurrence_numbering():
    program = parse_program("c :- not d.\nd :- not c.")
    assert program.atom_names == ("c", "d")
    assert len(program.rules) == 2


def test_atoms_directive_fixes_numbering(ex1_program):
    assert [ex1_program.name(i) for i in ex1_program.atom_ids()] == [
        "a", "b", "c", "d", "e",
    ]
    assert len(ex1_program.rules) == 8


def test_weight_rule_parse():
    program = parse_program("a :- 3 <= { b=1, c=2, not d=1 }.")
    rule = program.rules[0]
    assert rule.kind is RuleKind.WEIGHT
    assert rule.bound == 3
    # b=2, c=3, d=4 by occurrence
    assert dict(rule.weights) == {2: 1, 3: 2, -4: 1}


def test_choice_and_disjunctive_parse():
    program = parse_program("{a; b} :- c.\na | b :- not c.")
    choice, disj = program.rules
    assert choice.kind is RuleKind.CHOICE and choice.head == (1, 2)
    assert disj.is_disjunctive and disj.neg_body == frozenset({3})


def test_integrity_constraint_is_a_basic_rule_with_an_empty_head():
    program = parse_program("a.\n:- a, not b.")
    constraint = program.rules[1]
    assert program.atom_names == ("a", "b")
    assert constraint.kind is RuleKind.BASIC and constraint.head == ()
    assert constraint.pos_body == frozenset({1})
    assert constraint.neg_body == frozenset({2})
    assert emit_program(program) == "#atoms a b.\na.\n:- a, not b.\n"


def test_facts_and_comments_and_tilde():
    program = parse_program("% header\na.  % a fact\nb :- ~a.")
    assert program.rules[0].pos_body == frozenset()
    assert program.rules[1].neg_body == frozenset({1})


def test_parse_errors():
    for bad in (
        "a :- b",                 # missing terminator
        "a :- 1b.",               # bad atom name
        ":- .",                   # empty constraint body is fine? no: empty body
        "a :- 2 <= {b=1, b=2}.",  # duplicate weight literal
        "{a; a}.",                # duplicate choice head
        "#atoms a. a. #atoms b.", # directive after rules
        "a :- b, not b.",         # contradictory body
    ):
        with pytest.raises(ParseError):
            parse_program(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a.\nb :- .\n", "line 2: rule body is empty"),
        ("a.\n\n  % note\n\n  b :- 1c.\n", "line 5: bad literal '1c'"),
        ("a. b :-\n  c, d :- e.\n", "line 1: more than one ':-'"),
        ("a.\n\n..\n", "line 3: empty statement"),
        ("a.\nb :- c\n", "line 2: statement not terminated by '.'"),
        ("a.\n:- b,\n  not b.\n", "line 2: atom occurs positively and negatively in body"),
        ("a.\n\n\n", None),
        # Past int()'s digit limit, a weight rule's bound or weight.
        pytest.param("a.\nb :- " + "9" * 5000 + " <= {a=1}.\n",
                     "line 2: number of 5000 digits is too long", id="bound-of-5000-digits"),
        pytest.param("b :- 1 <= {a=" + "9" * 5000 + "}.\n",
                     "line 1: number of 5000 digits is too long", id="weight-of-5000-digits"),
        # A bound or weight is ASCII digits only; int() alone would read these.
        pytest.param("a.\nb :- \u0661 <= {a=1}.\n", "line 2: bad literal '\u0661 <= {a=1}'",
                     id="non-ASCII-bound"),
        pytest.param("a.\nb :- 1 <= {a=\u0661}.\n", "line 2: bad weight item 'a=\u0661'",
                     id="non-ASCII-weight"),
        pytest.param("b :- 1 <= {a=1_0}.\n", "line 1: bad weight item 'a=1_0'",
                     id="weight-with-separator"),
        ("\n#atoms.\n", "line 2: #atoms lists no names"),
        ("#atoms a a.\n", "line 1: atom 'a' declared twice"),
        ("a.\n{a} :- 1 <= {b=1}.\n", "line 2: weight rule needs a single head atom"),
        ("a :- 1 <= {b=0}.\n", "line 1: weights must be positive"),
        ("a.\n\n{}.\n", "line 3: empty choice head"),
    ],
)
def test_parse_errors_name_the_statement_line(text, message):
    """An error names the line where its statement starts, not the previous '.'."""
    if message is None:
        assert parse_program(text).atom_count == 1
        return
    with pytest.raises(ParseError) as caught:
        parse_program(text)
    assert str(caught.value) == message


def test_empty_constraint_is_rejected_but_empty_program_ok():
    assert parse_program("").atom_count == 0
    assert parse_program("  \n% nothing\n").rules == ()


def test_emit_parse_roundtrip_on_example(ex1_program):
    assert parse_program(emit_program(ex1_program)) == ex1_program


def test_emit_is_idempotent(ex1_program):
    once = emit_program(ex1_program)
    assert emit_program(parse_program(once)) == once


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([random_program, random_rich_program]),
)
def test_parse_emit_identity_on_random_programs(seed, draw):
    program = draw(random.Random(seed))
    assert parse_program(emit_program(program)) == program


def _respell(text: str, rng: random.Random) -> str:
    """The same statements with other blanks, `%` comments, `~` and several to a line."""
    text = re.sub(r"not ", lambda _: rng.choice(["not ", "not  ", "not\n", "~", "~ "]), text)
    text = re.sub(r" ", lambda _: rng.choice([" ", "  ", "\t", "\n", " \n "]), text)
    text = re.sub(r"\n", lambda _: rng.choice(["\n", "\n\n", " ", "  % a. b :- c, {d}\n"]), text)
    return rng.choice(["", "% head.\n", "\n  "]) + text


def _edit(text: str, rng: random.Random) -> str:
    """Insert one of the format's separators anywhere, or delete one occurrence of it."""
    token = rng.choice([".", ",", ":-", "{", "}", "|", "%", "\n"])
    spots = [m.start() for m in re.finditer(re.escape(token), text)]
    if spots and rng.random() < 0.5:
        at = rng.choice(spots)
        return text[:at] + text[at + len(token) :]
    at = rng.randint(0, len(text))
    return text[:at] + token + text[at:]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([random_program, random_rich_program]),
    st.booleans(),
    st.integers(min_value=0, max_value=2),
)
def test_parse_program_matches_the_reference_parser(seed, draw, respell, edits):
    """Same program, or the same error text and line, as the line-by-line parser."""
    rng = random.Random(seed)
    text = emit_program(draw(rng))
    if respell:
        text = _respell(text, rng)
    for _ in range(edits):
        text = _edit(text, rng)
    try:
        expected = reference_parse_program(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as caught:
            parse_program(text)
        assert str(caught.value) == str(exc)
    else:
        assert parse_program(text) == expected


def test_mixed_construct_roundtrip():
    text = "{a; b} :- c.\nd :- 2 <= {a=1, b=1, not c=2}.\ne | c :- d, not a.\n:- e.\n"
    program = parse_program(text)
    assert parse_program(emit_program(program)) == program
