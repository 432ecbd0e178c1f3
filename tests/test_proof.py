"""Proof text parsing and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcert.proof import (
    Proof,
    ProofSyntaxError,
    Step,
    parse_proof,
    serialize_proof,
    serialize_step,
    sorted_lits,
)


def test_parse_step_kinds():
    proof = parse_proof(
        "b 12 -1 -5 0\n"
        "s 1 10 6 0\n"
        "c 8 3 0\n"
        "l 1 2 0\n"
        "a -6 1 0\n"
        "e 14 0\n"
        "d -6 1 0\n"
        "u 2 1 2 1 -6 0\n"
        "a 0\n"
    )
    assert proof.steps == (
        Step("b", head=12, lits=(-1, -5)),
        Step("s", head=1, lits=(10, 6)),
        Step("c", head=8, lits=(3,)),
        Step("l", lits=(1, 2)),
        Step("a", lits=(-6, 1)),
        Step("e", head=14),
        Step("d", lits=(-6, 1)),
        Step("u", lits=(1, -6), unfounded=(1, 2)),
        Step("a"),
    )


def test_parse_preserves_literal_order():
    step = parse_proof("a -6 1 0\n").steps[0]
    assert step.lits == (-6, 1)
    assert step.lits != sorted_lits(step.lits)


def test_sorted_lits_order():
    assert sorted_lits((1, -6, 6, -1)) == (1, -1, 6, -6)
    assert sorted_lits(()) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), max_size=12))
def test_sorted_lits_matches_the_keyed_sort(lits):
    assert sorted_lits(lits) == tuple(sorted(lits, key=lambda l: (abs(l), -l)))


def test_serialize_frozen_lines():
    assert serialize_step(Step("s", head=1, lits=(10, 6))) == "s 1 10 6 0"
    assert serialize_step(Step("b", head=12, lits=(-1, -5))) == "b 12 -1 -5 0"
    assert serialize_step(Step("a")) == "a 0"
    assert serialize_step(Step("e", head=14)) == "e 14 0"
    assert serialize_step(Step("u", lits=(1, -6), unfounded=(1, 2))) == "u 2 1 2 1 -6 0"


def test_figure_proof_roundtrip_is_byte_identical(fig1_text):
    assert serialize_proof(parse_proof(fig1_text)) == fig1_text


def test_parse_skips_blank_lines():
    assert parse_proof("\n\na 0\n\n").steps == (Step("a"),)


def test_parse_records_each_step_line():
    proof = parse_proof("a 1 0\n\n  \nd 1 0\na 0\n")
    assert proof.lines == (1, 4, 5)
    assert proof == Proof(proof.steps)
    assert parse_proof(serialize_proof(proof)) == proof
    with pytest.raises(ValueError, match="line number per step"):
        Proof(proof.steps, (1,))


@pytest.mark.parametrize(
    "text",
    [
        "a -6 1",        # missing terminator
        "a 0 0",         # stray zero
        "q 1 0",         # unknown kind
        "c 0",           # c without a body id
        "c -8 3 0",      # negative body id
        "s 0",           # s without an atom
        "s -1 0",        # negative atom
        "e 0",           # e without a variable
        "e 3 4 0",       # e with extra payload
        "b 0",           # b without a variable
        "b 0 1 0",       # b with a zero variable
        "b -4 1 0",      # negative variable
        "c 3 -1 0",      # negative atom
        "l 0",           # empty loop
        "l 1 1 0",       # repeated loop atom
        "u 1 0",         # count exceeds payload
        "u 2 1 1 0",     # repeated unfounded atom
        "s 1 -3 0",      # negative body id
        "l -1 0",        # negative loop atom
        "u 0",           # u without a set size
        "u 1 -2 0",      # negative unfounded atom
        "a x 0",         # non-integer token
        "a 1_0 0",       # digit separator
        "a +3 0",        # plus sign
        "a \u0661 0",    # non-ASCII digit
        "c 4 \uff13 0",  # fullwidth digit
        pytest.param("a " + "9" * 5000 + " 0", id="number past int()'s digit limit"),
    ],
)
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(ProofSyntaxError):
        parse_proof(text + "\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("b 0", "b needs a variable id"),
        ("b 0 1 0", "stray 0 before terminator"),
        ("b -4 1 0", "variable id must be positive ids"),
        ("c 0", "c needs a body id"),
        ("c -8 3 0", "body id must be positive ids"),
        ("c 3 -1 0", "atom ids must be positive ids"),
        ("e 0", "e takes exactly one variable id"),
        ("e 3 4 0", "e takes exactly one variable id"),
        ("e -3 0", "variable id must be positive ids"),
        ("s 0", "s needs an atom id"),
        ("s -1 3 0", "atom id must be positive ids"),
        ("s 1 -3 0", "body ids must be positive ids"),
    ],
)
def test_parse_messages_for_b_and_c_lines(text, message):
    """Also e and s lines: each of the four kinds that start with a head id."""
    with pytest.raises(ProofSyntaxError, match=f"^line 2: {message}$"):
        parse_proof("a 1 0\n" + text + "\n")


@pytest.mark.parametrize(
    "fields, message",
    [
        (("q",), "unknown step kind 'q'"),
        (("a", 0, (), (1,)), "only u steps carry an unfounded set"),
    ],
    ids=["unknown kind", "unfounded set on an a step"],
)
def test_step_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Step(*fields)


@pytest.mark.parametrize(
    "token, message",
    [
        ("9" * 5000, "number of 5000 digits is too long"),
        ("-" + "9" * 5000, "number of 5000 digits is too long"),
        ("x", "non-integer token"),
        ("-+9", "non-integer token"),
        ("1_0", "non-integer token"),
        ("+3", "non-integer token"),
        ("-\u0661", "non-integer token"),
        ("+" + "9" * 5000, "non-integer token"),
    ],
    ids=["5000 digits", "5000 digits and a sign", "letter", "two signs", "separator",
         "plus sign", "non-ASCII digit", "5000 digits and a plus sign"],
)
def test_parse_names_why_a_token_is_no_number(token, message):
    with pytest.raises(ProofSyntaxError, match=f"^line 1: {message}$"):
        parse_proof(f"a {token} 0\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ProofSyntaxError, match="line 2"):
        parse_proof("a 0\nq 1 0\n")


@pytest.mark.parametrize(
    "separator",
    ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["CR", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
)
def test_only_a_newline_ends_a_line(separator):
    """str.splitlines breaks at these too; an editor does not, so line 2
    holds both steps and the error names line 2, not a later one."""
    text = f"a 0\na 1 0{separator}a 2 0\nq 1 0\n"
    with pytest.raises(ProofSyntaxError, match="^line 2: non-integer token$"):
        parse_proof(text)


def test_parse_reads_crlf_text():
    proof = parse_proof("a 1 0\r\n\r\nd 1 0\r\na 0\r\n")
    assert proof.steps == (Step("a", lits=(1,)), Step("d", lits=(1,)), Step("a"))
    assert proof.lines == (1, 3, 4)
    with pytest.raises(ProofSyntaxError, match="^line 2: unknown step kind 'q'$"):
        parse_proof("a 0\r\nq 1 0\r\n")


step_strategy = st.one_of(
    st.builds(
        Step,
        st.just("a"),
        lits=st.tuples() | st.tuples(st.sampled_from([-9, -2, 1, 5])),
    ),
    st.builds(Step, st.just("e"), head=st.integers(min_value=1, max_value=99)),
    st.builds(
        Step,
        st.just("s"),
        head=st.integers(min_value=1, max_value=9),
        lits=st.tuples(st.integers(min_value=10, max_value=20)),
    ),
    st.builds(
        Step,
        st.just("l"),
        lits=st.sampled_from([(1,), (1, 2), (3, 5, 7)]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(step_strategy, max_size=8))
def test_step_roundtrip(steps):
    proof = Proof(tuple(steps))
    assert parse_proof(serialize_proof(proof)) == proof
