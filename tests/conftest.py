"""Shared fixtures: the running example program and its golden proof, and a
weight rule with thousands of subset-minimal bodies."""

import pytest

from aspcert.program_io import parse_program

# Eight-rule program over a..e (numbered 1..5 by the #atoms directive),
# known to have no answer set. Its positive loop is {a, b} with external
# bodies {c} and {c, d}.
EX1_TEXT = """\
#atoms a b c d e.
a :- b, d.
b :- a, d.
a :- c.
b :- c, d.
c :- not d.
d :- not c.
e :- c, not e.
e :- not a, not e.
"""

# `7 <= {b0=1, ..., b14=1}` has C(15, 7) = 6,435 subset-minimal bodies; its
# counter of normal rules needs 62 fresh atoms.
WIDE_WEIGHT_RULE = "a :- 7 <= {" + ", ".join(f"b{i}=1" for i in range(15)) + "}.\n"

# Golden 26-line proof for EX1_TEXT. Body numbering per its b lines:
# 6={c} 7={not c} 8={not d} 9={a,d} 10={b,d} 11={c,d} 12={not a,not e}
# 13={c,not e}.
FIG1_TEXT = """\
b 6 3 0
b 7 -3 0
b 8 -4 0
b 9 1 4 0
b 10 2 4 0
b 11 3 4 0
b 12 -1 -5 0
b 13 3 -5 0
s 1 10 6 0
c 8 3 0
c 7 4 0
c 9 2 0
s 5 13 12 0
l 1 2 0
a -6 1 0
s 3 8 0
s 4 7 0
s 2 9 11 0
a 5 -12 0
c 13 5 0
a 1 0
c 10 1 0
c 6 1 0
a 5 0
c 12 5 0
a 0
"""


@pytest.fixture
def ex1_program():
    return parse_program(EX1_TEXT)


@pytest.fixture
def fig1_text():
    return FIG1_TEXT


@pytest.fixture
def wide_weight_rule():
    return WIDE_WEIGHT_RULE
