"""Inconsistency proof format: steps, text parsing, and serialization.

One step per line, integer tokens, each line closed by 0. Only '\n' ends a
line; a '\r' before it is ignored, as blank lines are. A token is ASCII
digits with an optional leading '-': a variable id is true as id and false
as -id. Line forms:

    a <tv>... 0          add a nogood with the reverse-unit-propagation property
    c <body> <atom> 0    add the rule-firing nogood {F atom, T body}; with no
                         atom, {T body} for an integrity constraint's body
    s <atom> <body>... 0 add the support nogood {T atom, F bodies...}
    e <var> 0            extension: a fresh var above the atoms that no body or
                         extension variable holds, fixed true by the nogood {F var}
    d <tv>... 0          delete one instance of the nogood
    l <atom>... 0        add the loop nogood for the atom set (first atom kept)
    u <k> <atom>{k} <tv>... 0  unfounded set, then the excluded assignment
    b <body> <tv>... 0   name a program body and add its defining nogoods

An id above the atoms that no b or e line has taken, within the program's
body catalog, names the catalog body with that id from the first line that
uses it on, so b lines are needed only for other ids; the solver writes
none. `a 0` adds the empty nogood; a proof succeeds when the empty nogood is
present after all steps. Parsing preserves token order, so serialize(parse(t))
returns t for text in the form serialize writes: one space between tokens,
no blank lines, and no leading zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

STEP_KINDS = frozenset("acsedlub")
# A b, c, e or s line starts with one id, its head: what the line needs, the
# head's name, and the name of the ids after it when they must be positive.
_HEADED = {
    "b": ("a variable id", "variable id", None),
    "e": ("a variable id", "variable id", None),
    "c": ("a body id", "body id", "atom ids"),
    "s": ("an atom id", "atom id", "body ids"),
}


class ProofSyntaxError(ValueError):
    """Raised on malformed proof text."""


@dataclass(frozen=True, slots=True)
class Step:
    """One proof line; field use depends on kind (see module docstring)."""

    kind: str
    head: int = 0
    lits: tuple[int, ...] = ()
    unfounded: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.unfounded and self.kind != "u":
            raise ValueError("only u steps carry an unfounded set")


@dataclass(frozen=True)
class Proof:
    """Steps in order; lines holds each step's 1-based line when parsed from text."""

    steps: tuple[Step, ...]
    lines: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.lines and len(self.lines) != len(self.steps):
            raise ValueError("a proof needs one line number per step, or none")

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def parse_proof(text: str) -> Proof:
    """Parse proof text; raises ProofSyntaxError on malformed input."""
    steps: list[Step] = []
    lines: list[int] = []
    # int() also reads "+3", "1_0" and non-ASCII digits such as "١". One scan
    # of the whole text rules them out, so most texts pay no check per line.
    loose = not text.isascii() or "_" in text or "+" in text
    # Lines end at '\n' only, as an editor numbers them; str.splitlines would
    # also break at '\f', '\x1c' and others. split() drops a trailing '\r'.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind not in STEP_KINDS:
            raise ProofSyntaxError(f"line {line_no}: unknown step kind {kind!r}")
        if loose and not (raw.isascii() and "_" not in raw and "+" not in raw):
            raise ProofSyntaxError(f"line {line_no}: non-integer token")
        try:
            payload = list(map(int, tokens[1:]))
        except ValueError:
            # int() refuses a decimal token only past its digit limit.
            digits = [t[1:] if t[0] == "-" else t for t in tokens[1:]]
            reason = "non-integer token"
            if all(d.isdecimal() for d in digits):
                reason = f"number of {max(map(len, digits))} digits is too long"
            raise ProofSyntaxError(f"line {line_no}: {reason}") from None
        if not payload or payload.pop() != 0:
            raise ProofSyntaxError(f"line {line_no}: missing 0 terminator")
        if 0 in payload:
            raise ProofSyntaxError(f"line {line_no}: stray 0 before terminator")
        # a and d lines, the most frequent, are tested first.
        if kind == "a" or kind == "d":
            step = Step(kind, 0, tuple(payload))
        elif kind in _HEADED:
            needs, head, rest = _HEADED[kind]
            if kind == "e" and len(payload) != 1:
                raise ProofSyntaxError(f"line {line_no}: e takes exactly one variable id")
            if not payload:
                raise ProofSyntaxError(f"line {line_no}: {kind} needs {needs}")
            if payload[0] < 0:
                raise ProofSyntaxError(f"line {line_no}: {head} must be positive ids")
            if rest and min(payload) < 0:
                raise ProofSyntaxError(f"line {line_no}: {rest} must be positive ids")
            step = Step(kind, payload[0], tuple(payload[1:]))
        elif kind == "l":
            if not payload:
                raise ProofSyntaxError(f"line {line_no}: l needs at least one atom")
            if min(payload) < 0:
                raise ProofSyntaxError(f"line {line_no}: loop atoms must be positive ids")
            if len(set(payload)) != len(payload):
                raise ProofSyntaxError(f"line {line_no}: repeated loop atom")
            step = Step(kind, 0, tuple(payload))
        else:
            if not payload:
                raise ProofSyntaxError(f"line {line_no}: u needs a set size")
            size = payload[0]
            if size < 1 or len(payload) < 1 + size:
                raise ProofSyntaxError(f"line {line_no}: bad unfounded set size")
            atoms = payload[1 : 1 + size]
            if min(atoms) < 0:
                raise ProofSyntaxError(f"line {line_no}: unfounded atoms must be positive ids")
            if len(set(atoms)) != size:
                raise ProofSyntaxError(f"line {line_no}: repeated unfounded atom")
            step = Step(kind, 0, tuple(payload[1 + size :]), tuple(atoms))
        steps.append(step)
        lines.append(line_no)
    return Proof(tuple(steps), tuple(lines))


def serialize_step(step: Step) -> str:
    kind = step.kind
    if kind in ("a", "d", "l"):
        body = step.lits
    elif kind == "u":
        body = (len(step.unfounded), *step.unfounded, *step.lits)
    else:
        body = (step.head, *step.lits)
    return " ".join(map(str, (kind, *body, 0)))


def serialize_proof(proof: Proof) -> str:
    """Render a proof; inverse of parse_proof."""
    return "".join(serialize_step(step) + "\n" for step in proof)


def sorted_lits(lits: Iterable[int]) -> tuple[int, ...]:
    """Canonical literal order for generated steps: by variable id, +v before -v."""
    # Sorting descending first leaves +v ahead of -v for the stable sort by id.
    return tuple(sorted(sorted(lits, reverse=True), key=abs))
