"""Inconsistency proof format: steps, text parsing, and serialization.

One step per line, integer tokens, each line closed by 0. Signed variables
write true as +id and false as -id. Line forms:

    a <tv>... 0          add a nogood with the reverse-unit-propagation property
    c <body> <atom>... 0 add the rule-firing nogood {F atoms..., T body}; with
                         no atoms, {T body} for an integrity constraint's body
    s <atom> <body>... 0 add the support nogood {T atom, F bodies...}
    e <var> 0            extension: a fresh var above the atoms that no body or
                         extension variable holds, fixed true by the nogood {F var}
    d <tv>... 0          delete one instance of the nogood
    l <atom>... 0        add the loop nogood for the atom set (first atom kept)
    u <k> <atom>{k} <tv>... 0  unfounded set, then the excluded assignment
    b <body> <tv>... 0   name a program body and add its defining nogoods

`a 0` adds the empty nogood; a proof succeeds when the empty nogood is
present after all steps. Parsing preserves token order, so serialize(parse(t))
returns t exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

STEP_KINDS = frozenset("acsedlub")
# What the first integer of a b or c line names.
_HEAD_ID = {"b": "variable id", "c": "body id"}


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


def _parse_step(kind: str, payload: list[int], line: int) -> Step:
    """An s, e, l or u step from its integers, the closing 0 dropped."""

    def positive(values: Iterable[int], what: str) -> tuple[int, ...]:
        out = tuple(values)
        if any(v <= 0 for v in out):
            raise ProofSyntaxError(f"line {line}: {what} must be positive ids")
        return out

    if kind == "s":
        if not payload:
            raise ProofSyntaxError(f"line {line}: s needs an atom id")
        (atom,) = positive(payload[:1], "atom id")
        return Step(kind, head=atom, lits=positive(payload[1:], "body ids"))
    if kind == "e":
        if len(payload) != 1:
            raise ProofSyntaxError(f"line {line}: e takes exactly one variable id")
        (var,) = positive(payload, "variable id")
        return Step(kind, head=var)
    if kind == "l":
        atoms = positive(payload, "loop atoms")
        if not atoms:
            raise ProofSyntaxError(f"line {line}: l needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ProofSyntaxError(f"line {line}: repeated loop atom")
        return Step(kind, lits=atoms)
    if kind == "u":
        if not payload:
            raise ProofSyntaxError(f"line {line}: u needs a set size")
        size = payload[0]
        if size < 1 or len(payload) < 1 + size:
            raise ProofSyntaxError(f"line {line}: bad unfounded set size")
        atoms = positive(payload[1 : 1 + size], "unfounded atoms")
        if len(set(atoms)) != len(atoms):
            raise ProofSyntaxError(f"line {line}: repeated unfounded atom")
        return Step(kind, lits=tuple(payload[1 + size :]), unfounded=atoms)
    raise ProofSyntaxError(f"line {line}: unknown step kind {kind!r}")


def parse_proof(text: str) -> Proof:
    """Parse proof text; raises ProofSyntaxError on malformed input."""
    steps: list[Step] = []
    lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind not in STEP_KINDS:
            raise ProofSyntaxError(f"line {line_no}: unknown step kind {kind!r}")
        try:
            payload = list(map(int, tokens[1:]))
        except ValueError:
            raise ProofSyntaxError(f"line {line_no}: non-integer token") from None
        if not payload or payload.pop() != 0:
            raise ProofSyntaxError(f"line {line_no}: missing 0 terminator")
        if 0 in payload:
            raise ProofSyntaxError(f"line {line_no}: stray 0 before terminator")
        # The four most frequent kinds are parsed inline, the rest in _parse_step.
        if kind == "a" or kind == "d":
            steps.append(Step(kind, 0, tuple(payload)))
        elif kind == "b" or kind == "c":
            if not payload:
                raise ProofSyntaxError(f"line {line_no}: {kind} needs a {_HEAD_ID[kind]}")
            if payload[0] < 0:
                raise ProofSyntaxError(f"line {line_no}: {_HEAD_ID[kind]} must be positive ids")
            lits = tuple(payload[1:])
            if kind == "c" and lits and min(lits) < 0:
                raise ProofSyntaxError(f"line {line_no}: atom ids must be positive ids")
            steps.append(Step(kind, payload[0], lits))
        else:
            steps.append(_parse_step(kind, payload, line_no))
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
