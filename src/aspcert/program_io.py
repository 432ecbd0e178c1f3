"""Text format for ground programs.

Statements end with '.', '%' starts a comment. Supported forms:

    #atoms a b c.                pin variable ids 1.. in listed order
    a.                           fact
    a :- b, not c.               normal rule
    a | b :- body.               disjunctive rule
    {a; b} :- body.              choice rule
    a :- 2 <= { b=1, not d=2 }.  weight rule (lower bound on satisfied weight)
    :- body.                     integrity constraint

'~' is accepted as a synonym for 'not'. Atom ids are assigned by any #atoms
directives (which must precede all rules) and then by first occurrence in text
order. An integrity constraint is a basic rule with an empty head.
"""

from __future__ import annotations

import re

from .core import BASIC, CHOICE, WEIGHT, Program, Rule, weight_rule

_COMMENT = re.compile(r"%[^\n]*")
_NAME = re.compile(r"[A-Za-z_]\w*\Z")
_LITERAL = re.compile(r"(not\s+|~\s*)?([A-Za-z_]\w*)\Z")
_WEIGHT_BODY = re.compile(r"([0-9]+)\s*<=\s*\{(.*)\}\Z", re.DOTALL)
_WEIGHT_ITEM = re.compile(r"((?:not\s+|~\s*)?[A-Za-z_]\w*)\s*=\s*([0-9]+)\Z")


class ParseError(ValueError):
    """Raised on malformed program or proof text."""


class _Builder:
    """Atom table and rules of one parse; its errors carry no line number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        # Every body or weight-item token seen so far, spaces included, and its literal.
        self.literals: dict[str, int] = {}
        self.rules: list[Rule] = []

    def add(self, name: str) -> int:
        self.names.append(name)
        atom = self.ids[name] = len(self.names)
        return atom

    def atom(self, name: str) -> int:
        atom = self.ids.get(name)
        if atom is None:
            if not _NAME.match(name):
                raise ParseError(f"bad atom name {name!r}")
            atom = self.add(name)
        return atom

    def literal(self, token: str) -> int:
        lit = self.literals.get(token)
        if lit is None:
            match = _LITERAL.match(token.strip())
            if not match:
                raise ParseError(f"bad literal {token.strip()!r}")
            negated, name = match.groups()
            lit = self.ids.get(name) or self.add(name)
            self.literals[token] = lit = -lit if negated else lit
        return lit

    def body(self, text: str) -> tuple[frozenset[int], frozenset[int]]:
        """Positive and negative atoms of a comma-separated body.

        Whether an atom occurs with both signs is left to the Rule built
        from them; see _parse_rule.
        """
        tokens = text.split(",")
        lits = [self.literals.get(token) for token in tokens]
        if None in lits:
            if "" in map(str.strip, tokens):
                raise ParseError("empty body literal")
            lits = [self.literal(token) for token in tokens]
        if min(lits) > 0:
            return frozenset(lits), frozenset()
        return frozenset([lit for lit in lits if lit > 0]), frozenset([-lit for lit in lits if lit < 0])

    def directive(self, stmt: str) -> None:
        if not stmt.startswith("#atoms"):
            raise ParseError(f"unknown directive {stmt.split()[0]!r}")
        if self.rules:
            raise ParseError("#atoms must precede all rules")
        names = stmt[len("#atoms") :].split()
        if not names:
            raise ParseError("#atoms lists no names")
        for name in names:
            if name in self.ids:
                raise ParseError(f"atom {name!r} declared twice")
            self.atom(name)


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError on malformed input.

    The error names the line where its statement starts, or that of the
    statement's '.' when the statement is empty.
    """
    if "%" in text:
        text = _COMMENT.sub("", text)
    chunks = text.split(".")
    builder = _Builder()
    index = 0
    try:
        for index in range(len(chunks) - 1):
            stmt = chunks[index].strip()
            if not stmt:
                raise ParseError("empty statement")
            if stmt[0] == "#":
                builder.directive(stmt)
            else:
                builder.rules.append(_parse_rule(builder, stmt))
        index = len(chunks) - 1
        if chunks[index].strip():
            raise ParseError("statement not terminated by '.'")
    except ParseError as exc:
        before = ".".join(chunks[: index + 1])
        line = before.count("\n", 0, len(before) - len(chunks[index].lstrip())) + 1
        raise ParseError(f"line {line}: {exc}") from None
    return Program(tuple(builder.names), tuple(builder.rules))


def _parse_rule(builder: _Builder, stmt: str) -> Rule:
    head_text, sep, body_text = stmt.partition(":-")
    head_text = head_text.strip()
    if sep:
        body_text = body_text.strip()
        if not body_text:
            raise ParseError("rule body is empty")
        if ":-" in body_text:
            raise ParseError("more than one ':-'")

    if not head_text:
        # The statement is not empty, so an empty head means a ':-' follows.
        kind, head = BASIC, ()
    elif "<=" in body_text and (weight_match := _WEIGHT_BODY.match(body_text)):
        if head_text[0] == "{" or "|" in head_text:
            raise ParseError("weight rule needs a single head atom")
        head = builder.atom(head_text)
        bound = _number(weight_match.group(1))
        weights: dict[int, int] = {}
        inner = weight_match.group(2).strip()
        for item in [p.strip() for p in inner.split(",")] if inner else []:
            item_match = _WEIGHT_ITEM.match(item)
            if not item_match:
                raise ParseError(f"bad weight item {item!r}")
            lit = builder.literal(item_match.group(1))
            if lit in weights or -lit in weights:
                raise ParseError("repeated weight literal")
            weights[lit] = _number(item_match.group(2))
        if any(w <= 0 for w in weights.values()):
            raise ParseError("weights must be positive")
        return weight_rule(head, bound, weights)
    else:
        if head_text[0] == "{":
            kind = CHOICE
            if not head_text.endswith("}"):
                raise ParseError("unterminated choice head")
            inner = head_text[1:-1].strip()
            if not inner:
                raise ParseError("empty choice head")
            head = tuple([builder.atom(tok.strip()) for tok in inner.split(";")])
        else:
            kind = BASIC
            if "|" in head_text:
                head = tuple([builder.atom(tok.strip()) for tok in head_text.split("|")])
            else:
                head = (builder.atom(head_text),)
        if len(head) > 1 and len(set(head)) != len(head):
            raise ParseError("duplicate head atom")
        if not sep:
            return Rule(kind, head)
    pos, neg = builder.body(body_text)
    try:
        return Rule(kind, head, pos, neg)
    except ValueError:
        # The parser has made all of Rule's other checks by now.
        raise ParseError("atom occurs positively and negatively in body") from None


def _number(digits: str) -> int:
    """A weight rule's bound or weight; int() refuses too many digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long") from None


def _literal_text(program: Program, lit: int) -> str:
    return program.name(lit) if lit > 0 else f"not {program.name(-lit)}"


def _body_text(program: Program, rule: Rule) -> str:
    lits = sorted(rule.pos_body) + [-a for a in sorted(rule.neg_body)]
    return ", ".join(_literal_text(program, lit) for lit in lits)


def emit_program(program: Program) -> str:
    """Render a program in canonical text form; parse(emit(P)) == P."""
    lines = []
    if program.atom_names:
        lines.append(f"#atoms {' '.join(program.atom_names)}.")
    for rule in program.rules:
        if rule.kind is WEIGHT:
            items = ", ".join(
                f"{_literal_text(program, lit)}={w}" for lit, w in rule.weights
            )
            lines.append(f"{program.name(rule.head[0])} :- {rule.bound} <= {{ {items} }}.")
            continue
        if rule.kind is CHOICE:
            head = "{" + "; ".join(program.name(a) for a in rule.head) + "}"
        else:
            head = " | ".join(program.name(a) for a in rule.head)
        body = _body_text(program, rule)
        if not body:
            lines.append(f"{head}.")
        else:
            lines.append(f"{head} :- {body}." if head else f":- {body}.")
    return "\n".join(lines) + "\n"
