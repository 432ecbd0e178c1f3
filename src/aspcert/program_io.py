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
order; an integrity constraint desugars to `__botK :- body, not __botK.` with
a fresh __botK atom numbered after the constraint's body atoms.
"""

from __future__ import annotations

import re
from typing import Iterator

from .core import Program, Rule, RuleKind, basic_rule, choice_rule, weight_rule

_NAME = re.compile(r"[A-Za-z_]\w*\Z")
_LITERAL = re.compile(r"(not\s+|~\s*)?([A-Za-z_]\w*)\Z")
_WEIGHT_BODY = re.compile(r"(\d+)\s*<=\s*\{(.*)\}\Z", re.DOTALL)
_WEIGHT_ITEM = re.compile(r"((?:not\s+|~\s*)?[A-Za-z_]\w*)\s*=\s*(\d+)\Z")


class ParseError(ValueError):
    """Raised on malformed program or proof text."""


def _statements(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line, statement) pairs, splitting on '.' outside comments.

    A statement's line is that of its first non-blank character, or of its
    '.' when it is empty.
    """
    *chunks, rest = re.sub(r"%[^\n]*", "", text).split(".")
    line = 1
    for chunk in chunks:
        stmt = chunk.lstrip()
        yield line + chunk.count("\n", 0, len(chunk) - len(stmt)), stmt.rstrip()
        line += chunk.count("\n")
    stmt = rest.lstrip()
    if stmt:
        start = line + rest.count("\n", 0, len(rest) - len(stmt))
        raise ParseError(f"line {start}: statement not terminated by '.'")


class _Builder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.rules: list[Rule] = []
        self.bot_count = 0

    def atom(self, name: str, line: int) -> int:
        if not _NAME.match(name):
            raise ParseError(f"line {line}: bad atom name {name!r}")
        if name not in self.ids:
            self.names.append(name)
            self.ids[name] = len(self.names)
        return self.ids[name]

    def fresh_bot(self) -> int:
        while True:
            self.bot_count += 1
            name = f"__bot{self.bot_count}"
            if name not in self.ids:
                self.names.append(name)
                self.ids[name] = len(self.names)
                return self.ids[name]

    def literal(self, token: str, line: int) -> int:
        match = _LITERAL.match(token.strip())
        if not match:
            raise ParseError(f"line {line}: bad literal {token.strip()!r}")
        atom = self.atom(match.group(2), line)
        return -atom if match.group(1) else atom


def _split_body(body: str, line: int) -> list[str]:
    parts = [part.strip() for part in body.split(",")]
    if any(not part for part in parts):
        raise ParseError(f"line {line}: empty body literal")
    return parts


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError on malformed input."""
    builder = _Builder()
    for line, stmt in _statements(text):
        if not stmt:
            raise ParseError(f"line {line}: empty statement")
        if stmt.startswith("#atoms"):
            if builder.rules:
                raise ParseError(f"line {line}: #atoms must precede all rules")
            names = stmt[len("#atoms") :].split()
            if not names:
                raise ParseError(f"line {line}: #atoms lists no names")
            for name in names:
                if name in builder.ids:
                    raise ParseError(f"line {line}: atom {name!r} declared twice")
                builder.atom(name, line)
            continue
        if stmt.startswith("#"):
            raise ParseError(f"line {line}: unknown directive {stmt.split()[0]!r}")
        builder.rules.append(_parse_rule(builder, stmt, line))
    return Program(tuple(builder.names), tuple(builder.rules))


def _parse_rule(builder: _Builder, stmt: str, line: int) -> Rule:
    head_text, sep, body_text = stmt.partition(":-")
    head_text = head_text.strip()
    body_text = body_text.strip()
    if sep and not body_text:
        raise ParseError(f"line {line}: rule body is empty")
    if ":-" in body_text:
        raise ParseError(f"line {line}: more than one ':-'")

    if not head_text:
        if not sep:
            raise ParseError(f"line {line}: empty rule")
        body = [builder.literal(tok, line) for tok in _split_body(body_text, line)]
        bot = builder.fresh_bot()
        pos = frozenset(l for l in body if l > 0)
        neg = frozenset(-l for l in body if l < 0) | {bot}
        return Rule(RuleKind.BASIC, (bot,), pos, neg)

    weight_match = _WEIGHT_BODY.match(body_text) if sep else None
    if weight_match:
        if head_text.startswith("{") or "|" in head_text:
            raise ParseError(f"line {line}: weight rule needs a single head atom")
        head = builder.atom(head_text, line)
        bound = int(weight_match.group(1))
        weights: dict[int, int] = {}
        inner = weight_match.group(2).strip()
        for item in [p.strip() for p in inner.split(",")] if inner else []:
            item_match = _WEIGHT_ITEM.match(item)
            if not item_match:
                raise ParseError(f"line {line}: bad weight item {item!r}")
            lit = builder.literal(item_match.group(1), line)
            if lit in weights or -lit in weights:
                raise ParseError(f"line {line}: repeated weight literal")
            weights[lit] = int(item_match.group(2))
        if any(w <= 0 for w in weights.values()):
            raise ParseError(f"line {line}: weights must be positive")
        return weight_rule(head, bound, weights)

    if head_text.startswith("{"):
        if not head_text.endswith("}"):
            raise ParseError(f"line {line}: unterminated choice head")
        inner = head_text[1:-1].strip()
        if not inner:
            raise ParseError(f"line {line}: empty choice head")
        head = [builder.atom(tok.strip(), line) for tok in inner.split(";")]
    else:
        head = [builder.atom(tok.strip(), line) for tok in head_text.split("|")]
    if len(set(head)) != len(head):
        raise ParseError(f"line {line}: duplicate head atom")

    body = [builder.literal(tok, line) for tok in _split_body(body_text, line)] if sep else []
    pos = frozenset(l for l in body if l > 0)
    neg = frozenset(-l for l in body if l < 0)
    if pos & neg:
        raise ParseError(f"line {line}: atom occurs positively and negatively in body")
    if head_text.startswith("{"):
        return choice_rule(head, pos, neg)
    return basic_rule(head, pos, neg)


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
        if rule.kind is RuleKind.WEIGHT:
            items = ", ".join(
                f"{_literal_text(program, lit)}={w}" for lit, w in rule.weights
            )
            lines.append(f"{program.name(rule.head[0])} :- {rule.bound} <= {{ {items} }}.")
            continue
        if rule.kind is RuleKind.CHOICE:
            head = "{" + "; ".join(program.name(a) for a in rule.head) + "}"
        else:
            head = " | ".join(program.name(a) for a in rule.head)
        body = _body_text(program, rule)
        lines.append(f"{head} :- {body}." if body else f"{head}.")
    return "\n".join(lines) + "\n"
