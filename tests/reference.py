"""Slow references that the tests compare the program against.

unit_propagate works on any iterable of nogoods: it starts from nothing,
scans the list in order and repeats until a full pass derives nothing, so
its derivation order is a deterministic function of list order; the tests
compare NogoodStore against it. reference_parse_program is a plain
statement-by-statement parser of the program text format, with a regular
expression per literal and the line number passed to every helper; the
tests compare parse_program against it.

The completion's support and rule-firing families, every loop nogood by
enumeration, and brute-force entailment between nogood sets are the
references for the solver's set-up, the checker's store and the loop
formulas. random_tight_program draws loop-free programs for the tests that
need them, and with_disjunctions_and_a_wide_weight_rule adds disjunctive
rules and a weight rule with 6,435 subset-minimal bodies to a draw.
random_3sat_program draws programs whose refutations need search, and
random_3sat_program_with_units adds facts and one-literal constraints that
hold at the top level. reference_minimal_weight_sets enumerates a weight
rule's subset-minimal bodies, the reading of a weight rule that the tests
hold the counter of completion.normalize_weights against.
with_complement_atoms is the complement-atom translation of choice rules,
the reading the tests hold the oracle's choice reduct against.
normalize_short_body rewrites a normal program into short-body normal
form, a translation the tests hold against the oracle.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping

from aspcert.completion import INTERNAL_ID_BASE, BodyCatalog, BodyRegistry, BudgetError
from aspcert.core import Nogood, Program, Rule, RuleKind, basic_rule, choice_rule, weight_rule
from aspcert.fuzz import random_program
from aspcert.loops import (
    cyclic_atoms, dependency_graph, external_bodies, is_loop, loop_nogood,
    strongly_connected_components,
)
from aspcert.oracle import ATOM_GUARD, OracleError
from aspcert.program_io import ParseError

MAX_LOOP_ENUMERATION = 1 << 16


@dataclass(frozen=True)
class Propagation:
    """What unit_propagate found: the violated nogood or None, the literals
    it forced in order, and every literal true when it stopped."""

    conflict: Nogood | None
    derived: tuple[int, ...]
    assignment: frozenset[int]

    @property
    def is_conflict(self) -> bool:
        return self.conflict is not None


def unit_propagate(
    nogoods: Iterable[Nogood | None], assumptions: Iterable[int] = ()
) -> Propagation:
    """Propagate to fixpoint from the assumptions; None entries are skipped."""
    store = [delta for delta in nogoods if delta is not None]
    assigned: set[int] = set()
    derived: list[int] = []

    def stop(conflict: Nogood | None) -> Propagation:
        return Propagation(conflict, tuple(derived), frozenset(assigned))

    for lit in assumptions:
        if -lit in assigned:
            return stop(frozenset({-lit}))
        assigned.add(lit)

    while True:
        changed = False
        for delta in store:
            free = None
            for lit in delta:
                if lit in assigned:
                    continue
                if -lit in assigned or free is not None:
                    free = 0
                    break
                free = lit
            if free == 0:
                continue
            if free is None:
                return stop(delta)
            assigned.add(-free)
            derived.append(-free)
            changed = True
        if not changed:
            return stop(None)


def reference_rup_run(nogoods: Iterable[Nogood | None], delta: Nogood) -> Propagation:
    """unit_propagate under delta, assumed in the order rup_run assumes it."""
    return unit_propagate(nogoods, sorted(delta, key=lambda l: (abs(l), -l)))


def is_rup(nogoods: Iterable[Nogood | None], delta: Nogood) -> bool:
    """Check that asserting delta propagates to a conflict (reverse unit propagation)."""
    return reference_rup_run(nogoods, delta).is_conflict


_NAME = re.compile(r"[A-Za-z_]\w*\Z")
_LITERAL = re.compile(r"(not\s+|~\s*)?([A-Za-z_]\w*)\Z")
_WEIGHT_BODY = re.compile(r"(\d+)\s*<=\s*\{(.*)\}\Z", re.DOTALL)
_WEIGHT_ITEM = re.compile(r"((?:not\s+|~\s*)?[A-Za-z_]\w*)\s*=\s*(\d+)\Z")


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

    def atom(self, name: str, line: int) -> int:
        if not _NAME.match(name):
            raise ParseError(f"line {line}: bad atom name {name!r}")
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


def reference_parse_program(text: str) -> Program:
    """The line-by-line parser that parse_program must agree with."""
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
        pos = frozenset(l for l in body if l > 0)
        neg = frozenset(-l for l in body if l < 0)
        if pos & neg:
            raise ParseError(f"line {line}: atom occurs positively and negatively in body")
        return Rule(RuleKind.BASIC, (), pos, neg)

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


def reference_minimal_weight_sets(
    weights: Mapping[int, int], bound: int, budget: int | None = None
) -> list[frozenset[int]]:
    """Subset-minimal literal sets reaching the bound, one recursion per pick."""
    domain = sorted(weights, key=lambda lit: (-weights[lit], abs(lit), -lit))
    suffix = [0] * (len(domain) + 1)
    for i in range(len(domain) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[domain[i]]
    found: list[frozenset[int]] = []

    def extend(start: int, picked: list[int], total: int) -> None:
        if total >= bound:
            if all(total - weights[lit] < bound for lit in picked):
                found.append(frozenset(picked))
                if budget is not None and len(found) > budget:
                    raise BudgetError(f"weight rule induces more than {budget} bodies")
            return
        if total + suffix[start] < bound:
            return
        for i in range(start, len(domain)):
            picked.append(domain[i])
            extend(i + 1, picked, total + weights[domain[i]])
            picked.pop()

    extend(0, [], 0)
    return found


def forward_family(
    program: Program, catalog: BodyCatalog, registry: BodyRegistry
) -> list[tuple[int, tuple[int, ...], Nogood]]:
    """One (atom, body ids, support nogood) triple per atom, in atom order."""
    out = []
    for atom in program.atom_ids():
        body_ids = tuple(registry.id_of(b) for b in catalog.bodies_of(atom))
        out.append((atom, body_ids, frozenset({atom, *(-b for b in body_ids)})))
    return out


def atom_id(program: Program, name: str) -> int:
    """The id of the named atom: its place in atom_names, counting from 1."""
    return program.atom_names.index(name) + 1


def induced_bodies(rule: Rule, atom: int) -> list[frozenset[int]]:
    """The bodies through which a rule supports one of its head atoms, read
    from the rule alone: its body, and for a disjunctive rule that body plus
    the negations of the other head atoms, none when one of those is in the
    positive body."""
    if not rule.is_disjunctive:
        return [rule.body]
    others = set(rule.head) - {atom}
    if others & rule.pos_body:
        return []
    return [rule.body | {-b for b in others}]


def backward_family(
    program: Program, catalog: BodyCatalog, registry: BodyRegistry
) -> list[Nogood]:
    """Rule-firing nogoods {F a, T B} for non-choice rules, deduplicated, rule order.

    The program holds no weight rule: normalize_weights rewrites them first.
    """
    out: list[Nogood] = []
    seen: set[Nogood] = set()
    for rule in program.rules:
        if rule.kind is RuleKind.CHOICE:
            continue
        for atom in rule.head:
            for body in induced_bodies(rule, atom):
                nogood = frozenset({-atom, registry.id_of(body)})
                if nogood not in seen:
                    seen.add(nogood)
                    out.append(nogood)
    return out


def declared_registry(program: Program, catalog: BodyCatalog) -> BodyRegistry:
    """A registry holding the catalog's bodies under their catalog ids, as
    the b lines of a solver proof declare them."""
    registry = BodyRegistry(program.atom_count)
    for body, body_id in catalog.ids.items():
        registry.declare(body_id, body)
    return registry


def public_items(registry: BodyRegistry) -> list[tuple[int, frozenset[int]]]:
    """The registry's bodies below INTERNAL_ID_BASE, by id."""
    return [(i, b) for i, b in sorted(registry._by_id.items()) if i < INTERNAL_ID_BASE]


def all_loop_nogoods(
    program: Program, catalog: BodyCatalog, registry: BodyRegistry
) -> list[Nogood]:
    """Every loop nogood of the program (one per loop atom per loop).

    Loops lie inside one strongly connected component, so each component's
    subsets are enumerated, up to MAX_LOOP_ENUMERATION subsets in all.
    """
    graph = dependency_graph(program)
    out: list[Nogood] = []
    total = 0
    for component in strongly_connected_components(graph):
        members = sorted(component)
        total += 1 << len(members)
        if total > MAX_LOOP_ENUMERATION:
            raise ValueError("loop enumeration limit exceeded")
        for size in range(1, len(members) + 1):
            for loop in combinations(members, size):
                if is_loop(graph, loop):
                    ids = [registry.id_of(b) for b in external_bodies(program, catalog, loop)]
                    out.extend(loop_nogood(atom, ids) for atom in loop)
    return out


def entails(premises: Iterable[Nogood], conclusions: Iterable[Nogood]) -> bool:
    """Does every total assignment satisfying all premises satisfy Γ too?

    A nogood is satisfied by an assignment when it is not a subset of it;
    enumeration runs over all total assignments of the mentioned variables.
    """
    delta = [frozenset(d) for d in premises]
    gamma = [frozenset(g) for g in conclusions]
    variables = sorted({abs(l) for ng in chain(delta, gamma) for l in ng})
    if len(variables) > ATOM_GUARD:
        raise OracleError(
            f"{len(variables)} variables exceed the enumeration guard {ATOM_GUARD}"
        )
    for mask in range(1 << len(variables)):
        assignment = frozenset(
            v if mask >> i & 1 else -v for i, v in enumerate(variables)
        )
        if any(d <= assignment for d in delta):
            continue
        if any(g <= assignment for g in gamma):
            return False
    return True


def has_loops(program: Program) -> bool:
    return bool(cyclic_atoms(dependency_graph(program)))


def random_tight_program(
    rng: random.Random, *, max_atoms: int = 6, max_rules: int = 10
) -> Program:
    """Rejection-sample random_program until the dependency digraph is acyclic."""
    while True:
        program = random_program(rng, max_atoms=max_atoms, max_rules=max_rules)
        if not has_loops(program):
            return program


def with_disjunctions_and_a_wide_weight_rule(rng: random.Random, program: Program) -> Program:
    """The program plus one to three disjunctive rules, and the weight rule
    7 <= {15 new atoms}, with C(15, 7) = 6,435 subset-minimal bodies, placed
    at a random spot."""
    atoms = range(1, program.atom_count + 1)
    rules = list(program.rules)
    for _ in range(rng.randint(1, 3)):
        head = rng.sample(atoms, min(len(atoms), rng.randint(2, 3)))
        body = rng.sample(atoms, rng.randint(0, min(2, len(atoms))))
        neg = {a for a in body if rng.random() < 0.5}
        rules.insert(rng.randint(0, len(rules)), basic_rule(head, set(body) - neg, neg))
    extra = range(program.atom_count + 1, program.atom_count + 16)
    wide = weight_rule(rng.choice(atoms), 7, {atom: 1 for atom in extra})
    rules.insert(rng.randint(0, len(rules)), wide)
    names = program.atom_names + tuple(f"w{i}" for i in range(15))
    return Program(names, tuple(rules))


def random_3sat_program(rng: random.Random, atoms: int) -> Program:
    """A 3-SAT draw: `{x1; ...; xn}.` plus round(4.3·n) integrity
    constraints, each over three distinct atoms with random signs. The ratio
    sits near the satisfiability threshold, so refutations need search and
    learn nogoods of several literals."""
    rules = [choice_rule(range(1, atoms + 1))]
    for _ in range(round(4.3 * atoms)):
        trio = rng.sample(range(1, atoms + 1), 3)
        neg = {atom for atom in trio if rng.random() < 0.5}
        rules.append(basic_rule((), set(trio) - neg, neg))
    return Program(tuple(f"x{i}" for i in range(1, atoms + 1)), tuple(rules))


def random_3sat_program_with_units(rng: random.Random, atoms: int) -> Program:
    """A 3-SAT draw plus one to three facts `x.` or one-literal constraints
    `:- x.` or `:- not x.` over distinct atoms, so that those atoms are
    assigned at the top level and reasons found during search name them."""
    program = random_3sat_program(rng, atoms)
    units = []
    for atom in rng.sample(range(1, atoms + 1), rng.randint(1, 3)):
        head, pos, neg = rng.choice([((atom,), (), ()), ((), (atom,), ()), ((), (), (atom,))])
        units.append(basic_rule(head, pos, neg))
    return Program(program.atom_names, program.rules + tuple(units))


def with_complement_atoms(program: Program) -> tuple[Program, list[tuple[int, int]]]:
    """Each head atom a of each choice rule {...} :- B gets a complement atom
    a' of its own, numbered after the others, and the rules a :- B, not a'
    and a' :- not a replace the choice rule. Returns the program and the
    (atom, complement) pairs; a candidate M of the program corresponds to M
    plus the complements of the atoms outside M."""
    names = list(program.atom_names)
    rules: list[Rule] = []
    pairs: list[tuple[int, int]] = []
    for rule in program.rules:
        if rule.kind is not RuleKind.CHOICE:
            rules.append(rule)
            continue
        for atom in rule.head:
            names.append(f"{program.name(atom)}'{len(names) + 1}")
            comp = len(names)
            pairs.append((atom, comp))
            rules.append(basic_rule((atom,), rule.pos_body, rule.neg_body | {comp}))
            rules.append(basic_rule((comp,), (), (atom,)))
    return Program(tuple(names), tuple(rules)), pairs


def normalize_short_body(program: Program) -> Program:
    """Name long bodies of multi-rule atoms with fresh auxiliary atoms.

    Only defined for normal programs, integrity constraints included, which
    pass through unchanged. The result has the same answer sets when
    projected to the original atoms, and every atom has at most one body or
    only bodies of at most one literal.
    """
    for rule in program.rules:
        if rule.kind is not RuleKind.BASIC or len(rule.head) > 1:
            raise ValueError("short-body normalization expects a normal program")
    rule_count: dict[int, int] = {}
    for rule in program.rules:
        if rule.head:
            rule_count[rule.head[0]] = rule_count.get(rule.head[0], 0) + 1

    names = list(program.atom_names)
    taken = set(names)
    aux_ids: dict[frozenset[int], int] = {}
    aux_counter = 0
    rules: list[Rule] = []
    for rule in program.rules:
        body = rule.body
        if rule.head and rule_count[rule.head[0]] >= 2 and len(body) >= 2:
            aux = aux_ids.get(body)
            if aux is None:
                # Counters only grow, so only the program's own names can collide.
                aux_counter += 1
                while f"__aux{aux_counter}" in taken:
                    aux_counter += 1
                names.append(f"__aux{aux_counter}")
                aux = aux_ids[body] = len(names)
                rules.append(basic_rule([aux], rule.pos_body, rule.neg_body))
            rules.append(basic_rule(rule.head, [aux]))
        else:
            rules.append(rule)
    return Program(tuple(names), tuple(rules))
