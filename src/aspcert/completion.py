"""Clark completion over rule bodies: induced bodies, body ids, nogood families.

Every body gets a variable of its own. The three nogood families are:

* body definitions: a body variable is equivalent to the conjunction of its
  literals ({F B} + literals, and {T B, complement(l)} per literal l);
* forward (support): a true atom needs one of its bodies true
  ({T a} + {F B} per body of a);
* backward (rule firing): a true body forces a non-choice rule's head
  ({F a, T B}).

Disjunctive rules induce one shifted body per head atom (body plus the
negations of the other head atoms; none when another head atom is in the
positive body, since that body could never hold); weight rules induce one
body per subset-minimal set of weighted literals reaching the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import Nogood, Program, Rule, RuleKind, basic_rule

DEFAULT_BODY_BUDGET = 4096
INTERNAL_ID_BASE = 1 << 40


class BudgetError(ValueError):
    """Raised when a weight rule's minimal-body expansion exceeds the budget."""


def minimal_weight_sets(
    weights: Mapping[int, int], bound: int, budget: int | None = None
) -> list[frozenset[int]]:
    """Enumerate subset-minimal literal sets whose weights reach the bound.

    Positive weights make the co-singleton test sufficient for minimality:
    a candidate is minimal iff dropping any one element falls below the bound.
    """
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
                    raise BudgetError(
                        f"weight rule induces more than {budget} bodies"
                    )
            return
        if total + suffix[start] < bound:
            return
        for i in range(start, len(domain)):
            picked.append(domain[i])
            extend(i + 1, picked, total + weights[domain[i]])
            picked.pop()

    extend(0, [], 0)
    return found


def induced_bodies_of_rule(rule: Rule, atom: int, budget: int | None = None) -> list[frozenset[int]]:
    """Bodies through which this rule can support the given head atom."""
    if atom not in rule.head:
        raise ValueError(f"atom {atom} is not a head atom of the rule")
    if rule.kind is RuleKind.WEIGHT:
        return minimal_weight_sets(dict(rule.weights), rule.bound, budget)
    body = rule.body_literals()
    if rule.is_disjunctive:
        others = [b for b in rule.head if b != atom]
        if any(b in rule.pos_body for b in others):
            return []
        return [body | frozenset(-b for b in others)]
    return [body]


@dataclass(frozen=True, eq=False)
class BodyCatalog:
    """All induced bodies of a program, in deterministic first-use order.

    shifted lists the disjunctive rules, whose bodies the catalog holds
    shifted. by_rule holds, per rule in program order, the (head atom,
    induced bodies) pairs the rule contributes; a deferred rule has none.
    """

    ib: dict[int, tuple[frozenset[int], ...]]
    order: tuple[frozenset[int], ...]
    deferred: tuple[Rule, ...]
    shifted: tuple[Rule, ...]
    by_rule: tuple[list[tuple[int, list[frozenset[int]]]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", frozenset(self.order))

    def bodies_of(self, atom: int) -> tuple[frozenset[int], ...]:
        return self.ib.get(atom, ())

    def __contains__(self, body: frozenset[int]) -> bool:
        return body in self._index


def body_catalog(program: Program, budget: int | None = DEFAULT_BODY_BUDGET) -> BodyCatalog:
    """Collect induced bodies per atom; weight rules expand under the budget.

    Rules whose expansion overruns the budget are returned unexpanded in
    .deferred.
    """
    ib: dict[int, list[frozenset[int]]] = {atom: [] for atom in program.atom_ids()}
    per_atom_seen: dict[int, set[frozenset[int]]] = {a: set() for a in program.atom_ids()}
    order: list[frozenset[int]] = []
    seen_global: set[frozenset[int]] = set()
    deferred: list[Rule] = []
    by_rule: list[list[tuple[int, list[frozenset[int]]]]] = []
    for rule in program.rules:
        if rule.kind is not RuleKind.WEIGHT and not rule.is_disjunctive:
            body = [rule.body_literals()]
            per_atom = [(a, body) for a in rule.head]
        else:
            try:
                per_atom = [(a, induced_bodies_of_rule(rule, a, budget)) for a in rule.head]
            except BudgetError:
                deferred.append(rule)
                by_rule.append([])
                continue
        by_rule.append(per_atom)
        for atom, bodies in per_atom:
            for body in bodies:
                if body not in per_atom_seen[atom]:
                    per_atom_seen[atom].add(body)
                    ib[atom].append(body)
                if body not in seen_global:
                    seen_global.add(body)
                    order.append(body)
    return BodyCatalog(
        {atom: tuple(bodies) for atom, bodies in ib.items()},
        tuple(order),
        tuple(deferred),
        tuple(rule for rule in program.rules if rule.is_disjunctive),
        tuple(by_rule),
    )


class BodyRegistry:
    """The one owner of every variable id above the atoms.

    Each such id names exactly one body or one extension variable, and keeps
    that meaning. Proof b lines declare bodies under the ids they give and e
    lines add extension variables; intern gives a body the lowest free id
    right above the atoms, and intern_internal the lowest free id from
    INTERNAL_ID_BASE up, for bodies a proof never names (preloaded
    completion, loop-step externals), so that they leave the low ids to the
    proof. has_id, id_of and lits_of speak of bodies only.
    """

    def __init__(self, atom_count: int) -> None:
        self.atom_count = atom_count
        self._by_id: dict[int, frozenset[int]] = {}
        self._by_lits: dict[frozenset[int], int] = {}
        self._extensions: set[int] = set()
        self._cursor: dict[int, int] = {}

    def knows(self, var: int) -> bool:
        """Is var an atom, a body or an extension variable?"""
        return 1 <= var <= self.atom_count or var in self._by_id or var in self._extensions

    def is_extension(self, var: int) -> bool:
        return var in self._extensions

    def _claim(self, var: int) -> None:
        if var <= self.atom_count:
            raise ValueError(f"id {var} collides with an atom id")
        if var in self._by_id or var in self._extensions:
            raise ValueError(f"id {var} is already defined")

    def extend(self, var: int) -> None:
        """Make var an extension variable; it must be a fresh id above the atoms."""
        self._claim(var)
        self._extensions.add(var)

    def declare(self, body_id: int, lits: frozenset[int]) -> None:
        self._claim(body_id)
        if lits in self._by_lits:
            raise ValueError(
                f"body {sorted(lits)} is already named by id {self._by_lits[lits]}"
            )
        self._by_id[body_id] = lits
        self._by_lits[lits] = body_id

    def _intern(self, lits: frozenset[int], start: int) -> int:
        """The body's id; a new body takes the lowest free id from start up."""
        existing = self._by_lits.get(lits)
        if existing is not None:
            return existing
        body_id = self._cursor.get(start, start)
        while self.knows(body_id):
            body_id += 1
        self._cursor[start] = body_id + 1
        self._by_id[body_id] = lits
        self._by_lits[lits] = body_id
        return body_id

    def intern(self, lits: frozenset[int]) -> int:
        return self._intern(lits, self.atom_count + 1)

    def intern_internal(self, lits: frozenset[int]) -> int:
        return self._intern(lits, INTERNAL_ID_BASE)

    def id_of(self, lits: frozenset[int]) -> int:
        return self._by_lits[lits]

    def lits_of(self, body_id: int) -> frozenset[int]:
        return self._by_id[body_id]

    def has_id(self, body_id: int) -> bool:
        return body_id in self._by_id

    def has_lits(self, lits: frozenset[int]) -> bool:
        return lits in self._by_lits

    def public_items(self) -> list[tuple[int, frozenset[int]]]:
        return [(i, b) for i, b in sorted(self._by_id.items()) if i < INTERNAL_ID_BASE]


def body_definition(body_id: int, lits: frozenset[int]) -> tuple[Nogood, ...]:
    """Nogoods tying a body variable to its literals (definition first)."""
    ordered = sorted(lits, key=lambda l: (abs(l), -l))
    main = frozenset({-body_id, *ordered})
    return (main, *(frozenset({body_id, -lit}) for lit in ordered))


def forward_nogood(atom: int, body_ids: Iterable[int]) -> Nogood:
    """Support nogood: the atom cannot be true with all its bodies false."""
    return frozenset({atom, *(-b for b in body_ids)})


def forward_family(
    program: Program, catalog: BodyCatalog, registry: BodyRegistry
) -> list[tuple[int, tuple[int, ...], Nogood]]:
    """One (atom, body ids, support nogood) triple per atom, in atom order."""
    out = []
    for atom in program.atom_ids():
        body_ids = tuple(registry.id_of(b) for b in catalog.bodies_of(atom))
        out.append((atom, body_ids, forward_nogood(atom, body_ids)))
    return out


def backward_family(
    program: Program, catalog: BodyCatalog, registry: BodyRegistry
) -> list[Nogood]:
    """Rule-firing nogoods {F a, T B} for non-choice rules, deduplicated, rule order."""
    out: list[Nogood] = []
    seen: set[Nogood] = set()
    deferred = set(map(id, catalog.deferred))
    for rule in program.rules:
        if rule.kind is RuleKind.CHOICE or id(rule) in deferred:
            continue
        for atom in rule.head:
            for body in induced_bodies_of_rule(rule, atom):
                nogood = frozenset({-atom, registry.id_of(body)})
                if nogood not in seen:
                    seen.add(nogood)
                    out.append(nogood)
    return out


def normalize_short_body(program: Program) -> Program:
    """Name long bodies of multi-rule atoms with fresh auxiliary atoms.

    Only defined for normal programs. The result has the same answer sets
    when projected to the original atoms, and every atom has at most one
    body or only bodies of at most one literal.
    """
    for rule in program.rules:
        if rule.kind is not RuleKind.BASIC or len(rule.head) != 1:
            raise ValueError("short-body normalization expects a normal program")
    rule_count: dict[int, int] = {}
    for rule in program.rules:
        rule_count[rule.head[0]] = rule_count.get(rule.head[0], 0) + 1

    names = list(program.atom_names)
    taken = set(names)
    aux_ids: dict[frozenset[int], int] = {}
    aux_counter = 0
    rules: list[Rule] = []

    def aux_for(body: frozenset[int]) -> int:
        nonlocal aux_counter
        if body not in aux_ids:
            aux_counter += 1
            name = f"__aux{aux_counter}"
            while name in taken:
                aux_counter += 1
                name = f"__aux{aux_counter}"
            names.append(name)
            taken.add(name)
            aux_ids[body] = len(names)
        return aux_ids[body]

    for rule in program.rules:
        body = rule.body_literals()
        if rule_count[rule.head[0]] >= 2 and len(body) >= 2:
            aux = aux_ids.get(body)
            if aux is None:
                aux = aux_for(body)
                rules.append(basic_rule([aux], rule.pos_body, rule.neg_body))
            rules.append(basic_rule(rule.head, [aux]))
        else:
            rules.append(rule)
    return Program(tuple(names), tuple(rules))
