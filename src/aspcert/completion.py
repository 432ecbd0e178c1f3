"""Clark completion over rule bodies: induced bodies, body ids, nogood families.

Every body gets a variable of its own. The three nogood families are:

* body definitions: a body variable is equivalent to the conjunction of its
  literals ({F B} + literals, and {T B, complement(l)} per literal l);
* forward (support): a true atom needs one of its bodies true
  ({T a} + {F B} per body of a);
* backward (rule firing): a true body forces a non-choice rule's head
  ({F a, T B}).

Disjunctive rules induce one shifted body per head atom (body plus the
negations of the other head atoms); weight rules induce one body per
subset-minimal set of weighted literals reaching the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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
        return [body | frozenset(-b for b in rule.head if b != atom)]
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


def body_catalog(
    program: Program,
    budget: int | None = DEFAULT_BODY_BUDGET,
    defer_over_budget: bool = False,
) -> BodyCatalog:
    """Collect induced bodies per atom; weight rules expand under the budget.

    With defer_over_budget, rules whose expansion overruns the budget are
    returned unexpanded in .deferred instead of raising.
    """
    ib: dict[int, list[frozenset[int]]] = {atom: [] for atom in program.atom_ids()}
    per_atom_seen: dict[int, set[frozenset[int]]] = {a: set() for a in program.atom_ids()}
    order: list[frozenset[int]] = []
    seen_global: set[frozenset[int]] = set()
    deferred: list[Rule] = []
    by_rule: list[list[tuple[int, list[frozenset[int]]]]] = []
    for rule in program.rules:
        try:
            per_atom = [(a, induced_bodies_of_rule(rule, a, budget)) for a in rule.head]
        except BudgetError:
            if not defer_over_budget:
                raise
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
    """Bijective map between body literal sets and body variable ids.

    Public ids live right above the atom ids and are either declared
    explicitly (proof b lines) or interned in allocation order (solver).
    Internal ids live in a reserved high range for bodies a proof never
    names (preloaded completion, loop-step externals).
    """

    def __init__(self, atom_count: int) -> None:
        self.atom_count = atom_count
        self._by_id: dict[int, frozenset[int]] = {}
        self._by_lits: dict[frozenset[int], int] = {}
        self._next = atom_count + 1
        self._next_internal = INTERNAL_ID_BASE

    def declare(self, body_id: int, lits: frozenset[int]) -> None:
        if body_id <= self.atom_count:
            raise ValueError(f"body id {body_id} collides with an atom id")
        if body_id >= INTERNAL_ID_BASE:
            raise ValueError(f"body id {body_id} lies in the reserved range")
        if body_id in self._by_id:
            raise ValueError(f"body id {body_id} is already defined")
        if lits in self._by_lits:
            raise ValueError(
                f"body {sorted(lits)} is already named by id {self._by_lits[lits]}"
            )
        self._by_id[body_id] = lits
        self._by_lits[lits] = body_id

    def intern(self, lits: frozenset[int]) -> int:
        existing = self._by_lits.get(lits)
        if existing is not None:
            return existing
        while self._next in self._by_id:
            self._next += 1
        self._by_id[self._next] = lits
        self._by_lits[lits] = self._next
        return self._next

    def intern_internal(self, lits: frozenset[int]) -> int:
        existing = self._by_lits.get(lits)
        if existing is not None:
            return existing
        body_id = self._next_internal
        self._next_internal += 1
        self._by_id[body_id] = lits
        self._by_lits[lits] = body_id
        return body_id

    def id_of(self, lits: frozenset[int]) -> int:
        return self._by_lits[lits]

    def lits_of(self, body_id: int) -> frozenset[int]:
        return self._by_id[body_id]

    def has_id(self, body_id: int) -> bool:
        return body_id in self._by_id

    def has_lits(self, lits: frozenset[int]) -> bool:
        return lits in self._by_lits

    def items(self) -> Iterator[tuple[int, frozenset[int]]]:
        return iter(sorted(self._by_id.items()))

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


def backward_nogood(atom: int, body_id: int) -> Nogood:
    """Rule-firing nogood: a true body forbids a false head atom."""
    return frozenset({-atom, body_id})


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
    """Rule-firing nogoods for non-choice rules, deduplicated, rule order."""
    out: list[Nogood] = []
    seen: set[Nogood] = set()
    deferred = set(map(id, catalog.deferred))
    for rule in program.rules:
        if rule.kind is RuleKind.CHOICE or id(rule) in deferred:
            continue
        for atom in rule.head:
            for body in induced_bodies_of_rule(rule, atom):
                nogood = backward_nogood(atom, registry.id_of(body))
                if nogood not in seen:
                    seen.add(nogood)
                    out.append(nogood)
    return out


def is_short_body_form(program: Program, catalog: BodyCatalog | None = None) -> bool:
    """Each atom has at most one body, or only bodies of at most one literal."""
    catalog = catalog or body_catalog(program)
    return all(
        len(bodies) <= 1 or all(len(b) <= 1 for b in bodies)
        for bodies in (catalog.bodies_of(a) for a in program.atom_ids())
    )


def normalize_short_body(program: Program) -> Program:
    """Name long bodies of multi-rule atoms with fresh auxiliary atoms.

    Only defined for normal programs. The result has the same answer sets
    when projected to the original atoms and satisfies is_short_body_form.
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
