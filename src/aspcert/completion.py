"""Clark completion over rule bodies: induced bodies, body ids, nogood families.

Every body gets a variable of its own. The three nogood families are:

* body definitions: a body variable is equivalent to the conjunction of its
  literals ({F B} + literals, and {T B, complement(l)} per literal l);
* forward (support): a true atom needs one of its bodies true
  ({T a} + {F B} per body of a), the shape of a loop nogood, so
  loops.loop_nogood builds both;
* backward (rule firing): a true body forces a non-choice rule's head
  ({F a, T B}); an integrity constraint, a rule with no head, has the body
  of its rule false ({T B}).

Disjunctive rules induce one shifted body per head atom (body plus the
negations of the other head atoms; none when another head atom is in the
positive body, since that body could never hold); weight rules induce one
body per subset-minimal set of weighted literals reaching the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import CHOICE, WEIGHT, Nogood, Program, Rule
from .proof import sorted_lits

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
    The search runs depth first, literals by falling weight, on an explicit
    path rather than the call stack, so that a rule of any length is enumerated.
    """
    domain = sorted(weights, key=lambda lit: (-weights[lit], abs(lit), -lit))
    suffix = [0] * (len(domain) + 1)
    for i in range(len(domain) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[domain[i]]
    found: list[frozenset[int]] = []
    path: list[int] = []  # the picked literals' indices into domain, ascending
    total = start = 0
    while True:
        if total >= bound:
            if all(total - weights[domain[i]] < bound for i in path):
                found.append(frozenset(domain[i] for i in path))
                if budget is not None and len(found) > budget:
                    raise BudgetError(f"weight rule induces more than {budget} bodies")
        elif total + suffix[start] >= bound:
            path.append(start)
            total += weights[domain[start]]
            start += 1
            continue
        if not path:
            return found
        # Back up: drop the last pick and try the literal after it instead.
        start = path.pop()
        total -= weights[domain[start]]
        start += 1


def induced_bodies_of_rule(rule: Rule, atom: int, budget: int | None = None) -> list[frozenset[int]]:
    """Bodies through which this rule can support the given head atom."""
    if atom not in rule.head:
        raise ValueError(f"atom {atom} is not a head atom of the rule")
    if rule.kind is WEIGHT:
        return minimal_weight_sets(dict(rule.weights), rule.bound, budget)
    body = rule.body
    if rule.is_disjunctive:
        others = [b for b in rule.head if b != atom]
        if any(b in rule.pos_body for b in others):
            return []
        return [body | frozenset(-b for b in others)]
    return [body]


@dataclass(frozen=True, eq=False)
class BodyCatalog:
    """All induced bodies of a program, numbered: the one index of them.

    ids maps each body, in first-use order, to its variable id, counting up
    from first_id = atom_count + 1; proofs name the bodies by these ids.
    bodies lists the bodies in that order, so body_of inverts ids. ib lists
    each atom's induced bodies. firing holds the (head atom, body) pairs of
    the rule-firing nogoods {F a, T B}: those of every rule that is
    not a choice rule, a deferred rule or an integrity constraint, as the
    keys of a dict in rule order. deferred holds, unexpanded, the weight
    rules whose expansion exceeds DEFAULT_BODY_BUDGET bodies, and shifted the
    disjunctive rules, whose bodies the catalog holds shifted. constraints
    holds the bodies of the integrity constraints; each is in ids too, from
    its first use on, but in no atom's ib unless another rule induces it.
    """

    ib: dict[int, tuple[frozenset[int], ...]]
    ids: dict[frozenset[int], int]
    bodies: tuple[frozenset[int], ...]
    first_id: int
    deferred: tuple[Rule, ...]
    shifted: tuple[Rule, ...]
    firing: dict[tuple[int, frozenset[int]], None]
    constraints: frozenset[frozenset[int]]

    def bodies_of(self, atom: int) -> tuple[frozenset[int], ...]:
        return self.ib.get(atom, ())

    def body_of(self, body_id: int) -> frozenset[int] | None:
        """The body with this id, or None for an id outside the catalog's range."""
        index = body_id - self.first_id
        return self.bodies[index] if 0 <= index < len(self.bodies) else None


def body_catalog(program: Program) -> BodyCatalog:
    """Collect induced bodies per atom; weight rules expand under the budget.

    One pass over the rules fills every field. A rule with one body, that of
    a normal rule, a choice rule or an integrity constraint, is read from its
    fields alone; only disjunctive and weight rules go through
    induced_bodies_of_rule. Rules whose expansion overruns
    DEFAULT_BODY_BUDGET are returned unexpanded in .deferred.
    """
    first_id = program.atom_count + 1
    # Dicts with None values serve as insertion-ordered sets.
    ib: dict[int, dict[frozenset[int], None]] = {atom: {} for atom in program.atom_ids()}
    ids: dict[frozenset[int], int] = {}
    deferred: list[Rule] = []
    shifted: list[Rule] = []
    firing: dict[tuple[int, frozenset[int]], None] = {}
    constraints: set[frozenset[int]] = set()
    for rule in program.rules:
        kind, head, body = rule.kind, rule.head, rule.body
        if kind is not WEIGHT and not rule.is_disjunctive:
            ids.setdefault(body, first_id + len(ids))
            if not head:
                constraints.add(body)
            for atom in head:
                ib[atom][body] = None
                if kind is not CHOICE:
                    firing[atom, body] = None
            continue
        if rule.is_disjunctive:
            shifted.append(rule)
        try:
            per_atom = [(a, induced_bodies_of_rule(rule, a, DEFAULT_BODY_BUDGET)) for a in head]
        except BudgetError:
            deferred.append(rule)
            continue
        for atom, bodies in per_atom:
            for induced in bodies:
                ib[atom][induced] = None
                ids.setdefault(induced, first_id + len(ids))
                firing[atom, induced] = None
    return BodyCatalog(
        {atom: tuple(bodies) for atom, bodies in ib.items()},
        ids,
        tuple(ids),
        first_id,
        tuple(deferred),
        tuple(shifted),
        firing,
        frozenset(constraints),
    )


class BodyRegistry:
    """The one owner of every variable id above the atoms.

    Each such id names exactly one body or one extension variable, and keeps
    that meaning. declare names a body by an id, the one a b line gives or
    its catalog id, and extend adds an extension variable for an e line;
    internal_id gives the lowest free id from INTERNAL_ID_BASE up, for a
    loop step's external body whose catalog id a proof line has already
    taken. id_of and lits_of speak of bodies only, and give None for an
    unknown one.
    """

    def __init__(self, atom_count: int) -> None:
        self.atom_count = atom_count
        self._by_id: dict[int, frozenset[int]] = {}
        self._by_lits: dict[frozenset[int], int] = {}
        self._extensions: set[int] = set()
        self._cursor = INTERNAL_ID_BASE

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

    def internal_id(self) -> int:
        """The lowest free id from INTERNAL_ID_BASE up; declare takes it."""
        body_id = self._cursor
        while self.knows(body_id):
            body_id += 1
        self._cursor = body_id + 1
        return body_id

    def id_of(self, lits: frozenset[int]) -> int | None:
        return self._by_lits.get(lits)

    def lits_of(self, body_id: int) -> frozenset[int] | None:
        return self._by_id.get(body_id)


def body_definition(body_id: int, lits: frozenset[int]) -> tuple[Nogood, ...]:
    """Nogoods tying a body variable to its literals (definition first)."""
    return (lits | {-body_id}, *(frozenset({body_id, -lit}) for lit in sorted_lits(lits)))
