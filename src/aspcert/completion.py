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
positive body, since that body could never hold). Weight rules induce no
body: normalize_weights first rewrites each into normal rules, so the
catalog, the solver and the checker read one rule shape, and body_catalog
refuses a weight rule.
"""

from __future__ import annotations

from itertools import accumulate

from .core import CHOICE, WEIGHT, Nogood, Program, Rule, basic_rule
from .proof import Record, sorted_lits

COUNTER_CAP = 1 << 16
INTERNAL_ID_BASE = 1 << 40


class BudgetError(ValueError):
    """Raised when a weight rule's counter needs more than COUNTER_CAP atoms."""


def normalize_weights(program: Program) -> Program:
    """The program with each weight rule rewritten into a counter of normal rules.

    For h :- L <= {l1=w1, ..., ln=wn}, its literals in ascending weight
    order, atom (i, j) stands for "l1..li reach weight j", and (n, L) is h
    itself. (i, j) gets the rules (i, j) :- (i-1, j) and
    (i, j) :- li, (i-1, j - wi), the latter with li alone when j <= wi.
    Thresholds are made from the head down, so each one leads to L, and only
    those that l1..li can reach get an atom; the largest weight is tested
    first. L = 0 makes h a fact, and L above the total weight gives h no rule.

    Each fresh atom has only its counter rules, which hold the atoms of the
    level below positively. So in the least model of the reduct for a
    candidate M, (i, j) holds exactly when l1..li, each not b read in M,
    reach j: the reduct of the weight rule (Simons, Niemelä & Soininen, AIJ
    138, 2002). The answer sets, cut back to the program's atoms, stay the
    same, inside positive cycles too. The fresh atoms are numbered after the
    program's in the order they are made, and named #rule.i.j, a name the
    parser gives no atom; a rule that needs more than COUNTER_CAP of them
    raises BudgetError. A program with no weight rule comes back as it is.
    """
    if all(rule.kind is not WEIGHT for rule in program.rules):
        return program
    names = list(program.atom_names)
    rules: list[Rule] = []
    for number, rule in enumerate(program.rules, 1):
        if rule.kind is not WEIGHT:
            rules.append(rule)
            continue
        items = sorted(rule.weights, key=lambda item: item[1])
        reach = list(accumulate((w for _, w in items), initial=0))
        if rule.bound == 0:
            rules.append(basic_rule(rule.head))
        if not 0 < rule.bound <= reach[-1]:
            continue
        limit = len(names) + COUNTER_CAP
        level = {rule.bound: rule.head[0]}  # level i's thresholds and their atoms
        for i in range(len(items), 0, -1):
            lit, weight = items[i - 1]
            pos, neg = ([lit], []) if lit > 0 else ([], [-lit])
            below: dict[int, int] = {}
            for j, atom in level.items():
                for need, body_pos, body_neg in ((j, [], []), (j - weight, pos, neg)):
                    if need > reach[i - 1]:
                        continue
                    if need > 0:
                        if need not in below:
                            if len(names) == limit:
                                raise BudgetError(
                                    f"weight rule {number}, for {program.name(rule.head[0])}, "
                                    f"needs more than {COUNTER_CAP} counter atoms"
                                )
                            names.append(f"#{number}.{i - 1}.{need}")
                            below[need] = len(names)
                        body_pos = [*body_pos, below[need]]
                    rules.append(basic_rule((atom,), body_pos, body_neg))
            level = below
    return Program(tuple(names), tuple(rules))


class BodyCatalog(Record):
    """All induced bodies of a program, numbered: the one index of them.

    ids maps each body, in first-use order, to its variable id, counting up
    from first_id = atom_count + 1; proofs name the bodies by these ids.
    bodies lists the bodies in that order, so body_of inverts ids. ib lists
    each atom's induced bodies. firing holds the (head atom, body) pairs of
    the rule-firing nogoods {F a, T B}: those of every rule that is not a
    choice rule or an integrity constraint, as the keys of a dict in rule
    order. shifted holds the disjunctive rules, whose bodies the catalog
    holds shifted. constraints holds the bodies of the integrity
    constraints; each is in ids too, from its first use on, but in no
    atom's ib unless another rule induces it. Catalogs compare by identity.
    """

    __slots__ = ("ib", "ids", "bodies", "first_id", "shifted", "firing", "constraints")
    ib: dict[int, tuple[frozenset[int], ...]]
    ids: dict[frozenset[int], int]
    bodies: tuple[frozenset[int], ...]
    first_id: int
    shifted: tuple[Rule, ...]
    firing: dict[tuple[int, frozenset[int]], None]
    constraints: frozenset[frozenset[int]]

    def __init__(
        self,
        ib: dict[int, tuple[frozenset[int], ...]],
        ids: dict[frozenset[int], int],
        bodies: tuple[frozenset[int], ...],
        first_id: int,
        shifted: tuple[Rule, ...],
        firing: dict[tuple[int, frozenset[int]], None],
        constraints: frozenset[frozenset[int]],
    ) -> None:
        values = (ib, ids, bodies, first_id, shifted, firing, constraints)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def bodies_of(self, atom: int) -> tuple[frozenset[int], ...]:
        return self.ib.get(atom, ())

    def body_of(self, body_id: int) -> frozenset[int] | None:
        """The body with this id, or None for an id outside the catalog's range."""
        index = body_id - self.first_id
        return self.bodies[index] if 0 <= index < len(self.bodies) else None


def body_catalog(program: Program) -> BodyCatalog:
    """Collect induced bodies per atom, in one pass over the rules.

    A rule with one body, that of a normal rule, a choice rule or an
    integrity constraint, is read from its fields alone; a disjunctive rule
    induces one shifted body per head atom, as the module docstring says. A
    weight rule raises ValueError: normalize_weights rewrites it first.
    """
    first_id = program.atom_count + 1
    # Dicts with None values serve as insertion-ordered sets.
    ib: dict[int, dict[frozenset[int], None]] = {atom: {} for atom in program.atom_ids()}
    ids: dict[frozenset[int], int] = {}
    shifted: list[Rule] = []
    firing: dict[tuple[int, frozenset[int]], None] = {}
    constraints: set[frozenset[int]] = set()
    for rule in program.rules:
        kind, head, body = rule.kind, rule.head, rule.body
        if kind is WEIGHT:
            raise ValueError("weight rule in the catalog: normalize_weights rewrites it first")
        if not rule.is_disjunctive:
            ids.setdefault(body, first_id + len(ids))
            if not head:
                constraints.add(body)
            for atom in head:
                ib[atom][body] = None
                if kind is not CHOICE:
                    firing[atom, body] = None
            continue
        shifted.append(rule)
        for atom in head:
            others = [b for b in head if b != atom]
            if rule.pos_body.isdisjoint(others):
                induced = body.union([-b for b in others])
                ib[atom][induced] = None
                ids.setdefault(induced, first_id + len(ids))
                firing[atom, induced] = None
    return BodyCatalog(
        {atom: tuple(bodies) for atom, bodies in ib.items()},
        ids,
        tuple(ids),
        first_id,
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
