"""Ground program representation: signed variables, nogoods, rules, programs.

A signed variable is a plain int: +v asserts variable v true, -v asserts it
false. Variables 1..n are the program atoms; higher ids name rule bodies and
extension variables. A nogood is a set of signed variables that must not all
hold at once; the empty nogood marks inconsistency.
"""

from __future__ import annotations

from enum import Enum
from operator import neg
from typing import Iterable, Mapping, NamedTuple, Sequence

from .proof import sorted_lits

Nogood = frozenset[int]


def is_consistent(literals: Iterable[int]) -> bool:
    """Check that no variable occurs with both signs."""
    seen = set(literals)
    return not any(-lit in seen for lit in seen)


class RuleKind(Enum):
    BASIC = "basic"
    CHOICE = "choice"
    WEIGHT = "weight"


# Reading a member through the Enum class costs a descriptor call per read,
# about as much as a short function call; per-rule code reads these instead.
BASIC, CHOICE, WEIGHT = RuleKind.BASIC, RuleKind.CHOICE, RuleKind.WEIGHT
_EMPTY: frozenset[int] = frozenset()


class _RuleFields(NamedTuple):
    kind: RuleKind
    head: tuple[int, ...]
    pos_body: frozenset[int]
    neg_body: frozenset[int]
    bound: int
    weights: tuple[tuple[int, int], ...]
    body: frozenset[int]
    is_disjunctive: bool


class Rule(_RuleFields):
    """One ground rule; heads and bodies hold signed atom ids.

    BASIC covers normal rules (one head atom), disjunctive rules (several)
    and integrity constraints (none, and a non-empty body). CHOICE rules
    make their head atoms free when the body holds. WEIGHT rules have a
    single head, a bound, and weighted signed literals instead of a plain
    body; pos_body/neg_body are derived from the weight domain.

    A rule is an immutable record, a tuple underneath, checked once in
    __new__. The constructor takes kind, head, pos_body, neg_body, bound and
    weights, positionally or by keyword, and stores two fields derived from
    them: body, the body as signed atom ids (for a weight rule, the weight
    domain), and is_disjunctive, true for a basic rule with several head
    atoms. Equality and hashing go by the fields. __getnewargs__ hands copy
    and pickle the six constructor arguments, since __new__ takes no
    derived field.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: RuleKind,
        head: tuple[int, ...],
        pos_body: frozenset[int] = _EMPTY,
        neg_body: frozenset[int] = _EMPTY,
        bound: int = 0,
        weights: tuple[tuple[int, int], ...] = (),
    ) -> Rule:
        if not head:
            if kind is not BASIC:
                raise ValueError("only a basic rule may have an empty head")
            if not pos_body and not neg_body:
                raise ValueError("a rule with an empty head needs a body")
        elif min(head) <= 0:
            raise ValueError("head atoms are positive ids")
        if len(head) > 1 and len(set(head)) != len(head):
            raise ValueError("duplicate head atom")
        if kind is WEIGHT:
            if len(head) != 1:
                raise ValueError("weight rule has exactly one head atom")
            if bound < 0:
                raise ValueError("weight bound is non-negative")
            lits = [lit for lit, _ in weights]
            if not is_consistent(lits) or len(set(lits)) != len(lits):
                raise ValueError("weight literals must be distinct and consistent")
            if any(w <= 0 for _, w in weights):
                raise ValueError("weights are positive")
            body = frozenset(lits)
        elif weights or bound:
            raise ValueError("only weight rules carry weights and a bound")
        elif not neg_body:
            body = frozenset(pos_body)
        else:
            body = frozenset(pos_body).union(map(neg, neg_body))
        if neg_body and not pos_body.isdisjoint(neg_body):
            raise ValueError("atom occurs positively and negatively in one body")
        disjunctive = kind is BASIC and len(head) > 1
        return tuple.__new__(cls, (kind, head, pos_body, neg_body, bound, weights, body, disjunctive))

    def __getnewargs__(self) -> tuple:
        return self[:6]


def basic_rule(head: Sequence[int], pos: Iterable[int] = (), neg: Iterable[int] = ()) -> Rule:
    """Build a normal or disjunctive rule, or with no head an integrity constraint."""
    return Rule(BASIC, tuple(head), frozenset(pos), frozenset(neg))


def choice_rule(head: Sequence[int], pos: Iterable[int] = (), neg: Iterable[int] = ()) -> Rule:
    """Build a choice rule."""
    return Rule(CHOICE, tuple(head), frozenset(pos), frozenset(neg))


def weight_rule(head: int, bound: int, weights: Mapping[int, int]) -> Rule:
    """Build a weight rule from a signed-literal -> weight map."""
    items = tuple((lit, weights[lit]) for lit in sorted_lits(weights))
    return Rule(
        WEIGHT,
        (head,),
        frozenset(lit for lit in weights if lit > 0),
        frozenset(-lit for lit in weights if lit < 0),
        bound,
        items,
    )


class _ProgramFields(NamedTuple):
    atom_names: tuple[str, ...]
    rules: tuple[Rule, ...]


class Program(_ProgramFields):
    """A ground program: atom names (ids 1..n in order) and rules.

    An immutable record, a tuple underneath like Rule, checked once in
    __new__; equality and hashing go by the two fields.
    """

    __slots__ = ()

    def __new__(cls, atom_names: tuple[str, ...], rules: tuple[Rule, ...]) -> Program:
        count = len(atom_names)
        if len(set(atom_names)) != count:
            raise ValueError("duplicate atom name")
        used: set[int] = set()
        for rule in rules:
            used.update(rule.head, rule.pos_body, rule.neg_body)
        if used and not 1 <= min(used) <= max(used) <= count:
            order = [a for r in rules for a in (*r.head, *r.pos_body, *r.neg_body)]
            unknown = next(a for a in order if not 1 <= a <= count)
            raise ValueError(f"rule uses unknown atom id {unknown}")
        return tuple.__new__(cls, (atom_names, rules))

    @property
    def atom_count(self) -> int:
        return len(self.atom_names)

    def atom_ids(self) -> range:
        return range(1, len(self.atom_names) + 1)

    def name(self, atom_id: int) -> str:
        return self.atom_names[atom_id - 1]
