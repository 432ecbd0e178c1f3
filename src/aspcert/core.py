"""Ground program representation: signed variables, nogoods, rules, programs.

A signed variable is a plain int: +v asserts variable v true, -v asserts it
false. Variables 1..n are the program atoms; higher ids name rule bodies and
extension variables. A nogood is a set of signed variables that must not all
hold at once; the empty nogood marks inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

Nogood = frozenset[int]
Assignment = frozenset[int]


def is_consistent(literals: Iterable[int]) -> bool:
    """Check that no variable occurs with both signs."""
    seen = set(literals)
    return not any(-lit in seen for lit in seen)


class RuleKind(Enum):
    BASIC = "basic"
    CHOICE = "choice"
    WEIGHT = "weight"


@dataclass(frozen=True)
class Rule:
    """One ground rule; heads and bodies hold signed atom ids.

    BASIC covers normal rules (one head atom) and disjunctive rules (several).
    CHOICE rules make their head atoms free when the body holds. WEIGHT rules
    have a single head, a bound, and weighted signed literals instead of a
    plain body; pos_body/neg_body are derived from the weight domain.
    """

    kind: RuleKind
    head: tuple[int, ...]
    pos_body: frozenset[int] = frozenset()
    neg_body: frozenset[int] = frozenset()
    bound: int = 0
    weights: tuple[tuple[int, int], ...] = ()
    _body: frozenset[int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.head:
            raise ValueError("rule needs at least one head atom")
        if any(a <= 0 for a in self.head):
            raise ValueError("head atoms are positive ids")
        if len(set(self.head)) != len(self.head):
            raise ValueError("duplicate head atom")
        if self.kind is RuleKind.WEIGHT:
            if len(self.head) != 1:
                raise ValueError("weight rule has exactly one head atom")
            if self.bound < 0:
                raise ValueError("weight bound is non-negative")
            lits = [lit for lit, _ in self.weights]
            if not is_consistent(lits) or len(set(lits)) != len(lits):
                raise ValueError("weight literals must be distinct and consistent")
            if any(w <= 0 for _, w in self.weights):
                raise ValueError("weights are positive")
            body = frozenset(lits)
        elif self.weights or self.bound:
            raise ValueError("only weight rules carry weights and a bound")
        else:
            body = frozenset(self.pos_body) | frozenset(-a for a in self.neg_body)
        if self.pos_body & self.neg_body:
            raise ValueError("atom occurs positively and negatively in one body")
        object.__setattr__(self, "_body", body)

    @property
    def is_disjunctive(self) -> bool:
        return self.kind is RuleKind.BASIC and len(self.head) > 1

    def body_literals(self) -> frozenset[int]:
        """The rule body as signed atom ids (weight rules: the weight domain)."""
        return self._body

    def weight_of(self, lit: int) -> int:
        for candidate, w in self.weights:
            if candidate == lit:
                return w
        raise KeyError(lit)


def basic_rule(head: Sequence[int], pos: Iterable[int] = (), neg: Iterable[int] = ()) -> Rule:
    """Build a normal or disjunctive rule."""
    return Rule(RuleKind.BASIC, tuple(head), frozenset(pos), frozenset(neg))


def choice_rule(head: Sequence[int], pos: Iterable[int] = (), neg: Iterable[int] = ()) -> Rule:
    """Build a choice rule."""
    return Rule(RuleKind.CHOICE, tuple(head), frozenset(pos), frozenset(neg))


def weight_rule(head: int, bound: int, weights: Mapping[int, int]) -> Rule:
    """Build a weight rule from a signed-literal -> weight map."""
    items = tuple(sorted(weights.items(), key=lambda kv: (abs(kv[0]), -kv[0])))
    return Rule(
        RuleKind.WEIGHT,
        (head,),
        frozenset(lit for lit in weights if lit > 0),
        frozenset(-lit for lit in weights if lit < 0),
        bound,
        items,
    )


@dataclass(frozen=True)
class Program:
    """A ground program: atom names (ids 1..n in order) and rules."""

    atom_names: tuple[str, ...]
    rules: tuple[Rule, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        ids = {name: i + 1 for i, name in enumerate(self.atom_names)}
        if len(ids) != len(self.atom_names):
            raise ValueError("duplicate atom name")
        object.__setattr__(self, "_ids", ids)
        for rule in self.rules:
            for atom in self.atoms_of(rule):
                if not 1 <= atom <= len(self.atom_names):
                    raise ValueError(f"rule uses unknown atom id {atom}")

    @staticmethod
    def atoms_of(rule: Rule) -> Iterator[int]:
        yield from rule.head
        yield from rule.pos_body
        yield from rule.neg_body

    @property
    def atom_count(self) -> int:
        return len(self.atom_names)

    def atom_ids(self) -> range:
        return range(1, len(self.atom_names) + 1)

    def atom(self, name: str) -> int:
        return self._ids[name]

    def name(self, atom_id: int) -> str:
        return self.atom_names[atom_id - 1]
