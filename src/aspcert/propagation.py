"""Unit propagation over nogoods, RUP tests, and weight-rule propagation.

A nogood forbids its literal set: it is violated when all entries hold, and
unit when exactly one entry is unassigned and the rest hold, which forces the
complement of that entry.

Two engines answer the same questions. NogoodStore is the checker's store:
an insert-and-delete multiset whose nogoods each watch two of their literals
(Chaff's two-watched-literal scheme, as DRAT-trim uses for RUP), so a
propagation run visits only nogoods one of whose watched literals became
true, and costs time linear in the work it does, not in the store's size.
unit_propagate works on any iterable of nogoods: it scans the list in order
and repeats until a full pass derives nothing, so its derivation order is a
deterministic function of list order; it is the slow reference the tests
compare the store against. rup_run dispatches on its argument: a NogoodStore
uses the watched engine, anything else the scan. The solver uses neither; it
keeps its own watch-based engine so that the checker shares no inference
code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .core import Assignment, Nogood, Rule, RuleKind

Derivation = tuple[int, Nogood]


class Propagator(Protocol):
    """External propagation hook, consulted at each unit-propagation fixpoint."""

    def __call__(self, assigned: frozenset[int]) -> tuple[Nogood | None, list[Derivation]]:
        """Return (violated nogood or None, forced literals with reasons)."""


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of a propagation run: conflict, forced literals, final state."""

    conflict: Nogood | None
    derived: tuple[int, ...]
    assignment: Assignment

    @property
    def is_conflict(self) -> bool:
        return self.conflict is not None


def unit_propagate(
    nogoods: Iterable[Nogood | None],
    assumptions: Iterable[int] = (),
    propagators: Sequence[Propagator] = (),
) -> PropagationResult:
    """Propagate to fixpoint from the assumptions; None entries are skipped."""
    store = [delta for delta in nogoods if delta is not None]
    assigned: set[int] = set()
    derived: list[int] = []

    def place(lit: int) -> bool:
        if -lit in assigned:
            return False
        assigned.add(lit)
        return True

    for lit in assumptions:
        if not place(lit):
            return PropagationResult(frozenset({-lit}), tuple(derived), frozenset(assigned))

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
                return PropagationResult(delta, tuple(derived), frozenset(assigned))
            assigned.add(-free)
            derived.append(-free)
            changed = True
        if changed:
            continue
        for propagator in propagators:
            conflict, forced = propagator(frozenset(assigned))
            if conflict is not None:
                return PropagationResult(conflict, tuple(derived), frozenset(assigned))
            for lit, reason in forced:
                if -lit in assigned:
                    return PropagationResult(reason, tuple(derived), frozenset(assigned))
                if lit not in assigned:
                    assigned.add(lit)
                    derived.append(lit)
                    changed = True
        if not changed:
            return PropagationResult(None, tuple(derived), frozenset(assigned))


class NogoodStore:
    """Multiset of nogoods kept ready for watched-literal propagation.

    Slot i holds the i-th inserted nogood, or None once remove() has taken
    that copy out; len() counts slots, deleted ones included. A nogood of two
    or more literals watches two of them, and while no literal is assigned
    any two will do. A propagation run only moves watches away from true
    literals, so the watches it leaves behind are valid again as soon as its
    assignment is dropped, and undoing a run needs no work. A deleted slot
    stays in its watch lists until a run next visits them. Unit and empty
    nogoods have no watches: propagate() asserts the units first and fails at
    once while an empty nogood is present.
    """

    def __init__(self) -> None:
        self._slots: list[Nogood | None] = []
        self._copies: dict[Nogood, list[int]] = {}
        # The watched literals of slot i are _watched[2 * i] and _watched[2 * i + 1].
        self._watched: list[int] = []
        self._watchers: dict[int, list[int]] = {}
        self._units: list[int] = []
        self.empty = 0

    def __len__(self) -> int:
        return len(self._slots)

    def live(self) -> list[Nogood]:
        """The nogoods present, one entry per copy, in insertion order."""
        return [nogood for nogood in self._slots if nogood is not None]

    def insert(self, nogood: Nogood) -> None:
        slot = len(self._slots)
        self._slots.append(nogood)
        self._copies.setdefault(nogood, []).append(slot)
        if len(nogood) >= 2:
            lits = iter(nogood)
            first, second = next(lits), next(lits)
            self._watched += (first, second)
            self._watchers.setdefault(first, []).append(slot)
            self._watchers.setdefault(second, []).append(slot)
            return
        self._watched += (0, 0)
        if nogood:
            self._units.append(slot)
        else:
            self.empty += 1

    def remove(self, nogood: Nogood) -> bool:
        """Delete the latest live copy of the nogood; False if none is present."""
        copies = self._copies.get(nogood)
        if not copies:
            return False
        slot = copies.pop()
        if not copies:
            del self._copies[nogood]
        self._slots[slot] = None
        if len(nogood) == 1:
            self._units.remove(slot)
        elif not nogood:
            self.empty -= 1
        return True

    def propagate(
        self, assumptions: Iterable[int], propagators: Sequence[Propagator] = ()
    ) -> PropagationResult:
        """unit_propagate over the live nogoods, through the watch lists."""
        assigned: set[int] = set()
        trail: list[int] = []
        assumed = 0

        def stop(conflict: Nogood | None) -> PropagationResult:
            return PropagationResult(conflict, tuple(trail[assumed:]), frozenset(assigned))

        for lit in assumptions:
            if -lit in assigned:
                return stop(frozenset({-lit}))
            if lit not in assigned:
                assigned.add(lit)
                trail.append(lit)
        assumed = len(trail)
        if self.empty:
            return stop(frozenset())
        slots, watched, watchers_of = self._slots, self._watched, self._watchers
        for slot in self._units:
            nogood = slots[slot]
            (lit,) = nogood
            if lit in assigned:
                return stop(nogood)
            if -lit not in assigned:
                assigned.add(-lit)
                trail.append(-lit)
        head = 0
        while True:
            while head < len(trail):
                lit = trail[head]
                head += 1
                watchers = watchers_of.get(lit)
                if not watchers:
                    continue
                # Visit the nogoods watching the now-true lit, compacting the
                # list in place: entries before keep are the ones that stay.
                keep = 0
                for index, slot in enumerate(watchers):
                    nogood = slots[slot]
                    if nogood is None:
                        continue
                    at = 2 * slot
                    other = watched[at + 1]
                    if other == lit:
                        other = watched[at]
                        at += 1
                    if -other not in assigned:
                        for candidate in nogood:
                            if candidate not in assigned and candidate != other:
                                watched[at] = candidate
                                watchers_of.setdefault(candidate, []).append(slot)
                                break
                        else:
                            if other in assigned:
                                del watchers[keep:index]
                                return stop(nogood)
                            assigned.add(-other)
                            trail.append(-other)
                            watchers[keep] = slot
                            keep += 1
                        continue
                    watchers[keep] = slot
                    keep += 1
                del watchers[keep:]
            changed = False
            for propagator in propagators:
                conflict, forced = propagator(frozenset(assigned))
                if conflict is not None:
                    return stop(conflict)
                for lit, reason in forced:
                    if -lit in assigned:
                        return stop(reason)
                    if lit not in assigned:
                        assigned.add(lit)
                        trail.append(lit)
                        changed = True
            if not changed:
                return stop(None)


def rup_run(
    nogoods: NogoodStore | Iterable[Nogood | None],
    delta: Nogood,
    propagators: Sequence[Propagator] = (),
) -> PropagationResult:
    """Propagate under the assumption that every literal of delta holds.

    A NogoodStore propagates through its watch lists; any other iterable of
    nogoods goes through unit_propagate.
    """
    assumptions = sorted(delta, key=lambda l: (abs(l), -l))
    if isinstance(nogoods, NogoodStore):
        return nogoods.propagate(assumptions, propagators)
    return unit_propagate(nogoods, assumptions, propagators)


def is_rup(
    nogoods: NogoodStore | Iterable[Nogood | None],
    delta: Nogood,
    propagators: Sequence[Propagator] = (),
) -> bool:
    """Check that asserting delta propagates to a conflict (reverse unit propagation)."""
    return rup_run(nogoods, delta, propagators).is_conflict


class WeightRulePropagator:
    """Propagation for one weight rule without materializing its bodies.

    Emulates unit propagation over the rule's completion fragment. With T the
    satisfied weight, U the unassigned weight, and w the bound:

    * T >= w forces the head true;
    * T + U < w kills the body; if no other support of the head remains, the
      head is forced false;
    * a false head forces the complement of any unassigned literal l with
      T + wght(l) >= w;
    * a true head whose other supports are all false forces the unassigned
      indispensable literals S = {l : T + U - wght(l) < w}, but only when S
      alone reaches the bound (then exactly one non-falsified minimal body
      remains, namely S, and unit propagation forces its literals).

    Reasons are nogoods over the rule's own variables (plus the other-support
    body variables where those gate the derivation).
    """

    def __init__(self, rule: Rule, other_support_ids: Sequence[int] = ()) -> None:
        if rule.kind is not RuleKind.WEIGHT:
            raise ValueError("weight propagation needs a weight rule")
        self.rule = rule
        self.head = rule.head[0]
        self.other_support_ids = tuple(other_support_ids)

    def __call__(self, assigned: frozenset[int]) -> tuple[Nogood | None, list[Derivation]]:
        head, rule = self.head, self.rule
        bound = rule.bound
        sat = [lit for lit, _ in rule.weights if lit in assigned]
        falsified = [lit for lit, _ in rule.weights if -lit in assigned]
        free = [lit for lit, _ in rule.weights if lit not in assigned and -lit not in assigned]
        total_sat = sum(rule.weight_of(lit) for lit in sat)
        total_free = sum(rule.weight_of(lit) for lit in free)
        sole_support = all(-b in assigned for b in self.other_support_ids)
        dead_reason = frozenset(
            {head, *(-lit for lit in falsified), *(-b for b in self.other_support_ids)}
        )

        derivations: list[Derivation] = []
        forced: set[int] = set()

        def derive(lit: int, reason: Nogood) -> Nogood | None:
            if -lit in assigned:
                return reason
            if lit not in assigned and lit not in forced:
                forced.add(lit)
                derivations.append((lit, reason))
            return None

        if total_sat >= bound:
            conflict = derive(head, frozenset({-head, *sat}))
            if conflict is not None:
                return conflict, []
        if total_sat + total_free < bound and sole_support:
            conflict = derive(-head, dead_reason)
            if conflict is not None:
                return conflict, []
        if -head in assigned:
            for lit in free:
                if total_sat + rule.weight_of(lit) >= bound:
                    conflict = derive(-lit, frozenset({-head, lit, *sat}))
                    if conflict is not None:
                        return conflict, []
        if head in assigned and sole_support and total_sat + total_free >= bound:
            indispensable = [
                lit
                for lit in sat + free
                if total_sat + total_free - rule.weight_of(lit) < bound
            ]
            if sum(rule.weight_of(lit) for lit in indispensable) >= bound:
                for lit in indispensable:
                    if lit in free:
                        conflict = derive(lit, dead_reason | {-lit})
                        if conflict is not None:
                            return conflict, []
        return None, derivations


def weight_propagate(rule: Rule, assignment: Assignment) -> tuple[Nogood | None, list[Derivation]]:
    """One propagation round for a weight rule taken as its head's only support."""
    return WeightRulePropagator(rule)(frozenset(assignment))
