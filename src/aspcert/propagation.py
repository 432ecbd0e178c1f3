"""Unit propagation over nogoods, RUP tests, and weight-rule propagation.

A nogood forbids its literal set: it is violated when all entries hold, and
unit when exactly one entry is unassigned and the rest hold, which forces the
complement of that entry.

NogoodStore is the checker's store: an insert-and-delete multiset whose
nogoods each watch two of their literals (Chaff's two-watched-literal
scheme), so a propagation run visits only nogoods one of whose watched
literals became true. Like DRAT-trim (Wetzler, Heule & Hunt, SAT 2014) it
keeps its top level, the literals the nogoods imply with no assumption, from
one RUP test to the next: a test catches up on what inserts left pending in
one run, assumes its nogood on top, and pops its own suffix afterwards, so
it pays only for what the assumption adds. A nogood whose other watched
literal is false at the top level is satisfied until the top level is
rebuilt, so a run takes it off the watch list it visits, as MiniSat does
with clauses satisfied at level 0 (Eén & Sörensson, SAT 2003). Deleting the
reason of a top-level literal rebuilds the top level from the unit nogoods
and puts those watches back. rup_run is the RUP test over a store. The
solver does not use the store; it keeps its own watch-based engine so that
the checker shares no inference code with it.
"""

from __future__ import annotations

from itertools import islice
from typing import AbstractSet, Callable, Iterable, Protocol, Sequence

from .core import Assignment, Nogood, Rule, RuleKind

Derivation = tuple[int, Nogood]


class Propagator(Protocol):
    """External propagation hook, consulted at each unit-propagation fixpoint."""

    def __call__(self, assigned: AbstractSet[int]) -> tuple[Nogood | None, list[Derivation]]:
        """Return (violated nogood or None, forced literals with reasons).

        assigned is the caller's live set of true literals: read it during
        the call, and neither change it nor keep a reference to it.
        """


class PropagationResult:
    """Outcome of a propagation run: conflict, forced literals, final state.

    derived lists the literals the run forced, in order; a NogoodStore run
    leaves out its assumptions and the literals its top level already held.
    assignment, every literal true when the run stopped, is built when read.
    """

    __slots__ = ("conflict", "derived", "_assignment")

    def __init__(
        self,
        conflict: Nogood | None,
        derived: tuple[int, ...],
        assignment: Callable[[], Assignment],
    ) -> None:
        self.conflict = conflict
        self.derived = derived
        self._assignment = assignment

    @property
    def is_conflict(self) -> bool:
        return self.conflict is not None

    @property
    def assignment(self) -> Assignment:
        return self._assignment()


class NogoodStore:
    """Multiset of nogoods kept ready for watched-literal RUP tests.

    Slot i holds the i-th inserted nogood, or None once remove() has taken
    that copy out; len() counts slots, deleted ones included. A nogood of two
    or more literals watches two of them; unit and empty nogoods have none,
    and propagate() fails at once while an empty nogood is present.

    The top level is a trail of the literals the live nogoods imply with no
    assumption, the slot of each one's reason, and a head: the watchers of
    the literals before it have been visited. insert() does no propagation.
    A nogood watches two literals that are not true at the top level. With
    fewer than two such literals, as a unit nogood always has, it is unit
    there and pushes the complement of the one left onto the trail, unless
    that literal is false there already; with none left it is violated there
    and becomes the top-level conflict. propagate() first catches up: one
    run from the head visits what the inserts since the last test left
    pending. It then assumes its literals on top, runs again, consulting the
    propagators only in this second run, and pops its own suffix, so the
    next test starts from the same top level.

    Every watched literal that is true at the top level lies at or after the
    head, or the other watched literal is false there. A run moves watches
    only onto literals that are not true, so popping its suffix keeps this.
    A live nogood is on the watch lists of both its watched literals, except
    that a run drops it from the list of the literal it visits it through
    when the other watched literal is false at the top level: that literal
    cannot become true while the top level stands, so the nogood can be
    neither unit nor violated. Deleting the reason of a top-level literal,
    or any nogood while a top-level conflict stands, rebuilds the trail from
    the unit nogoods with the head at 0 and puts every dropped watch back,
    and the next test derives the rest again; every other deletion leaves
    the trail as it is, since each literal keeps its reason. A deleted slot
    stays in its watch lists until a run next visits them.
    """

    def __init__(self) -> None:
        self._slots: list[Nogood | None] = []
        self._copies: dict[Nogood, list[int]] = {}
        # The watched literals of slot i are _watched[2 * i] and _watched[2 * i + 1].
        self._watched: list[int] = []
        self._watchers: dict[int, list[int]] = {}
        self._units: list[int] = []
        # The watched literal each dropped slot is off the watch list of.
        self._dropped: dict[int, int] = {}
        self.empty = 0
        # Literals assigned over the store's life, at the top level and in runs.
        self.assigned = 0
        # Watch-list entries runs have visited, deleted slots included.
        self.visits = 0
        self._reset_top()

    def _reset_top(self) -> None:
        # A fresh list rather than a cleared one: results of earlier runs
        # read their assignment off a prefix of the old trail.
        self._trail: list[int] = []
        # The reason slot of each trail entry; -1 for assumptions and
        # propagator output, which only runs put on the trail.
        self._reasons: list[int] = []
        self._true: set[int] = set()
        # The top-level literals; _true also holds those of a running test.
        self._top: set[int] = set()
        self._head = 0
        self._conflict: Nogood | None = None
        slots, watchers_of = self._slots, self._watchers
        for slot, lit in self._dropped.items():
            if slots[slot] is not None:
                watchers_of[lit].append(slot)
        self._dropped = {}

    def __len__(self) -> int:
        return len(self._slots)

    def live(self) -> list[Nogood]:
        """The nogoods present, one entry per copy, in insertion order."""
        return [nogood for nogood in self._slots if nogood is not None]

    def insert(self, nogood: Nogood) -> None:
        slot = len(self._slots)
        self._slots.append(nogood)
        self._copies.setdefault(nogood, []).append(slot)
        if len(nogood) < 2:
            self._watched += (0, 0)
            if not nogood:
                self.empty += 1
                return
            self._units.append(slot)
            (lit,) = nogood
            self._settle(nogood, slot, 0 if lit in self._true else lit)
            return
        true = self._true
        lits = iter(nogood)
        first, second = next(lits), next(lits)
        if first in true or second in true:
            first = second = 0
            for lit in nogood:
                if lit not in true:
                    if first:
                        second = lit
                        break
                    first = lit
            else:
                # Watch the literal left, if any, and a true one.
                self._settle(nogood, slot, first)
                lits = iter(nogood)
                one, two = next(lits), next(lits)
                if not first:
                    first, second = one, two
                else:
                    second = two if one == first else one
        self._watched += (first, second)
        self._watchers.setdefault(first, []).append(slot)
        self._watchers.setdefault(second, []).append(slot)

    def _settle(self, nogood: Nogood, slot: int, free: int) -> None:
        """Apply a nogood whose literals other than free (0: none) are all true."""
        if not free:
            if self._conflict is None:
                self._conflict = nogood
        elif -free not in self._true:
            self._true.add(-free)
            self._top.add(-free)
            self._trail.append(-free)
            self._reasons.append(slot)
            self.assigned += 1

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
        if self._conflict is not None or slot in self._reasons:
            self._reset_top()
            for unit in self._units:
                (lit,) = kept = self._slots[unit]
                self._settle(kept, unit, 0 if lit in self._true else lit)
        return True

    def propagate(
        self, assumptions: Iterable[int], propagators: Sequence[Propagator] = ()
    ) -> PropagationResult:
        """Propagate the live nogoods from the assumptions, through the watch lists."""
        trail, true = self._trail, self._true
        conflict = frozenset() if self.empty else self._conflict
        if conflict is None and self._head < len(trail):
            size = len(trail)
            conflict = self._conflict = self._run(self._head)
            self._top.update(islice(trail, size, None))
            self._head = len(trail)
            self.assigned += len(trail) - size
        mark = assumed = len(trail)
        if conflict is None:
            for lit in assumptions:
                if -lit in true:
                    conflict = frozenset({-lit})
                    break
                if lit not in true:
                    true.add(lit)
                    trail.append(lit)
                    self._reasons.append(-1)
            assumed = len(trail)
            head = mark
            while conflict is None:
                conflict = self._run(head)
                head = len(trail)
                if conflict is not None or not propagators:
                    break
                conflict = self._consult(propagators)
                if len(trail) == head:
                    break
        own = trail[mark:]
        del trail[mark:]
        del self._reasons[mark:]
        true.difference_update(own)
        self.assigned += len(own)
        # No later run truncates the trail below mark, and a rebuild starts a
        # new list, so the prefix the assignment is read from stays as it is.
        return PropagationResult(
            conflict,
            tuple(own[assumed - mark:]),
            lambda: frozenset(islice(trail, mark)).union(own),
        )

    def _run(self, head: int) -> Nogood | None:
        """Visit the watchers of each trail literal from head on; return a violated nogood."""
        trail, reasons, true, top = self._trail, self._reasons, self._true, self._top
        slots, watched, watchers_of = self._slots, self._watched, self._watchers
        dropped = self._dropped
        visits = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            watchers = watchers_of.get(lit)
            if not watchers:
                continue
            visits += len(watchers)
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
                if -other in true:
                    if -other in top:
                        # Satisfied until _reset_top puts it back on this list.
                        dropped[slot] = lit
                    else:
                        watchers[keep] = slot
                        keep += 1
                    continue
                for candidate in nogood:
                    if candidate not in true and candidate != other:
                        watched[at] = candidate
                        watchers_of.setdefault(candidate, []).append(slot)
                        break
                else:
                    if other in true:
                        del watchers[keep:index]
                        self.visits += visits
                        return nogood
                    true.add(-other)
                    trail.append(-other)
                    reasons.append(slot)
                    watchers[keep] = slot
                    keep += 1
            del watchers[keep:]
        self.visits += visits
        return None

    def _consult(self, propagators: Sequence[Propagator]) -> Nogood | None:
        """Put what the propagators force on the trail; return a conflict they find."""
        trail, true = self._trail, self._true
        for propagator in propagators:
            conflict, forced = propagator(true)
            if conflict is not None:
                return conflict
            for lit, reason in forced:
                if -lit in true:
                    return reason
                if lit not in true:
                    true.add(lit)
                    trail.append(lit)
                    self._reasons.append(-1)
        return None


def rup_run(
    store: NogoodStore, delta: Nogood, propagators: Sequence[Propagator] = ()
) -> PropagationResult:
    """Propagate under the assumption that every literal of delta holds.

    The assumptions go in by variable, a positive literal before its
    complement: two stable sorts give the order of the key (abs(l), -l)
    without building a key tuple per literal.
    """
    return store.propagate(sorted(sorted(delta, reverse=True), key=abs), propagators)


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

    def __call__(self, assigned: AbstractSet[int]) -> tuple[Nogood | None, list[Derivation]]:
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
