"""Unit propagation over nogoods and RUP tests.

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
with clauses satisfied at level 0 (Eén & Sörensson, SAT 2003). Deleting a
nogood that is unit or violated at the top level, or any nogood while a
top-level conflict stands, marks the top level stale; the next test rebuilds
it, and every watch list, from the unit nogoods and the watched pairs.
rup_run is the RUP test over a store. The solver does not use the store; it
keeps its own watch-based engine so that the checker shares no inference
code with it.
"""

from __future__ import annotations

from typing import Iterable

from .core import Nogood
from .proof import sorted_lits


class NogoodStore:
    """Multiset of nogoods kept ready for watched-literal RUP tests.

    Slot i holds the i-th inserted nogood, or None once remove() has taken
    that copy out; len() counts slots, deleted ones included. A nogood of two
    or more literals watches two of them; unit and empty nogoods have none,
    and propagate() fails at once while an empty nogood is present.

    The top level is a trail of the literals the live nogoods imply with no
    assumption, and a head: the watchers of the literals before it have been
    visited. insert() does no propagation. A nogood watches two literals
    that are not true at the top level. With fewer than two such literals,
    as a unit nogood always has, it is unit there and pushes the complement
    of the one left onto the trail, unless that literal is false there
    already; with none left it is violated there and becomes the top-level
    conflict. propagate() first catches up: one run from the head visits
    what the inserts since the last test left pending. It then assumes its
    literals on top, runs again and pops its own suffix, so the next test
    starts from the same top level.

    Every watched literal that is true at the top level lies at or after the
    head, or the other watched literal is false there. A run moves watches
    only onto literals that are not true, so popping its suffix keeps this.
    A live nogood is on the watch lists of both its watched literals, except
    that a run drops it from the list of the literal it visits it through
    when the other watched literal is false at the top level: that literal
    cannot become true while the top level stands, so the nogood can be
    neither unit nor violated. The reason of every top-level literal has
    fewer than two literals outside the top level, so deleting a nogood like
    that, or any nogood while a top-level conflict stands, marks the top
    level stale. The next propagate() then rebuilds it: it empties the
    trail, rebuilds every watch list from the watched pairs, which puts the
    dropped watches back and leaves the deleted slots out, settles the unit
    nogoods again with the head at 0, and derives the rest in its catch-up
    run. That run visits the watchers of every top-level literal, and a
    nogood unit or violated there has a true watched literal whatever pair
    it watches, so an insert while the store is stale may settle against
    the old top level. Every other deletion leaves the trail as it is, since
    each literal keeps its reason; a deleted slot stays in its watch lists
    until a run next visits them.
    """

    def __init__(self) -> None:
        self._slots: list[Nogood | None] = []
        # The slots of each nogood's live copies, built at the first remove().
        self._copies: dict[Nogood, list[int]] | None = None
        # The watched literals of slot i are _watched[2 * i] and _watched[2 * i + 1].
        self._watched: list[int] = []
        self.empty = 0
        # Literals assigned over the store's life, at the top level and in runs.
        self.assigned = 0
        # Watch-list entries runs have visited, deleted slots included.
        self.visits = 0
        self._reset_top()

    def _reset_top(self) -> None:
        self._trail: list[int] = []
        self._true: set[int] = set()
        # The top-level literals; _true also holds those of a running test.
        self._top: set[int] = set()
        self._head = 0
        self._conflict: Nogood | None = None
        self._stale = False
        watched, watchers_of = self._watched, {}
        self._watchers: dict[int, list[int]] = watchers_of
        for slot, nogood in enumerate(self._slots):
            if nogood is not None and len(nogood) > 1:
                watchers_of.setdefault(watched[2 * slot], []).append(slot)
                watchers_of.setdefault(watched[2 * slot + 1], []).append(slot)
            elif nogood:  # a unit nogood
                (lit,) = nogood
                self._settle(nogood, 0 if lit in self._true else lit)

    def __len__(self) -> int:
        return len(self._slots)

    def live(self) -> list[Nogood]:
        """The nogoods present, one entry per copy, in insertion order."""
        return [nogood for nogood in self._slots if nogood is not None]

    def insert(self, nogood: Nogood) -> None:
        slot = len(self._slots)
        self._slots.append(nogood)
        if self._copies is not None:
            self._copies.setdefault(nogood, []).append(slot)
        if len(nogood) < 2:
            self._watched += (0, 0)
            if not nogood:
                self.empty += 1
                return
            (lit,) = nogood
            self._settle(nogood, 0 if lit in self._true else lit)
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
                self._settle(nogood, first)
                lits = iter(nogood)
                one, two = next(lits), next(lits)
                if not first:
                    first, second = one, two
                else:
                    second = two if one == first else one
        self._watched += (first, second)
        self._watchers.setdefault(first, []).append(slot)
        self._watchers.setdefault(second, []).append(slot)

    def _settle(self, nogood: Nogood, free: int) -> None:
        """Apply a nogood whose literals other than free (0: none) are all true."""
        if not free:
            if self._conflict is None:
                self._conflict = nogood
        elif -free not in self._true:
            self._true.add(-free)
            self._top.add(-free)
            self._trail.append(-free)
            self.assigned += 1

    def remove(self, nogood: Nogood) -> bool:
        """Delete the latest live copy of the nogood; False if none is present."""
        if self._copies is None:
            self._copies = {}
            for slot, kept in enumerate(self._slots):  # none emptied yet
                self._copies.setdefault(kept, []).append(slot)
        copies = self._copies.get(nogood)
        if not copies:
            return False
        slot = copies.pop()
        if not copies:
            del self._copies[nogood]
        self._slots[slot] = None
        if not nogood:
            self.empty -= 1
        top = self._top
        if self._conflict is not None or sum(lit not in top for lit in nogood) < 2:
            self._stale = True
        return True

    def propagate(self, assumptions: Iterable[int]) -> Nogood | None:
        """Propagate the live nogoods from the assumptions; return a violated nogood or None."""
        if self._stale:
            self._reset_top()
        trail, true = self._trail, self._true
        conflict = frozenset() if self.empty else self._conflict
        if conflict is None and self._head < len(trail):
            size = len(trail)
            conflict = self._conflict = self._run(self._head)
            self._top.update(trail[size:])
            self._head = len(trail)
            self.assigned += len(trail) - size
        mark = len(trail)
        if conflict is None:
            for lit in assumptions:
                if -lit in true:
                    conflict = frozenset({-lit})
                    break
                if lit not in true:
                    true.add(lit)
                    trail.append(lit)
            if conflict is None:
                conflict = self._run(mark)
        self.assigned += len(trail) - mark
        true.difference_update(trail[mark:])
        del trail[mark:]
        return conflict

    def _run(self, head: int) -> Nogood | None:
        """Visit the watchers of each trail literal from head on; return a violated nogood."""
        trail, true, top = self._trail, self._true, self._top
        slots, watched, watchers_of = self._slots, self._watched, self._watchers
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
                    # Dropped if the top level satisfies it, until a rebuild lists it again.
                    if -other not in top:
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
                    watchers[keep] = slot
                    keep += 1
            del watchers[keep:]
        self.visits += visits
        return None


def rup_run(store: NogoodStore, delta: Nogood) -> Nogood | None:
    """Propagate under the assumption that every literal of delta holds; return
    the violated nogood, or None when propagation stops without a conflict.

    The assumptions go in in sorted_lits order: by variable, a positive
    literal before its complement.
    """
    return store.propagate(sorted_lits(delta))
