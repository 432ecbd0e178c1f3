"""Slow reference propagation that the tests compare NogoodStore against.

unit_propagate works on any iterable of nogoods: it starts from nothing,
scans the list in order and repeats until a full pass derives nothing, so
its derivation order is a deterministic function of list order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from aspcert.core import Nogood
from aspcert.propagation import PropagationResult, Propagator


def unit_propagate(
    nogoods: Iterable[Nogood | None],
    assumptions: Iterable[int] = (),
    propagators: Sequence[Propagator] = (),
) -> PropagationResult:
    """Propagate to fixpoint from the assumptions; None entries are skipped."""
    store = [delta for delta in nogoods if delta is not None]
    assigned: set[int] = set()
    derived: list[int] = []

    def stop(conflict: Nogood | None) -> PropagationResult:
        return PropagationResult(conflict, tuple(derived), lambda: frozenset(assigned))

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
        if changed:
            continue
        for propagator in propagators:
            conflict, forced = propagator(assigned)
            if conflict is not None:
                return stop(conflict)
            for lit, reason in forced:
                if -lit in assigned:
                    return stop(reason)
                if lit not in assigned:
                    assigned.add(lit)
                    derived.append(lit)
                    changed = True
        if not changed:
            return stop(None)


def reference_rup_run(
    nogoods: Iterable[Nogood | None],
    delta: Nogood,
    propagators: Sequence[Propagator] = (),
) -> PropagationResult:
    """unit_propagate under delta, assumed in the order rup_run assumes it."""
    return unit_propagate(nogoods, sorted(delta, key=lambda l: (abs(l), -l)), propagators)


def is_rup(
    nogoods: Iterable[Nogood | None],
    delta: Nogood,
    propagators: Sequence[Propagator] = (),
) -> bool:
    """Check that asserting delta propagates to a conflict (reverse unit propagation)."""
    return reference_rup_run(nogoods, delta, propagators).is_conflict
