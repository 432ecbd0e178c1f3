"""Brute-force semantic ground truth for small ground programs.

Answer sets are found by candidate testing: a candidate is accepted when
it satisfies no integrity constraint's body and is a minimal model of the
reduct of the other rules (the least model, when no rule is disjunctive).
Choice and weight rules are read by their own reduct (Simons, Niemelä &
Soininen, AIJ 138, 2002). For a candidate M, {a...} :- B gives a :- B+ for
each head atom a in M, when no atom of B- is in M. h :- L <= {lits} becomes
a positive weight rule over its positive literals, its bound lowered by the
weights of the literals not b with b outside M. Weight rules share no code
with the completion's counter, so the differential fuzzer compares two
readings of a weight rule.
An atom-count guard keeps enumeration at desk scale; this module exists to
certify the others, not to perform.
"""

from __future__ import annotations

from typing import Iterable

from .core import CHOICE, WEIGHT, Program

ATOM_GUARD = 20

TranslatedRule = tuple[frozenset[int], frozenset[int], frozenset[int]]
# A weight rule: head, bound, and the (atom, weight) pairs of its positive
# and of its negative literals.
WeightRule = tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
# Its reduct for a candidate: head, lowered bound, positive pairs.
ReducedWeightRule = tuple[int, int, tuple[tuple[int, int], ...]]


class OracleError(ValueError):
    """Raised when an input exceeds the brute-force guards."""


def _translate(
    program: Program,
) -> tuple[list[TranslatedRule], list[TranslatedRule], list[WeightRule]]:
    """Split the rules: (heads, pos, neg) triples of the basic rules and of
    the choice rules, and the weight rules.

    An integrity constraint keeps its empty heads.
    """
    rules: list[TranslatedRule] = []
    choices: list[TranslatedRule] = []
    weighted: list[WeightRule] = []
    for rule in program.rules:
        if rule.kind is WEIGHT:
            pos = tuple((l, w) for l, w in rule.weights if l > 0)
            neg = tuple((-l, w) for l, w in rule.weights if l < 0)
            weighted.append((rule.head[0], rule.bound, pos, neg))
        else:
            (choices if rule.kind is CHOICE else rules).append(
                (frozenset(rule.head), rule.pos_body, rule.neg_body))
    return rules, choices, weighted


def _reaches(
    pos: tuple[tuple[int, int], ...], atoms: set[int] | frozenset[int], bound: int
) -> bool:
    return sum(w for atom, w in pos if atom in atoms) >= bound


def _least_model(
    reduct: list[tuple[frozenset[int], frozenset[int]]], weighted: list[ReducedWeightRule]
) -> frozenset[int]:
    derived: set[int] = set()
    changed = True
    while changed:
        changed = False
        for heads, pos in reduct:
            head = next(iter(heads))
            if head not in derived and pos <= derived:
                derived.add(head)
                changed = True
        for head, bound, pos in weighted:
            if head not in derived and _reaches(pos, derived, bound):
                derived.add(head)
                changed = True
    return frozenset(derived)


def _is_model(
    reduct: list[tuple[frozenset[int], frozenset[int]]],
    weighted: list[ReducedWeightRule],
    candidate: frozenset[int],
) -> bool:
    return all(heads & candidate or not pos <= candidate for heads, pos in reduct) and all(
        head in candidate or not _reaches(pos, candidate, bound) for head, bound, pos in weighted
    )


def _stable(
    rules: list[TranslatedRule],
    choices: list[TranslatedRule],
    weighted: list[WeightRule],
    model: frozenset[int],
    disjunctive: bool,
) -> bool:
    reduct: list[tuple[frozenset[int], frozenset[int]]] = []
    for heads, pos, neg in rules:
        if neg & model:
            continue
        if not heads:
            if pos <= model:
                return False
            continue
        reduct.append((heads, pos))
    for heads, pos, neg in choices:
        if not neg & model:
            reduct += [(frozenset({atom}), pos) for atom in heads & model]
    weight_reduct = [
        (head, bound - sum(w for atom, w in neg if atom not in model), pos)
        for head, bound, pos, neg in weighted
    ]
    if not disjunctive:
        return _least_model(reduct, weight_reduct) == model
    if not _is_model(reduct, weight_reduct, model):
        return False
    members = sorted(model)
    for mask in range((1 << len(members)) - 1):
        subset = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
        if _is_model(reduct, weight_reduct, subset):
            return False
    return True


def is_answer_set(program: Program, atoms: Iterable[int]) -> bool:
    """Stability test: is this set of program atoms an answer set?"""
    model = frozenset(atoms)
    for atom in model:
        if not 1 <= atom <= program.atom_count:
            raise ValueError(f"unknown atom {atom}")
    rules, choices, weighted = _translate(program)
    disjunctive = any(len(heads) > 1 for heads, _, _ in rules)
    return _stable(rules, choices, weighted, model, disjunctive)


def enumerate_answer_sets(
    program: Program, cap: int | None = None
) -> list[frozenset[int]]:
    """All answer sets (as frozen atom sets), by exhaustive candidate testing."""
    if program.atom_count > ATOM_GUARD:
        raise OracleError(
            f"{program.atom_count} atoms exceed the enumeration guard {ATOM_GUARD}"
        )
    rules, choices, weighted = _translate(program)
    disjunctive = any(len(heads) > 1 for heads, _, _ in rules)
    atoms = list(program.atom_ids())
    found: list[frozenset[int]] = []
    for mask in range(1 << len(atoms)):
        model = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if _stable(rules, choices, weighted, model, disjunctive):
            found.append(model)
            if cap is not None and len(found) >= cap:
                break
    return found
