"""Brute-force semantic ground truth for small ground programs.

Answer sets are found by candidate testing: choice rules are translated to
normal rules with fresh complement atoms, weight rules are expanded to the
normal rules over their induced bodies, and a candidate is accepted when it
satisfies no integrity constraint's body and is a minimal model of the
reduct of the other rules (the least model, when no rule is disjunctive).
An atom-count guard and the body budget keep enumeration at desk scale;
this module exists to certify the others, not to perform.
"""

from __future__ import annotations

from typing import Iterable

from .completion import DEFAULT_BODY_BUDGET, induced_bodies_of_rule
from .core import CHOICE, WEIGHT, Program

ATOM_GUARD = 20

TranslatedRule = tuple[frozenset[int], frozenset[int], frozenset[int]]


class OracleError(ValueError):
    """Raised when an input exceeds the brute-force guards."""


def _translate(
    program: Program, budget: int | None = None
) -> tuple[list[TranslatedRule], list[tuple[int, int]]]:
    """Rewrite choice and weight rules; returns (heads, pos, neg) triples.

    An integrity constraint keeps its empty heads. A weight rule that induces
    more than budget bodies (if given) raises BudgetError.
    """
    rules: list[TranslatedRule] = []
    aux_pairs: list[tuple[int, int]] = []
    next_var = program.atom_count
    for rule in program.rules:
        if rule.kind is CHOICE:
            for atom in rule.head:
                next_var += 1
                comp = next_var
                aux_pairs.append((atom, comp))
                rules.append(
                    (frozenset({atom}), rule.pos_body, rule.neg_body | {comp})
                )
                rules.append((frozenset({comp}), frozenset(), frozenset({atom})))
        elif rule.kind is WEIGHT:
            head = frozenset(rule.head)
            for body in induced_bodies_of_rule(rule, rule.head[0], budget):
                pos = frozenset(l for l in body if l > 0)
                neg = frozenset(-l for l in body if l < 0)
                rules.append((head, pos, neg))
        else:
            rules.append((frozenset(rule.head), rule.pos_body, rule.neg_body))
    return rules, aux_pairs


def _extend(model: frozenset[int], aux_pairs: list[tuple[int, int]]) -> frozenset[int]:
    return model | {comp for atom, comp in aux_pairs if atom not in model}


def _least_model(reduct: list[tuple[frozenset[int], frozenset[int]]]) -> frozenset[int]:
    derived: set[int] = set()
    changed = True
    while changed:
        changed = False
        for heads, pos in reduct:
            head = next(iter(heads))
            if head not in derived and pos <= derived:
                derived.add(head)
                changed = True
    return frozenset(derived)

def _is_model(
    reduct: list[tuple[frozenset[int], frozenset[int]]], candidate: frozenset[int]
) -> bool:
    return all(heads & candidate or not pos <= candidate for heads, pos in reduct)


def _stable(
    rules: list[TranslatedRule], model: frozenset[int], disjunctive: bool
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
    if not disjunctive:
        return _least_model(reduct) == model
    if not _is_model(reduct, model):
        return False
    members = sorted(model)
    for mask in range((1 << len(members)) - 1):
        subset = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
        if _is_model(reduct, subset):
            return False
    return True


def is_answer_set(program: Program, atoms: Iterable[int]) -> bool:
    """Stability test: is this set of program atoms an answer set?"""
    model = frozenset(atoms)
    for atom in model:
        if not 1 <= atom <= program.atom_count:
            raise ValueError(f"unknown atom {atom}")
    rules, aux_pairs = _translate(program)
    disjunctive = any(len(heads) > 1 for heads, _, _ in rules)
    return _stable(rules, _extend(model, aux_pairs), disjunctive)


def enumerate_answer_sets(
    program: Program, cap: int | None = None
) -> list[frozenset[int]]:
    """All answer sets (as frozen atom sets), by exhaustive candidate testing."""
    if program.atom_count > ATOM_GUARD:
        raise OracleError(
            f"{program.atom_count} atoms exceed the enumeration guard {ATOM_GUARD}"
        )
    rules, aux_pairs = _translate(program, DEFAULT_BODY_BUDGET)
    disjunctive = any(len(heads) > 1 for heads, _, _ in rules)
    atoms = list(program.atom_ids())
    found: list[frozenset[int]] = []
    for mask in range(1 << len(atoms)):
        model = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if _stable(rules, _extend(model, aux_pairs), disjunctive):
            found.append(model)
            if cap is not None and len(found) >= cap:
                break
    return found
