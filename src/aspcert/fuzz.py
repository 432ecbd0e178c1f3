"""Seeded random programs and the solver/oracle differential loop.

`random_program` draws uniform random normal programs: a random atom and
rule count up to the configured maxima, bodies of up to three distinct
atoms, each negated with probability one half. `random_rich_program` mixes
in every other construct the solver accepts: choice rules, weight rules and
integrity constraints. Every instance is reproducible from the top-level
seed. The differential loop draws rich programs and cross-checks three
things per instance: the solver's verdict against brute-force enumeration,
every inconsistency proof against the checker, and every reported answer
set against the stability test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .checker import check
from .core import Program, Rule, RuleKind, basic_rule, choice_rule, weight_rule
from .loops import cyclic_atoms, dependency_graph, has_loops
from .oracle import enumerate_answer_sets, is_answer_set
from .program_io import emit_program
from .solver import CONSISTENT, HEURISTICS, INCONSISTENT, solve


@dataclass(frozen=True)
class Discrepancy:
    index: int
    program_text: str
    detail: str


def _atom_names(count: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    if count <= len(letters):
        return tuple(letters[:count])
    return tuple(f"x{i}" for i in range(1, count + 1))


def _random_body(
    rng: random.Random, atom_count: int, smallest: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Positive and negative atoms of a body of smallest..3 distinct atoms."""
    size = rng.randint(min(smallest, atom_count), min(3, atom_count))
    chosen = rng.sample(range(1, atom_count + 1), size)
    neg = frozenset(a for a in chosen if rng.random() < 0.5)
    return frozenset(a for a in chosen if a not in neg), neg


def random_program(
    rng: random.Random, *, max_atoms: int = 6, max_rules: int = 10
) -> Program:
    """One uniform random normal program over a random-size atom table."""
    atom_count = rng.randint(1, max_atoms)
    rule_count = rng.randint(1, max_rules)
    rules: list[Rule] = []
    for _ in range(rule_count):
        head = rng.randint(1, atom_count)
        pos, neg = _random_body(rng, atom_count, 0)
        rules.append(basic_rule((head,), pos, neg))
    return Program(_atom_names(atom_count), tuple(rules))


def random_tight_program(
    rng: random.Random, *, max_atoms: int = 6, max_rules: int = 10
) -> Program:
    """Rejection-sample random_program until the dependency digraph is acyclic."""
    while True:
        program = random_program(rng, max_atoms=max_atoms, max_rules=max_rules)
        if not has_loops(program):
            return program


def random_rich_program(
    rng: random.Random, *, max_atoms: int = 6, max_rules: int = 10
) -> Program:
    """A random program of basic, choice and weight rules and integrity constraints.

    Weight rules get one to four signed literals with weights 1-3 and a
    bound from 0 to one above their total weight. The k-th integrity
    constraint gets an atom `__botk` of its own, numbered after the other
    atoms and written `__botk :- body, not __botk.` as the parser desugars
    `:- body.`; the oracle's enumeration grows by one atom per constraint.
    The solver rejects weight rules inside a positive cycle, so a draw with
    a cyclic weight-rule head is drawn again.
    """
    while True:
        atom_count = rng.randint(1, max_atoms)
        bots = 0
        rules: list[Rule] = []
        for _ in range(rng.randint(1, max_rules)):
            kind = rng.random()
            if kind < 0.4:
                pos, neg = _random_body(rng, atom_count, 0)
                rules.append(basic_rule((rng.randint(1, atom_count),), pos, neg))
            elif kind < 0.6:
                heads = rng.sample(range(1, atom_count + 1), rng.randint(1, min(3, atom_count)))
                pos, neg = _random_body(rng, atom_count, 0)
                rules.append(choice_rule(heads, pos, neg))
            elif kind < 0.8:
                size = rng.randint(1, min(4, atom_count))
                lits = [a if rng.random() < 0.5 else -a
                        for a in rng.sample(range(1, atom_count + 1), size)]
                weights = {lit: rng.randint(1, 3) for lit in lits}
                bound = rng.randint(0, sum(weights.values()) + 1)
                rules.append(weight_rule(rng.randint(1, atom_count), bound, weights))
            else:
                pos, neg = _random_body(rng, atom_count, 1)
                bots += 1
                bot = atom_count + bots
                rules.append(basic_rule((bot,), pos, neg | {bot}))
        names = _atom_names(atom_count) + tuple(f"__bot{k}" for k in range(1, bots + 1))
        program = Program(names, tuple(rules))
        cyclic = cyclic_atoms(dependency_graph(program))
        if not any(r.kind is RuleKind.WEIGHT and r.head[0] in cyclic for r in rules):
            return program


def _cross_check(program: Program, heuristic: str, seed: int) -> str | None:
    """Solve once and test the outcome; returns the first disagreement found.

    The verdict must match brute-force enumeration, an inconsistency proof
    must pass the checker, and an answer set must pass the stability test.
    """
    result = solve(program, heuristic=heuristic, seed=seed)
    has_model = bool(enumerate_answer_sets(program, cap=1))
    expected = CONSISTENT if has_model else INCONSISTENT
    if result.status != expected:
        return f"solver said {result.status}, oracle says {expected}"
    if result.status == INCONSISTENT:
        verdict = check(program, result.proof)
        if not verdict:
            return f"proof rejected: {verdict.render()}"
    elif not is_answer_set(program, result.answer_set):
        atoms = sorted(program.name(a) for a in result.answer_set)
        return f"unstable answer set {{{', '.join(atoms)}}}"
    return None


def differential_run(
    count: int,
    *,
    max_atoms: int = 6,
    max_rules: int = 10,
    seed: int = 0,
) -> list[Discrepancy]:
    """Cross-check solver, checker, and oracle on `count` random rich programs."""
    rng = random.Random(seed)
    found: list[Discrepancy] = []
    for index in range(count):
        program = random_rich_program(rng, max_atoms=max_atoms, max_rules=max_rules)
        detail = _cross_check(program, HEURISTICS[index % len(HEURISTICS)], index)
        if detail is not None:
            found.append(Discrepancy(index, emit_program(program), detail))
    return found
