"""Seeded random programs and the solver/oracle differential loop.

`random_program` draws uniform random normal programs: a random atom and
rule count up to the configured maxima, bodies of up to three distinct
atoms, each negated with probability one half. `random_rich_program` mixes
in every other construct the solver accepts: choice rules, weight rules,
recursive ones included, and integrity constraints. Every instance is
reproducible from the top-level seed. The differential loop draws rich
programs and cross-checks four things per instance: the program parsed
back from its emitted text against the draw, the solver's verdict against
brute-force enumeration, every inconsistency proof against the checker, as
written and preloaded, and every reported answer set against the stability
test. The oracle reads a weight rule by its reduct, the solver and the
checker by its counter of normal rules, so the two readings are compared.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .checker import check
from .core import Program, Rule, basic_rule, choice_rule, weight_rule
from .oracle import enumerate_answer_sets, is_answer_set
from .program_io import ParseError, emit_program, parse_program
from .proof import Proof
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


def random_rich_program(
    rng: random.Random, *, max_atoms: int = 6, max_rules: int = 10
) -> Program:
    """A random program of basic, choice and weight rules and integrity constraints.

    Weight rules get one to four signed literals with weights 1-3 and a
    bound from 0 to one above their total weight, and their heads may lie on
    a positive cycle; an integrity constraint is a basic rule with an empty
    head and a body of one to three atoms.
    """
    atom_count = rng.randint(1, max_atoms)
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
            rules.append(basic_rule((), *_random_body(rng, atom_count, 1)))
    return Program(_atom_names(atom_count), tuple(rules))


def _round_trip(program: Program, text: str) -> str | None:
    """Parse the emitted text back; a disagreement if it is not the same program."""
    try:
        parsed = parse_program(text)
    except ParseError as exc:
        return f"emitted text does not parse: {exc}"
    return None if parsed == program else "emitted text parses to another program"


def _cross_check(program: Program, heuristic: str, seed: int) -> str | None:
    """Solve once and test the outcome; returns the first disagreement found.

    The verdict must match brute-force enumeration, an inconsistency proof
    must pass the checker both as written and, with its c and s lines
    removed, against the preloaded completion, and an answer set must pass
    the stability test.
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
        bare = Proof(tuple(step for step in result.proof if step.kind not in "cs"))
        verdict = check(program, bare, preloaded=True)
        if not verdict:
            return f"proof rejected with the completion preloaded: {verdict.render()}"
    elif not is_answer_set(program, result.answer_set):
        atoms = sorted(program.name(a) for a in result.answer_set)
        return f"unstable answer set {{{', '.join(atoms)}}}"
    return None


def differential_run(
    count: int,
    *,
    max_atoms: int = 6,
    seed: int = 0,
) -> list[Discrepancy]:
    """Cross-check parser, solver, checker, and oracle on `count` random rich programs."""
    rng = random.Random(seed)
    found: list[Discrepancy] = []
    for index in range(count):
        program = random_rich_program(rng, max_atoms=max_atoms)
        text = emit_program(program)
        detail = _round_trip(program, text) or _cross_check(
            program, HEURISTICS[index % len(HEURISTICS)], index
        )
        if detail is not None:
            found.append(Discrepancy(index, text, detail))
    return found
