"""Seeded instance families for the certify benchmark.

Each family returns a list of Instance records: the program text the
pipeline sees and the verdict an independent reference expects. The
reference is never the solver: pigeonhole and chain programs are
inconsistent by construction, Hamiltonian-path verdicts come from a
depth-first search over the generated graph, and random programs are
settled by the brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from aspcert import CONSISTENT, INCONSISTENT, emit_program, parse_program
from aspcert.fuzz import random_program


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    expected: str


@dataclass(frozen=True)
class Sizes:
    php_holes: int
    php_count: int
    chain_lengths: tuple[int, ...]
    hampath_vertices: int
    hampath_per_verdict: int
    random_consistent: int
    random_inconsistent: int


# A round over each FULL set takes 3-5 s at nominal speed, so a 25-s run makes
# at least three rounds. Many small instances rather than a few large ones
# keep the spread of every metric over seeds low; in particular a 99th
# percentile over 100 hampath graphs is not just the hardest graph.
FULL = Sizes(
    php_holes=5,
    php_count=16,
    chain_lengths=(800, 1100, 1400, 1700),
    hampath_vertices=10,
    hampath_per_verdict=50,
    random_consistent=2400,
    random_inconsistent=600,
)
SMOKE = Sizes(
    php_holes=3,
    php_count=2,
    chain_lengths=(30, 40),
    hampath_vertices=6,
    hampath_per_verdict=1,
    random_consistent=32,
    random_inconsistent=8,
)

HAMPATH_OUT_DEGREE = 3
RANDOM_MAX_ATOMS = 8
RANDOM_MAX_RULES = 16

Oracle = Callable[..., list]


def php_text(holes: int, rng: random.Random) -> str:
    """PHP(holes+1, holes) as choice rules and constraints, rules shuffled."""
    pigeons = range(1, holes + 2)
    rules = []
    for i in pigeons:
        rules.append("{" + "; ".join(f"p{i}_{j}" for j in range(1, holes + 1)) + "}.")
        rules.append(":- " + ", ".join(f"not p{i}_{j}" for j in range(1, holes + 1)) + ".")
    for j in range(1, holes + 1):
        for i in pigeons:
            for k in range(i + 1, holes + 2):
                rules.append(f":- p{i}_{j}, p{k}_{j}.")
    rng.shuffle(rules)
    return "\n".join(rules) + "\n"


def chain_text(length: int, rng: random.Random) -> str:
    """x1. x(i) :- x(i-1). :- x(length). with the rules shuffled."""
    rules = ["x1."] + [f"x{i} :- x{i - 1}." for i in range(2, length + 1)]
    rules.append(f":- x{length}.")
    rng.shuffle(rules)
    return "\n".join(rules) + "\n"


def random_digraph(vertices: int, rng: random.Random) -> dict[int, list[int]]:
    """Every vertex gets HAMPATH_OUT_DEGREE distinct random successors."""
    return {
        u: sorted(rng.sample([v for v in range(1, vertices + 1) if v != u], HAMPATH_OUT_DEGREE))
        for u in range(1, vertices + 1)
    }


def has_hamiltonian_path(succ: dict[int, list[int]]) -> bool:
    """Depth-first search for a path from vertex 1 through every vertex."""
    total = len(succ)
    visited = {1}

    def extend(u: int) -> bool:
        if len(visited) == total:
            return True
        for v in succ[u]:
            if v not in visited:
                visited.add(v)
                if extend(v):
                    return True
                visited.discard(v)
        return False

    return extend(1)


def hampath_text(succ: dict[int, list[int]]) -> str:
    """Hamiltonian path from vertex 1: edge choices, reachability, degree limits."""
    rules = ["r1."]
    preds: dict[int, list[int]] = {v: [] for v in succ}
    for u, targets in succ.items():
        for v in targets:
            preds[v].append(u)
            rules.append(f"{{e{u}_{v}}}.")
            rules.append(f"r{v} :- r{u}, e{u}_{v}.")
        for a in targets:
            for b in targets:
                if a < b:
                    rules.append(f":- e{u}_{a}, e{u}_{b}.")
    for v, sources in preds.items():
        if v == 1:
            rules.extend(f":- e{u}_1." for u in sources)
            continue
        for a in sources:
            for b in sources:
                if a < b:
                    rules.append(f":- e{a}_{v}, e{b}_{v}.")
        rules.append(f":- not r{v}.")
    return "\n".join(rules) + "\n"


def php(seed: int, sizes: Sizes, oracle: Oracle) -> list[Instance]:
    rng = random.Random(seed)
    return [
        Instance(f"php{sizes.php_holes}-{k}", php_text(sizes.php_holes, rng), INCONSISTENT)
        for k in range(sizes.php_count)
    ]


def chain(seed: int, sizes: Sizes, oracle: Oracle) -> list[Instance]:
    """One chain per nominal length, so that the growth of check time shows.

    Each length varies by up to 2% so that the seed reaches every metric.
    Several chains rather than one long one let the run recalibrate its
    speed between them.
    """
    rng = random.Random(seed)
    out = []
    for nominal in sizes.chain_lengths:
        length = nominal + rng.randrange(nominal // 50 + 1)
        out.append(Instance(f"chain{length}", chain_text(length, rng), INCONSISTENT))
    return out


def hampath(seed: int, sizes: Sizes, oracle: Oracle) -> list[Instance]:
    """Equal numbers of graphs with and without a Hamiltonian path."""
    rng = random.Random(seed)
    wanted = {CONSISTENT: sizes.hampath_per_verdict, INCONSISTENT: sizes.hampath_per_verdict}
    out = []
    while any(wanted.values()):
        succ = random_digraph(sizes.hampath_vertices, rng)
        verdict = CONSISTENT if has_hamiltonian_path(succ) else INCONSISTENT
        if wanted[verdict]:
            wanted[verdict] -= 1
            out.append(Instance(f"hampath{sizes.hampath_vertices}-{len(out)}", hampath_text(succ), verdict))
    return out


def random_programs(seed: int, sizes: Sizes, oracle: Oracle) -> list[Instance]:
    """Random programs in a fixed verdict mix, about the generator's natural one.

    Fixing the mix keeps the number of proofs, and so proof_bytes and
    check_s, from varying with the seed by the binomial spread of a count.
    """
    rng = random.Random(seed)
    wanted = {CONSISTENT: sizes.random_consistent, INCONSISTENT: sizes.random_inconsistent}
    out = []
    while any(wanted.values()):
        program = random_program(rng, max_atoms=RANDOM_MAX_ATOMS, max_rules=RANDOM_MAX_RULES)
        text = emit_program(program)
        verdict = CONSISTENT if oracle(parse_program(text), cap=1) else INCONSISTENT
        if wanted[verdict]:
            wanted[verdict] -= 1
            out.append(Instance(f"random-{len(out)}", text, verdict))
    return out


WORKLOADS = {
    "php": php,
    "chain": chain,
    "hampath": hampath,
    "random": random_programs,
}
