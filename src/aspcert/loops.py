"""Positive dependency graph, loops, external bodies, and unfounded sets.

The dependency graph has an edge (b, a) whenever b occurs positively in the
body of a rule with a in the head. It is a plain dict that maps every atom
to the set of its successors, so an atom with no edges maps to an empty set.
A loop is a nonempty atom set whose induced subgraph is strongly connected
and contains at least one edge, so singletons need a self-edge.
"""

from __future__ import annotations

from typing import Collection, Iterable

from .core import CHOICE, Nogood, Program
from .completion import BodyCatalog, BodyRegistry

Graph = dict[int, set[int]]


def dependency_graph(program: Program) -> Graph:
    """Positive atom dependencies; every atom is a key."""
    graph: Graph = {atom: set() for atom in program.atom_ids()}
    for rule in program.rules:
        for source in rule.pos_body:
            graph[source].update(rule.head)
    return graph


def strongly_connected_components(graph: Graph) -> list[list[int]]:
    """Tarjan's algorithm on an explicit stack, so deep graphs need no recursion.

    Every successor must be a key of graph. Components come out sinks first.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def is_loop(graph: Graph, atoms: Collection[int]) -> bool:
    """Check the loop property on the induced subgraph."""
    members = set(atoms)
    if not members or not all(a in graph for a in members):
        return False
    sub = {a: graph[a] & members for a in members}
    return any(sub.values()) and len(strongly_connected_components(sub)) == 1


def cyclic_atoms(graph: Graph) -> frozenset[int]:
    """Atoms on some positive cycle."""
    components = strongly_connected_components(graph)
    return frozenset(atom for c in components for atom in c if len(c) > 1 or atom in graph[atom])


def external_bodies(
    program: Program, catalog: BodyCatalog, atoms: Collection[int]
) -> list[frozenset[int]]:
    """Bodies that can support an atom of the set from outside it.

    A rule r with a head atom in the set L supports it from outside through
    body(r) plus the complements of head(r) minus L, unless a positive body
    literal lies in L: the loop formula of Lee & Lifschitz (ICLP 2003) for
    disjunctive programs. For every rule but a disjunctive one with two head
    atoms in L, that is the atom's induced body, which the catalog holds.
    For such a disjunctive rule the catalog's shifted body negates the other
    one too, so the bodies of the atoms it heads are derived from their
    rules instead. A head-cycle-free program has no such rule for any loop.
    Bodies come out atom by atom in ascending order, each atom's in rule
    order, without repeats.
    """
    atom_set = set(atoms)
    unshifted = {
        atom
        for rule in catalog.shifted
        if len(atom_set.intersection(rule.head)) > 1
        for atom in atom_set.intersection(rule.head)
    }
    out: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for atom in sorted(atom_set):
        if atom in unshifted:
            bodies = [
                rule.body | {-b for b in rule.head if b not in atom_set}
                if rule.is_disjunctive
                else rule.body
                for rule in program.rules
                if atom in rule.head
            ]
        else:
            bodies = catalog.bodies_of(atom)
        for body in bodies:
            if body not in seen and not any(lit > 0 and lit in atom_set for lit in body):
                seen.add(body)
                out.append(body)
    return out


def loop_nogood(atom: int, body_ids: Iterable[int]) -> Nogood:
    """The atom cannot be true with every listed body false.

    With a loop's external bodies this is a loop nogood (an l line); with
    all of the atom's induced bodies, its support nogood (an s line).
    """
    return frozenset({atom, *(-b for b in body_ids)})


def _atomized(program: Program, assignment: Iterable[int], registry: BodyRegistry | None) -> set[int]:
    """Project an assignment to atom literals; true body vars expand, false drop."""
    out: set[int] = set()
    for lit in assignment:
        var = abs(lit)
        if var <= program.atom_count:
            out.add(lit)
        elif registry is not None and (body := registry.lits_of(var)) is not None:
            if lit > 0:
                out.update(body)
        else:
            raise ValueError(f"unknown variable {var} in assignment")
    return out


def is_unfounded_set(
    program: Program,
    assignment: Iterable[int],
    atoms: Collection[int],
    registry: BodyRegistry | None = None,
) -> bool:
    """Check that no rule can support any atom of the set under the assignment.

    Each rule with a head atom in the set must be neutralized: its body cannot
    fire without the set (a literal is contradicted, or a positive body atom
    lies in the set), or, for non-choice rules, the rule is already satisfied
    by a true head atom outside the set.
    """
    unfounded = set(atoms)
    if not unfounded or not all(1 <= a <= program.atom_count for a in unfounded):
        return False
    atom_lits = _atomized(program, assignment, registry)
    for rule in program.rules:
        if not unfounded.intersection(rule.head):
            continue
        if rule.kind is not CHOICE and any(
            a in atom_lits for a in rule.head if a not in unfounded
        ):
            continue
        # Can the body hold under the assignment without true atoms of the set?
        if not any(-lit in atom_lits or lit in unfounded for lit in rule.body):
            return False
    return True
