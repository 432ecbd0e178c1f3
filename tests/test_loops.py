"""Positive dependencies, loop nogoods, and unfounded-set checks."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import aspcert
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcert.completion import body_catalog, body_definition
from aspcert.fuzz import random_program
from aspcert.loops import (
    cyclic_atoms,
    dependency_graph,
    external_bodies,
    is_loop,
    is_unfounded_set,
    loop_nogood,
    strongly_connected_components,
)
from aspcert.oracle import enumerate_answer_sets
from aspcert.program_io import parse_program
from aspcert.solver import CONSISTENT, solve
from reference import (
    all_loop_nogoods, backward_family, declared_registry, forward_family, has_loops, public_items,
)


def _edges(graph):
    return sorted((source, target) for source, targets in graph.items() for target in targets)


def test_dependency_graph_edges(ex1_program):
    graph = dependency_graph(ex1_program)
    assert sorted(graph) == [1, 2, 3, 4, 5]
    assert _edges(graph) == [
        (1, 2), (2, 1), (3, 1), (3, 2), (3, 5), (4, 1), (4, 2),
    ]
    assert sorted(cyclic_atoms(graph)) == [1, 2]
    assert has_loops(ex1_program)


def test_negative_bodies_add_no_edges():
    program = parse_program("a :- not b.\nb :- not a.")
    graph = dependency_graph(program)
    assert graph == {1: set(), 2: set()}
    assert _edges(graph) == []
    assert not has_loops(program)


def test_self_edge_is_a_loop():
    program = parse_program("a :- a.")
    graph = dependency_graph(program)
    assert _edges(graph) == [(1, 1)]
    assert is_loop(graph, frozenset({1}))
    assert has_loops(program)


def test_is_loop_on_example(ex1_program):
    graph = dependency_graph(ex1_program)
    assert is_loop(graph, frozenset({1, 2}))
    assert not is_loop(graph, frozenset({1}))
    assert not is_loop(graph, frozenset({1, 5}))
    assert not is_loop(graph, frozenset())


@st.composite
def small_digraphs(draw):
    """Up to 8 nodes; self-edges and isolated nodes are allowed."""
    nodes = range(1, draw(st.integers(min_value=1, max_value=8)) + 1)
    edges = draw(st.sets(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))))
    graph = {node: set() for node in nodes}
    for source, target in edges:
        graph[source].add(target)
    return graph


def _reachable(graph, start, inside):
    """Nodes of inside reachable from start by paths of length >= 0 within inside."""
    seen, todo = {start}, [start]
    while todo:
        for succ in graph[todo.pop()] & inside:
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_strongly_connected_components_match_mutual_reachability(graph):
    nodes = set(graph)
    reach = {node: _reachable(graph, node, nodes) for node in nodes}
    expected = {frozenset(v for v in reach[u] if u in reach[v]) for u in nodes}
    components = strongly_connected_components(graph)
    assert sorted(map(sorted, components)) == sorted(map(sorted, expected))
    # sinks first: an edge between components points to an earlier one
    position = {node: i for i, c in enumerate(components) for node in c}
    for source, target in _edges(graph):
        assert position[target] <= position[source]


@settings(max_examples=200, deadline=None)
@given(small_digraphs())
def test_is_loop_matches_its_definition(graph):
    nodes = sorted(graph)
    for size in range(len(nodes) + 1):
        for atoms in combinations(nodes, size):
            inside = set(atoms)
            has_edge = any(graph[a] & inside for a in atoms)
            connected = all(_reachable(graph, a, inside) == inside for a in atoms)
            assert is_loop(graph, frozenset(atoms)) == (size > 0 and has_edge and connected)
    assert not is_loop(graph, frozenset({len(nodes) + 1}))


def test_long_cycle_needs_no_recursion():
    n = 20_000
    text = "".join(f"a{i} :- a{(i + 1) % n}.\n" for i in range(n))
    program = parse_program(text)
    assert cyclic_atoms(dependency_graph(program)) == frozenset(program.atom_ids())
    assert len(program.atom_ids()) == n
    result = solve(program)
    assert result.status == CONSISTENT
    assert result.answer_set == frozenset()


def test_import_loads_only_the_standard_library():
    src = str(Path(aspcert.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import aspcert; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'aspcert'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_external_bodies_on_example(ex1_program):
    catalog = body_catalog(ex1_program)
    assert external_bodies(ex1_program, catalog, frozenset({1, 2})) == [
        frozenset({3}),
        frozenset({3, 4}),
    ]
    # every body of a is internal to no singleton loop, so all are external
    assert external_bodies(ex1_program, catalog, frozenset({1})) == [
        frozenset({2, 4}),
        frozenset({3}),
    ]


def test_loop_nogood_shape():
    assert loop_nogood(1, (8, 9)) == frozenset({1, -8, -9})
    assert loop_nogood(1, ()) == frozenset({1})


def test_all_loop_nogoods_on_example(ex1_program):
    catalog = body_catalog(ex1_program)
    registry = declared_registry(ex1_program, catalog)
    external_ids = (
        registry.id_of(frozenset({3})),
        registry.id_of(frozenset({3, 4})),
    )
    assert sorted(all_loop_nogoods(ex1_program, catalog, registry)) == sorted(
        [loop_nogood(1, external_ids), loop_nogood(2, external_ids)]
    )


def test_all_loop_nogoods_empty_for_tight_program():
    program = parse_program("a :- not b.\nb :- c.")
    catalog = body_catalog(program)
    registry = declared_registry(program, catalog)
    assert all_loop_nogoods(program, catalog, registry) == []


def test_self_supporting_atom_nogood():
    program = parse_program("a :- a.")
    catalog = body_catalog(program)
    registry = declared_registry(program, catalog)
    assert all_loop_nogoods(program, catalog, registry) == [frozenset({1})]


def test_is_unfounded_set_examples(ex1_program):
    assert is_unfounded_set(ex1_program, frozenset({-3}), frozenset({1, 2}))
    assert not is_unfounded_set(ex1_program, frozenset(), frozenset({3}))
    assert not is_unfounded_set(ex1_program, frozenset(), frozenset())


def test_is_unfounded_set_disjunctive_head_satisfied_elsewhere():
    program = parse_program("a | b.")
    assert is_unfounded_set(program, frozenset({2}), frozenset({1}))
    assert not is_unfounded_set(program, frozenset(), frozenset({1}))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_loops_with_false_external_bodies_are_unfounded(seed):
    program = random_program(random.Random(seed))
    graph = dependency_graph(program)
    catalog = body_catalog(program)
    cyclic = cyclic_atoms(graph)
    if not cyclic:
        return
    loop = frozenset(cyclic)
    if not is_loop(graph, loop):
        return
    # falsify one literal of every external body
    assignment = set()
    for body in external_bodies(program, catalog, loop):
        if not body:
            return
        assignment.add(-next(iter(body)))
    if any(-l in assignment for l in assignment):
        return
    assert is_unfounded_set(program, frozenset(assignment), loop)


def _completion_and_loop_models(program):
    """Brute-force the models of the completion plus all loop nogoods."""
    catalog = body_catalog(program)
    registry = declared_registry(program, catalog)
    nogoods = []
    for body_id, body in public_items(registry):
        nogoods.extend(body_definition(body_id, body))
    nogoods.extend(n for _, _, n in forward_family(program, catalog, registry))
    nogoods.extend(backward_family(program, catalog, registry))
    nogoods.extend(all_loop_nogoods(program, catalog, registry))
    atoms = range(1, program.atom_count + 1)
    models = set()
    for mask in range(1 << program.atom_count):
        true_atoms = {a for a in atoms if mask >> (a - 1) & 1}
        assignment = {a if a in true_atoms else -a for a in atoms}
        for body_id, body in public_items(registry):
            holds = all(l in assignment for l in body)
            assignment.add(body_id if holds else -body_id)
        if not any(n <= assignment for n in nogoods):
            models.add(frozenset(true_atoms))
    return models


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_completion_plus_loop_nogoods_capture_answer_sets(seed):
    program = random_program(random.Random(seed))
    expected = {frozenset(m) for m in enumerate_answer_sets(program)}
    assert _completion_and_loop_models(program) == expected
