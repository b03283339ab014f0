from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack.digraph import (
    carries_cycle,
    connected_components,
    strongly_connected_components,
)
from traintrack.graphs import OrientedGraph


@st.composite
def _vertex_lists_and_edges(draw):
    vertices = draw(st.lists(st.integers(-6, 6), unique=True, max_size=9))
    if not vertices:
        return vertices, []
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    return vertices, edges


@settings(max_examples=300, deadline=None)
@given(_vertex_lists_and_edges())
def test_components_match_networkx(case):
    vertices, edges = case
    g = nx.MultiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    components = connected_components(vertices, edges)
    assert sorted(map(sorted, components)) == sorted(map(sorted, nx.connected_components(g)))
    # ordered by first vertex in the given vertex order
    firsts = [min(c, key=vertices.index) for c in components]
    assert firsts == sorted(firsts, key=vertices.index)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=8)
    .map(lambda ends: (m, ends))
))
def test_graph_components_match_networkx(case):
    m, ends = case
    graph = OrientedGraph(
        tuple(f"v{i}" for i in range(m)), tuple(f"e{i}" for i in range(len(ends))), tuple(ends)
    )
    g = nx.MultiGraph()
    g.add_nodes_from(range(m))
    g.add_edges_from(ends)
    want = sorted(map(sorted, nx.connected_components(g)))
    assert sorted(map(sorted, graph.components())) == want
    assert graph.is_connected() == (len(want) <= 1)


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=16))


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_cycle_carrying_components_match_networkx(case):
    n, arcs = case
    edges: dict[int, list[int]] = {}
    for u, v in arcs:
        edges.setdefault(u, []).append(v)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    components = strongly_connected_components(n, edges)
    assert sorted(map(sorted, components)) == sorted(
        map(sorted, nx.strongly_connected_components(g))
    )
    for comp in components:
        # v lies on a cycle iff some successor of v reaches v
        for v in comp:
            on_cycle = any(nx.has_path(g, w, v) for w in g.successors(v))
            assert on_cycle == carries_cycle(comp, edges)
