"""Reference constructions that tests compare the package against.

No command needs them: small named maps on roses, integer matrix
arithmetic, relabeling actions on graphs, colored structures and maps, and
the map-document printer.  Parsing then printing a canonical document is
the identity.
"""

from __future__ import annotations

from traintrack.graphs import GraphMap, OrientedGraph, compose, make_turn
from traintrack.spectral import IntegerMatrix, IntPolynomial
from traintrack.whitehead import LttStructure, Relabeling, invert_signed

# -- maps on roses -----------------------------------------------------------


def rose_graph(labels: tuple[str, ...]) -> OrientedGraph:
    return OrientedGraph(
        vertex_names=("v",),
        edge_names=labels,
        ends=tuple((0, 0) for _ in labels),
    )


def rose_map_xyz() -> GraphMap:
    """x->y, y->z, z->z ~x on the 3-rose; not a train track map."""
    graph = rose_graph(("x", "y", "z"))
    return GraphMap(source=graph, target=graph, vertex_map=(0,), edge_images=((2,), (3,), (3, -1)))


def doubling_control_map() -> GraphMap:
    """a->ba, b->bb on the 2-rose; expanding, with the fixed path ~a b."""
    graph = rose_graph(("a", "b"))
    return GraphMap(source=graph, target=graph, vertex_map=(0,), edge_images=((2, 1), (2, 2)))


def block_reducible_map() -> GraphMap:
    """a->aa, b->bb on the 2-rose; train track but block reducible."""
    graph = rose_graph(("a", "b"))
    return GraphMap(source=graph, target=graph, vertex_map=(0,), edge_images=((1, 1), (2, 2)))


# -- integer matrices --------------------------------------------------------


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def companion_matrix(p: IntPolynomial) -> IntegerMatrix:
    """Companion matrix whose characteristic polynomial is the monic ``p``."""
    assert p.is_monic()
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coefficients[i]
    return IntegerMatrix(tuple(tuple(r) for r in rows))


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(tuple(zip(*m.rows)))


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    cols = transpose(b).rows
    return IntegerMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.rows)
    )


def power(m: IntegerMatrix, k: int) -> IntegerMatrix:
    """M**k for k >= 1, by repeated squaring."""
    assert k >= 1
    result = None
    while k:
        if k & 1:
            result = m if result is None else matmul(result, m)
        m = matmul(m, m)
        k >>= 1
    return result


def is_positive(m: IntegerMatrix) -> bool:
    return all(x > 0 for row in m.rows for x in row)


# -- relabeling actions --------------------------------------------------------


def relabeled_graph(graph: OrientedGraph, sigma: tuple[int, ...]) -> OrientedGraph:
    """The graph with each edge label e replaced by sigma(e).

    ``sigma[i]`` is the signed new index of old edge ``i``: the edge that was
    labeled i now carries label abs(sigma[i]) - 1, reversed when negative.
    """
    ends = tuple(
        (graph.initial_vertex(d), graph.terminal_vertex(d)) for d in invert_signed(sigma)
    )
    return OrientedGraph(graph.vertex_names, graph.edge_names, ends)


def relabeling_map(graph: OrientedGraph, sigma: tuple[int, ...]) -> Relabeling:
    """The isomorphism from a graph to its sigma-relabeled version."""
    return Relabeling(graph, relabeled_graph(graph, sigma), tuple(sigma))


def relabel_structure(structure: LttStructure, sigma: tuple[int, ...]) -> LttStructure:
    rel = relabeling_map(structure.graph, sigma)
    return LttStructure(
        graph=rel.target,
        red_vertices=frozenset(rel.apply_direction(d) for d in structure.red_vertices),
        turns=frozenset(
            make_turn(rel.apply_direction(t[0]), rel.apply_direction(t[1]))
            for t in structure.turns
        ),
    )


def relabel_map(g: GraphMap, sigma: tuple[int, ...]) -> GraphMap:
    """Conjugate a self-map by the relabeling: sigma . g . sigma^{-1}."""
    assert g.is_self_map
    rel = relabeling_map(g.source, sigma)
    return compose(rel.as_graph_map(), compose(g, rel.inverse().as_graph_map()))


# -- map documents -------------------------------------------------------------


def print_map_document(g: GraphMap) -> str:
    """Canonical document for a self-map; inverse to the parser."""
    assert g.is_self_map
    graph = g.source
    lines = ["vertices " + " ".join(graph.vertex_names)]
    for i, name in enumerate(graph.edge_names):
        u, w = graph.ends[i]
        lines.append(f"edge {name} = {graph.vertex_names[u]} -> {graph.vertex_names[w]}")
    lines.append("")
    lines.append("map")
    for i, name in enumerate(graph.edge_names):
        lines.append(f"{name} -> {graph.path_name(g.edge_images[i])}")
    return "\n".join(lines) + "\n"
