"""The paper's reference map, the rank-3 single fold followed by a
relabeling: its graph, the self-map and its map document."""

from __future__ import annotations

from .graphs import GraphMap, OrientedGraph


def single_fold_graph() -> OrientedGraph:
    """Three vertices, five edges: a triangle with two doubled sides meeting
    at the valence-4 vertex v0."""
    return OrientedGraph(
        vertex_names=("v0", "v1", "v2"),
        edge_names=("a", "b", "c", "d", "e"),
        ends=((1, 2), (0, 2), (2, 0), (0, 1), (0, 1)),
    )


def single_fold_map() -> GraphMap:
    """The rank-3 map a->~b, b->~d, c->e, d->~e ~c, e->a.

    Its decomposition is one proper full fold (d over ~c) followed by a
    relabeling; it is the standard positive control for the whole pipeline.
    """
    graph = single_fold_graph()
    img = {
        "a": ("~b",),
        "b": ("~d",),
        "c": ("e",),
        "d": ("~e", "~c"),
        "e": ("a",),
    }
    images = tuple(
        tuple(graph.direction_of(tok) for tok in img[name]) for name in graph.edge_names
    )
    return GraphMap(
        source=graph,
        target=graph,
        vertex_map=(1, 2, 0),
        edge_images=images,
    )


SINGLE_FOLD_DOCUMENT = """\
vertices v0 v1 v2
edge a = v1 -> v2
edge b = v0 -> v2
edge c = v2 -> v0
edge d = v0 -> v1
edge e = v0 -> v1

map
a -> ~b
b -> ~d
c -> e
d -> ~e ~c
e -> a
"""
