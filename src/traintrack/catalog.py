"""The paper's reference map, the rank-3 single fold followed by a
relabeling: its map document, and the self-map parsed from it."""

from __future__ import annotations

from .graphs import GraphMap
from .mapdoc import parse_map_document


def single_fold_map() -> GraphMap:
    """The rank-3 map a->~b, b->~d, c->e, d->~e ~c, e->a on a triangle with
    two doubled sides meeting at the valence-4 vertex v0.

    Its decomposition is one proper full fold (d over ~c) followed by a
    relabeling; it is the standard positive control for the whole pipeline.
    """
    return parse_map_document(SINGLE_FOLD_DOCUMENT)


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
