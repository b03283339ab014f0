"""Fold moves and Stallings fold decompositions.

A tight homotopy equivalence factors as a sequence of folds followed by a
graph isomorphism.  The decomposition driver below folds greedily: whenever
two directions at a vertex have images sharing a first edge, it folds their
maximal common image prefix, as a complete fold when the images coincide, a
proper full fold when one image is a prefix of the other, and a partial fold
(subdivide, then fold) otherwise.  Each move factors the residual map
exactly, so composing the produced sequence reproduces the input bit for bit.

The closing isomorphism, or relabeling, is a ``GraphMap``.  A relabeling
followed by a proper full fold of (e1, e0) equals the fold of the
pulled-back directions followed by a relabeling with the same signed
images, so rotating a sequence of proper full folds needs no map-level work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    apply_signed,
    common_prefix_length,
    compose,
    invert_signed,
    relabeling,
    reverse_path,
    signed_images,
)


class NotHomotopyEquivalence(GraphStructureError):
    """Folding terminated without reaching a graph isomorphism."""

    def __init__(self, message: str, residual: GraphMap | None = None):
        super().__init__(message)
        self.residual = residual


FOLD_KINDS = ("proper_full", "complete", "partial")


@dataclass(frozen=True)
class FoldMove:
    """A single fold: directions ``e1`` (folded) and ``e0`` (folded over) in
    the source graph, with the induced edge-labeling on the result.

    Proper full folds preserve the edge count, complete folds drop it by one,
    partial folds subdivide (one new vertex and one new edge).
    """

    kind: str
    e1: int
    e0: int
    source: OrientedGraph
    target: OrientedGraph
    map: GraphMap

    def describe(self) -> str:
        return "%s fold of %s over %s" % (
            self.kind.replace("_", " "),
            self.source.direction_name(self.e1),
            self.source.direction_name(self.e0),
        )


def _fresh_name(taken, stem: str) -> str:
    i = 0
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def apply_fold(
    graph: OrientedGraph, e1: int, e0: int, kind: str = "proper_full"
) -> FoldMove:
    """Fold direction ``e1`` with direction ``e0`` at their common vertex.

    The two directions must belong to distinct edges.  A complete fold
    additionally needs distinct terminal vertices (identifying a bigon is not
    a homotopy equivalence and is rejected).
    """
    if kind not in FOLD_KINDS:
        raise GraphStructureError(f"unknown fold kind {kind!r}")
    if abs(e0) == abs(e1):
        raise GraphStructureError("cannot fold an edge with itself")
    v = graph.initial_vertex(e1)
    if graph.initial_vertex(e0) != v:
        raise GraphStructureError("fold directions have different initial vertices")

    if kind == "proper_full":
        w = graph.terminal_vertex(e0)
        x1 = abs(e1) - 1
        u0, u1 = graph.ends[x1]
        new_ends = list(graph.ends)
        new_ends[x1] = (w, u1) if e1 > 0 else (u0, w)
        target = OrientedGraph(graph.vertex_names, graph.edge_names, tuple(new_ends))
        images = []
        for i in range(graph.n_edges):
            if i == x1:
                images.append((e0, i + 1) if e1 > 0 else ((i + 1), -e0))
            else:
                images.append((i + 1,))
        fold_map = GraphMap(graph, target, tuple(range(graph.n_vertices)), tuple(images))
        return FoldMove(kind, e1, e0, graph, target, fold_map)

    if kind == "complete":
        t1 = graph.terminal_vertex(e1)
        t0 = graph.terminal_vertex(e0)
        if t1 == t0:
            raise NotHomotopyEquivalence(
                "complete fold of %s and %s would identify a bigon"
                % (graph.direction_name(e1), graph.direction_name(e0))
            )
        x1 = abs(e1) - 1
        vmap = []
        for u in range(graph.n_vertices):
            u2 = t0 if u == t1 else u
            vmap.append(u2 - (1 if u2 > t1 else 0))
        new_vertices = tuple(
            name for u, name in enumerate(graph.vertex_names) if u != t1
        )

        def tr(d: int) -> int:
            i = abs(d) - 1
            j = i - (1 if i > x1 else 0)
            return (j + 1) if d > 0 else -(j + 1)

        new_names = tuple(n for i, n in enumerate(graph.edge_names) if i != x1)
        new_ends = tuple(
            (vmap[u], vmap[w]) for i, (u, w) in enumerate(graph.ends) if i != x1
        )
        target = OrientedGraph(new_vertices, new_names, new_ends)
        images = []
        for i in range(graph.n_edges):
            if i == x1:
                images.append((tr(e0),) if e1 > 0 else (tr(-e0),))
            else:
                images.append((tr(i + 1),))
        fold_map = GraphMap(graph, target, tuple(vmap), tuple(images))
        return FoldMove(kind, e1, e0, graph, target, fold_map)

    # partial: subdivide both directions and fold the initial halves into a
    # fresh edge ending at a fresh vertex.
    x0, x1 = abs(e0) - 1, abs(e1) - 1
    w_name = _fresh_name(graph.vertex_names, "w")
    z_name = _fresh_name(graph.edge_names, "s")
    w = graph.n_vertices
    new_vertices = graph.vertex_names + (w_name,)
    new_ends = list(graph.ends)
    for xi, d in ((x0, e0), (x1, e1)):
        u0, u1 = new_ends[xi]
        new_ends[xi] = (w, u1) if d > 0 else (u0, w)
    new_ends.append((v, w))
    z = graph.n_edges + 1
    target = OrientedGraph(new_vertices, graph.edge_names + (z_name,), tuple(new_ends))
    images = []
    for i in range(graph.n_edges):
        if i == x0:
            images.append((z, i + 1) if e0 > 0 else ((i + 1), -z))
        elif i == x1:
            images.append((z, i + 1) if e1 > 0 else ((i + 1), -z))
        else:
            images.append((i + 1,))
    fold_map = GraphMap(graph, target, tuple(range(graph.n_vertices)), tuple(images))
    return FoldMove(kind, e1, e0, graph, target, fold_map)


# -- fold sequences -----------------------------------------------------------


@dataclass(frozen=True)
class FoldSequence:
    """An ordered run of folds plus a final relabeling: a graph isomorphism,
    held as a ``GraphMap``."""

    moves: tuple[FoldMove, ...]
    final: GraphMap

    def __post_init__(self) -> None:
        for a, b in zip(self.moves, self.moves[1:]):
            if a.target != b.source:
                raise GraphStructureError("fold sequence graphs do not chain")
        if self.moves and self.moves[-1].target != self.final.source:
            raise GraphStructureError("final relabeling does not chain")
        if not self.final.is_isomorphism():
            raise GraphStructureError("final map is not a graph isomorphism")

    @property
    def base_graph(self) -> OrientedGraph:
        return self.moves[0].source if self.moves else self.final.source

    def __len__(self) -> int:
        return len(self.moves)

    def composed_map(self) -> GraphMap:
        """Exact composition of the moves, then the final relabeling."""
        m = None
        for move in self.moves:
            m = move.map if m is None else compose(move.map, m)
        return self.final if m is None else compose(self.final, m)

    def describe(self) -> str:
        lines = [f"{len(self.moves)} fold(s)"]
        for k, move in enumerate(self.moves):
            lines.append(f"  {k + 1}. {move.describe()}")
        fin = self.final
        pairs = zip(fin.source.edge_names, fin.edge_images)
        images = ", ".join(f"{e}->{fin.target.path_name(im)}" for e, im in pairs)
        lines.append(f"  relabeling: {images}")
        return "\n".join(lines)


def stallings_decompose(g: GraphMap) -> FoldSequence:
    """Greedy Stallings fold decomposition of a tight homotopy equivalence.

    While some vertex carries two directions whose images share their first
    edge, fold the maximal common prefix; ties are broken by lowest edge
    index.  Terminates because each move strictly shortens the total residual
    image length; if the residual map is not an isomorphism at the end the
    input was not a homotopy equivalence, and the error carries the residual.
    """
    if not g.is_self_map:
        raise GraphStructureError("decomposition requires a self-map")
    if not g.is_tight_map():
        raise GraphStructureError("decomposition requires tight edge images")

    moves: list[FoldMove] = []
    residual = g
    while True:
        pair = _first_foldable_pair(residual)
        if pair is None:
            break
        d1, d2 = pair
        g1 = residual.image_of_direction(d1)
        g2 = residual.image_of_direction(d2)
        ell = common_prefix_length(g1, g2)
        try:
            if ell == len(g1) == len(g2):
                e0, e1 = (d1, d2) if abs(d1) < abs(d2) else (d2, d1)
                move = apply_fold(residual.source, e1, e0, "complete")
            elif ell == len(g1):
                move = apply_fold(residual.source, d2, d1, "proper_full")
            elif ell == len(g2):
                move = apply_fold(residual.source, d1, d2, "proper_full")
            else:
                move = apply_fold(residual.source, d2, d1, "partial")
        except NotHomotopyEquivalence as exc:
            raise NotHomotopyEquivalence(str(exc), residual) from exc
        moves.append(move)
        residual = _factor_residual(residual, move, ell)
    if not residual.is_isomorphism():
        raise NotHomotopyEquivalence(
            "residual map after folding is not a graph isomorphism", residual
        )
    seq = FoldSequence(tuple(moves), residual)
    if seq.composed_map() != g:
        raise GraphStructureError("internal error: decomposition does not recompose")
    return seq


def _first_foldable_pair(m: GraphMap) -> tuple[int, int] | None:
    for v in range(m.source.n_vertices):
        ds = sorted(m.source.directions_at(v), key=lambda d: (abs(d), d < 0))
        for d1, d2 in itertools.combinations(ds, 2):
            if m.image_of_direction(d1)[0] == m.image_of_direction(d2)[0]:
                return d1, d2
    return None


def _factor_residual(m: GraphMap, move: FoldMove, ell: int) -> GraphMap:
    """The map ``m'`` with ``m = m' . move.map``, built from the move kind."""
    src = move.target
    g_e1 = m.image_of_direction(move.e1)
    if move.kind == "proper_full":
        images = []
        for i in range(src.n_edges):
            if i == abs(move.e1) - 1:
                tail = g_e1[ell:]
                images.append(tail if move.e1 > 0 else reverse_path(tail))
            else:
                images.append(m.edge_images[i])
        return GraphMap(src, m.target, m.vertex_map, tuple(images))
    if move.kind == "complete":
        x1 = abs(move.e1) - 1
        t1 = m.source.terminal_vertex(move.e1)
        vmap = tuple(w for u, w in enumerate(m.vertex_map) if u != t1)
        images = tuple(im for i, im in enumerate(m.edge_images) if i != x1)
        return GraphMap(src, m.target, vmap, images)
    # partial: the fresh edge carries the common prefix, the two tails keep
    # their suffixes, and the fresh vertex maps to the prefix endpoint.
    g_e0 = m.image_of_direction(move.e0)
    prefix = g_e0[:ell]
    images = []
    for i in range(m.source.n_edges):
        if i == abs(move.e0) - 1:
            tail = g_e0[ell:]
            images.append(tail if move.e0 > 0 else reverse_path(tail))
        elif i == abs(move.e1) - 1:
            tail = g_e1[ell:]
            images.append(tail if move.e1 > 0 else reverse_path(tail))
        else:
            images.append(m.edge_images[i])
    images.append(prefix)
    vmap = m.vertex_map + (m.target.terminal_vertex(prefix[-1]),)
    return GraphMap(src, m.target, vmap, tuple(images))


# -- conjugation by the final relabeling -------------------------------------


def pull_back(move: FoldMove, sigma: tuple[int, ...], graph: OrientedGraph) -> FoldMove:
    """The fold on ``graph`` that, followed by the relabeling with signed
    images ``sigma`` onto ``move.source``, equals that relabeling followed by
    ``move``.  For a proper full fold (e1, e0) it folds sigma^-1 e1 over
    sigma^-1 e0, and the closing relabeling keeps the images ``sigma``."""
    if move.kind != "proper_full":
        raise GraphStructureError(f"cannot pull a {move.kind} fold back through a relabeling")
    inv = invert_signed(sigma)
    return apply_fold(graph, apply_signed(inv, move.e1), apply_signed(inv, move.e0))


def rotate(seq: FoldSequence, j: int) -> FoldSequence:
    """The fold-conjugate sequence starting at position ``j``: the first j
    folds are pulled back through the final relabeling and appended."""
    if not (0 <= j <= len(seq)):
        raise GraphStructureError("rotation index out of range")
    if j == 0:
        return seq
    sigma = signed_images(seq.final)
    moves = list(seq.moves[j:])
    graph = seq.final.source
    for move in seq.moves[:j]:
        moves.append(pull_back(move, sigma, graph))
        graph = moves[-1].target
    return FoldSequence(tuple(moves), relabeling(graph, seq.moves[j - 1].target, sigma))
