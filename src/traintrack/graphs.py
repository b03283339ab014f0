"""Oriented multigraphs, directions, turns, edge paths, graph maps, and
signed permutations of directions.

Edges are stored once with a chosen positive orientation.  A *direction* is a
signed integer: ``+(i+1)`` is edge ``i`` traversed positively, ``-(i+1)`` is
its reversal.  A *turn* is an unordered pair of directions with a common
initial vertex, stored as a sorted tuple so that equality and hashing are
structural.  A *signed permutation* ``sigma`` of the edge labels sends edge
``i`` to the direction ``sigma[i]`` and so acts on directions; the signed
images of a graph isomorphism, a *relabeling*, are one.  All values are
immutable after construction; every operation in this module is a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .digraph import connected_components


class GraphStructureError(ValueError):
    """A graph, path, or map violates a structural precondition."""


def make_turn(d1: int, d2: int) -> tuple[int, int]:
    """Canonical (sorted) form of the unordered pair {d1, d2}."""
    return (d1, d2) if d1 <= d2 else (d2, d1)


@dataclass(frozen=True)
class OrientedGraph:
    """A finite connected multigraph with positively oriented edges.

    ``ends[i]`` records (initial vertex index, terminal vertex index) of edge
    ``i``.  Loops (equal endpoints) and parallel edges are allowed.  The
    incidence is read off ``ends`` once: each direction's initial vertex on
    construction, each vertex's directions when first asked for.
    """

    vertex_names: tuple[str, ...]
    edge_names: tuple[str, ...]
    ends: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise GraphStructureError("duplicate vertex names")
        if len(set(self.edge_names)) != len(self.edge_names):
            raise GraphStructureError("duplicate edge names")
        if len(self.ends) != len(self.edge_names):
            raise GraphStructureError("edge name/extremity count mismatch")
        m = len(self.vertex_names)
        initial: dict[int, int] = {}  # the initial vertex of each direction
        for i, (u, v) in enumerate(self.ends, 1):
            if not (0 <= u < m and 0 <= v < m):
                raise GraphStructureError("edge endpoint out of range")
            initial[i] = u
            initial[-i] = v
        object.__setattr__(self, "_initial", initial)

    # -- basic queries -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edge_names)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    def directions(self) -> tuple[int, ...]:
        n = self.n_edges
        return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))

    def initial_vertex(self, direction: int) -> int:
        """Index of the vertex the direction emanates from; KeyError for a
        number that is not a direction of the graph."""
        return self._initial[direction]

    def terminal_vertex(self, direction: int) -> int:
        return self._initial[-direction]

    @cached_property
    def _directions_at(self) -> tuple[tuple[int, ...], ...]:
        at: list[list[int]] = [[] for _ in self.vertex_names]
        for d in self.directions():
            at[self._initial[d]].append(d)
        return tuple(tuple(ds) for ds in at)

    def directions_at(self, vertex: int) -> tuple[int, ...]:
        return self._directions_at[vertex]

    def valence(self, vertex: int) -> int:
        return len(self._directions_at[vertex])

    def valence_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.valence(v) for v in range(self.n_vertices)))

    def edge_index(self, name: str) -> int:
        return self.edge_names.index(name)

    def direction_of(self, token: str) -> int:
        """Direction for a name, with a leading ``~`` meaning reversal."""
        if token.startswith("~"):
            return -(self.edge_index(token[1:]) + 1)
        return self.edge_index(token) + 1

    def direction_name(self, direction: int) -> str:
        name = self.edge_names[abs(direction) - 1]
        return name if direction > 0 else "~" + name

    def turn_name(self, turn: tuple[int, int]) -> str:
        return "{%s,%s}" % (self.direction_name(turn[0]), self.direction_name(turn[1]))

    def path_name(self, dirs: tuple[int, ...]) -> str:
        return " ".join(self.direction_name(d) for d in dirs)

    # -- global invariants ---------------------------------------------

    def components(self) -> list[set[int]]:
        return connected_components(range(self.n_vertices), self.ends)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def rank(self) -> int:
        """First betti number, summed over components."""
        return self.n_edges - self.n_vertices + len(self.components())


# -- edge paths ----------------------------------------------------------


def check_path(graph: OrientedGraph, dirs: tuple[int, ...]) -> None:
    """Raise unless each direction in ``dirs`` starts where the one before it
    ends."""
    initial = graph._initial
    for a, b in zip(dirs, dirs[1:]):
        if initial[-a] != initial[b]:
            raise GraphStructureError(
                f"path breaks at {graph.direction_name(a)} -> {graph.direction_name(b)}"
            )


def reverse_path(dirs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-d for d in reversed(dirs))


def taken_turns(dirs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Turns crossed by a path: {reverse(a_i), a_{i+1}} at interior points."""
    return [make_turn(-a, b) for a, b in zip(dirs, dirs[1:])]


def tighten_dirs(dirs: tuple[int, ...]) -> tuple[int, ...]:
    stack: list[int] = []
    for d in dirs:
        if stack and stack[-1] == -d:
            stack.pop()
        else:
            stack.append(d)
    return tuple(stack)


def common_prefix_length(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of leading directions two paths share."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def is_tight(dirs: tuple[int, ...]) -> bool:
    return all(a != -b for a, b in zip(dirs, dirs[1:]))


# -- graph maps ----------------------------------------------------------


@dataclass(frozen=True)
class GraphMap:
    """Vertex assignment plus a tight-or-not edge-path image per edge.

    Stores images of positive edges only; images of reversed directions are
    derived, so the compatibility of a map with edge reversal holds by
    construction.  Images must be nonempty and start at the image of the
    edge's initial vertex.
    """

    source: OrientedGraph
    target: OrientedGraph
    vertex_map: tuple[int, ...]
    edge_images: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        source, target, vertex_map = self.source, self.target, self.vertex_map
        if len(vertex_map) != source.n_vertices:
            raise GraphStructureError("vertex map size mismatch")
        if len(self.edge_images) != source.n_edges:
            raise GraphStructureError("edge image count mismatch")
        m = target.n_vertices
        for w in vertex_map:
            if not (0 <= w < m):
                raise GraphStructureError("vertex image out of range")
        initial = target._initial
        try:
            for name, (u, v), image in zip(source.edge_names, source.ends, self.edge_images):
                if not image:
                    raise GraphStructureError(f"edge {name} has an empty image")
                check_path(target, image)
                if initial[image[0]] != vertex_map[u]:
                    raise GraphStructureError(f"image of edge {name} starts at the wrong vertex")
                if initial[-image[-1]] != vertex_map[v]:
                    raise GraphStructureError(f"image of edge {name} ends at the wrong vertex")
        except KeyError as err:
            # every direction of an image is looked up above
            raise GraphStructureError(
                f"edge image uses {err.args[0]}, not a direction of the target graph"
            ) from None

    # -- application -----------------------------------------------------

    def image_of_direction(self, d: int) -> tuple[int, ...]:
        image = self.edge_images[abs(d) - 1]
        return image if d > 0 else reverse_path(image)

    def image_of_path(self, dirs: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for d in dirs:
            out.extend(self.image_of_direction(d))
        return tuple(out)

    @property
    def is_self_map(self) -> bool:
        return self.source == self.target

    def is_tight_map(self) -> bool:
        return all(is_tight(im) for im in self.edge_images)

    def is_isomorphism(self) -> bool:
        """True iff the map is a label-level graph isomorphism: each edge goes
        to one direction, and ``isomorphism_vertex_map`` accepts those
        directions and returns this map's vertex map."""
        if any(len(im) != 1 for im in self.edge_images):
            return False
        try:
            vertex_map = isomorphism_vertex_map(self.source, self.target, signed_images(self))
        except GraphStructureError:
            return False
        return vertex_map == self.vertex_map

    def describe(self) -> str:
        lines = []
        for i, image in enumerate(self.edge_images):
            lines.append(f"{self.source.edge_names[i]} -> {self.target.path_name(image)}")
        return "\n".join(lines)


def compose(g: GraphMap, f: GraphMap) -> GraphMap:
    """The map ``g after f``, with images tightened.

    Raises if the middle graphs disagree or if some composite edge image
    tightens to the empty path (collapsed edges are not supported).
    """
    if f.target != g.source:
        raise GraphStructureError("compose: target of inner map differs from source of outer map")
    images = []
    for i in range(f.source.n_edges):
        image = tighten_dirs(g.image_of_path(f.edge_images[i]))
        if not image:
            raise GraphStructureError(
                f"compose: image of edge {f.source.edge_names[i]} collapses"
            )
        images.append(image)
    return GraphMap(
        source=f.source,
        target=g.target,
        vertex_map=tuple(g.vertex_map[w] for w in f.vertex_map),
        edge_images=tuple(images),
    )


def iterate_map(g: GraphMap, power: int) -> GraphMap:
    if not g.is_self_map:
        raise GraphStructureError("iterate_map requires a self-map")
    if power < 1:
        raise GraphStructureError("power must be >= 1")
    result = g
    for _ in range(power - 1):
        result = compose(g, result)
    return result


def direction_map(g: GraphMap) -> dict[int, int]:
    """The map sending a direction to the first direction of its image: an
    edge's first image direction, and the reversed last one for the edge
    reversed.  Keys in the order of ``directions()``."""
    dg = {i: image[0] for i, image in enumerate(g.edge_images, 1)}
    dg.update((-i, -image[-1]) for i, image in enumerate(g.edge_images, 1))
    return dg


def eventual_images(dg: dict[int, int]) -> dict[int, int]:
    """Each direction's image under Dg**M, where Dg is the direction map
    ``dg``, N is the number of directions and M = 2**k with k the bit length
    of N, so M > N; Dg**M is reached by k squarings.

    Dg is a self-map of a finite set of N directions, so every direction
    enters a cycle of Dg within N - 1 steps, and any power m >= N - 1 sends
    every direction onto a cycle.  Dg permutes the cycle directions, so no
    power of it identifies two of them.  So if some power Dg**j identifies
    two directions, so does Dg**m: for j <= m directly, and for j > m
    because their m-th images are cycle directions that Dg**(j - m)
    identifies, hence equal.  Two directions therefore collapse under some
    power of Dg exactly when their M-th images are equal, and the M-th
    images are exactly the periodic directions.
    """
    images = dict(dg)
    for _ in range(len(dg).bit_length()):
        images = {d: images[x] for d, x in images.items()}
    return images


def gates(graph: OrientedGraph, images: dict[int, int]) -> tuple[frozenset[int], ...]:
    """Partition of the graph's directions by the illegal-turn equivalence
    relation of a self-map, given its eventual images.

    Two directions at a vertex are equivalent when some power of the
    direction map sends them to a degenerate pair, that is, when their
    eventual images agree.  Gates come in the order of their least members.
    """
    initial = graph._initial
    classes: dict[tuple[int, int], list[int]] = {}
    for d in sorted(images):
        classes.setdefault((initial[d], images[d]), []).append(d)
    return tuple(map(frozenset, classes.values()))


# -- signed permutations and relabelings ------------------------------------


def apply_signed(sigma: tuple[int, ...], d: int) -> int:
    """The direction ``sigma`` sends ``d`` to; ``sigma[i]`` is the signed
    image of edge ``i``, and reversal commutes with the action."""
    return sigma[d - 1] if d > 0 else -sigma[-d - 1]


def direction_table(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """``table[d] == apply_signed(sigma, d)`` for every direction d; negative
    directions index from the end."""
    return (0,) + sigma + tuple(-x for x in reversed(sigma))


def compose_signed(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Apply t, then s."""
    return tuple(s[x - 1] if x > 0 else -s[-x - 1] for x in t)


def invert_signed(s: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(s)
    for i, x in enumerate(s):
        out[abs(x) - 1] = (i + 1) if x > 0 else -(i + 1)
    return tuple(out)


def isomorphism_vertex_map(
    source: OrientedGraph, target: OrientedGraph, signed: tuple[int, ...]
) -> tuple[int, ...]:
    """The vertex map of the graph isomorphism sending source edge ``i`` to
    the target direction ``signed[i]``: each vertex goes where its first
    direction's image starts.  Raises ``GraphStructureError`` unless the
    vertex map is a bijection, ``signed`` is a bijection onto the target
    edges, and each edge's image starts and ends at the images of its
    ends."""
    initial = target._initial
    try:
        vertex_map = tuple(initial[apply_signed(signed, ds[0])] for ds in source._directions_at)
        for s, (u, v) in zip(signed, source.ends):
            if initial[s] != vertex_map[u] or initial[-s] != vertex_map[v]:
                raise GraphStructureError("relabeling is not a graph isomorphism")
    except (IndexError, KeyError):
        raise GraphStructureError("relabeling images are not target directions") from None
    n, m = source.n_edges, source.n_vertices
    if not (
        len(signed) == n == target.n_edges == len({abs(s) for s in signed})
        and m == target.n_vertices == len(set(vertex_map))
    ):
        raise GraphStructureError("relabeling is not a graph isomorphism")
    return vertex_map


def relabeling(source: OrientedGraph, target: OrientedGraph, signed: tuple[int, ...]) -> GraphMap:
    """The isomorphism sending source edge ``i`` to the signed direction
    ``signed[i]``, on the vertex map of ``isomorphism_vertex_map``, which
    raises ``GraphStructureError`` unless it is a graph isomorphism."""
    vertex_map = isomorphism_vertex_map(source, target, signed)
    return GraphMap(source, target, vertex_map, tuple((s,) for s in signed))


def relabel_after(f: GraphMap, target: OrientedGraph, sigma: tuple[int, ...]) -> GraphMap:
    """The map sigma after f, for the signed images ``sigma`` of a graph
    isomorphism from ``f.target`` to ``target``: f's images read through
    sigma's direction table, each vertex sent where sigma sends the first
    direction at its image.  The result is a validated ``GraphMap``.

    Precondition, not checked here: sigma is an isomorphism
    (``isomorphism_vertex_map`` checks one).  The images are not tightened.
    An isomorphism sends each direction to one direction, distinct ones to
    distinct ones, and commutes with reversal, so a path crosses a
    degenerate turn exactly when its image does: tight images stay tight,
    and for a map f with tight images the result equals
    ``compose(relabeling(f.target, target, sigma), f)``."""
    table = direction_table(sigma)
    middle = f.target
    vertex_map = tuple(
        target.initial_vertex(table[middle.directions_at(w)[0]]) for w in f.vertex_map
    )
    images = tuple(tuple(table[d] for d in image) for image in f.edge_images)
    return GraphMap(f.source, target, vertex_map, images)


def signed_images(m: GraphMap) -> tuple[int, ...]:
    return tuple(im[0] for im in m.edge_images)
