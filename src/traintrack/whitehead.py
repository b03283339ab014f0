"""Ideal Whitehead graphs and colored turn structures over a graph.  Each
map-level function reads one ``MapAnalysis``.

The stable Whitehead graph at a vertex joins its periodic directions by the
closure turns between them, and the ideal Whitehead graph is the disjoint
union of the stable ones with the 2-direction components removed.  A turn
joins two directions at one vertex, so every component of the graph on all
periodic directions with those turns lies at one vertex, and one components
pass yields the ideal graph's components.

The colored structure of a self-map records, over the underlying graph, one
vertex per direction (purple when the direction is periodic, red otherwise),
one edge per taken turn (purple when both ends are periodic), and a black
edge per original edge.  Identity of such structures "up to label-preserving
isomorphism" forgets vertex names but keeps edge labels, which is captured by
the partition of directions into initial-vertex groups.  With one red
direction, as in the automaton, a colored structure is the automaton's node
key: the sorted groups, the red direction and the sorted turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import FicReport, MapAnalysis
from .digraph import connected_components
from .graphs import GraphStructureError


# -- Whitehead graphs --------------------------------------------------------


@dataclass(frozen=True)
class WhiteheadGraph:
    """One component of an ideal Whitehead graph: periodic directions and
    the closure turns among them.  A turn joins two directions at one
    vertex, so a component of all periodic directions lies at one vertex."""

    directions: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def is_triangle(self) -> bool:
        return len(self.directions) == 3 and len(self.edges) == 3


@dataclass(frozen=True)
class IdealWhiteheadGraph:
    """Disjoint union of the stable graphs, 2-vertex components removed."""

    components: tuple[WhiteheadGraph, ...]

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(c.directions) for c in self.components))

    def is_triangle_union(self, count: int) -> bool:
        return len(self.components) == count and all(c.is_triangle() for c in self.components)

    def index(self) -> Fraction:
        """Sum of 1 - k/2 over components with k vertices."""
        return sum((1 - Fraction(len(c.directions), 2) for c in self.components), Fraction(0))


def ideal_whitehead(a: MapAnalysis) -> IdealWhiteheadGraph:
    """Assemble the ideal Whitehead graph, valid only when the bounded search
    finds no periodic Nielsen path.

    The components come ordered by vertex, then by least direction.  Raises
    when the map is not an expanding train track map or when the search
    finds a path, since the construction is undefined there.
    """
    if not a.pnp.clean:
        raise GraphStructureError(
            "a periodic Nielsen path was found (period %s); the ideal Whitehead graph "
            "is not defined by this construction" % a.pnp.period
        )
    graph = a.map.source
    periodic = sorted(a.periodic, key=lambda d: (graph.initial_vertex(d), d))
    turns = [t for t in a.tt.closure if t[0] in a.periodic and t[1] in a.periodic]
    comps = [
        WhiteheadGraph(frozenset(piece), frozenset(t for t in turns if t[0] in piece))
        for piece in connected_components(periodic, turns)
        if len(piece) != 2
    ]
    return IdealWhiteheadGraph(tuple(comps))


@dataclass(frozen=True)
class PrincipalReport:
    fic: FicReport
    ideal: IdealWhiteheadGraph | None
    index: Fraction | None
    is_principal: bool


def is_principal(a: MapAnalysis) -> PrincipalReport:
    """Whether the map's ideal Whitehead graph is 2r-3 triangles, r the rank
    of its graph.

    Propagates full-irreducibility-criterion failures, and cross-checks the
    index identity: the component sum of 1 - k/2 must equal 3/2 - r.
    """
    fic = a.fic
    if not fic.passed:
        return PrincipalReport(fic, None, None, False)
    rank = a.map.source.rank()
    ideal = ideal_whitehead(a)
    index = ideal.index()
    ok = ideal.is_triangle_union(2 * rank - 3) and index == Fraction(3, 2) - rank
    return PrincipalReport(fic, ideal, index, ok)


# -- colored turn structures (ltt) -------------------------------------------


def canonical_groups(groups) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(g)) for g in groups)))


def ltt_structure(a: MapAnalysis) -> tuple:
    """The colored structure of a train track self-map with exactly one
    nonperiodic direction, as the automaton's node key ``(groups, red,
    turns)``: the initial-vertex groups of the directions, the red direction
    and the taken turns, each sorted."""
    if not a.tt.is_train_track:
        raise GraphStructureError("colored turn structure requires a train track map")
    graph = a.map.source
    red = set(graph.directions()) - a.periodic
    if len(red) != 1:
        raise GraphStructureError("node keys need exactly one red direction")
    groups = [graph.directions_at(v) for v in range(graph.n_vertices)]
    return (canonical_groups(groups), red.pop(), tuple(sorted(a.tt.closure)))
