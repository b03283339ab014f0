"""Train track certification.

A self-map is a train track map when every power is tight, which for tight
edge images reduces to a finite check: close the set of turns taken inside
edge images under the direction map Dg, and ask that Dg collapse none of them.
This module also houses the expanding test, a bounded search for periodic
Nielsen paths, and the full-irreducibility criterion that combines them with
the spectral classification and the local Whitehead graphs.  A turn joins
two directions at one vertex, so the components of the graph on all
directions with the closure turns as edges are those of the local graphs,
and one components pass decides them all (``fic_check``).  ``MapAnalysis``
holds one map's certificates, each derived once, for every step that reads
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .digraph import (
    carries_cycle,
    condensation_reachability,
    connected_components,
    strongly_connected_components,
)
from .graphs import (
    GraphMap,
    GraphStructureError,
    common_prefix_length,
    direction_map,
    eventual_images,
    gates,
    is_tight,
    iterate_map,
    make_turn,
    reverse_path,
    taken_turns,
    tighten_dirs,
)
from .spectral import (
    IntegerMatrix,
    SpectralReport,
    classify_matrix,
    invariant_edge_set,
    transition_matrix,
)


def taken_turn_closure(a: MapAnalysis) -> frozenset[tuple[int, int]]:
    """The turns taken by any power of the map: seed with turns inside each
    edge image, then close under Dg.

    Degenerate images are not recorded as turns; a closure turn that Dg
    collapses is what ``is_train_track`` looks for.
    """
    g, dg = a.map, a.dg
    seen: set[tuple[int, int]] = set()
    frontier = []
    for i in range(g.source.n_edges):
        for t in taken_turns(g.edge_images[i]):
            if not t[0] == t[1] and t not in seen:
                seen.add(t)
                frontier.append(t)
    while frontier:
        t = frontier.pop()
        image = make_turn(dg[t[0]], dg[t[1]])
        if image[0] == image[1]:
            continue
        if image not in seen:
            seen.add(image)
            frontier.append(image)
    return frozenset(seen)


def illegal_turns(a: MapAnalysis) -> frozenset[tuple[int, int]]:
    """Nondegenerate turns some power of Dg collapses to a degenerate pair:
    the pairs of distinct directions in one gate."""
    pairs = (itertools.combinations(gate, 2) for gate in a.gates if len(gate) > 1)
    return frozenset(make_turn(d1, d2) for d1, d2 in itertools.chain.from_iterable(pairs))


@dataclass(frozen=True)
class TtCertificate:
    is_train_track: bool
    witness: tuple[int, int] | str | None
    closure: frozenset[tuple[int, int]]

    def describe(self, graph) -> str:
        if self.is_train_track:
            return "train track"
        if isinstance(self.witness, str):
            return f"not a train track map: image of edge {self.witness} is not tight"
        return f"not a train track map: taken turn {graph.turn_name(self.witness)} is illegal"


def is_train_track(a: MapAnalysis) -> TtCertificate:
    """Certify that all powers of the map are tight (Bestvina-Handel, Annals
    1992).

    An untight edge image is an immediate failure with that edge as witness.
    Otherwise all powers are tight exactly when no turn of the taken-turn
    closure is illegal, and that holds exactly when no closure turn
    {d1, d2} has Dg d1 == Dg d2, so one pass over the closure decides.

    Proof: the closure is closed under Dg except where an image degenerates.
    If t is an illegal closure turn, take the least k with Dg^k(t)
    degenerate; then Dg^(k-1)(t) lies in the closure and Dg sends it to a
    degenerate pair.  Conversely, a turn that Dg collapses is illegal.

    On failure the witness is the least illegal closure turn: the least
    closure turn whose two directions have equal eventual images.  The gates
    are not read.
    """
    g = a.map
    for i in range(g.source.n_edges):
        if not is_tight(g.edge_images[i]):
            return TtCertificate(False, g.source.edge_names[i], frozenset())
    closure = taken_turn_closure(a)
    dg = a.dg
    if all(dg[d1] != dg[d2] for d1, d2 in closure):
        return TtCertificate(True, None, closure)
    images = a.images
    witness = min(t for t in closure if images[t[0]] == images[t[1]])
    return TtCertificate(False, witness, closure)


def is_expanding(matrix: IntegerMatrix) -> bool:
    """Whether every edge's image length is unbounded under iteration of the
    map with this transition matrix.

    The length of the n-th image of an edge counts length-n walks from it in
    the multiplicity digraph of the transition matrix.  Every vertex there
    has out-multiplicity at least one, so the count is unbounded exactly when
    a vertex of out-multiplicity two or more lying on a directed cycle is
    reachable; this is decided on the condensation, with no iteration cutoff.
    """
    return expanding_edges(matrix) == tuple(range(matrix.dimension))


def expanding_edges(matrix: IntegerMatrix) -> tuple[int, ...]:
    """Indices of edges with unbounded iterated image length."""
    n = matrix.dimension
    edges = matrix.adjacency()
    comps = strongly_connected_components(n, edges)
    comp_of, reach = condensation_reachability(n, edges, comps)
    growing = set()
    for ci, comp in enumerate(comps):
        if carries_cycle(comp, edges) and any(sum(matrix.rows[v]) >= 2 for v in comp):
            growing.add(ci)
    return tuple(
        i for i in range(n) if any(cj in growing for cj in reach[comp_of[i]])
    )


# -- the per-map analysis ------------------------------------------------------


class MapAnalysis:
    """A self-map and everything derived from it, each item computed the
    first time it is read and kept.

    ``dg``, ``images``, ``gates`` and ``illegal`` are the direction map,
    the eventual images, the gates and the illegal turns
    (``direction_map``, ``eventual_images``, ``graphs.gates``,
    ``illegal_turns``); ``periodic`` is the set of eventual images, the
    directions on cycles of Dg.  ``tt``, ``matrix``, ``spectral``,
    ``expanding``, ``pnp`` and ``fic`` are the results of ``is_train_track``,
    ``transition_matrix``, ``classify_matrix``, ``is_expanding``,
    ``pnp_bounded_search`` and ``fic_check``.  Every step that reads the
    map's dynamics or certificates takes the analysis, so each is derived
    once however many steps ask.
    """

    def __init__(self, g: GraphMap):
        if not g.is_self_map:
            raise GraphStructureError("map analysis requires a self-map")
        self.map = g

    @cached_property
    def dg(self) -> dict[int, int]:
        return direction_map(self.map)

    @cached_property
    def images(self) -> dict[int, int]:
        return eventual_images(self.dg)

    @cached_property
    def gates(self) -> tuple[frozenset[int], ...]:
        return gates(self.map.source, self.images)

    @cached_property
    def illegal(self) -> frozenset[tuple[int, int]]:
        return illegal_turns(self)

    @cached_property
    def tt(self) -> TtCertificate:
        return is_train_track(self)

    @cached_property
    def matrix(self) -> IntegerMatrix:
        return transition_matrix(self.map)

    @cached_property
    def spectral(self) -> SpectralReport:
        return classify_matrix(self.matrix)

    @cached_property
    def expanding(self) -> bool:
        return is_expanding(self.matrix)

    @cached_property
    def periodic(self) -> frozenset[int]:
        return frozenset(self.images.values())

    @cached_property
    def pnp(self) -> PnpSearchResult:
        return pnp_bounded_search(self)

    @cached_property
    def fic(self) -> FicReport:
        return fic_check(self)


# -- bounded periodic-Nielsen-path search -----------------------------------

PNP_LENGTH_BOUND = 50


@dataclass(frozen=True)
class PnpSearchResult:
    verdict: str  # "none-up-to-bound" or "found"
    length_bound: int
    period_bound: int
    path: tuple[int, ...] | None = None
    period: int | None = None

    @property
    def clean(self) -> bool:
        return self.verdict == "none-up-to-bound"


def default_period_bound(a: MapAnalysis) -> int:
    """lcm of the direction-map cycle lengths."""
    dg = a.dg
    lengths = set()
    seen = set()
    for d in a.periodic:
        if d in seen:
            continue
        cycle = [d]
        x = dg[d]
        while x != d:
            cycle.append(x)
            x = dg[x]
        seen.update(cycle)
        lengths.add(len(cycle))
    return math.lcm(*lengths) if lengths else 1


def pnp_bounded_search(a: MapAnalysis) -> PnpSearchResult:
    """Search for a periodic Nielsen path with legs of at most
    ``PNP_LENGTH_BOUND`` directions and period at most
    :func:`default_period_bound`.

    Candidates have the form reverse(alpha) . beta with both legs tight,
    meeting at an illegal turn.  For each illegal tip, the pair of legs is
    iterated by: apply the map to both legs, tighten, and strip the common
    prefix.  A genuine periodic path is a periodic state of this iteration
    and is confirmed by tightening the image directly; legs exceeding the
    length bound, a swallowed leg, or an over-long period stop the tip.

    A "none-up-to-bound" verdict is not a proof of absence; the bounds used
    are part of the result.  The map must be an expanding train track map.
    """
    if not (a.tt.is_train_track and a.expanding):
        raise GraphStructureError("periodic path search requires an expanding train track map")
    g, period_bound = a.map, default_period_bound(a)

    for tip in sorted(a.illegal):
        state = ((tip[0],), (tip[1],))
        seen: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {state: 0}
        step = 0
        while True:
            step += 1
            alpha = tighten_dirs(g.image_of_path(state[0]))
            beta = tighten_dirs(g.image_of_path(state[1]))
            k = common_prefix_length(alpha, beta)
            state = (alpha[k:], beta[k:])
            if not state[0] or not state[1]:
                break  # one leg swallowed; no candidate at this tip
            if max(len(state[0]), len(state[1])) > PNP_LENGTH_BOUND:
                break
            if state in seen:
                period = step - seen[state]
                if period <= period_bound:
                    candidate = reverse_path(state[0]) + state[1]
                    image = tighten_dirs(iterate_map(g, period).image_of_path(candidate))
                    if image == candidate:
                        return PnpSearchResult(
                            "found", PNP_LENGTH_BOUND, period_bound, candidate, period
                        )
                break
            seen[state] = step
    return PnpSearchResult("none-up-to-bound", PNP_LENGTH_BOUND, period_bound)


# -- full irreducibility criterion -------------------------------------------


@dataclass(frozen=True)
class FicReport:
    """One flag per conjunct of the full irreducibility criterion.
    ``whitehead_connected`` says that the map is a train track map whose
    local Whitehead graphs are all connected, as ``fic_check`` decides in
    one components pass."""

    train_track: bool
    pnp_clean: bool
    irreducible: bool
    primitive: bool
    whitehead_connected: bool
    invariant_edges: tuple[int, ...] | None

    @property
    def passed(self) -> bool:
        return (
            self.train_track
            and self.pnp_clean
            and self.irreducible
            and self.primitive
            and self.whitehead_connected
        )


def fic_check(a: MapAnalysis) -> FicReport:
    """Bounded-PNP-clean, irreducible, primitive (PF), and connected local
    Whitehead graphs; each conjunct reported separately, failures
    enumerated.  The search runs on expanding train track maps only.

    The local Whitehead graph at v joins the directions at v by the closure
    turns there.  A turn joins two directions at one vertex, so every
    component of the graph on all directions with all closure turns lies at
    one vertex, and the local graphs are all connected exactly when no
    vertex carries two components."""
    train_track = a.tt.is_train_track
    spectral = a.spectral
    graph = a.map.source
    components = connected_components(graph.directions(), a.tt.closure)
    at = [graph.initial_vertex(next(iter(c))) for c in components]
    return FicReport(
        train_track=train_track,
        pnp_clean=train_track and a.expanding and a.pnp.clean,
        irreducible=spectral.irreducible,
        primitive=spectral.primitive,
        whitehead_connected=train_track and len(set(at)) == len(at),
        invariant_edges=None if spectral.irreducible else invariant_edge_set(a.matrix),
    )
