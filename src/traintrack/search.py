"""Exhaustive verification drivers.

Two independent computations back the headline facts: the single-fold search
enumerates every map of the form (proper full fold at the valence-4 vertex,
then graph isomorphism) over the rank-r universe of (4,3,...,3)-graphs and
classifies them through the full pipeline; the minimal-stretch-factor driver
re-verifies the arithmetic steps that pin the smallest stretch factor down to
the largest root of x^5 - x - 1.  Both classify single-fold candidates
sigma . fold(e1, e0) with one engine, ``_search_one_graph``: given a graph
and a list of ordered fold pairs that the graph's automorphism group Aut(G)
maps onto itself, it classifies the isomorphisms back at one pair per
Aut(G)-orbit of pairs.  A single fold takes one turn, so the train track
verdict follows that turn under sigma's direction table, and only an
irreducible train track candidate is built as a map and analysed.

An irreducible candidate is expanding.  The fold has matrix I + E, E a
single off-diagonal 1, so the candidate has P + PE, P the permutation matrix
of sigma: every row sums to 1 but the folded edge's, which sums to 2.  An
irreducible matrix is one strongly connected component, which carries a
cycle and holds that row, so every edge's image length grows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .catalog import single_fold_map
from .certify import MapAnalysis
from .digraph import connected_components
from .folds import FoldMove, apply_fold
from .graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    compose,
    compose_signed,
    direction_table,
    invert_signed,
    isomorphism_vertex_map,
    make_turn,
    relabel_after,
    relabeling,
)
from .spectral import (
    IntPolynomial,
    char_poly,
    largest_real_root_interval,
    minimal_perron_table,
    trace_obstruction,
    transition_matrix,
)
from .whitehead import is_principal


# -- the graph universe --------------------------------------------------------


def _enumerate_degree_graphs(degrees: tuple[int, ...]):
    """Loopy multigraphs on len(degrees) vertices with the exact degree
    sequence, as sorted edge tuples ((u, v) with u <= v; loops count twice),
    with the symmetry among vertices 1..m-1 of equal degree broken.

    The slots (u, v), u <= v, are filled in order, so all slots of vertex
    u - 1 are filled by slot (u, u): a branch ends there if u - 1 has degree left.

    Pruning rule, per column pair: for consecutive vertices v - 1, v
    (v - 1 >= 1) of equal degree, while rows 0..u-1 agree on columns v - 1
    and v, the count at slot (u, v), u < v - 1, is at most the count at
    (u, v - 1).  That slot is the one just before (u, v), so its count is
    already chosen; one "still tied" flag per column pair records whether
    the rows above agree, and clears in the branches that choose a strictly
    smaller count.  Pruned subtrees are never entered.

    Completeness: swapping v - 1 and v exchanges the slots (u, v - 1) and
    (u, v), u < v - 1, and these come before every other slot it moves.  So
    the member of each orbit under the degree-preserving permutations of
    vertices 1..m-1 whose counts, read in slot order, are lexicographically
    largest obeys every column rule.  Every isomorphism class, and every
    class up to permutations fixing vertex 0, keeps at least one labelled
    member, and the list is an ordered subsequence of the unpruned one.
    """
    m = len(degrees)
    slots = [(u, v) for u in range(m) for v in range(u, m)]
    out: list[tuple[tuple[int, int], ...]] = []
    tied = [v >= 2 and degrees[v] == degrees[v - 1] for v in range(m)]
    counts = [0] * len(slots)

    def rec(idx: int, residual: tuple[int, ...], chosen: tuple[tuple[int, int], ...]):
        if idx == len(slots):
            if not any(residual):
                out.append(chosen)
            return
        u, v = slots[idx]
        if u == v and u and residual[u - 1]:
            return
        cap = residual[u] // 2 if u == v else min(residual[u], residual[v])
        capped = u < v - 1 and tied[v]
        if capped:
            cap = min(cap, counts[idx - 1])
        res = list(residual)
        for count in range(cap + 1):
            counts[idx] = count
            if capped:
                tied[v] = count == counts[idx - 1]
            rec(idx + 1, tuple(res), chosen + ((u, v),) * count)
            res[u] -= 1  # a loop (u == v) takes two from the same vertex
            res[v] -= 1
        if capped:
            tied[v] = True

    rec(0, tuple(degrees), ())
    return out


def _multiplicities(m: int, ends) -> list[list[int]]:
    """Symmetric matrix of edge counts between the pairs of m vertices
    (loops on the diagonal, counted once)."""
    mult = [[0] * m for _ in range(m)]
    for u, w in ends:
        mult[u][w] += 1
        if u != w:
            mult[w][u] += 1
    return mult


def _refine_colors(m: int, edges) -> list[int]:
    """Iterated neighborhood refinement of the vertex coloring by valence
    (a vertex's row sum plus its loop entry), larger valences first, as
    ranks 0, 1, ... of the stable partition's cells.

    Each round ranks the vertices' (color, sorted neighbour colors)
    signatures, which lead with the color, so no two cells merge.  The
    first round in which no cell splits ends the refinement: its ranks
    follow the order of the previous colors, so every later round would
    give the same ranks again."""
    mult = _multiplicities(m, edges)
    neighbours = [[(w, n) for w, n in enumerate(row) if n] for row in mult]
    colors = [-(sum(row) + row[v]) for v, row in enumerate(mult)]
    cells = len(set(colors))
    while True:
        signatures = [
            (colors[v], tuple(sorted((colors[w], n) for w, n in around)))
            for v, around in enumerate(neighbours)
        ]
        order = sorted(set(signatures))
        colors = [order.index(s) for s in signatures]
        if len(order) == cells:
            return colors
        cells = len(order)


def _canonical_multigraph(m: int, edges):
    """Minimal edge encoding over the vertex orders that list the color
    refinement cells (seeded by valence, largest first) one after another:
    a product of permutations over same-color cells."""
    colors = _refine_colors(m, edges)
    cells: dict[int, list[int]] = {}
    for v in range(m):
        cells.setdefault(colors[v], []).append(v)
    cell_list = [cells[c] for c in sorted(cells)]
    best = None
    position = [0] * m
    for perms in itertools.product(*(itertools.permutations(cell) for cell in cell_list)):
        for pos, src in enumerate(itertools.chain.from_iterable(perms)):
            position[src] = pos
        encoded = sorted([
            (position[u], position[v]) if position[u] <= position[v] else (position[v], position[u])
            for u, v in edges
        ])
        if best is None or encoded < best:
            best = encoded
    return tuple(best)


@dataclass(frozen=True)
class SearchUniverse:
    graphs: tuple[OrientedGraph, ...]

    @cached_property
    def _positions(self) -> dict[tuple[tuple[int, int], ...], int]:
        return {graph.ends: i for i, graph in enumerate(self.graphs)}

    def locate(self, graph: OrientedGraph) -> int | None:
        """The position of the universe graph isomorphic to ``graph``, or
        None when there is none.  A universe graph's edge list is its own
        canonical encoding, so one canonical form of ``graph`` finds it."""
        return self._positions.get(_canonical_multigraph(graph.n_vertices, graph.ends))


def _letters(n: int) -> tuple[str, ...]:
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


def _graph_from_edges(m: int, edges) -> OrientedGraph:
    return OrientedGraph(
        vertex_names=tuple(f"v{i}" for i in range(m)),
        edge_names=_letters(len(edges)),
        ends=tuple(edges),
    )


def _universe(degrees: tuple[int, ...]) -> tuple[OrientedGraph, ...]:
    """Connected graphs with the degree sequence, one per isomorphism class,
    in the order of their canonical encodings."""
    m = len(degrees)
    seen = {
        _canonical_multigraph(m, edges)
        for edges in _enumerate_degree_graphs(degrees)
        if len(connected_components(range(m), edges)) == 1
    }
    return tuple(_graph_from_edges(m, canon) for canon in sorted(seen))


def build_universe(rank: int) -> SearchUniverse:
    """Isomorph-free list of connected graphs with one valence-4 vertex,
    valence 3 elsewhere: 2r-3 vertices and 3r-4 edges."""
    if not 3 <= rank <= 5:
        raise GraphStructureError("universe is built for ranks 3 to 5")
    return SearchUniverse(_universe((4,) + (3,) * (2 * rank - 4)))


def trivalent_universe() -> tuple[OrientedGraph, ...]:
    """Connected trivalent graphs with 4 vertices and 6 edges, up to iso."""
    return _universe((3, 3, 3, 3))


# -- graph isomorphisms ---------------------------------------------------------


def graph_isomorphisms(source: OrientedGraph, target: OrientedGraph) -> list[tuple[int, ...]]:
    """All label-level isomorphisms: vertex bijection plus signed edge
    bijection (parallel edges permute, loops may flip), by one backtracking,
    each returned as its signed edge images.  ``relabeling(source, target,
    signed)`` builds and validates the map of one.

    Vertices first: vertex v is placed after 0..v-1, only on an unused target
    vertex of the same valence whose loops and edges to every placed vertex
    match those at v.  A partial assignment that fails a pair has no
    completion matching it, so nothing is lost by pruning there, and a
    complete one matches the number of edges on every vertex pair.

    Then edges, in order of (sorted image pair, index): each goes to an unused
    target direction from the image of its initial vertex to that of its
    terminal one, so it keeps or reverses its orientation (a loop may do
    either).  Every isomorphism over the vertex bijection sends each edge into
    its image pair, so this loses none; the pairs carry equally many edges on
    both sides, so no branch dies, and each complete assignment is a distinct
    relabeling.
    """
    m, n = source.n_vertices, source.n_edges
    if target.n_vertices != m or target.n_edges != n:
        return []
    sv = [source.valence(v) for v in range(m)]
    tv = [target.valence(w) for w in range(m)]
    smult = _multiplicities(m, source.ends)
    tmult = _multiplicities(m, target.ends)
    # target directions from p to q by edge index; both of a loop's lie at (p, p)
    between: list[list[list[int]]] = [[[] for _ in range(m)] for _ in range(m)]
    for j, (p, q) in enumerate(target.ends):
        between[p][q].append(j + 1)
        between[q][p].append(-(j + 1))
    image = [0] * m
    used = [False] * m
    signed = [0] * n
    taken = [False] * n
    out: list[tuple[int, ...]] = []

    def place_vertex(v: int) -> None:
        if v == m:
            order = sorted(range(n), key=lambda i: (sorted(image[u] for u in source.ends[i]), i))
            place_edge(order, 0)
            return
        row = smult[v]
        for w in range(m):
            if used[w] or tv[w] != sv[v]:
                continue
            trow = tmult[w]
            if trow[w] != row[v] or any(trow[image[u]] != row[u] for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            place_vertex(v + 1)
            used[w] = False

    def place_edge(order: list[int], k: int) -> None:
        if k == n:
            out.append(tuple(signed))
            return
        i = order[k]
        u, w = source.ends[i]
        for d in between[image[u]][image[w]]:
            j = abs(d) - 1
            if not taken[j]:
                taken[j] = True
                signed[i] = d
                place_edge(order, k + 1)
                taken[j] = False

    place_vertex(0)
    return out


# -- the single-fold search -------------------------------------------------------


@dataclass(frozen=True)
class CandidateReport:
    """A principal candidate: fold ``e1`` over ``e0`` on graph
    ``graph_index``, then the isomorphism ``sigma`` back; ``map`` is the
    composite.  It lies in the ``orbit``-th Aut(G)-orbit that the engine
    expanded on its graph, and the automorphism with signed images
    ``witness`` conjugates that orbit's analysed candidate into it."""

    graph_index: int
    e1: int
    e0: int
    sigma: GraphMap
    map: GraphMap
    orbit: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class SearchSummary:
    rank: int
    universe_size: int
    candidates: int
    tt_count: int
    irreducible_count: int
    fic_count: int
    principal_count: int
    survivors: tuple[CandidateReport, ...]
    class_count: int
    class_representatives: tuple[int, ...]  # indices into survivors


def _conjugate(alpha: tuple[int, ...], alpha_inv: tuple[int, ...], sigma: tuple[int, ...]):
    """The signed images of alpha . sigma . alpha^-1, which sends edge k to
    alpha(sigma(alpha^-1(k))), from the direction tables of alpha and sigma
    and the signed images of alpha^-1."""
    return tuple(alpha[sigma[d]] for d in alpha_inv)


def _candidate(move: FoldMove, sigma: tuple[int, ...]) -> GraphMap:
    """The candidate sigma . fold as one validated map, for a fold ``move``
    of the graph and the signed images ``sigma`` of an isomorphism from the
    fold's target back to the graph.  A proper full fold's images are
    tight, so ``relabel_after`` applies sigma without tightening."""
    return relabel_after(move.map, move.source, sigma)


def _is_one_cycle(sigma: tuple[int, ...]) -> bool:
    """Whether the edge permutation, signs forgotten, is a single cycle."""
    x, length = abs(sigma[0]), 1
    while x != 1:
        x, length = abs(sigma[x - 1]), length + 1
    return length == len(sigma)


def _single_fold_train_track(table: tuple[int, ...], e1: int, e0: int) -> bool:
    """Whether the candidate sigma . fold(e1, e0) is a train track map, from
    the direction table ``table`` of sigma (``direction_table``) alone.

    A proper full fold sends edge |e1| to a path of two edges, e0 then e1
    read along e1, and every other edge to itself; so its direction map
    fixes every direction but e1, which it sends to e0.  The candidate's Dg
    is therefore sigma's table composed with "e1 -> e0".  Its edge images
    are tight: sigma sends distinct directions to distinct ones, and e0, e1
    lie on distinct edges.  The only turn taken inside an edge image is
    {sigma(e1), sigma(-e0)}, inside the image of |e1|, and it is not
    degenerate since |e1| != |e0|.  So the taken-turn closure is the forward
    Dg-orbit of that one turn, up to the first degenerate image, and by the
    criterion that ``certify.is_train_track`` proves the candidate is a
    train track map exactly when Dg collapses no turn on that orbit.  The
    orbit of one turn under a map of the finite set of turns runs into a
    cycle, so the walk ends at a collapse or at the first repeated turn.
    """
    dg = list(table)
    dg[e1] = table[e0]
    turn = make_turn(table[e1], table[-e0])
    seen = set()
    while turn not in seen:
        seen.add(turn)
        d1, d2 = dg[turn[0]], dg[turn[1]]
        if d1 == d2:
            return False
        turn = make_turn(d1, d2)
    return True


def _fold_pairs(graph: OrientedGraph, vertices) -> list[tuple[int, int]]:
    """The proper full folds (e1, e0) at each of ``vertices``: ordered pairs
    of directions on distinct edges, taken by edge, positive first.  The
    list is Aut(G)-invariant when the vertex set is."""
    pairs = []
    for v in vertices:
        dirs = sorted(graph.directions_at(v), key=lambda d: (abs(d), d < 0))
        pairs += [(e1, e0) for e1, e0 in itertools.permutations(dirs, 2) if abs(e1) != abs(e0)]
    return pairs


def _search_one_graph(
    gi: int, graph: OrientedGraph, pairs: list[tuple[int, int]]
) -> tuple[tuple[int, int, int, int], list[CandidateReport]]:
    """Counts of candidates, train track, irreducible and fully irreducible
    candidates on graph number ``gi``, and its principal candidates.  The
    candidates are sigma . fold(e1, e0) for each fold pair (e1, e0) of
    ``pairs`` and each isomorphism sigma from the fold's target back to
    ``graph``.

    Precondition: Aut(G) maps the pair list onto itself, since a pair's
    whole orbit is counted at its first member; a list that is not closed
    raises ``GraphStructureError``.

    The pair orbits of Aut(G) are taken first.  At the first pair of each,
    every isomorphism back is classified, weighted by the pair orbit's size:
    by the rule of ``folds.pull_back``, alpha h alpha^-1 is the candidate
    (alpha e1, alpha e0, alpha sigma alpha^-1), so alpha carries the
    candidates at (e1, e0) one to one onto those at its image pair, and
    conjugation by a graph isomorphism keeps the train track property, the
    transition matrix up to a permutation, and every conjunct of the full
    irreducibility criterion and of principality.

    Each sigma is checked by ``isomorphism_vertex_map``, the precondition of
    ``relabel_after``.  The train track verdict is read off sigma's
    direction table (``_single_fold_train_track``) and irreducibility off
    its cycle type (``_is_one_cycle``, by the lemma in
    ``single_fold_search``).  Only a candidate passing both is built as a
    map, by ``_candidate``, and classified by ``is_principal``; its analysis
    must confirm the train track verdict.  An irreducible candidate is
    expanding (module docstring), so the irreducible count is that of the
    expanding irreducible train track candidates.

    A principal candidate is expanded to its Aut(G)-orbit, each new member
    rebuilt from its fold and a validated relabeling, and reported with the
    orbit's number and the first automorphism, in ``graph_isomorphisms``
    order, that carries the analysed candidate to it; the orbit must hold
    the pair orbit's size times its members at (e1, e0).  The weighted count
    of principal candidates must equal the number of survivors, which holds
    exactly when principality is constant on the orbits.  A failed check
    raises ``GraphStructureError``."""
    aut = graph_isomorphisms(graph, graph)
    tables = [direction_table(alpha) for alpha in aut]
    inverses: list[tuple[int, ...]] = []
    counts = [0, 0, 0, 0]
    principal = orbits = 0
    survivors: list[CandidateReport] = []
    expanded: set[tuple[int, int, tuple[int, ...]]] = set()
    done_pairs: set[tuple[int, int]] = set()
    for e1, e0 in pairs:
        if (e1, e0) in done_pairs:
            continue
        images = [(table[e1], table[e0]) for table in tables]
        done_pairs.update(images)
        weight = len(set(images))
        move = apply_fold(graph, e1, e0, "proper_full")
        for s in graph_isomorphisms(move.target, graph):
            isomorphism_vertex_map(move.target, graph, s)
            counts[0] += weight
            table_s = direction_table(s)
            if not _single_fold_train_track(table_s, e1, e0):
                continue
            counts[1] += weight
            if not _is_one_cycle(s):
                continue
            counts[2] += weight
            a = MapAnalysis(_candidate(move, s))
            if not a.tt.is_train_track:
                raise GraphStructureError(
                    f"graph {gi}: fold ({e1}, {e0}) then {s} is not a train track map"
                )
            report = is_principal(a)
            if report.fic.passed:
                counts[3] += weight
            if not report.is_principal:
                continue
            principal += weight
            if (e1, e0, s) in expanded:
                continue
            if not inverses:
                inverses = [invert_signed(alpha) for alpha in aut]
            witnesses: dict[tuple[int, int, tuple[int, ...]], tuple[int, ...]] = {}
            for (f1, f0), table, alpha_inv, alpha in zip(images, tables, inverses, aut):
                witnesses.setdefault((f1, f0, _conjugate(table, alpha_inv, table_s)), alpha)
            at_pair = sum((f1, f0) == (e1, e0) for f1, f0, _ in witnesses)
            if len(witnesses) != weight * at_pair:
                raise GraphStructureError(
                    f"graph {gi}: orbit of {len(witnesses)} candidates, "
                    f"{weight} pairs x {at_pair} isomorphisms"
                )
            orbits += 1
            for (f1, f0, t), alpha in witnesses.items():
                member_move = apply_fold(graph, f1, f0, "proper_full")
                rel = relabeling(member_move.target, graph, t)
                survivors.append(
                    CandidateReport(gi, f1, f0, rel, _candidate(member_move, t), orbits, alpha)
                )
            expanded.update(witnesses)
    if len(done_pairs) != len(set(pairs)):
        raise GraphStructureError(f"graph {gi}: the fold pairs are not closed under Aut(G)")
    if principal != len(expanded):
        raise GraphStructureError(
            f"graph {gi}: {principal} principal candidates by weight, "
            f"{len(expanded)} in their orbits"
        )
    return tuple(counts), survivors


def single_fold_search(rank: int) -> SearchSummary:
    """Classify every (graph, ordered fold pair at the valence-4 vertex,
    graph isomorphism back) candidate and group the principal survivors by
    relabeling conjugacy.

    Automorphisms fix the only valence-4 vertex, so its fold pairs meet the
    precondition of ``_search_one_graph``: 68 isomorphisms back classified
    and 2 maps analysed for 260 candidates at rank 3, 532 and none for
    1,424 at rank 4.

    A candidate is irreducible exactly when its isomorphism permutes the
    edges, signs forgotten, in one n-cycle: the digraph of its matrix
    P + PE is P's cycles plus one arc, which is strongly connected exactly
    when P's cycles are one.

    The relabeling classes are the engine's Aut(G)-orbits of survivors.
    (1) The universe graphs are pairwise non-isomorphic, so a relabeling
    conjugating one survivor into another is an automorphism of their one
    graph.  (2) A candidate determines its (e1, e0, sigma): |e1| is the only
    edge whose image has two edges, sigma is read off the single-direction
    images, and reading the two-edge image the other way round would give
    sigma(|e1|) = sigma(e0) up to sign, so sigma would not be injective.
    (3) alpha h alpha^-1 is the candidate (alpha e1, alpha e0,
    alpha sigma alpha^-1), by the rule of ``folds.pull_back``.  So two
    survivors are conjugate exactly when they lie in one orbit.  The first
    survivor of each orbit, in sorted order, represents its class, and
    ``_relabeling_classes`` checks every other survivor of the orbit as a
    conjugate of it through their witness automorphisms.

    Results are independent of the order in which the graphs are searched.
    """
    universe = build_universe(rank)
    chunks = [
        _search_one_graph(
            gi, graph, _fold_pairs(graph, [max(range(graph.n_vertices), key=graph.valence)])
        )
        for gi, graph in enumerate(universe.graphs)
    ]
    candidates, tt, irreducible, fic = map(sum, zip(*(counts for counts, _ in chunks)))
    survivors = sorted(
        (r for _, chunk in chunks for r in chunk),
        key=lambda r: (r.graph_index, r.e1, r.e0, r.sigma.edge_images),
    )
    classes = _relabeling_classes(survivors)
    return SearchSummary(
        rank=rank,
        universe_size=len(universe.graphs),
        candidates=candidates,
        tt_count=tt,
        irreducible_count=irreducible,
        fic_count=fic,
        principal_count=len(survivors),
        survivors=tuple(survivors),
        class_count=len(classes),
        class_representatives=tuple(classes),
    )


def _relabeling_classes(survivors: list[CandidateReport]) -> list[int]:
    """The indices of the first survivor of each (graph, orbit), which
    represent the relabeling classes by the lemma in ``single_fold_search``.
    Each other survivor h is checked against its orbit's first, r: with
    alpha_h and alpha_r their witnesses, beta = alpha_h alpha_r^-1 must
    satisfy beta r = h beta, else ``GraphStructureError`` is raised."""
    classes: list[int] = []
    first: dict[tuple[int, int], CandidateReport] = {}
    for i, h in enumerate(survivors):
        r = first.setdefault((h.graph_index, h.orbit), h)
        if r is h:
            classes.append(i)
            continue
        graph = h.map.source
        beta = relabeling(graph, graph, compose_signed(h.witness, invert_signed(r.witness)))
        if compose(beta, r.map) != compose(h.map, beta):
            raise GraphStructureError(
                f"graph {h.graph_index}: the witnesses of orbit {h.orbit} do not conjugate "
                "its survivors"
            )
    return classes


# -- the minimal stretch factor driver ---------------------------------------------


@dataclass(frozen=True)
class ArgumentStep:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class MinimalStretchReport:
    steps: tuple[ArgumentStep, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)


def verify_minimal_stretch_argument() -> MinimalStretchReport:
    """Re-verify the machine-checkable steps showing the reference map's
    stretch factor is the smallest one possible:

    1. its characteristic polynomial is exactly x^5 - x - 1;
    2. its dominant root lies strictly below the smallest Perron numbers of
       degrees 2, 3, and 4;
    3. the trace obstruction rules out the one smaller degree-5 candidate;
    4. on every 6-edge trivalent rank-3 graph, a proper full fold keeps 6
       edges and creates a valence-4 vertex, while a complete fold drops to
       5 edges and creates a valence-5 vertex (so 6-edge graphs never carry
       a minimal example);
    5. the folds over a loop, which keep the graph, carry no expanding
       irreducible train track map, by ``_search_one_graph`` on their pairs.
    """
    steps = []
    g = single_fold_map()
    p = char_poly(transition_matrix(g))
    target = IntPolynomial((-1, -1, 0, 0, 0, 1))
    steps.append(
        ArgumentStep(
            "characteristic polynomial",
            p == target,
            f"char poly = {p.pretty()}",
        )
    )

    # Step 1 ties the map to the target, which is irreducible of degree 5, so
    # its root is no root of a table polynomial and the brackets separate.
    lo, hi = largest_real_root_interval(target, Fraction(1, 10**9))
    table = {entry.degree: entry for entry in minimal_perron_table() if entry.rank_within_degree == 1}
    comparisons = []
    ok = True
    for degree in (4, 3, 2):
        entry = table[degree]
        width = Fraction(1, 10**9)
        while True:
            root = largest_real_root_interval(target, width)
            bound = largest_real_root_interval(entry.polynomial, width)
            if root[1] < bound[0] or bound[1] < root[0]:
                break
            width /= 2**10
        good = root[1] < bound[0]
        ok = ok and good
        comparisons.append(f"root < {entry.approximate_root:.3f} (degree {degree}): {good}")
    steps.append(
        ArgumentStep(
            "dominant root below smaller-degree minima",
            ok,
            f"root in [{float(lo):.10f}, {float(hi):.10f}]; " + "; ".join(comparisons),
        )
    )

    rival = IntPolynomial((-1, -1, -1, 0, 1, 1))
    steps.append(
        ArgumentStep(
            "trace obstruction",
            trace_obstruction(rival, 5) and not trace_obstruction(p, 5),
            "x^5 + x^4 - x^2 - x - 1 needs trace -1; x^5 - x - 1 has trace 0",
        )
    )

    graphs = trivalent_universe()
    proper_ok = complete_ok = True
    proper_count = complete_count = 0
    loop_proper = loop_complete = 0
    loop_fold_chunks = []
    for gi, graph in enumerate(graphs):
        loop_pairs = []
        for e1, e0 in _fold_pairs(graph, range(graph.n_vertices)):
            e0_loop = graph.terminal_vertex(e0) == graph.initial_vertex(e0)
            folded = apply_fold(graph, e1, e0, "proper_full").target
            proper_count += 1
            top = max(folded.valence_profile())
            # folding over a loop keeps the graph trivalent
            proper_ok &= folded.n_edges == 6 and (top == 3 if e0_loop else top >= 4)
            if e0_loop:
                loop_proper += 1
                loop_pairs.append((e1, e0))
            if graph.terminal_vertex(e1) != graph.terminal_vertex(e0):
                loopy = e0_loop or graph.terminal_vertex(e1) == graph.initial_vertex(e1)
                folded = apply_fold(graph, e1, e0, "complete").target
                complete_count += 1
                loop_complete += loopy
                top = max(folded.valence_profile())
                complete_ok &= folded.n_edges <= 5 and top >= (4 if loopy else 5)
        # automorphisms send loops to loops, so the loop pairs are Aut(G)-invariant
        loop_fold_chunks.append(_search_one_graph(gi, graph, loop_pairs))
    steps.append(
        ArgumentStep(
            "fold bookkeeping on trivalent graphs",
            proper_ok and complete_ok,
            f"{len(graphs)} trivalent graphs; {proper_count} proper full folds keep 6 edges, "
            f"reaching valence 4 except over a loop ({loop_proper} cases, graph unchanged); "
            f"{complete_count} complete folds drop to 5 edges, reaching valence 5 except "
            f"with a loop ({loop_complete} cases, valence 4)",
        )
    )

    # Folding over a loop evades the valence count, so check exhaustively
    # that no single (fold over a loop, isomorphism back) composition is an
    # expanding irreducible train track map on these graphs.  An irreducible
    # candidate is expanding (module docstring): the engine counts them.
    loop_fold_maps, _, loop_fold_bad, _ = map(sum, zip(*(c for c, _ in loop_fold_chunks)))
    steps.append(
        ArgumentStep(
            "loop folds carry no expanding irreducible map",
            loop_fold_bad == 0,
            f"{loop_fold_maps} (loop fold, isomorphism) compositions, "
            f"{loop_fold_bad} expanding irreducible train track maps among them",
        )
    )
    return MinimalStretchReport(tuple(steps))
