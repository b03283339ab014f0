"""Reference constructions that tests compare the package against.

No command needs them: small named maps on roses, the identity map, the
turns of a graph, integer matrix arithmetic, the sympy spectral engine that
the package's integer root engine replaced, bisection in ``Fraction``
arithmetic, the signed permutations of n labels, relabeling actions on
graphs and maps, the general push of relabelings past folds with the powers
and loop rotations built on fold conjugation, automaton loops composed step
by step, relabeling conjugacy by trying every isomorphism, the single-fold
search classifying every candidate one by one, the rank-3 single-fold
candidates over every valence profile, the train track criterion as closure
and illegal turns, Whitehead graphs built one vertex at a time with
``networkx``, the benchmark's pool of map documents, a call counter, and the
map-document printer.  Parsing then printing a canonical document is the
identity.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import networkx as nx
import sympy
from sympy.polys.matrices import DomainMatrix

from traintrack.automaton import DirectedLoop, graph_from_groups, transport
from traintrack.certify import MapAnalysis, taken_turn_closure
from traintrack.folds import FoldMove, FoldSequence, apply_fold, pull_back
from traintrack.graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    apply_signed,
    compose,
    compose_signed,
    direction_map,
    invert_signed,
    is_tight,
    make_turn,
    relabeling,
    signed_images,
)
from traintrack.mapdoc import parse_map_document
from traintrack.search import _fold_pairs, _universe, graph_isomorphisms
from traintrack.spectral import (
    IntegerMatrix,
    IntPolynomial,
    _symmetric_square,
    is_irreducible,
)
from traintrack.whitehead import is_principal

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


def identity_map(graph: OrientedGraph) -> GraphMap:
    return GraphMap(
        source=graph,
        target=graph,
        vertex_map=tuple(range(graph.n_vertices)),
        edge_images=tuple((i + 1,) for i in range(graph.n_edges)),
    )


def all_turns(graph: OrientedGraph) -> list[tuple[int, int]]:
    """Every nondegenerate turn: each pair of directions at one vertex."""
    return [
        make_turn(a, b)
        for v in range(graph.n_vertices)
        for a, b in itertools.combinations(graph.directions_at(v), 2)
    ]


# -- the train track criterion -------------------------------------------------


def iterated_illegal_turns(g: GraphMap) -> frozenset[tuple[int, int]]:
    """Turns whose two directions meet within (2n)**2 steps of Dg."""
    dg = direction_map(g)
    bound = (2 * g.source.n_edges) ** 2
    out = set()
    for turn in all_turns(g.source):
        d1, d2 = turn
        for _ in range(bound):
            d1, d2 = dg[d1], dg[d2]
            if d1 == d2:
                out.add(turn)
                break
    return frozenset(out)


def train_track_by_illegal_turns(g: GraphMap):
    """(verdict, witness, illegal turns) by the criterion the closure walk
    replaced: an untight edge image fails with its edge as witness;
    otherwise the map is a train track map when the taken-turn closure meets
    no illegal turn, and the least turn they share is the witness.  The
    illegal turns are found by iterating Dg, and are returned for every
    map."""
    illegal = iterated_illegal_turns(g)
    for name, image in zip(g.source.edge_names, g.edge_images):
        if not is_tight(image):
            return False, name, illegal
    bad = sorted(taken_turn_closure(MapAnalysis(g)) & illegal)
    return not bad, bad[0] if bad else None, illegal


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


# -- the sympy spectral engine the package replaced ----------------------------


def sympy_poly(p: IntPolynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coefficients)), sympy.Symbol("x"))


def sympy_char_poly(matrix: IntegerMatrix) -> IntPolynomial:
    """det(xI - M) by sympy's division-free algorithm over ZZ."""
    n = matrix.dimension
    coefficients = DomainMatrix([list(row) for row in matrix.rows], (n, n), sympy.ZZ).charpoly()
    return IntPolynomial(tuple(int(c) for c in reversed(coefficients)))


def fraction_bisect(q: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Bisection as ``spectral._bisect`` does it, from any rational ends:
    halved in ``Fraction`` arithmetic, each midpoint's sign from
    ``IntPolynomial.sign``.  sympy's isolating intervals need not be
    dyadic."""
    sign_hi = q.sign(hi) > 0
    lo_is_root = q.sign(lo) == 0
    while lo_is_root or hi - lo > width:
        mid = (lo + hi) / 2
        sign = q.sign(mid)
        if sign == 0:
            return mid, mid
        if (sign > 0) == sign_hi:
            hi = mid
        else:
            lo, lo_is_root = mid, False
    return lo, hi


def sympy_root_bracket(p: IntPolynomial):
    """The square-free part q of ``p``, sympy's isolating interval of its
    largest real root, and that interval bisected to at most 1e-12 wide.
    The interval is open, or a point at a rational root; its ends need not
    be dyadic."""
    f = sympy_poly(p).sqf_part()
    intervals = f.intervals()
    if not intervals:
        raise GraphStructureError("polynomial has no real root")
    (lo, hi), _ = intervals[-1]
    q = IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs())))
    isolating = (Fraction(lo), Fraction(hi))
    return q, isolating, fraction_bisect(q, *isolating, Fraction(1, 10**12))


def sympy_is_perron_number(p: IntPolynomial) -> bool:
    """The Perron test on sympy's square-free factors of the symmetric
    square and its isolating intervals of their real roots, refined until
    one interval meets λ's bracket squared."""
    q, _, (lo, hi) = sympy_root_bracket(p)
    if not q.is_monic():
        raise GraphStructureError("a Perron number is an algebraic integer; p must be monic")
    while lo <= 0 < hi:
        lo, hi = fraction_bisect(q, lo, hi, (hi - lo) / 2)
    if hi <= 0:
        raise GraphStructureError("no positive real root; not a Perron candidate")
    roots = [
        [factor, multiplicity, Fraction(a), Fraction(b)]
        for factor, multiplicity in sympy_poly(_symmetric_square(q)).sqf_list()[1]
        for (a, b), _ in factor.intervals()
    ]
    while True:
        low, high = lo * lo, hi * hi
        meeting = []
        for root in roots:
            if root[2] > high:
                return False
            if root[3] >= low:
                meeting.append(root)
        assert meeting, "the symmetric square vanishes at λ²"
        if len(meeting) == 1:
            return meeting[0][1] == 1
        lo, hi = fraction_bisect(q, lo, hi, (hi - lo) / 2)
        for root in meeting:
            factor, _, a, b = root
            if a < b:
                root[2:] = map(Fraction, factor.refine_root(a, b, steps=1))


# -- relabeling actions --------------------------------------------------------


def signed_permutations(n: int):
    """All signed permutations of n labels (2**n n! of them): by permutation,
    then positive before negative at each label."""
    for perm in itertools.permutations(range(1, n + 1)):
        yield from itertools.product(*((p, -p) for p in perm))


def relabeled_graph(graph: OrientedGraph, sigma: tuple[int, ...]) -> OrientedGraph:
    """The graph with each edge label e replaced by sigma(e).

    ``sigma[i]`` is the signed new index of old edge ``i``: the edge that was
    labeled i now carries label abs(sigma[i]) - 1, reversed when negative.
    """
    ends = tuple(
        (graph.initial_vertex(d), graph.terminal_vertex(d)) for d in invert_signed(sigma)
    )
    return OrientedGraph(graph.vertex_names, graph.edge_names, ends)


def relabeling_map(graph: OrientedGraph, sigma: tuple[int, ...]) -> GraphMap:
    """The isomorphism from a graph to its sigma-relabeled version."""
    return relabeling(graph, relabeled_graph(graph, sigma), tuple(sigma))


def inverse(rel: GraphMap) -> GraphMap:
    return relabeling(rel.target, rel.source, invert_signed(signed_images(rel)))


def relabel_map(g: GraphMap, sigma: tuple[int, ...]) -> GraphMap:
    """Conjugate a self-map by the relabeling: sigma . g . sigma^{-1}."""
    assert g.is_self_map
    rel = relabeling_map(g.source, sigma)
    return compose(rel, compose(g, inverse(rel)))


# -- relabelings pushed past folds -----------------------------------------------


def swap_relabeling_fold(rel: GraphMap, move: FoldMove) -> tuple[FoldMove, GraphMap]:
    """Rewrite (relabel, then fold) as (fold, then relabel), for a fold of
    any kind.  The replacement fold acts on the relabeling's source, folding
    the pulled-back directions; the closing relabeling is read off letterwise
    from the two parallel images of every source direction, then verified by
    an exact composition check."""
    assert rel.target == move.source
    inv = invert_signed(signed_images(rel))
    e1, e0 = apply_signed(inv, move.e1), apply_signed(inv, move.e0)
    move2 = apply_fold(rel.source, e1, e0, move.kind)
    assignment: dict[int, int] = {}
    for a in rel.source.directions():
        lhs = move.map.image_of_path(rel.image_of_direction(a))
        rhs = move2.map.image_of_direction(a)
        assert len(lhs) == len(rhs)
        for x, y in zip(rhs, lhs):
            assert assignment.setdefault(x, y) == y and assignment.setdefault(-x, -y) == -y
    signed = tuple(assignment[i + 1] for i in range(move2.target.n_edges))
    rel2 = relabeling(move2.target, move.target, signed)
    assert compose(move.map, rel) == compose(rel2, move2.map)
    return move2, rel2


def push_permutations(steps: list[FoldMove | GraphMap]) -> FoldSequence:
    """Normalize an interleaved run of folds and relabelings (isomorphisms,
    as ``GraphMap``s) to folds followed by one final relabeling, preserving
    the composition exactly."""
    moves = []
    rel: GraphMap | None = None  # every relabeling so far, pushed past the folds
    for item in steps:
        if isinstance(item, GraphMap):
            rel = item if rel is None else compose(item, rel)
            continue
        if rel is not None:
            item, rel = swap_relabeling_fold(rel, item)
        moves.append(item)
    if rel is None:
        rel = identity_map(moves[-1].target)
    return FoldSequence(tuple(moves), rel)


def sequence_steps(seq: FoldSequence) -> list[FoldMove | GraphMap]:
    return list(seq.moves) + [seq.final]


def compose_power(seq: FoldSequence, power: int) -> FoldSequence:
    """Decomposition of the p-th power: the k-th copy of the folds is pulled
    back through the k-th power of the final relabeling."""
    assert power >= 1
    sigma = signed_images(seq.final)
    moves = list(seq.moves)
    graph, acc = seq.final.source, sigma
    for _ in range(power - 1):
        for move in seq.moves:
            moves.append(pull_back(move, acc, graph))
            graph = moves[-1].target
        acc = compose_signed(sigma, acc)
    return FoldSequence(tuple(moves), relabeling(graph, seq.final.target, acc))


def loop_map_by_composition(automaton, loop: DirectedLoop) -> GraphMap:
    """A loop's map with every step composed: each fold in turn, then the
    closing built as a relabeling map and composed last."""
    base = current = graph_from_groups(automaton.classes.key(loop.nodes[0])[0])
    composed = identity_map(base)
    for e1, e0 in loop.folds:
        move = apply_fold(current, e1, e0, "proper_full")
        composed = compose(move.map, composed)
        current = move.target
    return compose(relabeling(current, base, loop.closing), composed)


def rotate_loop(automaton, loop: DirectedLoop) -> DirectedLoop:
    """The loop based one fold later: the first fold is pulled through the
    closing relabeling and appended at the end."""
    if not loop.folds:
        return loop
    inv = invert_signed(loop.closing)
    e1, e0 = loop.folds[0]
    pulled = (apply_signed(inv, e1), apply_signed(inv, e0))
    target_key = transport(automaton.classes.key(loop.nodes[-1]), *pulled)
    target = None if target_key is None else automaton.classes.locate(target_key)
    if target is None:
        raise GraphStructureError("loop rotation left the node set")
    return DirectedLoop(loop.nodes[1:] + (target,), loop.folds[1:] + (pulled,), loop.closing)


# -- the single-fold search, one candidate at a time ---------------------------


@dataclass(frozen=True)
class CandidateVerdicts:
    graph_index: int
    e1: int
    e0: int
    sigma: GraphMap
    map: GraphMap
    train_track: bool
    irreducible: bool
    expanding: bool
    fic_passed: bool
    principal: bool


def search_tasks(graphs) -> list[tuple[int, OrientedGraph, list[tuple[int, int]]]]:
    """(graph index, graph, fold pairs at its valence-4 vertex) for each
    graph, as ``single_fold_search`` passes them to ``_search_one_graph``."""
    return [
        (gi, graph, _fold_pairs(graph, [max(range(graph.n_vertices), key=graph.valence)]))
        for gi, graph in enumerate(graphs)
    ]


def _conjugate_by_relabeling(h1: GraphMap, h2: GraphMap) -> bool:
    """Whether some graph isomorphism conjugates one self-map into the other,
    by trying every isomorphism between their graphs."""
    for s in graph_isomorphisms(h1.source, h2.source):
        sigma = relabeling(h1.source, h2.source, s)
        if compose(sigma, h1) == compose(h2, sigma):
            return True
    return False


def search_one_graph_per_candidate(args) -> list[CandidateVerdicts]:
    """Every candidate of ``_search_one_graph``'s arguments (graph index,
    graph, fold pairs), each composed and classified through the full
    pipeline."""
    gi, graph, pairs = args
    out = []
    for e1, e0 in pairs:
        move = apply_fold(graph, e1, e0, "proper_full")
        for s in graph_isomorphisms(move.target, graph):
            sigma = relabeling(move.target, graph, s)
            h = compose(sigma, move.map)
            a = MapAnalysis(h)
            tt = a.tt.is_train_track
            irr = tt and is_irreducible(a.matrix)
            fic_ok = False
            principal = False
            if irr:
                report = is_principal(a)
                fic_ok = report.fic.passed
                principal = report.is_principal
            out.append(
                CandidateVerdicts(gi, e1, e0, sigma, h, tt, irr, a.expanding, fic_ok, principal)
            )
    return out


def rank3_all_profile_tasks() -> list[tuple[int, OrientedGraph, list[tuple[int, int]]]]:
    """(graph index, graph, proper full folds at every vertex) for every
    rank-3 graph with all valences at least 3, profile by profile."""
    profiles = ((6,), (5, 3), (4, 4), (4, 3, 3), (3, 3, 3, 3))
    graphs = [g for profile in profiles for g in _universe(profile)]
    return [(gi, g, _fold_pairs(g, range(g.n_vertices))) for gi, g in enumerate(graphs)]


@functools.lru_cache(maxsize=None)
def rank3_all_profile_candidates() -> tuple[CandidateVerdicts, ...]:
    """Every candidate of ``rank3_all_profile_tasks``, each isomorphism back
    classified one by one (2,308 candidates)."""
    return tuple(r for t in rank3_all_profile_tasks() for r in search_one_graph_per_candidate(t))


# -- Whitehead graphs, one vertex at a time --------------------------------------


def local_whitehead_graph(a: MapAnalysis, vertex: int, periodic_only: bool = False) -> nx.Graph:
    """The local Whitehead graph at ``vertex``: the directions there, joined
    by the closure turns among them; with ``periodic_only``, the stable
    graph on the periodic directions there."""
    ds = set(a.map.source.directions_at(vertex))
    if periodic_only:
        ds &= a.periodic
    g = nx.Graph()
    g.add_nodes_from(ds)
    g.add_edges_from(t for t in a.tt.closure if t[0] in ds and t[1] in ds)
    return g


def whitehead_connected_by_vertex(a: MapAnalysis) -> bool:
    """The Whitehead conjunct of the full irreducibility criterion: a train
    track map whose local graph at each vertex is connected."""
    return a.tt.is_train_track and all(
        nx.is_connected(local_whitehead_graph(a, v)) for v in range(a.map.source.n_vertices)
    )


def ideal_components_by_vertex(a: MapAnalysis) -> list[tuple[frozenset, frozenset]]:
    """The ideal Whitehead graph's components as (directions, turns): the
    components of each vertex's stable graph with other than 2 directions,
    by vertex, then by least direction."""
    out = []
    for v in range(a.map.source.n_vertices):
        stable = local_whitehead_graph(a, v, periodic_only=True)
        for piece in sorted(nx.connected_components(stable), key=min):
            if len(piece) != 2:
                turns = frozenset(make_turn(*t) for t in stable.subgraph(piece).edges)
                out.append((frozenset(piece), turns))
    return out


# -- map documents -------------------------------------------------------------


def pool_documents() -> list[str]:
    """The 120 map documents of the benchmark's document pool, from
    ``perfbench/docgen.py`` loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "docgen.py"
    spec = importlib.util.spec_from_file_location("docgen", path)
    docgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docgen)
    return docgen.pool_documents()


def pool_maps() -> list[GraphMap]:
    """The 120 maps of the benchmark's document pool, parsed."""
    return [parse_map_document(text) for text in pool_documents()]


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


# -- call counts ---------------------------------------------------------------


def count_calls(monkeypatch, targets) -> Counter:
    """Count the calls of each (module, name) in ``targets``, by name,
    replacing the function wherever the package looks its name up."""
    calls: Counter = Counter()
    for module_name, name in targets:
        original = getattr(importlib.import_module(module_name), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] == "traintrack" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
