from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    identity_map,
    inverse,
    iterated_illegal_turns,
    relabeled_graph,
    relabeling_map,
    rose_graph,
)
from traintrack.certify import MapAnalysis, illegal_turns
from traintrack.folds import FOLD_KINDS, apply_fold
from traintrack.graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    check_path,
    compose,
    direction_map,
    gates,
    iterate_map,
    relabeling,
    tighten_dirs,
)
from traintrack.search import build_universe, graph_isomorphisms, trivalent_universe


def random_tight_path(graph, rng, max_len=8):
    d = rng.choice(graph.directions())
    dirs = [d]
    for _ in range(rng.randrange(max_len)):
        options = [x for x in graph.directions_at(graph.terminal_vertex(dirs[-1]))]
        dirs.append(rng.choice(options))
    return tuple(dirs)


def test_tighten_full_cancellation(gmap):
    graph = gmap.source
    a = graph.direction_of("a")
    check_path(graph, (a, -a))
    assert tighten_dirs((a, -a)) == ()


def test_tighten_already_tight(gmap):
    graph = gmap.source
    image_of_d = gmap.edge_images[graph.edge_index("d")]
    assert graph.path_name(image_of_d) == "~e ~c"
    check_path(graph, image_of_d)
    assert tighten_dirs(image_of_d) == image_of_d


def test_tighten_idempotent_and_endpoint_preserving(gmap):
    graph = gmap.source
    rng = random.Random(20240817)
    for _ in range(80):
        dirs = random_tight_path(graph, rng)
        check_path(graph, dirs)
        once = tighten_dirs(dirs)
        check_path(graph, once)
        assert tighten_dirs(once) == once
        if once:
            assert graph.initial_vertex(once[0]) == graph.initial_vertex(dirs[0])
            assert graph.terminal_vertex(once[-1]) == graph.terminal_vertex(dirs[-1])


def test_malformed_path_rejected(gmap):
    graph = gmap.source
    a = graph.direction_of("a")
    with pytest.raises(GraphStructureError):
        check_path(graph, (a, a))  # a's terminus is not a's origin
    # a map whose image leaves the graph's directions is rejected
    for outside in (0, graph.n_edges + 1, 2 * graph.n_edges, -graph.n_edges - 1):
        for image in ((outside,), (a, outside)):
            with pytest.raises(GraphStructureError, match="not a direction"):
                GraphMap(graph, graph, gmap.vertex_map, (image,) + gmap.edge_images[1:])


# -- incidence against its definition on ``ends`` -------------------------------


def _assert_incidence_matches_ends(graph):
    def initial(d):
        u, v = graph.ends[abs(d) - 1]
        return u if d > 0 else v

    directions = graph.directions()
    for d in directions:
        assert graph.initial_vertex(d) == initial(d)
        assert graph.terminal_vertex(d) == initial(-d)
    for w in range(graph.n_vertices):
        assert graph.directions_at(w) == tuple(d for d in directions if initial(d) == w)
        assert graph.valence(w) == sum((u == w) + (v == w) for u, v in graph.ends)


def test_incidence_matches_ends_on_universes_folds_and_relabelings():
    rng = random.Random(6)
    graphs = list(trivalent_universe())
    for rank in (3, 4, 5):
        graphs.extend(build_universe(rank).graphs)
    checked = 0
    for graph in graphs:
        _assert_incidence_matches_ends(graph)
        for _ in range(2):
            labels = rng.sample(range(1, graph.n_edges + 1), graph.n_edges)
            sigma = tuple(x * rng.choice((1, -1)) for x in labels)
            _assert_incidence_matches_ends(relabeled_graph(graph, sigma))
        for v in range(graph.n_vertices):
            for e1, e0 in itertools.permutations(graph.directions_at(v), 2):
                for kind in FOLD_KINDS:
                    try:
                        move = apply_fold(graph, e1, e0, kind)
                    except GraphStructureError:
                        continue
                    _assert_incidence_matches_ends(move.target)
                    checked += 1
    assert checked > len(graphs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incidence_matches_ends_on_random_multigraphs(data):
    m = data.draw(st.integers(1, 4))
    vertex = st.integers(0, m - 1)
    ends = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    graph = OrientedGraph(
        tuple(f"v{i}" for i in range(m)), tuple(f"e{i}" for i in range(len(ends))), tuple(ends)
    )
    _assert_incidence_matches_ends(graph)


def test_compose_identity(gmap):
    ident = identity_map(gmap.source)
    assert compose(ident, gmap) == gmap
    assert compose(gmap, ident) == gmap


def test_compose_fold_factors_reproduce_reference(gmap):
    from traintrack.folds import stallings_decompose

    seq = stallings_decompose(gmap)
    assert len(seq.moves) == 1
    rebuilt = compose(seq.final, seq.moves[0].map)
    assert rebuilt == gmap


def test_compose_inverse_relabeling_is_identity(gmap):
    sigma = (1, 2, 3, 5, 4)  # swap the parallel edges d and e
    rel = relabeling_map(gmap.source, sigma)
    assert compose(inverse(rel), rel) == identity_map(gmap.source)


# on the reference graph, a: v1->v2, b: v0->v2, c: v2->v0, d and e: v0->v1
_BAD_RELABELINGS = {
    "too short": (1, 2, 3, 4),
    "too long": (1, 2, 3, 4, 5, 1),
    "label 0": (0, 2, 3, 4, 5),
    "not a target edge": (1, 2, 3, 4, 6),
    "ends disagree at v0": (2, 1, 3, 4, 5),  # b's start sends v0 to v1, c's end to v0
    "d and e reversed": (1, 2, 3, -4, -5),
}


@pytest.mark.parametrize("signed", _BAD_RELABELINGS.values(), ids=_BAD_RELABELINGS.keys())
def test_relabeling_rejects_bad_images(gmap, signed):
    with pytest.raises(GraphStructureError):
        relabeling(gmap.source, gmap.source, signed)


def test_relabeling_rejects_non_isomorphisms(gmap):
    graph = gmap.source
    assert relabeling(graph, graph, (1, 2, 3, 5, 4)).is_isomorphism()
    # a repeated label whose ends agree everywhere: e goes onto d, as d does
    with pytest.raises(GraphStructureError, match="not a graph isomorphism"):
        relabeling(graph, graph, (1, 2, 3, 4, 4))
    # the same edges on one more vertex: every edge agrees, no vertex bijection
    bigger = OrientedGraph(graph.vertex_names + ("v3",), graph.edge_names, graph.ends)
    with pytest.raises(GraphStructureError, match="not a graph isomorphism"):
        relabeling(graph, bigger, (1, 2, 3, 4, 5))


def test_is_isomorphism_rejects_maps_that_are_not_relabelings(gmap):
    graph = gmap.source
    images = tuple((i,) for i in range(1, graph.n_edges + 1))
    assert identity_map(graph).is_isomorphism()
    # an image of two directions
    assert not gmap.is_isomorphism()
    # single directions, but e goes onto d, as d does: no edge bijection
    assert not GraphMap(graph, graph, (0, 1, 2), images[:4] + ((4,),)).is_isomorphism()
    # the same edges on one more vertex: no vertex bijection
    bigger = OrientedGraph(graph.vertex_names + ("v3",), graph.edge_names, graph.ends)
    assert not GraphMap(graph, bigger, (0, 1, 2), images).is_isomorphism()


def test_direction_map_matches_reference_cycle(gmap):
    graph = gmap.source
    dg = direction_map(gmap)
    expected_cycle = ["~c", "~e", "~a", "b", "~d", "c", "e", "a", "~b", "d", "~e"]
    for here, there in zip(expected_cycle, expected_cycle[1:]):
        assert dg[graph.direction_of(here)] == graph.direction_of(there)


def test_direction_map_of_identity(gmap):
    assert direction_map(identity_map(gmap.source)) == {
        d: d for d in gmap.source.directions()
    }


@pytest.mark.parametrize("power", [2, 3, 4])
def test_direction_map_of_power_is_iterated(gmap, power):
    dg = direction_map(gmap)
    iterated = {}
    for d in gmap.source.directions():
        x = d
        for _ in range(power):
            x = dg[x]
        iterated[d] = x
    assert iterated == direction_map(iterate_map(gmap, power))


def _gates(g):
    return gates(g.source, MapAnalysis(g).images)


def test_periodic_directions_reference(gmap):
    graph = gmap.source
    periodic = MapAnalysis(gmap).periodic
    assert len(periodic) == 9
    assert graph.direction_of("~c") not in periodic


def test_periodic_directions_identity(gmap):
    assert MapAnalysis(identity_map(gmap.source)).periodic == frozenset(
        gmap.source.directions()
    )


def test_periodic_directions_collapse_onto_cycle():
    # x -> y, y -> x, z -> x: the two-cycle {x, y} and its reverses persist
    graph = rose_graph(("x", "y", "z"))
    g = GraphMap(graph, graph, (0,), ((2,), (1,), (1,)))
    per = MapAnalysis(g).periodic
    assert per == frozenset({1, 2, -1, -2})


def test_gates_reference(gmap):
    graph = gmap.source
    gs = _gates(gmap)
    assert len(gs) == 9
    pair = frozenset({graph.direction_of("d"), graph.direction_of("~c")})
    assert pair in gs
    assert all(len(s) == 1 for s in gs if s != pair)
    # each gate contains exactly one periodic direction
    per = MapAnalysis(gmap).periodic
    assert all(len(s & per) == 1 for s in gs)


def test_gates_identity_all_singletons(gmap):
    assert all(len(s) == 1 for s in _gates(identity_map(gmap.source)))


def test_gates_refine_vertex_partition(gmap, psi):
    for g in (gmap, psi):
        for gate in _gates(g):
            assert len({g.source.initial_vertex(d) for d in gate}) == 1


def test_gates_rose_example(psi):
    graph = psi.source
    pair = {graph.direction_of("~z"), graph.direction_of("~x")}
    assert any(pair <= gate for gate in _gates(psi))


def test_graph_invariants_reference(gmap):
    graph = gmap.source
    assert graph.rank() == 3
    assert graph.valence_profile() == (3, 3, 4)
    assert graph.is_connected()


def test_graph_invariants_rose():
    graph = rose_graph(("x", "y", "z"))
    assert graph.rank() == 3
    assert graph.valence_profile() == (6,)


def test_graph_invariants_rank4_universe():
    from traintrack.search import build_universe

    for graph in build_universe(4).graphs:
        assert graph.n_vertices == 5
        assert graph.n_edges == 8
        assert graph.rank() == 4


# -- direction-map dynamics against the direct computations they replaced -----


def _walk_periodic_directions(g):
    """Directions that return to themselves along the direction map."""
    dg = direction_map(g)
    periodic = set()
    for d in g.source.directions():
        seen = {d}
        x = d
        while True:
            x = dg[x]
            if x == d:
                periodic.add(d)
                break
            if x in seen:
                break
            seen.add(x)
    return frozenset(periodic)


def _collapses_within(dg, d1, d2, bound):
    for _ in range(bound):
        if d1 == d2:
            return True
        d1, d2 = dg[d1], dg[d2]
    return d1 == d2


def _union_find_gates(g):
    """Union-find over the same-vertex pairs that some iterate of the
    direction map collapses, with iterates bounded by |directions|**2."""
    ds = g.source.directions()
    dg = direction_map(g)
    bound = len(ds) ** 2
    parent = {d: d for d in ds}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d1, d2 in itertools.combinations(ds, 2):
        if g.source.initial_vertex(d1) != g.source.initial_vertex(d2):
            continue
        if _collapses_within(dg, d1, d2, bound):
            parent[find(d1)] = find(d2)
    classes = {}
    for d in ds:
        classes.setdefault(find(d), set()).add(d)
    return tuple(sorted((frozenset(c) for c in classes.values()), key=sorted))


def _assert_dynamics_match(g):
    a = MapAnalysis(g)
    assert a.periodic == _walk_periodic_directions(g)
    # equal tuples: the same gates in the same order
    assert gates(g.source, a.images) == _union_find_gates(g)
    assert illegal_turns(a) == iterated_illegal_turns(g)


def _single_fold_candidates(rank):
    """Every (proper full fold at the valence-4 vertex, isomorphism back)
    map of the single-fold search at this rank."""
    for graph in build_universe(rank).graphs:
        v4 = max(range(graph.n_vertices), key=graph.valence)
        for e1, e0 in itertools.permutations(graph.directions_at(v4), 2):
            if abs(e1) == abs(e0):
                continue
            move = apply_fold(graph, e1, e0, "proper_full")
            for s in graph_isomorphisms(move.target, graph):
                yield compose(relabeling(move.target, graph, s), move.map)


def test_dynamics_match_direct_computation_on_single_fold_candidates():
    count = 0
    for rank in (3, 4):
        for h in _single_fold_candidates(rank):
            _assert_dynamics_match(h)
            count += 1
    assert count == 260 + 1424


def test_dynamics_match_direct_computation_on_fixtures(gmap, psi, doubling_control, block_map):
    rose = rose_graph(("x", "y", "z"))
    collapse = GraphMap(rose, rose, (0,), ((2,), (1,), (1,)))
    # directions at both vertices reach the loop x: the gates still split
    # by vertex
    barbell = OrientedGraph(("p", "q"), ("x", "y", "z"), ((0, 0), (0, 1), (1, 1)))
    squash = GraphMap(barbell, barbell, (0, 0), ((1,), (1,), (1, 1)))
    assert len(_gates(squash)) == 4
    for g in (gmap, psi, doubling_control, block_map, collapse, squash):
        _assert_dynamics_match(g)
        _assert_dynamics_match(identity_map(g.source))
        _assert_dynamics_match(iterate_map(g, 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dynamics_match_direct_computation_on_random_rose_maps(data):
    n = data.draw(st.integers(1, 4))
    rose = rose_graph(tuple("abcd"[:n]))
    letters = st.sampled_from(rose.directions())
    images = tuple(
        tuple(data.draw(st.lists(letters, min_size=1, max_size=3))) for _ in range(n)
    )
    _assert_dynamics_match(GraphMap(rose, rose, (0,), images))
