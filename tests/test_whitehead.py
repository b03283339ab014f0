from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest

from oracles import (
    ideal_components_by_vertex,
    identity_map,
    inverse,
    local_whitehead_graph,
    rank3_all_profile_candidates,
    relabel_map,
    relabeled_graph,
    relabeling_map,
    signed_permutations,
    whitehead_connected_by_vertex,
)
from traintrack.automaton import relabel_key
from traintrack.certify import MapAnalysis, fic_check
from traintrack.graphs import (
    GraphStructureError,
    compose,
    compose_signed,
    gates,
    signed_images,
)
from traintrack.whitehead import (
    IdealWhiteheadGraph,
    WhiteheadGraph,
    ideal_whitehead,
    is_principal,
    ltt_structure,
)

ALL_SIGMAS = list(signed_permutations(5))


def test_local_whitehead_reference(gmap):
    graph = gmap.source
    a = MapAnalysis(gmap)
    for v in range(3):
        lw = local_whitehead_graph(a, v)
        if graph.valence(v) == 4:
            assert (lw.number_of_nodes(), lw.number_of_edges()) == (4, 4)
            assert nx.is_connected(lw)
        else:
            assert (lw.number_of_nodes(), lw.number_of_edges()) == (3, 3)
    assert fic_check(a).whitehead_connected


def test_local_whitehead_identity_edgeless(gmap):
    # the identity takes no turn, so every local graph is edgeless and none
    # of valence above one is connected
    a = MapAnalysis(identity_map(gmap.source))
    assert a.tt.is_train_track and not a.tt.closure
    for v in range(3):
        assert local_whitehead_graph(a, v).number_of_edges() == 0
    assert not fic_check(a).whitehead_connected


def test_stable_whitehead_vertex_count_is_gate_count(gmap):
    # each gate at v holds exactly one periodic direction, so the stable
    # graph at v has one vertex per gate there
    graph = gmap.source
    a = MapAnalysis(gmap)
    gs = gates(graph, a.images)
    assert all(len(gate & a.periodic) == 1 for gate in gs)
    for v in range(graph.n_vertices):
        gates_at_v = [s for s in gs if graph.initial_vertex(next(iter(s))) == v]
        assert local_whitehead_graph(a, v, periodic_only=True).number_of_nodes() == len(gates_at_v)


def test_whitehead_conjunct_matches_oracles_on_rank3_corpus():
    # every proper full fold at any vertex of every rank-3 graph with all
    # valences at least 3, then each isomorphism back; on each train track
    # map the one-pass Whitehead graphs against the per-vertex oracles
    candidates = rank3_all_profile_candidates()
    disconnected = 0
    for r in candidates:
        if not r.train_track:
            continue
        a = MapAnalysis(r.map)
        connected = fic_check(a).whitehead_connected
        assert connected == whitehead_connected_by_vertex(a)
        disconnected += not connected
        if a.expanding and a.pnp.clean:
            ideal = ideal_whitehead(a)
            assert [(c.directions, c.edges) for c in ideal.components] == (
                ideal_components_by_vertex(a)
            )
        else:
            with pytest.raises(GraphStructureError):
                ideal_whitehead(a)
    funnel = (
        len(candidates),
        sum(r.train_track for r in candidates),
        disconnected,
        sum(r.fic_passed for r in candidates),
        sum(r.principal for r in candidates),
    )
    assert funnel == (2308, 1580, 1124, 352, 8)


def test_ideal_whitehead_reference(gmap):
    iw = ideal_whitehead(MapAnalysis(gmap))
    assert iw.component_sizes() == (3, 3, 3)
    assert iw.is_triangle_union(3)
    assert iw.index() == Fraction(-3, 2)


def test_ideal_whitehead_identity_rejected(gmap):
    with pytest.raises(GraphStructureError):
        ideal_whitehead(MapAnalysis(identity_map(gmap.source)))


def test_ideal_whitehead_refuses_on_found_path(doubling_control):
    with pytest.raises(GraphStructureError, match="periodic Nielsen path"):
        ideal_whitehead(MapAnalysis(doubling_control))


def test_is_principal_reference(gmap):
    report = is_principal(MapAnalysis(gmap))
    assert report.is_principal
    assert report.index == Fraction(3, 2) - 3
    assert report.ideal.is_triangle_union(3)


def test_four_vertex_component_is_not_principal():
    comp = WhiteheadGraph(frozenset({1, 2, 3, 4}), frozenset({(1, 2), (2, 3), (3, 4)}))
    iw = IdealWhiteheadGraph((comp,))
    assert not iw.is_triangle_union(3)
    assert iw.index() == Fraction(-1)


def test_is_principal_propagates_fic_failure(block_map):
    report = is_principal(MapAnalysis(block_map))
    assert not report.is_principal
    assert not report.fic.passed
    assert report.ideal is None


def test_ltt_structure_reference(gmap):
    graph = gmap.source
    groups, red, turns = ltt_structure(MapAnalysis(gmap))
    assert red == graph.direction_of("~c")
    red_turns = {t for t in turns if red in t}
    assert red_turns == {tuple(sorted((graph.direction_of("e"), graph.direction_of("~c"))))}
    assert len(turns) == 10
    assert groups == tuple(sorted(tuple(sorted(graph.directions_at(v))) for v in range(3)))


def test_ltt_structure_identity_degenerate(gmap):
    # every direction of the identity is periodic, so none is red
    with pytest.raises(GraphStructureError, match="exactly one red direction"):
        ltt_structure(MapAnalysis(identity_map(gmap.source)))


def test_relabel_identity(gmap):
    s = ltt_structure(MapAnalysis(gmap))
    identity = tuple(range(1, 6))
    assert relabel_key(s, identity) == s
    assert relabel_map(gmap, identity) == gmap


def test_relabel_equivariance(gmap):
    """The automaton build relies on this: ``ltt_structure`` commutes with
    relabeling, on the reference map and on the rank-3 survivors."""
    from traintrack.search import single_fold_search

    rng = random.Random(99)
    maps = [gmap] + [r.map for r in single_fold_search(3).survivors]
    for g in maps:
        s = ltt_structure(MapAnalysis(g))
        for sigma in rng.sample(ALL_SIGMAS, 40):
            assert ltt_structure(MapAnalysis(relabel_map(g, sigma))) == relabel_key(s, sigma)


def test_relabel_action_property(gmap):
    s = ltt_structure(MapAnalysis(gmap))
    rng = random.Random(7)
    for _ in range(10):
        sig, tau = rng.sample(ALL_SIGMAS, 2)
        combined = relabel_key(s, compose_signed(sig, tau))
        stepwise = relabel_key(relabel_key(s, tau), sig)
        assert combined == stepwise


def test_relabelings_match_direct_definitions(gmap):
    """Relabelings and their composites against edge-by-edge definitions."""
    graph = gmap.source
    rng = random.Random(17)
    for sigma, tau in zip(rng.sample(ALL_SIGMAS, 20), rng.sample(ALL_SIGMAS, 20)):
        ends = [None] * graph.n_edges
        for i, s in enumerate(sigma):
            u, v = graph.ends[i]
            ends[abs(s) - 1] = (u, v) if s > 0 else (v, u)
        assert relabeled_graph(graph, sigma).ends == tuple(ends)
        rel = relabeling_map(graph, sigma)
        for d in graph.directions():
            image = sigma[abs(d) - 1]
            assert rel.image_of_direction(d) == (image if d > 0 else -image,)
            assert inverse(rel).image_of_path(rel.image_of_direction(d)) == (d,)
        # tau after sigma, both as relabelings out of the relabeled graphs
        rel2 = relabeling_map(rel.target, tau)
        composite = compose(rel2, rel)
        assert signed_images(composite) == compose_signed(tau, sigma)
        assert signed_images(composite) == tuple(
            rel2.image_of_direction(s)[0] for s in signed_images(rel)
        )


def test_relabel_functorial_on_maps(gmap):
    rng = random.Random(3)
    g2 = compose(gmap, gmap)
    for sigma in rng.sample(ALL_SIGMAS, 8):
        assert relabel_map(g2, sigma) == compose(
            relabel_map(gmap, sigma), relabel_map(gmap, sigma)
        )


def test_decomposition_relabeling_commutes(gmap):
    # push the decomposition's own relabeling through the map
    from traintrack.folds import stallings_decompose

    seq = stallings_decompose(gmap)
    sigma = signed_images(seq.final)
    conj = relabel_map(gmap, sigma)
    s, s_conj = ltt_structure(MapAnalysis(gmap)), ltt_structure(MapAnalysis(conj))
    assert relabel_key(s, sigma) == s_conj


def test_relabeling_map_validates(gmap):
    rel = relabeling_map(gmap.source, (1, 2, 3, 5, 4))
    assert rel.target.edge_names == rel.source.edge_names
    assert rel.is_isomorphism()
    assert signed_images(compose(rel, inverse(rel))) == (1, 2, 3, 4, 5)
