from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from oracles import (
    count_calls,
    identity_map,
    power,
    rose_graph,
    search_one_graph_per_candidate,
    search_tasks,
    whitehead_connected_by_vertex,
)
from traintrack.certify import (
    MapAnalysis,
    default_period_bound,
    expanding_edges,
    fic_check,
    illegal_turns,
    is_expanding,
    is_train_track,
    pnp_bounded_search,
    taken_turn_closure,
)
from traintrack.graphs import (
    GraphMap,
    GraphStructureError,
    iterate_map,
    make_turn,
    taken_turns,
    tighten_dirs,
)
from traintrack.spectral import transition_matrix

REFERENCE_TURNS = [
    ("e", "~c"), ("a", "~e"), ("~b", "~a"), ("d", "b"), ("~e", "~d"),
    ("~a", "c"), ("b", "e"), ("~d", "a"), ("c", "~b"), ("e", "d"),
]


def named_turns(graph, pairs):
    return {
        make_turn(graph.direction_of(x), graph.direction_of(y)) for x, y in pairs
    }


def test_closure_reference(gmap):
    closure = taken_turn_closure(MapAnalysis(gmap))
    assert closure == frozenset(named_turns(gmap.source, REFERENCE_TURNS))


def test_closure_contains_turns_of_iterates(gmap, doubling_control):
    for g in (gmap, doubling_control):
        closure = taken_turn_closure(MapAnalysis(g))
        for k in range(1, 6):
            gk = iterate_map(g, k)
            for image in gk.edge_images:
                for t in taken_turns(image):
                    assert t in closure


def test_closure_identity_empty(gmap):
    assert len(taken_turn_closure(MapAnalysis(identity_map(gmap.source)))) == 0


def test_illegal_turns(gmap, psi):
    graph = gmap.source
    assert illegal_turns(MapAnalysis(gmap)) == frozenset(
        {make_turn(graph.direction_of("d"), graph.direction_of("~c"))}
    )
    assert illegal_turns(MapAnalysis(identity_map(graph))) == frozenset()
    rose = psi.source
    turn = make_turn(rose.direction_of("~z"), rose.direction_of("~x"))
    assert turn in illegal_turns(MapAnalysis(psi))


def test_is_train_track(gmap, psi):
    cert = is_train_track(MapAnalysis(gmap))
    assert cert.is_train_track
    bad = is_train_track(MapAnalysis(psi))
    assert not bad.is_train_track
    assert bad.witness == make_turn(
        psi.source.direction_of("~z"), psi.source.direction_of("~x")
    )
    assert is_train_track(MapAnalysis(identity_map(gmap.source))).is_train_track


def test_untight_image_is_witnessed():
    rose = rose_graph(("a", "b"))
    g = GraphMap(rose, rose, (0,), ((1, -1, 1), (2,)))
    cert = is_train_track(MapAnalysis(g))
    assert not cert.is_train_track
    assert cert.witness == "a"


def test_tt_implies_tight_powers(gmap, doubling_control, block_map):
    for g in (gmap, doubling_control, block_map):
        assert is_train_track(MapAnalysis(g)).is_train_track
        for k in range(1, 7):
            gk = iterate_map(g, k)
            assert all(
                tighten_dirs(image) == image for image in gk.edge_images
            )


def test_is_expanding(gmap):
    assert is_expanding(transition_matrix(gmap))
    assert not is_expanding(transition_matrix(identity_map(gmap.source)))


def test_expanding_agrees_with_row_sum_growth(gmap, psi, doubling_control, block_map):
    rose = rose_graph(("a", "b"))
    grow = GraphMap(rose, rose, (0,), ((1, 2), (2,)))
    for g in (gmap, psi, doubling_control, block_map, grow, identity_map(gmap.source)):
        matrix = transition_matrix(g)
        growing = set(expanding_edges(matrix))
        m64 = power(matrix, 64)
        m32 = power(matrix, 32)
        for i in range(matrix.dimension):
            unbounded = sum(m64.rows[i]) > sum(m32.rows[i])
            assert (i in growing) == unbounded


def test_growing_edge_feeding_cycle_not_expanding():
    rose = rose_graph(("a", "b"))
    grow = GraphMap(rose, rose, (0,), ((1, 2), (2,)))
    assert not is_expanding(transition_matrix(grow))
    assert expanding_edges(transition_matrix(grow)) == (0,)


def test_pnp_reference_clean(gmap):
    assert default_period_bound(MapAnalysis(gmap)) == 9
    result = pnp_bounded_search(MapAnalysis(gmap))
    assert result.clean
    assert result.length_bound == 50
    assert result.period_bound == 9


def test_pnp_rejects_non_expanding(gmap):
    with pytest.raises(GraphStructureError):
        pnp_bounded_search(MapAnalysis(identity_map(gmap.source)))


def test_pnp_positive_control(doubling_control):
    result = pnp_bounded_search(MapAnalysis(doubling_control))
    assert result.verdict == "found"
    assert result.period == 1
    # verify the returned path is genuinely fixed
    image = tighten_dirs(doubling_control.image_of_path(result.path))
    assert image == result.path
    graph = doubling_control.source
    assert graph.path_name(result.path) == "~a b"


def test_local_whitehead_connectivity(gmap, block_map):
    for g, connected in ((gmap, True), (block_map, False)):
        a = MapAnalysis(g)
        assert whitehead_connected_by_vertex(a) == connected
        assert fic_check(a).whitehead_connected == connected


def test_fic_reference(gmap):
    report = fic_check(MapAnalysis(gmap))
    assert report.passed
    assert report.train_track and report.pnp_clean
    assert report.irreducible and report.primitive
    assert report.whitehead_connected


def test_fic_identity_fails(gmap):
    report = fic_check(MapAnalysis(identity_map(gmap.source)))
    assert not report.passed
    assert not report.irreducible
    assert not report.primitive


def test_fic_block_reducible(block_map):
    report = fic_check(MapAnalysis(block_map))
    assert not report.passed
    assert not report.irreducible
    assert report.invariant_edges is not None
    assert 0 < len(report.invariant_edges) < block_map.source.n_edges


def test_single_illegal_turn_for_principal(gmap):
    # maps certified principal have exactly one illegal turn
    from traintrack.search import single_fold_search

    assert len(illegal_turns(MapAnalysis(gmap))) == 1
    summary = single_fold_search(3)
    for report in summary.survivors:
        assert len(illegal_turns(MapAnalysis(report.map))) == 1


def test_map_analysis_rejects_non_self_map(gmap):
    from traintrack.folds import apply_fold

    graph = gmap.source
    v4 = max(range(graph.n_vertices), key=graph.valence)
    e1, e0 = graph.directions_at(v4)[:2]
    move = apply_fold(graph, e1, e0)
    assert move.map.source != move.map.target
    with pytest.raises(GraphStructureError, match="self-map"):
        MapAnalysis(move.map)


# (module, name) of each step one ``certify_map`` must run exactly once
DERIVATIONS = (
    ("traintrack.graphs", "direction_map"),
    ("traintrack.graphs", "eventual_images"),
    ("traintrack.spectral", "transition_matrix"),
    ("traintrack.certify", "is_train_track"),
    ("traintrack.spectral", "classify_matrix"),
    ("traintrack.certify", "pnp_bounded_search"),
    ("traintrack.certify", "fic_check"),
    ("traintrack.whitehead", "ideal_whitehead"),
)


def test_certify_map_derives_each_certificate_once(gmap, monkeypatch):
    """One ``certify_map`` builds one analysis, so each step runs once; the
    minimal polynomial's degree is derived only for the JSON that prints it."""
    calls = count_calls(
        monkeypatch, DERIVATIONS + (("traintrack.spectral", "minimal_polynomial_degree"),)
    )
    from traintrack.reports import certify_json, certify_map, certify_text

    report = certify_map(gmap)
    certify_text(report)
    assert report.verdict == "PRINCIPAL"
    assert calls == {name: 1 for _, name in DERIVATIONS}
    certify_json(report)
    assert calls["minimal_polynomial_degree"] == 1


# sha256 of every certify report, text then sorted-key JSON, of the 260
# rank-3 single-fold candidates in search order.  Only the dominant-root
# bracket (exact isolation, then bisection; a rational root is a point) and
# the stretch-factor line read from it differ from the reports as they stood
# before the steps shared one analysis per map.
RANK3_REPORTS_DIGEST = "aa5c6dcd86e91fd6d1c9199f728ce94d388e7b2ec3ae48c49600147018f0443e"


def test_certify_reports_pinned_on_rank3_candidates():
    from traintrack.reports import certify_json, certify_map, certify_text
    from traintrack.search import build_universe

    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    for task in search_tasks(build_universe(3).graphs):
        for candidate in search_one_graph_per_candidate(task):
            report = certify_map(candidate.map)
            digest.update(certify_text(report).encode())
            digest.update(json.dumps(certify_json(report), sort_keys=True).encode())
            verdicts[report.verdict] += 1
    assert verdicts == {
        "NOT-TRAIN-TRACK": 100, "NOT-PRINCIPAL": 144, "FULLY-IRREDUCIBLE": 8, "PRINCIPAL": 8,
    }
    assert digest.hexdigest() == RANK3_REPORTS_DIGEST
