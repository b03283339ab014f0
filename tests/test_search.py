from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CandidateVerdicts,
    all_turns,
    count_calls,
    pool_maps,
    rank3_all_profile_candidates,
    rank3_all_profile_tasks,
    search_one_graph_per_candidate,
    search_tasks,
    train_track_by_illegal_turns,
    _conjugate_by_relabeling,
)
from traintrack import search as search_module
from traintrack.certify import MapAnalysis
from traintrack.digraph import connected_components
from traintrack.folds import apply_fold, stallings_decompose
from traintrack.graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    apply_signed,
    compose,
    compose_signed,
    direction_table,
    invert_signed,
    is_tight,
    relabeling,
    signed_images,
)
from traintrack.search import (
    build_universe,
    graph_isomorphisms,
    single_fold_search,
    trivalent_universe,
    verify_minimal_stretch_argument,
    _candidate,
    _canonical_multigraph,
    _conjugate,
    _enumerate_degree_graphs,
    _fold_pairs,
    _is_one_cycle,
    _multiplicities,
    _search_one_graph,
    _single_fold_train_track,
    _universe,
)
from traintrack.spectral import is_irreducible, transition_matrix

# frozen universe sizes (rank: iso classes), cross-checked below with networkx
GOLDEN_UNIVERSE_SIZES = {3: 5, 4: 30, 5: 193, 6: 1496}


def test_universe_rank3(gmap):
    universe = build_universe(3)
    assert len(universe.graphs) == GOLDEN_UNIVERSE_SIZES[3]
    for graph in universe.graphs:
        assert graph.n_vertices == 3
        assert graph.n_edges == 5
        assert graph.valence_profile() == (3, 3, 4)
        assert graph.is_connected()
    # the reference map's graph appears
    want = _canonical_multigraph(3, _normalized_edges(gmap.source))
    have = {_canonical_multigraph(3, _normalized_edges(g)) for g in universe.graphs}
    assert want in have


def _normalized_edges(graph):
    return [tuple(sorted(e)) for e in graph.ends]


def test_universe_rank4():
    universe = build_universe(4)
    assert len(universe.graphs) == GOLDEN_UNIVERSE_SIZES[4]
    assert all(g.valence_profile() == (3, 3, 3, 3, 4) for g in universe.graphs)


def _connected_enumeration(degrees):
    m = len(degrees)
    return [
        e for e in _enumerate_degree_graphs(degrees)
        if len(connected_components(range(m), e)) == 1
    ]


def _networkx_classes(nx, m, edge_lists):
    """Independent grouping oracle: one representative per isomorphism class,
    by VF2 within buckets of equal Weisfeiler-Lehman hash.  Each multigraph
    becomes a simple graph whose edges carry their multiplicity (loops too),
    and both the hash and the isomorphism test read it."""
    match = nx.algorithms.isomorphism.numerical_edge_match("mult", 0)
    buckets: dict[str, list] = {}
    for ends in edge_lists:
        g = nx.Graph()
        g.add_nodes_from(range(m))
        for (u, w), n in Counter(tuple(sorted(e)) for e in ends).items():
            g.add_edge(u, w, mult=n)
        bucket = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, edge_attr="mult"), [])
        if not any(nx.is_isomorphic(g, rep, edge_match=match) for rep in bucket):
            bucket.append(g)
    return [g for bucket in buckets.values() for g in bucket]


def test_universe_isomorph_free_rank3_networkx():
    nx = pytest.importorskip("networkx")
    raw = _connected_enumeration((4, 3, 3))
    assert len(_networkx_classes(nx, 3, raw)) == GOLDEN_UNIVERSE_SIZES[3]


def test_universe_isomorph_free_rank4_networkx():
    nx = pytest.importorskip("networkx")
    raw = _connected_enumeration((4, 3, 3, 3, 3))
    assert len(_networkx_classes(nx, 5, raw)) == GOLDEN_UNIVERSE_SIZES[4]


def test_universe_isomorph_free_rank5_networkx():
    # the pruned enumeration still meets all 193 classes, by an oracle that
    # never calls the canonical form
    nx = pytest.importorskip("networkx")
    raw = _connected_enumeration((4,) + (3,) * 6)
    assert len(raw) == 429
    assert len(_networkx_classes(nx, 7, raw)) == GOLDEN_UNIVERSE_SIZES[5]


def test_universe_pairwise_non_isomorphic_rank5():
    universe = build_universe(5)
    assert len(universe.graphs) == GOLDEN_UNIVERSE_SIZES[5]
    canons = {
        _canonical_multigraph(7, _normalized_edges(g)) for g in universe.graphs
    }
    assert len(canons) == GOLDEN_UNIVERSE_SIZES[5]
    # independent of the canonical form: graphs with different WL hashes are
    # not isomorphic, and VF2 separates every pair with the same hash
    nx = pytest.importorskip("networkx")
    classes = _networkx_classes(nx, 7, [g.ends for g in universe.graphs])
    assert len(classes) == GOLDEN_UNIVERSE_SIZES[5]


# sha256 of repr(tuple(g.ends for g in graphs)), first 16 hex digits: pins
# both the classes and their order.  Ranks 3-5 and the trivalent universe are
# as the unpruned enumeration produced them; rank 6 is checked with networkx
GOLDEN_UNIVERSE_DIGESTS = {
    3: "fe1bc314f4abe1d0",
    4: "acf314c806504c45",
    5: "f14ac890f50b5ede",
    6: "0c9a64920bc3a7ae",
    "trivalent": "923d1706b86ebfe0",
}


def _ends_digest(graphs) -> str:
    text = repr(tuple(g.ends for g in graphs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_universe_pinned(rank):
    assert _ends_digest(build_universe(rank).graphs) == GOLDEN_UNIVERSE_DIGESTS[rank]


def test_universe_rank6_networkx():
    # beyond the ranks build_universe serves: 1,496 connected (4,3^8)-graphs,
    # none isomorphic to another by VF2 within WL-hash buckets
    nx = pytest.importorskip("networkx")
    graphs = _universe((4,) + (3,) * 8)
    assert len(graphs) == GOLDEN_UNIVERSE_SIZES[6]
    assert all(g.valence_profile() == (3,) * 8 + (4,) and g.is_connected() for g in graphs)
    assert _ends_digest(graphs) == GOLDEN_UNIVERSE_DIGESTS[6]
    classes = _networkx_classes(nx, 9, [g.ends for g in graphs])
    assert len(classes) == GOLDEN_UNIVERSE_SIZES[6]


def test_trivalent_universe_pinned():
    assert _ends_digest(trivalent_universe()) == GOLDEN_UNIVERSE_DIGESTS["trivalent"]


def test_trivalent_universe():
    graphs = trivalent_universe()
    assert len(graphs) == 5
    for g in graphs:
        assert g.valence_profile() == (3, 3, 3, 3)
        assert g.n_edges == 6
        assert g.rank() == 3


def _capacity_enumerate_degree_graphs(degrees):
    """Reference: the enumeration that, after every count, scans all vertices
    against tables of the vertices and degree capacity the later slots reach,
    and breaks symmetry only by multiplicity to vertex 0 (row 0)."""
    m = len(degrees)
    slots = [(u, v) for u in range(m) for v in range(u, m)]
    future = [set() for _ in range(len(slots) + 1)]
    capacity = [dict() for _ in range(len(slots) + 1)]
    for idx in range(len(slots) - 1, -1, -1):
        u, v = slots[idx]
        future[idx] = future[idx + 1] | {u, v}
        cap = dict(capacity[idx + 1])
        cap[u] = cap.get(u, 0) + (2 if u == v else 1) * max(degrees)
        if u != v:
            cap[v] = cap.get(v, 0) + max(degrees)
        capacity[idx] = cap
    out = []

    def rec(idx, residual, chosen, previous):
        if idx == len(slots):
            if all(r == 0 for r in residual):
                out.append(chosen)
            return
        u, v = slots[idx]
        cap = residual[u] // 2 if u == v else min(residual[u], residual[v])
        if u == 0 and v >= 2 and degrees[v] == degrees[v - 1]:
            cap = min(cap, previous)
        res = list(residual)
        for count in range(cap + 1):
            if count:
                if u == v:
                    res[u] -= 2
                else:
                    res[u] -= 1
                    res[v] -= 1
            ok = True
            for w in range(m):
                if res[w] and (w not in future[idx + 1] or res[w] > capacity[idx + 1].get(w, 0)):
                    ok = False
                    break
            if ok:
                rec(idx + 1, tuple(res), chosen + ((u, v),) * count, count)

    rec(0, tuple(degrees), (), 0)
    return out


UNIVERSE_DEGREES = [(4, 3, 3), (4, 3, 3, 3, 3), (4,) + (3,) * 6, (3, 3, 3, 3)]
# labelled graphs the pruned enumeration lists (the reference lists 7, 132,
# 9,935 and 16)
PRUNED_ENUMERATION_SIZES = dict(zip(UNIVERSE_DEGREES, [7, 62, 708, 14]))


def _assert_pruned_subsequence_with_same_classes(degrees):
    """The pruned list is an ordered subsequence of the reference, and both
    meet the same isomorphism classes (canonical form over all vertex
    permutations, not seeded by valence)."""
    pruned = _enumerate_degree_graphs(degrees)
    reference = _capacity_enumerate_degree_graphs(degrees)
    remaining = iter(reference)
    assert all(edges in remaining for edges in pruned)
    m = len(degrees)
    assert {_fixed_canonical_multigraph(m, e, ()) for e in pruned} == {
        _fixed_canonical_multigraph(m, e, ()) for e in reference
    }
    return pruned


@pytest.mark.parametrize("degrees", UNIVERSE_DEGREES)
def test_enumeration_matches_capacity_tables(degrees):
    pruned = _assert_pruned_subsequence_with_same_classes(degrees)
    assert len(pruned) == PRUNED_ENUMERATION_SIZES[degrees]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5).filter(lambda d: sum(d) % 2 == 0))
def test_enumeration_matches_capacity_tables_random(degrees):
    _assert_pruned_subsequence_with_same_classes(tuple(degrees))


def _fixed_canonical_multigraph(m, edges, fixed):
    """Reference: the minimal edge encoding over vertex permutations fixing
    the listed vertices, refinement seeded by their positions in ``fixed``."""
    mult = _multiplicities(m, edges)
    colors = [-(list(fixed).index(v) + 1) if v in fixed else 0 for v in range(m)]
    for _ in range(m):
        signatures = []
        for v in range(m):
            sig = sorted((colors[w], n) for w, n in enumerate(mult[v]) if n)
            signatures.append((colors[v], tuple(sig)))
        order = sorted(set(signatures))
        new = [order.index(s) for s in signatures]
        if new == colors:
            break
        colors = new
    cells: dict[int, list[int]] = {}
    for v in range(m):
        cells.setdefault(colors[v], []).append(v)
    best = None
    for perms in itertools.product(*(itertools.permutations(cells[c]) for c in sorted(cells))):
        mapping = {}
        for src in itertools.chain.from_iterable(perms):
            mapping[src] = len(mapping)
        encoded = tuple(sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in edges))
        if best is None or encoded < best:
            best = encoded
    return best


@pytest.mark.parametrize("degrees", UNIVERSE_DEGREES)
def test_valence_seeded_canonical_form_matches_fixed_vertices(degrees):
    # vertex 0 is the only valence-4 vertex, so seeding by valence orders the
    # colours as fixing vertex 0 did; the trivalent graphs fixed none
    m = len(degrees)
    fixed = (0,) if degrees[0] == 4 else ()
    # the unpruned reference, so all 4,080 connected graphs at rank 5 are
    # checked, not only the 429 the pruned enumeration keeps
    connected = [
        edges for edges in _capacity_enumerate_degree_graphs(degrees)
        if len(connected_components(range(m), edges)) == 1
    ]
    assert connected
    for edges in connected:
        assert _canonical_multigraph(m, edges) == _fixed_canonical_multigraph(m, edges, fixed)


def test_valence_seeded_canonical_form_matches_fixed_vertices_rank6():
    # the refinement that stops at the first round splitting no cell, and
    # the positions written into a list, against the reference's rounds run
    # to a fixed point and its dict per permutation, on every connected
    # graph the rank-6 universe canonicalises
    connected = _connected_enumeration((4,) + (3,) * 8)
    assert len(connected) == 5620
    for edges in connected:
        assert _canonical_multigraph(9, edges) == _fixed_canonical_multigraph(9, edges, (0,))


def test_graph_isomorphisms_roundtrip(gmap):
    graph = gmap.source
    autos = graph_isomorphisms(graph, graph)
    assert autos
    assert tuple(range(1, 6)) in autos
    for s in autos:
        assert relabeling(graph, graph, s).is_isomorphism()


def _product_scan_isomorphisms(source, target) -> list[GraphMap]:
    """Reference: every valence-compatible vertex tuple, filtered to the
    bijections whose edge-end multiset matches, then signed expansion."""
    m = source.n_vertices
    if target.n_vertices != m or target.n_edges != source.n_edges:
        return []
    sv = [source.valence(v) for v in range(m)]
    tv = [target.valence(v) for v in range(m)]
    if sorted(sv) != sorted(tv):
        return []
    out: list[GraphMap] = []
    candidates = [[w for w in range(m) if tv[w] == sv[v]] for v in range(m)]
    target_buckets: dict[tuple[int, int], list[int]] = {}
    for j in range(target.n_edges):
        u, w = target.ends[j]
        target_buckets.setdefault(tuple(sorted((u, w))), []).append(j)
    for image in itertools.product(*candidates):
        if len(set(image)) != m:
            continue
        needed: dict[tuple[int, int], list[int]] = {}
        for i in range(source.n_edges):
            u, w = source.ends[i]
            needed.setdefault(tuple(sorted((image[u], image[w]))), []).append(i)
        if any(
            len(target_buckets.get(key, ())) != len(srcs) for key, srcs in needed.items()
        ) or len(needed) != len({k for k in target_buckets if target_buckets[k]}):
            continue
        per_slot_options: list[list[tuple[int, ...]]] = []
        slot_sources: list[list[int]] = []
        feasible = True
        for key, srcs in sorted(needed.items()):
            bucket = target_buckets[key]
            opts: list[tuple[int, ...]] = []
            for perm in itertools.permutations(bucket):
                value_choices: list[list[int]] = []
                ok = True
                for i, j in zip(srcs, perm):
                    u, w = source.ends[i]
                    p, q = image[u], image[w]
                    tu, tw = target.ends[j]
                    if p == q and tu == tw and p == tu:
                        value_choices.append([j + 1, -(j + 1)])
                    elif (p, q) == (tu, tw):
                        value_choices.append([j + 1])
                    elif (p, q) == (tw, tu):
                        value_choices.append([-(j + 1)])
                    else:
                        ok = False
                        break
                if ok:
                    opts.extend(itertools.product(*value_choices))
            if not opts:
                feasible = False
                break
            per_slot_options.append(opts)
            slot_sources.append(srcs)
        if not feasible:
            continue
        for combo in itertools.product(*per_slot_options):
            signed = [0] * source.n_edges
            for srcs, values in zip(slot_sources, combo):
                for i, val in zip(srcs, values):
                    signed[i] = val
            try:
                out.append(relabeling(source, target, tuple(signed)))
            except GraphStructureError:
                continue
    return out


def _fold_targets(rank: int):
    """(fold target, graph) for every fold the single-fold search makes."""
    for graph in build_universe(rank).graphs:
        v4 = max(range(graph.n_vertices), key=graph.valence)
        for e1, e0 in itertools.permutations(graph.directions_at(v4), 2):
            if abs(e1) != abs(e0):
                yield apply_fold(graph, e1, e0, "proper_full").target, graph


def _assert_same_isomorphisms(source, target):
    fast = graph_isomorphisms(source, target)
    slow = _product_scan_isomorphisms(source, target)
    assert fast == [signed_images(r) for r in slow]
    return len(fast)


@pytest.mark.parametrize("rank", [3, 4])
def test_graph_isomorphisms_match_product_scan(rank):
    pairs = list(_fold_targets(rank))
    found = sum(_assert_same_isomorphisms(t, g) for t, g in pairs)
    assert found > 0
    # fold targets against other graphs of the universe, mostly non-isomorphic
    graphs = build_universe(rank).graphs
    for k, (t, _g) in enumerate(pairs[:40]):
        _assert_same_isomorphisms(t, graphs[k % len(graphs)])


def test_graph_isomorphisms_match_product_scan_rank5_slice():
    pairs = list(itertools.islice(_fold_targets(5), 0, 1200, 20))
    assert len(pairs) == 60
    assert sum(_assert_same_isomorphisms(t, g) for t, g in pairs) > 0


@st.composite
def _isomorphic_multigraph_pairs(draw):
    """A connected multigraph on 2-4 vertices with at most 5 edges (loops and
    parallel edges allowed), and a copy with its vertices renamed, its edges
    renumbered and some orientations flipped."""
    m = draw(st.integers(2, 4))
    vertex = st.integers(0, m - 1)
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, m)]
    ends = tree + draw(st.lists(st.tuples(vertex, vertex), max_size=6 - m))
    n = len(ends)
    rename = draw(st.permutations(range(m)))
    renumber = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    copied = [None] * n
    for i, (u, w) in enumerate(ends):
        u, w = rename[u], rename[w]
        copied[renumber[i]] = (w, u) if flips[i] else (u, w)

    def graph(graph_ends):
        return OrientedGraph(
            vertex_names=tuple(f"v{k}" for k in range(m)),
            edge_names=tuple(f"e{k}" for k in range(n)),
            ends=tuple(graph_ends),
        )

    return graph(ends), graph(copied)


@settings(max_examples=150, deadline=None)
@given(_isomorphic_multigraph_pairs())
def test_graph_isomorphisms_match_product_scan_random(pair):
    # three loops at one vertex may list the same isomorphisms in another
    # order, so the lists are compared sorted
    source, target = pair
    fast = sorted(graph_isomorphisms(source, target))
    slow = sorted(signed_images(r) for r in _product_scan_isomorphisms(source, target))
    assert fast
    assert fast == slow


def test_graph_isomorphisms_mismatched_shapes(gmap):
    graph = gmap.source  # 3 vertices, 5 edges, valences (3, 3, 4)
    other_valences = OrientedGraph(
        vertex_names=("p", "q", "r"),
        edge_names=tuple("abcde"),
        ends=((0, 0), (0, 0), (0, 1), (1, 2), (1, 2)),
    )  # valences (5, 3, 2)
    fewer_edges = OrientedGraph(
        vertex_names=("p", "q", "r"),
        edge_names=tuple("abcd"),
        ends=((0, 1), (1, 2), (2, 0), (0, 0)),
    )
    for source, target in [
        (graph, other_valences),
        (other_valences, graph),
        (graph, fewer_edges),
        (fewer_edges, graph),
        (graph, build_universe(4).graphs[0]),
    ]:
        assert graph_isomorphisms(source, target) == []
        assert _product_scan_isomorphisms(source, target) == []


def test_single_fold_search_rank3(gmap):
    summary = single_fold_search(3)
    assert summary.universe_size == 5
    assert summary.candidates == 260
    assert summary.tt_count == 160
    assert summary.irreducible_count == 16
    assert summary.fic_count == 16
    assert summary.principal_count == 8
    assert summary.class_count == 1
    rep = summary.survivors[summary.class_representatives[0]]
    assert _conjugate_by_relabeling(rep.map, gmap)


def _pairwise_classes(survivors) -> list[int]:
    """Reference: the survivors' indices that no earlier class member
    conjugates into, by trying every isomorphism between their graphs."""
    classes: list[int] = []
    for i, r in enumerate(survivors):
        if not any(_conjugate_by_relabeling(survivors[j].map, r.map) for j in classes):
            classes.append(i)
    return classes


@pytest.mark.parametrize(
    "every_analysed, survivors, representatives",
    [(False, 8, (0,)), (True, 16, (0, 1))],
    ids=["principal", "every-analysed"],
)
def test_orbit_classes_match_pairwise_conjugacy(monkeypatch, every_analysed, survivors,
                                                 representatives):
    # the classes read off the Aut(G)-orbits against the pairwise search
    # they replaced; declaring every analysed candidate principal makes the
    # 16 irreducible candidates, in 2 orbits, the survivors
    if every_analysed:
        principal = search_module.is_principal
        monkeypatch.setattr(
            search_module,
            "is_principal",
            lambda a: dataclasses.replace(principal(a), is_principal=True),
        )
    summary = single_fold_search(3)
    assert len(summary.survivors) == survivors
    assert summary.class_representatives == representatives
    assert summary.class_count == len(representatives)
    assert tuple(_pairwise_classes(summary.survivors)) == representatives


def test_orbit_classes_match_pairwise_conjugacy_on_the_rose(monkeypatch):
    # Aut of the 3-rose, the signed permutations, is not abelian, so the
    # order of the witnesses in beta = alpha_h alpha_r^-1 matters here
    principal = search_module.is_principal
    monkeypatch.setattr(
        search_module,
        "is_principal",
        lambda a: dataclasses.replace(principal(a), is_principal=True),
    )
    _, survivors = _search_one_graph(*_rose_task())
    survivors.sort(key=lambda r: (r.e1, r.e0, r.sigma.edge_images))
    classes = search_module._relabeling_classes(survivors)
    assert (len(survivors), len(classes)) == (336, 7)
    assert classes == _pairwise_classes(survivors)


def test_orbit_classes_check_every_witness(monkeypatch):
    # a witness that is an automorphism, but not one carrying the orbit's
    # analysed candidate to its survivor, stops the grouping
    engine = search_module._search_one_graph

    def corrupted(gi, graph, pairs):
        counts, survivors = engine(gi, graph, pairs)
        identity = tuple(range(1, graph.n_edges + 1))
        return counts, [dataclasses.replace(r, witness=identity) for r in survivors]

    monkeypatch.setattr(search_module, "_search_one_graph", corrupted)
    with pytest.raises(GraphStructureError, match="do not conjugate its survivors"):
        single_fold_search(3)


@functools.lru_cache(maxsize=None)
def _oracle_candidates(rank: int, graphs: int | None = None) -> tuple[CandidateVerdicts, ...]:
    """Every candidate on the first ``graphs`` graphs of the universe (all by
    default), classified one by one, in search order."""
    tasks = search_tasks(build_universe(rank).graphs[:graphs])
    return tuple(r for task in tasks for r in search_one_graph_per_candidate(task))


def _survivor_key(r):
    return (r.graph_index, r.e1, r.e0, r.sigma, r.map)


@pytest.mark.parametrize(
    "rank, graphs, candidates, irreducible",
    [
        (3, None, 260, 16),
        (4, None, 1424, 0),
        (5, 20, 2816, 0),
        # proper full folds at every vertex, over loops too, of every rank-3
        # graph with all valences at least 3
        pytest.param(3, "all-profile", 2308, 400, id="3-all-profile-2308-400"),
    ],
)
def test_candidate_irreducible_iff_one_cycle(rank, graphs, candidates, irreducible):
    # the lemma in single_fold_search, which the engine's irreducible step
    # reads: sigma . fold has matrix P + PE, irreducible exactly when
    # sigma's unsigned edge permutation is one cycle
    if graphs == "all-profile":
        reports = rank3_all_profile_candidates()
    else:
        reports = _oracle_candidates(rank, graphs)
    found = 0
    for r in reports:
        irr = is_irreducible(transition_matrix(r.map))
        assert irr == _is_one_cycle(signed_images(r.sigma))
        found += irr
    assert (len(reports), found) == (candidates, irreducible)


@pytest.mark.parametrize("rank, graphs", [(3, None), (4, None), (5, 20)])
def test_orbit_search_matches_per_candidate_oracle(rank, graphs):
    chunks = [_search_one_graph(*t) for t in search_tasks(build_universe(rank).graphs[:graphs])]
    counts = tuple(map(sum, zip(*(counts for counts, _ in chunks))))
    survivors = sorted(
        (r for _, chunk in chunks for r in chunk),
        key=lambda r: (r.graph_index, r.e1, r.e0, r.sigma.edge_images),
    )
    oracle = _oracle_candidates(rank, graphs)
    assert counts == (
        len(oracle),
        sum(r.train_track for r in oracle),
        sum(r.irreducible for r in oracle),
        sum(r.fic_passed for r in oracle),
    )
    assert [_survivor_key(r) for r in survivors] == [
        _survivor_key(r) for r in oracle if r.principal
    ]


def _loop_fold_tasks():
    """The trivalent graphs with their folds over a loop, as theorem A's
    driver passes them to ``_search_one_graph``."""
    tasks = []
    for gi, graph in enumerate(trivalent_universe()):
        pairs = _fold_pairs(graph, range(graph.n_vertices))
        loops = [p for p in pairs if graph.terminal_vertex(p[1]) == graph.initial_vertex(p[1])]
        tasks.append((gi, graph, loops))
    return tasks


def _all_vertex_tasks(rank):
    graphs = build_universe(rank).graphs
    return [(gi, g, _fold_pairs(g, range(g.n_vertices))) for gi, g in enumerate(graphs)]


@pytest.mark.parametrize(
    "tasks, funnel",
    [
        # theorem A's step 5: 368 compositions, none irreducible
        (_loop_fold_tasks, (368, 184, 0, 0, 0)),
        # every vertex of the rank-3 graphs: the 260 valence-4 candidates and
        # 104 folds over a loop at a valence-3 vertex
        (functools.partial(_all_vertex_tasks, 3), (364, 212, 16, 16, 8)),
    ],
    ids=["trivalent-loop-folds", "rank3-every-vertex"],
)
def test_orbit_search_matches_per_candidate_oracle_at_any_vertex(tasks, funnel):
    # the weighted counts of the engine against the oracle's one-by-one
    # verdicts, the irreducible count also against the expanding irreducible
    # one, and the principal survivors
    tasks = tasks()
    chunks = [_search_one_graph(*t) for t in tasks]
    candidates, tt, irreducible, fic = map(sum, zip(*(counts for counts, _ in chunks)))
    oracle = [r for t in tasks for r in search_one_graph_per_candidate(t)]
    assert (candidates, tt, irreducible, fic) == (
        len(oracle),
        sum(r.train_track for r in oracle),
        sum(r.irreducible for r in oracle),
        sum(r.fic_passed for r in oracle),
    )
    assert irreducible == sum(r.irreducible and r.expanding for r in oracle)
    assert (candidates, tt, irreducible, fic, sum(r.principal for r in oracle)) == funnel
    survivors = sorted(
        (r for _, chunk in chunks for r in chunk),
        key=lambda r: (r.graph_index, r.e1, r.e0, r.sigma.edge_images),
    )
    assert [_survivor_key(r) for r in survivors] == sorted(
        (_survivor_key(r) for r in oracle if r.principal),
        key=lambda k: (k[0], k[1], k[2], k[3].edge_images),
    )


def test_fold_pair_lists_are_closed_under_automorphisms(monkeypatch):
    # the engine's precondition, on every list the package passes it
    passed = []
    engine = search_module._search_one_graph

    def recorded(*args):
        passed.append(args)
        return engine(*args)

    monkeypatch.setattr(search_module, "_search_one_graph", recorded)
    single_fold_search(3)
    single_fold_search(4)
    assert verify_minimal_stretch_argument().passed
    assert len(passed) == 5 + 30 + 5
    for _gi, graph, pairs in passed:
        assert len(set(pairs)) == len(pairs)
        for alpha in graph_isomorphisms(graph, graph):
            table = direction_table(alpha)
            assert {(table[e1], table[e0]) for e1, e0 in pairs} == set(pairs)


def test_orbit_search_rejects_pairs_not_closed_under_automorphisms():
    # half the valence-4 pairs of a graph with a nontrivial automorphism
    gi, graph, pairs = search_tasks(build_universe(3).graphs)[0]
    assert len(graph_isomorphisms(graph, graph)) > 1
    with pytest.raises(GraphStructureError, match="not closed under Aut"):
        _search_one_graph(gi, graph, pairs[: len(pairs) // 2])


@pytest.mark.parametrize("source, irreducible", [(3, 16), (4, 0), ("loop folds", 0)])
def test_irreducible_candidates_are_expanding(source, irreducible):
    # the lemma in the search module: sigma . fold has matrix P + PE, every
    # row summing to 1 but the folded edge's, which sums to 2, so an
    # irreducible candidate is expanding
    if source == "loop folds":
        verdicts = [r for t in _loop_fold_tasks() for r in search_one_graph_per_candidate(t)]
    else:
        verdicts = _oracle_candidates(source)
    for r in verdicts:
        n = r.map.source.n_edges
        assert sorted(map(sum, transition_matrix(r.map).rows)) == [1] * (n - 1) + [2]
        assert r.expanding or not r.irreducible
    assert sum(r.irreducible for r in verdicts) == irreducible


def _act(alpha, e1, e0, sigma):
    """The candidate alpha sends (e1, e0, sigma) to: (alpha e1, alpha e0,
    alpha sigma alpha^-1)."""
    conj = compose_signed(alpha, compose_signed(sigma, invert_signed(alpha)))
    return apply_signed(alpha, e1), apply_signed(alpha, e0), conj


def test_conjugating_a_candidate_by_an_automorphism_gives_a_candidate():
    # alpha h alpha^-1 = (alpha sigma alpha^-1) . fold(alpha e1, alpha e0),
    # the rule of folds.pull_back, on every rank-3 candidate
    graphs = build_universe(3).graphs
    checked = 0
    for r in _oracle_candidates(3):
        graph = graphs[r.graph_index]
        for a in graph_isomorphisms(graph, graph):
            alpha = relabeling(graph, graph, a)
            alpha_inv = relabeling(graph, graph, invert_signed(a))
            f1, f0, conj = _act(a, r.e1, r.e0, signed_images(r.sigma))
            move = apply_fold(graph, f1, f0)
            built = compose(relabeling(move.target, graph, conj), move.map)
            assert compose(alpha, compose(r.map, alpha_inv)) == built
            checked += 1
    assert checked == 2992  # (candidate, automorphism) pairs


@pytest.mark.parametrize("rank, candidates, orbits", [(3, 260, 50), (4, 1424, 370)])
def test_oracle_verdicts_are_constant_on_orbits(rank, candidates, orbits):
    graphs = build_universe(rank).graphs
    verdicts = {
        (r.graph_index, r.e1, r.e0, signed_images(r.sigma)):
            (r.train_track, r.irreducible, r.fic_passed, r.principal)
        for r in _oracle_candidates(rank)
    }
    assert len(verdicts) == candidates
    aut = [graph_isomorphisms(g, g) for g in graphs]
    seen = set()
    sizes = []
    for key, verdict in verdicts.items():
        if key in seen:
            continue
        gi, e1, e0, sigma = key
        orbit = {(gi, *_act(alpha, e1, e0, sigma)) for alpha in aut[gi]}
        assert all(verdicts[member] == verdict for member in orbit)
        seen |= orbit
        sizes.append(len(orbit))
    assert (sum(sizes), len(sizes)) == (candidates, orbits)


def test_orbit_search_isomorphism_calls_rank4(monkeypatch):
    # one automorphism group per graph (30) and one isomorphism enumeration
    # per orbit of fold pairs (115): losing the orbit rule costs 336 calls
    calls = Counter()
    isomorphisms = search_module.graph_isomorphisms

    def counted(source, target):
        calls[source is target] += 1
        return isomorphisms(source, target)

    monkeypatch.setattr(search_module, "graph_isomorphisms", counted)
    summary = single_fold_search(4)
    assert summary.candidates == 1424
    assert calls == {True: 30, False: 115}


def test_orbit_search_classes_calls_rank3(monkeypatch):
    # one automorphism group per graph (5) and one isomorphism enumeration
    # per orbit of fold pairs (14); the classes are read off the orbits, and
    # each of the 7 survivors beyond its orbit's first costs two compose
    # calls for its check: the pairwise search made 26 and 70
    counted = count_calls(
        monkeypatch, [("traintrack.search", "graph_isomorphisms"), ("traintrack.graphs", "compose")]
    )
    summary = single_fold_search(3)
    assert (summary.principal_count, summary.class_count) == (8, 1)
    assert counted == {"graph_isomorphisms": 19, "compose": 14}


def test_orbit_search_graph_map_constructions_rank4(monkeypatch):
    # one fold map per orbit of fold pairs (115) and no self-map: only an
    # irreducible train track candidate is built as a map, and rank 4 has
    # none; isomorphisms stay signed images
    calls = Counter()
    post_init = GraphMap.__post_init__

    def counted(self):
        calls[self.source is self.target] += 1
        post_init(self)

    monkeypatch.setattr(GraphMap, "__post_init__", counted)
    summary = single_fold_search(4)
    assert summary.candidates == 1424
    assert calls == {False: 115}


# (module, name) of the steps whose calls the single-fold search is pinned to
SEARCH_STEPS = (
    ("traintrack.graphs", "gates"),
    ("traintrack.certify", "illegal_turns"),
    ("traintrack.spectral", "is_irreducible"),
    ("traintrack.certify", "is_train_track"),
)


@pytest.mark.parametrize(
    "rank, calls",
    [
        # the 16 irreducible candidates lie in 2 orbits, each with one
        # isomorphism back at its first pair: those 2 reach is_principal,
        # whose periodic-path search reads the illegal turns
        (3, {"gates": 2, "illegal_turns": 2, "is_irreducible": 2, "is_train_track": 2}),
        # no candidate is irreducible, so none is built as a map
        (4, {}),
    ],
    ids=["rank3", "rank4"],
)
def test_orbit_search_certificate_calls(monkeypatch, rank, calls):
    # the train track step reads sigma's direction table and the irreducible
    # step its cycle type; an analysis certifies only the candidates that
    # pass both, for is_principal
    counted = count_calls(monkeypatch, SEARCH_STEPS)
    single_fold_search(rank)
    assert counted == calls


@pytest.mark.parametrize("rank, checks", [(3, 68), (4, 532)])
def test_orbit_search_checks_every_isomorphism_back(monkeypatch, rank, checks):
    # one isomorphism check per classified candidate: every isomorphism back
    # at the first pair of each pair orbit, the precondition of relabel_after
    checked = []
    check = search_module.isomorphism_vertex_map

    def counted(source, target, signed):
        checked.append(signed)
        return check(source, target, signed)

    monkeypatch.setattr(search_module, "isomorphism_vertex_map", counted)
    single_fold_search(rank)
    assert len(checked) == checks


@pytest.mark.parametrize(
    "tasks, candidates, train_track",
    [
        (rank3_all_profile_tasks, 2308, 1580),
        (lambda: search_tasks(build_universe(4).graphs), 1424, 832),
        (_loop_fold_tasks, 368, 184),
    ],
    ids=["rank3-all-profile", "rank4", "trivalent-loop-folds"],
)
def test_single_fold_train_track_matches_the_analysis(tasks, candidates, train_track):
    # the verdict from sigma's direction table and the one turn a proper
    # full fold takes, against the analysis of the candidate's map, on every
    # (fold pair, isomorphism back) of each corpus
    found = Counter()
    for _gi, graph, pairs in tasks():
        for e1, e0 in pairs:
            move = apply_fold(graph, e1, e0)
            for s in graph_isomorphisms(move.target, graph):
                verdict = _single_fold_train_track(direction_table(s), e1, e0)
                assert verdict == MapAnalysis(_candidate(move, s)).tt.is_train_track
                found[verdict] += 1
    assert (sum(found.values()), found[True]) == (candidates, train_track)


def _rose_task():
    rose = _universe((6,))[0]
    return (0, rose, _fold_pairs(rose, [0]))


def test_orbit_search_raises_when_principality_varies_on_an_orbit(monkeypatch):
    # On the rose, fold (a, b) then a -> b -> c -> a is an irreducible train
    # track candidate, and Stab(a, b) conjugates its isomorphism back to a
    # second one at (a, b).  Every candidate that reaches is_principal is
    # declared principal, then all but that conjugate: its orbit is still
    # expanded from the first, so the weighted count falls short of it.
    gi, rose, pairs = _rose_task()
    sigma = (2, 3, 1)
    stab = [a for a in graph_isomorphisms(rose, rose) if (a[0], a[1]) == (1, 2)]
    table = direction_table(sigma)
    (other,) = {_conjugate(direction_table(a), invert_signed(a), table) for a in stab} - {sigma}
    excluded = _candidate(apply_fold(rose, 1, 2), other)
    principal = search_module.is_principal

    def declared(exclude):
        return lambda a: dataclasses.replace(principal(a), is_principal=a.map != exclude)

    monkeypatch.setattr(search_module, "is_principal", declared(None))
    (_, _, irreducible, _), survivors = _search_one_graph(gi, rose, pairs)
    assert irreducible == len(survivors) > 0
    monkeypatch.setattr(search_module, "is_principal", declared(excluded))
    with pytest.raises(GraphStructureError, match="principal candidates by weight"):
        _search_one_graph(gi, rose, pairs)


def test_orbit_search_raises_when_the_analysis_rejects_a_train_track_verdict(monkeypatch):
    # an irreducible candidate that the direction table would pass but the
    # analysis rejects stops the search
    monkeypatch.setattr(search_module, "_single_fold_train_track", lambda table, e1, e0: True)
    with pytest.raises(GraphStructureError, match="is not a train track map"):
        _search_one_graph(*_rose_task())


def test_orbit_search_funnel_rank6():
    # the rank-6 frontier of theorem B: no irreducible candidate
    graphs = _universe((4,) + (3,) * 8)
    chunks = [_search_one_graph(*t) for t in search_tasks(graphs)]
    counts = tuple(map(sum, zip(*(counts for counts, _ in chunks))))
    assert (len(graphs), counts) == (1496, (112271, 60064, 0, 0))
    assert not any(survivors for _, survivors in chunks)


@pytest.mark.parametrize(
    "corpus, maps, train_track",
    [
        (rank3_all_profile_candidates, 2308, 1580),
        (functools.partial(_oracle_candidates, 4), 1424, 832),
        (pool_maps, 120, 75),
    ],
    ids=["rank3-all-profile", "rank4", "pool"],
)
def test_train_track_verdicts_match_closure_and_illegal_turns(corpus, maps, train_track):
    # the verdict from Dg on the closure against the closure met with the
    # illegal turns, and the analysis's illegal turns against iterating Dg
    found = Counter()
    for item in corpus():
        g = getattr(item, "map", item)
        verdict, witness, illegal = train_track_by_illegal_turns(g)
        a = MapAnalysis(g)
        assert (a.tt.is_train_track, a.tt.witness) == (verdict, witness)
        assert a.illegal == illegal
        found[verdict] += 1
    assert (sum(found.values()), found[True]) == (maps, train_track)


@pytest.mark.parametrize("rank", [3, 4])
def test_candidate_is_the_fold_followed_by_the_relabeling(rank):
    # the search's direct build equals the composite the oracle tightens
    graphs = build_universe(rank).graphs
    for r in _oracle_candidates(rank):
        move = apply_fold(graphs[r.graph_index], r.e1, r.e0)
        assert _candidate(move, signed_images(r.sigma)) == r.map


def _first_untight_power(f, bound):
    """The least k <= ``bound`` for which some edge image of f^k, composed
    letter by letter without tightening, backtracks; None if there is none."""
    images = f.edge_images
    for k in range(1, bound + 1):
        if not all(is_tight(image) for image in images):
            return k
        images = tuple(f.image_of_path(image) for image in images)
        # a guard on memory should a rejected map ever outlive its bound
        assert sum(map(len, images)) < 10**6
    return None


@pytest.mark.parametrize("rank, accepted, rejected", [(3, 160, 100), (4, 832, 592)])
def test_train_track_verdicts_match_unreduced_powers(rank, accepted, rejected):
    # Brute force against the turn-closure criterion of ``is_train_track``
    # (Bestvina-Handel, Annals 1992): f is a train track map exactly when
    # every power f^k, composed without tightening, is tight.  Let T_k be
    # the turns crossed inside the edge images of f^k, and U_k their union
    # over 1..k.  A turn crossed in f^k is crossed, moved by Df, in f^(k+1),
    # and the other turns of f^(k+1) lie inside images of f, so
    # U_(k+1) = T_1 | Df(U_k): U_k grows until one step leaves it unchanged,
    # and is the taken-turn closure from k = T on, T the number of turns.
    # An illegal turn of the closure degenerates under Df^m for some
    # m <= N - 1, N the number of directions: after N - 1 steps both of its
    # directions are periodic, and Df permutes the periodic directions.  So
    # a rejected map has an untight power f^k with k <= T + N - 1, inside
    # the bound T + N + 1 checked here; an accepted one is checked to k = 12.
    counts = Counter()
    for r in _oracle_candidates(rank):
        graph = r.map.source
        if r.train_track:
            assert _first_untight_power(r.map, 12) is None
        else:
            bound = len(all_turns(graph)) + len(graph.directions()) + 1
            assert _first_untight_power(r.map, bound) is not None
        counts[r.train_track] += 1
    assert counts == {True: accepted, False: rejected}


def test_single_fold_search_rank4():
    summary = single_fold_search(4)
    assert summary.class_count == 0
    assert summary.principal_count == 0
    assert summary.irreducible_count == 0


def test_search_determinism(gmap):
    """Searching the graphs in any order gives the same sorted reports."""
    plain = single_fold_search(3)
    tasks = search_tasks(build_universe(3).graphs)
    random.Random(12345).shuffle(tasks)
    shuffled = [r for task in tasks for r in search_one_graph_per_candidate(task)]
    shuffled.sort(key=lambda r: (r.graph_index, r.e1, r.e0, signed_images(r.sigma)))
    assert len(shuffled) == plain.candidates
    assert sum(r.train_track for r in shuffled) == plain.tt_count
    assert sum(r.irreducible for r in shuffled) == plain.irreducible_count
    assert [_survivor_key(r) for r in shuffled if r.principal] == [
        _survivor_key(r) for r in plain.survivors
    ]


def test_survivor_audits_and_roundtrip():
    summary = single_fold_search(3)
    for report in summary.survivors:
        # the fold-adjacent vertices are distinct, the relabeling carries the
        # folded edge data the forced way, and the map is vertex transitive
        graph, sigma = report.map.source, report.sigma
        v0 = graph.initial_vertex(report.e1)
        v1 = graph.terminal_vertex(report.e0)
        v2 = graph.terminal_vertex(report.e1)
        assert len({v0, v1, v2}) == 3
        assert sigma.vertex_map[v1] == v0 and sigma.image_of_direction(report.e1) == (report.e0,)
        assert sigma.vertex_map[v2] == v1
        orbit, x = {0}, 0
        for _ in range(graph.n_vertices):
            x = report.map.vertex_map[x]
            orbit.add(x)
        assert len(orbit) == graph.n_vertices
        seq = stallings_decompose(report.map)
        assert len(seq) == 1
        assert seq.composed_map() == report.map


def test_loop_fold_candidates_fail_early():
    # a fold whose target edge is a loop forces the fold vertex to map to
    # itself; no such composition is irreducible
    from traintrack.certify import MapAnalysis
    from traintrack.spectral import is_irreducible

    universe = build_universe(3)
    checked = 0
    for graph in universe.graphs:
        v4 = max(range(graph.n_vertices), key=graph.valence)
        for e1, e0 in itertools.permutations(graph.directions_at(v4), 2):
            if abs(e1) == abs(e0):
                continue
            if graph.terminal_vertex(e0) != graph.initial_vertex(e0):
                continue  # not a loop
            move = apply_fold(graph, e1, e0)
            for s in graph_isomorphisms(move.target, graph):
                a = MapAnalysis(compose(relabeling(move.target, graph, s), move.map))
                checked += 1
                assert not (a.tt.is_train_track and is_irreducible(a.matrix))
    assert checked > 0


def test_minimal_stretch_argument():
    report = verify_minimal_stretch_argument()
    assert report.passed
    names = [s.name for s in report.steps]
    assert names[0] == "characteristic polynomial"
    assert len(report.steps) == 5
