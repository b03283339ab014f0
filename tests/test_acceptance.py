"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated tolerances and budgets."""

from __future__ import annotations

import random
import time
from fractions import Fraction

from oracles import (
    compose_power,
    is_positive,
    power,
    push_permutations,
    rotate_loop,
    sequence_steps,
    transpose,
    _conjugate_by_relabeling,
)
from traintrack.automaton import (
    decomposition_to_loop,
    enumerate_loops,
    loop_to_map,
    node_one_analysis,
)
from traintrack.catalog import SINGLE_FOLD_DOCUMENT
from traintrack.certify import MapAnalysis, fic_check, is_train_track, taken_turn_closure
from traintrack.folds import rotate, stallings_decompose
from traintrack.graphs import iterate_map, make_turn
from traintrack.mapdoc import parse_map_document
from traintrack.reports import certify_map
from traintrack.search import (
    single_fold_search,
    verify_minimal_stretch_argument,
)
from traintrack.spectral import char_poly, is_irreducible, transition_matrix
from traintrack.whitehead import ideal_whitehead, is_principal


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}: {elapsed:.2f}s{suffix}")


DISPLAYED_MATRIX = (
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 1, 0),
)

EXPECTED_TURNS = [
    ("e", "~c"), ("a", "~e"), ("~b", "~a"), ("d", "b"), ("~e", "~d"),
    ("~a", "c"), ("b", "e"), ("~d", "a"), ("c", "~b"), ("e", "d"),
]


def test_criterion_1_golden_certificate():
    start = time.perf_counter()
    g = parse_map_document(SINGLE_FOLD_DOCUMENT)
    report = certify_map(g)
    elapsed = time.perf_counter() - start

    graph = g.source
    assert report.tt.is_train_track
    assert report.illegal == frozenset(
        {make_turn(graph.direction_of("d"), graph.direction_of("~c"))}
    )
    expected_closure = {
        make_turn(graph.direction_of(x), graph.direction_of(y))
        for x, y in EXPECTED_TURNS
    }
    assert report.tt.closure == frozenset(expected_closure)
    spectral = report.spectral
    assert transpose(spectral.matrix).rows == DISPLAYED_MATRIX
    assert spectral.characteristic_polynomial.coefficients == (-1, -1, 0, 0, 0, 1)
    lo, hi = spectral.dominant_root
    assert Fraction("1.16730") <= lo <= hi <= Fraction("1.16731")
    assert is_positive(power(spectral.matrix, 17))
    assert report.principal.ideal.component_sizes() == (3, 3, 3)
    assert report.principal.index == Fraction(-3, 2)
    assert report.verdict == "PRINCIPAL"
    assert elapsed < 1.0
    _report("criterion 1 (golden certificate)", True, elapsed)


def test_criterion_2_minimal_stretch_argument():
    start = time.perf_counter()
    report = verify_minimal_stretch_argument()
    elapsed = time.perf_counter() - start
    for step in report.steps:
        assert step.passed, step.name
    assert elapsed < 30.0
    _report("criterion 2 (minimal stretch factor)", report.passed, elapsed,
            f"{len(report.steps)} steps")


def test_criterion_3_single_fold_uniqueness(gmap):
    start = time.perf_counter()
    summary3 = single_fold_search(3)
    t3 = time.perf_counter() - start
    assert summary3.class_count == 1
    rep = summary3.survivors[summary3.class_representatives[0]]
    assert _conjugate_by_relabeling(rep.map, gmap)
    assert t3 < 10.0

    start = time.perf_counter()
    summary4 = single_fold_search(4)
    t4 = time.perf_counter() - start
    assert summary4.class_count == 0
    assert t4 < 300.0

    start = time.perf_counter()
    summary5 = single_fold_search(5)
    t5 = time.perf_counter() - start
    assert summary5.class_count == 0
    assert t5 < 1800.0
    _report("criterion 3 (single-fold uniqueness)", True, t3 + t4 + t5,
            f"rank3 {t3:.1f}s, rank4 {t4:.1f}s, rank5 {t5:.1f}s")


def test_criterion_4_automaton_soundness(automaton, gmap):
    start = time.perf_counter()

    # (i) the reference loop is present
    seq = stallings_decompose(gmap)
    loop = decomposition_to_loop(automaton, seq)
    assert loop is not None
    assert loop_to_map(automaton, loop).edge_images == gmap.edge_images
    assert _conjugate_by_relabeling(loop_to_map(automaton, loop), gmap)

    # (ii) exactly one class-level component contains directed loops, and it
    # carries a loop composing to a map passing the full irreducibility
    # criterion (the reference loop itself)
    loop_components = automaton.loop_sccs()
    assert len(loop_components) == 1
    component = set(automaton.sccs[loop_components[0]])
    assert automaton.node_one[0] in component
    assert all(c in component for c, _sigma in loop.nodes)
    assert fic_check(MapAnalysis(loop_to_map(automaton, loop))).passed

    # (iii) with the reference class removed, every loop of length <= 4
    # composes to a reducible transition matrix
    analysis = node_one_analysis(automaton, loop_bound=4)
    assert analysis.obstruction_holds
    assert analysis.loops_checked > 0
    assert analysis.entering_folds == 4

    # (iv) transport soundness for every loop of length <= 3, at every
    # rotation: the composed map's nonperiodic direction and graph match the
    # node, its taken turns lie inside the node turns, and they agree exactly
    # whenever the composition is irreducible (junk loops with reducible
    # matrices genuinely take fewer turns)
    loops = enumerate_loops(automaton, 3)
    assert loops
    irreducible_hits = 0
    for base in loops:
        current = base
        for _ in range(len(base.folds)):
            m = loop_to_map(automaton, current)
            key = automaton.classes.key(current.nodes[0])
            a = MapAnalysis(m)
            nonperiodic = set(m.source.directions()) - a.periodic
            assert nonperiodic == {key[1]}
            closure = taken_turn_closure(a)
            node_turns = frozenset(tuple(t) for t in key[2])
            assert closure <= node_turns
            if is_irreducible(a.matrix):
                assert closure == node_turns
                irreducible_hits += 1
            current = rotate_loop(automaton, current)
    assert irreducible_hits > 0

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 4 (automaton soundness)", True, elapsed,
            f"{len(loops)} loops, {analysis.loops_checked} residual loops")


def _principal_loop_sample(automaton, count=50, seed=20260809):
    loops = enumerate_loops(automaton, 5, start_nodes=[automaton.node_one])
    principal = []
    for lp in loops:
        m = loop_to_map(automaton, lp)
        if not is_irreducible(transition_matrix(m)):
            continue
        if is_principal(MapAnalysis(m)).is_principal:
            principal.append((lp, m))
    rng = random.Random(seed)
    assert len(principal) >= count
    return rng.sample(principal, count)


def test_criterion_5_decomposition_roundtrips(automaton, gmap):
    start = time.perf_counter()

    maps = [gmap, iterate_map(gmap, 2), iterate_map(gmap, 3)]
    maps.extend(m for _lp, m in _principal_loop_sample(automaton))
    assert len(maps) == 53

    for g in maps:
        seq = stallings_decompose(g)
        assert seq.composed_map() == g
        base_poly = char_poly(transition_matrix(g))
        base_shape = ideal_whitehead(MapAnalysis(g)).component_sizes()
        steps = sequence_steps(seq)
        for j in range(len(seq) + 1):
            rotated = rotate(seq, j)
            # fold conjugation is the general push of the rotated steps
            assert rotated == push_permutations(steps[j:] + steps[:j])
            m = rotated.composed_map()
            assert char_poly(transition_matrix(m)) == base_poly
            assert ideal_whitehead(MapAnalysis(m)).component_sizes() == base_shape

    # permutation pushing across powers stays exact
    seq = stallings_decompose(gmap)
    for p in (2, 3):
        powered = compose_power(seq, p)
        assert powered == push_permutations(sequence_steps(seq) * p)
        assert powered.composed_map() == iterate_map(gmap, p)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 5 (decomposition round-trips)", True, elapsed,
            f"{len(maps)} maps")


def test_criterion_6_negative_controls(psi, block_map):
    start = time.perf_counter()

    cert = is_train_track(MapAnalysis(psi))
    assert not cert.is_train_track
    graph = psi.source
    assert cert.witness == make_turn(
        graph.direction_of("~z"), graph.direction_of("~x")
    )

    report = fic_check(MapAnalysis(block_map))
    assert not report.irreducible
    assert report.invariant_edges is not None
    names = [block_map.source.edge_names[i] for i in report.invariant_edges]
    assert names in (["a"], ["b"])

    elapsed = time.perf_counter() - start
    _report("criterion 6 (negative controls)", True, elapsed)
