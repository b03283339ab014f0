"""Tests of the benchmark's own logic.  Run with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import docgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_a_function_of_the_seed():
    assert docgen.batch(7) == docgen.batch(7)
    assert docgen.digest(t for _, t in docgen.batch(7)) != docgen.digest(
        t for _, t in docgen.batch(8)
    )
    assert sorted(i for i, _ in docgen.batch(7)) == list(range(docgen.POOL_SIZE))


def test_pool_matches_recorded_verdicts():
    assert docgen.digest(docgen.pool_documents()) == workloads.POOL_DIGEST
    assert len(workloads.POOL_VERDICTS) == docgen.POOL_SIZE
    assert set(workloads.POOL_VERDICTS) <= set(workloads.VERDICTS)


def test_automorphisms_by_brute_force():
    autos = docgen.automorphisms()
    assert len(autos) == 8
    assert autos == sorted(autos)
    assert tuple(range(1, 6)) in autos


def test_presentation_is_an_isomorphic_copy():
    """A presented document parses to a map conjugate to the original by
    some relabeling, so it has the same transition-matrix spectrum."""
    from traintrack import parse_map_document
    from traintrack.spectral import char_poly, transition_matrix

    reference = parse_map_document(docgen.document(docgen.ENDS, docgen.REFERENCE[1]))
    for _, text in docgen.batch(3)[:5]:
        parse_map_document(text)  # every document is well formed
    import random

    ends, images = docgen.present(docgen.REFERENCE, random.Random(11))
    copy = parse_map_document(docgen.document(ends, images))
    assert char_poly(transition_matrix(copy)) == char_poly(transition_matrix(reference))


def test_reference_document_matches_the_catalog():
    from traintrack import parse_map_document
    from traintrack.catalog import single_fold_map

    text = docgen.document(docgen.ENDS, docgen.REFERENCE[1])
    assert parse_map_document(text) == single_fold_map()


def test_invariant_checker_rejects_a_perturbed_count():
    observed = dict(workloads.FUNNELS[3])
    assert workloads.mismatches(observed, workloads.FUNNELS[3]) == []
    observed["train_track"] += 1
    errors = workloads.mismatches(observed, workloads.FUNNELS[3], "rank 3 ")
    assert errors == ["rank 3 train_track: expected 160, got 161"]
    automaton = dict(workloads.AUTOMATON, scc_sizes=[1, 1, 2, 13])
    assert len(workloads.mismatches(automaton, workloads.AUTOMATON)) == 1


def test_self_time_on_a_hand_built_span_tree():
    #  0 [0, 10]
    #  +- 1 [1, 4]
    #  |  +- 2 [2, 3]
    #  +- 3 [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]
    assert spans.enclosing([0, 1, 2, 1], parents, 1) == [-1, 1, 1, 3]


def test_tracer_spans_and_per_iteration_sums():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: [1, 2, 3], count=len)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    root = tracer.open(spans.ITERATION)
    assert outer() == [1, 2, 3, 1, 2, 3]
    tracer.close(root)
    (row,) = spans.per_iteration(tracer)
    assert row["inner"]["calls"] == 2 and row["inner"]["value"] == 6
    assert row["outer"]["calls"] == 1
    total = sum(cell["self"] for cell in row.values())
    assert abs(total - row[spans.ITERATION]["wall"]) < 1e-9


def test_written_spans_read_back(tmp_path):
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: [1, 2], count=len)
    root = tracer.open(spans.ITERATION)
    inner()
    inner()
    tracer.close(root)
    path = tmp_path / "spans.tsv.gz"
    tracer.write(path)
    assert spans.read(path) == list(tracer.spans())
    assert [name for name, *_ in spans.read(path)] == [spans.ITERATION, "inner", "inner"]


def test_traced_run_flags_missing_targets_and_unreached_layers():
    tracer = spans.Tracer()
    tracer.install([("search.iso", "traintrack.search", "no_such_function", None, None)])
    tracer.uninstall()
    assert tracer.missing == ["traintrack.search.no_such_function"]
    rows = [{"search.iso": {}, "certify.tt": {}}, {"certify.tt": {}}]
    assert run.unreached_layers(rows, ("certify.tt", "search.iso")) == ["search.iso"]


def test_op_metrics_follow_named_operations():
    """op_a and op_b are the named operations, whatever their sizes."""
    workload = workloads.TheoremB(1, ".")
    columns = [("search_r3", [0.3, 0.1]), ("search_r3", [0.2, 0.2]),
               ("search_r4", [9.0, 9.0]), ("universe_r5", [0.5, 0.5])]
    op_a, op_b, figures = workload.latencies(columns)
    assert (op_a, op_b) == (0.2, 9.0)
    assert figures["universe_r5_s"]["value"] == 0.5
    batch_columns = [("map", [k / 1000, k / 1000]) for k in range(1, 41)]
    p50, tail, figures = workloads.CertifyBatch.latencies(None, batch_columns)
    assert (p50, tail) == (0.0205, 0.030)
    assert figures["map_tail_ms"]["percentile"] == 75


def test_tracer_patches_every_lookup_site_and_restores_them():
    import traintrack.cli
    import traintrack.reports

    original = traintrack.reports.certify_map
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert traintrack.cli.certify_map is traintrack.reports.certify_map
        assert traintrack.cli.certify_map is not original
    finally:
        tracer.uninstall()
    assert traintrack.cli.certify_map is original
    assert tracer.missing == []


def test_tail_percentile_rule():
    # the highest ladder percentile with at least ten samples above it
    assert stats.tail_percentile(19) == 100.0
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(720) == 98
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(999) == 98
    values = list(range(1, 1001))
    assert stats.tail(values) == (99, 990)
    assert stats.tail([5.0, 1.0, 3.0]) == (100.0, 5.0)


def test_median_and_percentile():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    assert stats.percentile(range(1, 101), 90) == 90


def test_speed_adjustment_scales_by_the_probe():
    import speed

    probe = speed.SpeedProbe()
    for k in range(100):  # a probe every 0.1 s, each at half the reference speed
        probe.starts.append(k * 0.1 + 0.05)
        probe.durations.append(2 * speed.REFERENCE)
        probe.costs.append(0.001)
    # 2 s measured, 20 probes of 1 ms inside it, half speed
    assert abs(probe.adjust(1.0, 3.0) - (2.0 - 0.020) * 0.5) < 1e-9
    assert abs(speed.scale([speed.REFERENCE] * 5) - 1.0) < 1e-12
    # trimming drops a probe an interrupt made slow
    durations = [speed.REFERENCE] * 9 + [100 * speed.REFERENCE]
    assert abs(speed.scale(durations) - 1.0) < 1e-12
