"""``bench.py`` at the repository root: one repeat of each command and a
short traced benchmark run of each workload on this tree, and the committed
``BENCH_*.json`` files, checked for their keys and exact invariants."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FUNNELS = {
    "3": {"universe": 5, "candidates": 260, "train_track": 160, "irreducible": 16,
          "fully_irreducible": 16, "principal": 8, "classes": 1, "exit_code": 0},
    "4": {"universe": 30, "candidates": 1424, "train_track": 832, "irreducible": 0,
          "fully_irreducible": 0, "principal": 0, "classes": 0, "exit_code": 0},
    "5": {"universe": 193, "candidates": 13214, "train_track": 7070, "irreducible": 0,
          "fully_irreducible": 0, "principal": 0, "classes": 0, "exit_code": 0},
}
AUTOMATON = {
    "nodes": 24000, "fold_edges": 86400, "classes": 17, "scc_sizes": [1, 1, 1, 14],
    "loops_checked": 732, "loops_reducible": 732, "entering_folds": 4,
    "obstruction_holds": True, "exit_code": 0,
}
CERTIFY = {"verdict": "PRINCIPAL", "exit_code": 0}


def _bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _assert_layers(layers: dict, bench) -> None:
    assert set(layers) == set(bench.WORKLOADS)
    mapped = [name for names in bench.LAYER_METRICS.values() for name in names]
    for workload, record in layers.items():
        assert record["correct"] is True, workload
        assert [name for name in mapped if name not in record["metrics"]] == [], workload


def _assert_tree(tree: dict, commands, repeats: int) -> None:
    assert tree["src_lines"] > 0
    assert set(tree["commands"]) == set(commands)
    for row in tree["commands"].values():
        assert row["exit_codes"] == [0] * repeats
        assert len(row["seconds"]) == repeats
        assert min(row["seconds"]) <= row["median_s"] <= max(row["seconds"])
        assert row["peak_rss_mb"] > 0
    assert tree["invariants"] == {"funnels": FUNNELS, "automaton": AUTOMATON, "certify": CERTIFY}


def test_bench_measures_this_tree():
    bench = _bench()
    commands = bench.time_commands({"change": ROOT}, repeats=1)["change"]
    tree = bench.tree_record(ROOT, commands, trace_seconds=0.1)
    assert set(tree) == {"src_lines", "commands", "invariants", "layers"}
    assert tree["src_lines"] == bench.source_lines(ROOT)
    _assert_tree(tree, bench.COMMANDS, 1)
    _assert_layers(tree["layers"], bench)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_hold_both_trees(path):
    bench = _bench()
    report = json.loads(path.read_text(encoding="utf-8"))
    # the files written before the per-layer half have no layer records
    layered = "layer_metrics" in report
    keys = {"schema", "host", "repeats", "parent", "change"}
    assert set(report) == keys | ({"layer_metrics", "layers_without_rank_split"} if layered else set())
    if layered:
        assert report["layer_metrics"] == bench.LAYER_METRICS
        assert report["layers_without_rank_split"] == bench.LAYERS_WITHOUT_RANK_SPLIT
    for side in ("parent", "change"):
        tree_keys = {"commit", "src_lines", "commands", "invariants"}
        assert set(report[side]) == tree_keys | ({"layers"} if layered else set())
        _assert_tree(report[side], bench.COMMANDS, report["repeats"])
        if layered:
            _assert_layers(report[side]["layers"], bench)
