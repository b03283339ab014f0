"""Benchmark runner for the traintrack package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source tree and imports the package from its
``src/`` directory.  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced run, whose spans
go to ``.perfbench-spans/<workload>.tsv.gz``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, invariants, raw times, the workload's own figures).
Times are adjusted for the host's CPU speed (speed.py).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# every traced run writes its spans here, one file per workload
SPANS_DIR = ROOT / ".perfbench-spans"
MAX_ERRORS_SHOWN = 5


def _import_package() -> None:
    if not (SRC / "traintrack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import traintrack

    if Path(traintrack.__file__).resolve().parent != SRC / "traintrack":
        raise SystemExit(f"perfbench: imported traintrack from {traintrack.__file__}")


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """``(raw, adjusted)`` wall times of fresh processes that start the
    interpreter, import the package and generate the workload's inputs.
    Each process samples the speed probe while it runs and reports the scale
    and the time its probes took."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True,
        )
        raw = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
        scale, cost = map(float, proc.stdout.split()[-2:])
        times.append((raw, (raw - cost) * scale))
    return times


def _setup_only(kind, seed: int) -> None:
    probe = speed.SpeedProbe(interval=0.02)
    probe.start()
    try:
        _import_package()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            kind(seed, workdir)
    finally:
        probe.stop()
    durations = list(probe.durations) or [speed.probe()]
    print(speed.scale(durations), sum(probe.costs))


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    from importlib import metadata

    digest = hashlib.sha256()
    for path in sorted((SRC / "traintrack").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    versions = {}
    for dist in ("sympy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **versions,
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(walls, op_a, op_b, setup) -> dict:
    """Metrics from adjusted iteration walls, the adjusted latencies of the
    workload's two named operations and adjusted set-up times."""
    return {
        "setup_s": _metric(stats.median(setup), "s"),
        "wall_s": _metric(stats.median(walls), "s"),
        "op_a_ms": _metric(op_a * 1e3, "ms"),
        "op_b_ms": _metric(op_b * 1e3, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


# (per-layer metric, span layer, field); ``self`` is seconds of self time
LAYER_FIELDS = (
    ("search.universe_s", "search.universe", "self"),
    ("search.iso_s", "search.iso", "self"),
    ("search.iso_calls", "search.iso", "calls"),
    ("search.iso_found", "search.iso", "value"),
    ("search.self_s", "search.search", "self"),
    ("certify.tt_s", "certify.tt", "self"),
    ("certify.tt_calls", "certify.tt", "calls"),
    ("certify.pnp_s", "certify.pnp", "self"),
    ("certify.pnp_calls", "certify.pnp", "calls"),
    ("certify.fic_s", "certify.fic", "self"),
    ("certify.expanding_s", "certify.expanding", "self"),
    ("spectral.classify_s", "spectral.classify", "self"),
    ("spectral.classify_calls", "spectral.classify", "calls"),
    ("spectral.char_poly_s", "spectral.char_poly", "self"),
    ("spectral.char_poly_calls", "spectral.char_poly", "calls"),
    ("spectral.root_s", "spectral.root", "self"),
    ("spectral.root_calls", "spectral.root", "calls"),
    ("spectral.perron_s", "spectral.perron", "self"),
    ("spectral.perron_calls", "spectral.perron", "calls"),
    ("spectral.irreducible_s", "spectral.irreducible", "self"),
    ("spectral.irreducible_calls", "spectral.irreducible", "calls"),
    ("whitehead.principal_s", "whitehead.principal", "self"),
    ("whitehead.ideal_s", "whitehead.ideal", "self"),
    ("whitehead.ltt_s", "whitehead.ltt", "self"),
    ("folds.apply_fold_s", "folds.apply_fold", "self"),
    ("folds.decompose_s", "folds.decompose", "self"),
    ("graphs.compose_s", "graphs.compose", "self"),
    ("graphs.compose_calls", "graphs.compose", "calls"),
    ("graphs.gates_s", "graphs.gates", "self"),
    ("automaton.nodes_s", "automaton.nodes", "self"),
    ("automaton.transport_s", "automaton.transport", "self"),
    ("automaton.transport_calls", "automaton.transport", "calls"),
    ("automaton.relabel_s", "automaton.relabel", "self"),
    ("automaton.relabel_calls", "automaton.relabel", "calls"),
    ("automaton.build_self_s", "automaton.build", "self"),
    ("automaton.out_folds_s", "automaton.out_folds", "self"),
    ("automaton.out_folds_calls", "automaton.out_folds", "calls"),
    ("automaton.loops_s", "automaton.loops", "self"),
    ("automaton.loops_found", "automaton.loops", "value"),
    ("automaton.loop_to_map_s", "automaton.loop_to_map", "self"),
    ("automaton.analysis_self_s", "automaton.analysis", "self"),
    ("mapdoc.parse_s", "mapdoc.parse", "self"),
    ("reports.certify_map_s", "reports.certify_map", "self"),
    ("reports.render_s", "reports.render", "self"),
    ("cli.self_s", "cli.main", "self"),
)
# calls made inside one reports.certify_map call, averaged over the batch
PER_MAP = (
    ("certify.tt_calls_per_map", "certify.tt"),
    ("certify.pnp_calls_per_map", "certify.pnp"),
    ("spectral.classify_calls_per_map", "spectral.classify"),
)


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def per_layer(rows, factors, untraced_walls, workload) -> tuple[dict, dict]:
    """Medians over traced iterations of each layer's per-iteration sums.
    Self times are scaled by their iteration's speed factor (adjusted over
    raw wall), so they add up to the adjusted traced wall."""
    from spans import ITERATION, OPERATION

    def med(layer: str, field: str) -> float:
        return stats.median([
            row.get(layer, {}).get(field, 0) * (k if field == "self" else 1)
            for row, k in zip(rows, factors)
        ])

    metrics = {name: _metric(med(layer, field), _unit(name)) for name, layer, field in LAYER_FIELDS}
    maps = med("reports.certify_map", "calls")
    for name, layer in PER_MAP:
        metrics[name] = _metric(med(layer, "in_certify_map") / maps if maps else 0.0, "count")
    decompositions = med("folds.decompose", "calls")
    metrics["folds.moves_per_decomposition"] = _metric(
        med("folds.decompose", "value") / decompositions if decompositions else 0.0, "count"
    )
    is_b = isinstance(workload, workloads.TheoremB)
    metrics["search.universe_graphs"] = _metric(workload.graphs_per_iteration() if is_b else 0, "count")
    metrics["search.tt_yield"] = _metric(workload.tt_yield() if is_b else 0.0, "ratio")

    traced_wall = stats.median([row[ITERATION]["wall"] * k for row, k in zip(rows, factors)])
    # the benchmark's own spans cover whatever no package span does
    unattributed = stats.median([
        (row[ITERATION]["self"] + row.get(OPERATION, {}).get("self", 0.0)) * k
        for row, k in zip(rows, factors)
    ])
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_ratio"] = _metric(traced_wall / stats.median(untraced_walls), "ratio")
    metrics["trace.unattributed_s"] = _metric(unattributed, "s")
    metrics["trace.spans"] = _metric(
        stats.median([sum(cell["calls"] for cell in row.values()) for row in rows]), "count"
    )
    # self times partition each traced iteration (raw clock); a detail only,
    # since self times are derived so that they do
    gaps = [
        abs(sum(cell["self"] for cell in row.values()) - row[ITERATION]["wall"])
        for row in rows
    ]
    return metrics, {"self_time_partition_error_s": max(gaps)}


def unreached_layers(rows, layers) -> list[str]:
    """The layers of ``layers`` that some traced iteration made no call to."""
    return [layer for layer in layers if any(layer not in row for row in rows)]


def measure(args, workload):
    """Iterations until the next one would end past ``--seconds``; with
    tracing, untraced and traced iterations alternate.  Returns
    ``[(traced, (start, end), records)]``, the speed probe and the tracer."""
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    iterations = []
    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            if traced:
                tracer.install()
                try:
                    bounds, records = workloads.run_iteration(workload, tracer)
                finally:
                    tracer.uninstall()
            else:
                bounds, records = workloads.run_iteration(workload)
            iterations.append((traced, bounds, records))
            elapsed = time.perf_counter() - start
            enough = not args.trace or len(iterations) >= 2
            if enough and elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
                break
    finally:
        probe.stop()
    return iterations, probe, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    kind = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        _setup_only(kind, args.seed)
        return 0
    _import_package()

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = kind(args.seed, workdir)
        # warm lazily loaded code paths once; the timed iterations start warm
        workloads.run_cli(["certify", _reference_document(workdir)])
        iterations, probe, tracer = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for _, _, recs in iterations for r in recs]
    errors = [e for *_, errs in records for e in errs]
    attempted = len(records)
    failed = sum(1 for *_, errs in records if errs)
    untraced = [(bounds, recs) for traced, bounds, recs in iterations if not traced]
    walls = [probe.adjust(*bounds) for bounds, _ in untraced]
    # per operation of the iteration: its name and adjusted latency in each iteration
    columns = [
        (ops[0][0], [probe.adjust(t0, t1) for _, t0, t1, _ in ops])
        for ops in zip(*(recs for _, recs in untraced))
    ]
    op_a, op_b, figures = workload.latencies(columns)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "iterations": len(iterations),
        "setup_s_raw": [raw for raw, _ in setup],
        "wall_s_raw": [end - start for (start, end), _ in untraced],
        "speed_probes": len(probe.durations),
        "speed_factor": [w / (end - start) for w, ((start, end), _) in zip(walls, untraced)],
        "op_a": workload.op_a,
        "op_b": workload.op_b,
        "figures": figures,
        **workload.detail(),
    }
    if args.trace:
        from spans import per_iteration

        traced = [bounds for is_traced, bounds, _ in iterations if is_traced]
        factors = [probe.adjust(*b) / (b[1] - b[0]) for b in traced]
        rows = per_iteration(tracer)
        metrics, extra = per_layer(rows, factors, walls, workload)
        # a wrapper that no longer finds its target, or a layer the workload
        # must reach but did not, would read as a layer that costs nothing;
        # the coverage check counts as one more operation
        attempted += 1
        unreached = unreached_layers(rows, workload.layers)
        if tracer.missing or unreached:
            failed += 1
        if tracer.missing:
            errors.append(f"tracer targets not found: {', '.join(tracer.missing)}")
        if unreached:
            errors.append(f"traced layers without calls: {', '.join(unreached)}")
        spans_file = SPANS_DIR / f"{args.workload}.tsv.gz"
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(spans_file)
        extra["spans_file"] = spans_file.relative_to(ROOT).as_posix()
    else:
        metrics = end_to_end(walls, op_a, op_b, [adj for _, adj in setup])
        extra = {}
    detail.update(extra)
    detail["error_rate"] = failed / attempted
    detail["errors"] = errors[:MAX_ERRORS_SHOWN]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _reference_document(workdir: str) -> str:
    from traintrack.catalog import SINGLE_FOLD_DOCUMENT

    path = os.path.join(workdir, "reference.map")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SINGLE_FOLD_DOCUMENT)
    return path


if __name__ == "__main__":
    sys.exit(main())
