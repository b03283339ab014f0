"""End-to-end and per-layer timings of the verification commands, parent
against change.

    python bench.py OUTPUT.json

Runs ``verify theorem-a``, ``verify theorem-b --ranks 3,4,5``,
``automaton build --loop-bound 4`` and ``certify`` on the reference document,
each as a fresh ``python -m traintrack`` process, three times per source
tree.  For each command it records every wall time, their median, the exit
codes and the peak resident set size of the largest run, read from that
child's own resource usage (``os.wait4``; ``resource.getrusage`` with
``RUSAGE_CHILDREN`` would fold in every earlier child too).  Untimed runs
with ``--json`` give the exact invariants: the single-fold funnels at ranks
3 to 5, the automaton counts and the reference map's verdict.

Per layer, each tree runs its own ``perfbench/run.py --trace 1`` on every
benchmark workload and records the last line's ``correct`` and per-layer
``metrics``; ``LAYER_METRICS`` maps the seven timed layers onto them.

The change is the working tree around this file.  The parent is the commit
HEAD points to when ``src/`` has uncommitted changes, and its first parent
otherwise, whose ``src`` and ``perfbench`` are exported together with
``git archive`` into a temporary directory, since the benchmark runs only the
package beside it; both trees run on the interpreter running this script.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
REPEATS = 3
COMMANDS = {
    "theorem_a": ["verify", "theorem-a"],
    "theorem_b": ["verify", "theorem-b", "--ranks", "3,4,5"],
    "automaton": ["automaton", "build", "--loop-bound", "4"],
    "certify": ["certify", "{doc}"],
}
FUNNEL_RANKS = (3, 4, 5)
WORKLOADS = ("theorem_b", "automaton", "certify_batch")
TRACE_SECONDS = 5.0
# each timed layer and the benchmark's per-layer metrics that follow it
LAYER_METRICS = {
    "universe": ["search.universe_s"],
    "isomorphisms": ["search.iso_s", "search.iso_calls"],
    "train track": ["certify.tt_s"],
    "characteristic polynomial and roots": ["spectral.char_poly_s", "spectral.root_s"],
    "periodic Nielsen path search": ["certify.pnp_s"],
    "fold transport": ["automaton.transport_s"],
    "relabeling and keys": ["automaton.relabel_s"],
}
# one span times the universe build at every rank
LAYERS_WITHOUT_RANK_SPLIT = ["universe"]


def _run(tree: Path, argv: list[str], workdir: str) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one fresh
    ``python -m traintrack`` process on ``tree``'s sources."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "traintrack", *argv],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _pid, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _reference_document(tree: Path, path: str) -> str:
    script = (
        "import sys; from traintrack.catalog import SINGLE_FOLD_DOCUMENT; "
        "sys.stdout.write(SINGLE_FOLD_DOCUMENT)"
    )
    text = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True, check=True,
    ).stdout
    Path(path).write_text(text, encoding="utf-8")
    return path


def time_commands(trees: dict[str, Path], repeats: int = REPEATS) -> dict[str, dict]:
    """Per tree and command: argv, exit codes, seconds, median seconds and
    peak RSS.  The trees take turns on each command, in alternating order,
    so a slow phase of the host falls on all of them alike."""
    sides = list(trees)
    runs: dict[str, dict[str, list]] = {side: {name: [] for name in COMMANDS} for side in sides}
    with tempfile.TemporaryDirectory(prefix="bench-") as workdir:
        docs = {
            side: _reference_document(tree, os.path.join(workdir, f"{side}.map"))
            for side, tree in trees.items()
        }
        for name, template in COMMANDS.items():
            for r in range(repeats):
                for side in sides if r % 2 == 0 else sides[::-1]:
                    argv = [docs[side] if arg == "{doc}" else arg for arg in template]
                    runs[side][name].append(_run(trees[side], argv, workdir))
    out: dict[str, dict] = {}
    for side in sides:
        out[side] = {}
        for name, template in COMMANDS.items():
            seconds = [round(s, 4) for _code, s, _rss in runs[side][name]]
            out[side][name] = {
                "argv": template,
                "exit_codes": [code for code, _s, _rss in runs[side][name]],
                "seconds": seconds,
                "median_s": round(statistics.median(seconds), 4),
                "peak_rss_mb": round(max(rss for _code, _s, rss in runs[side][name]), 1),
            }
    return out


def invariants(tree: Path) -> dict:
    """The exact counts, from the ``--json`` files of untimed runs."""
    with tempfile.TemporaryDirectory(prefix="bench-") as workdir:
        path = os.path.join(workdir, "out.json")

        def read(argv: list[str]) -> dict:
            code, *_ = _run(tree, [*argv, "--json", path], workdir)
            with open(path, encoding="utf-8") as fh:
                return dict(json.load(fh), exit_code=code)

        funnels = {str(r): read(["search", "single-fold", "--rank", str(r)]) for r in FUNNEL_RANKS}
        automaton = read(COMMANDS["automaton"])
        certify = read(["certify", _reference_document(tree, os.path.join(workdir, "ref.map"))])
    return {
        "funnels": {
            r: {k: f[k] for k in ("universe", "candidates", "train_track", "irreducible",
                                  "fully_irreducible", "principal", "classes", "exit_code")}
            for r, f in funnels.items()
        },
        "automaton": {
            **{k: automaton[k] for k in ("nodes", "fold_edges", "classes", "scc_sizes",
                                         "exit_code")},
            **{k: automaton["reference_analysis"][k] for k in (
                "loops_checked", "loops_reducible", "entering_folds", "obstruction_holds")},
        },
        "certify": {"verdict": certify["verdict"], "exit_code": certify["exit_code"]},
    }


def traced_layers(tree: Path, seconds: float = TRACE_SECONDS) -> dict[str, dict]:
    """Per workload, ``correct`` and the per-layer ``metrics`` from the last
    stdout line of ``tree``'s own traced benchmark run."""
    layers = {}
    for workload in WORKLOADS:
        result = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", str(seconds), "--trace", "1"],
            cwd=tree, capture_output=True, text=True, check=True,
        )
        last = json.loads(result.stdout.splitlines()[-1])
        layers[workload] = {"correct": last["correct"], "metrics": last["metrics"]}
    return layers


def source_lines(tree: Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (tree / "src" / "traintrack").glob("*.py")
    )


def tree_record(tree: Path, commands: dict, trace_seconds: float = TRACE_SECONDS) -> dict:
    return {
        "src_lines": source_lines(tree),
        "commands": commands,
        "invariants": invariants(tree),
        "layers": traced_layers(tree, trace_seconds),
    }


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def parent_commit() -> str:
    """HEAD while ``src/`` has uncommitted changes, else HEAD's first parent."""
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode
    return _git("rev-parse", "HEAD" if dirty else "HEAD~1").decode().strip()


def main(output: str) -> None:
    parent = parent_commit()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = _git("archive", "--format=tar", parent, "src", "perfbench")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        paths = {"parent": Path(tmp), "change": ROOT}
        commands = time_commands(paths)
        trees = {side: tree_record(path, commands[side]) for side, path in paths.items()}
    trees["parent"]["commit"] = parent
    trees["change"]["commit"] = "working tree on " + _git("rev-parse", "HEAD").decode().strip()
    report = {
        "schema": "1",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "repeats": REPEATS,
        "layer_metrics": LAYER_METRICS,
        "layers_without_rank_split": LAYERS_WITHOUT_RANK_SPLIT,
        **trees,
    }
    Path(output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python bench.py OUTPUT.json")
    main(sys.argv[1])
