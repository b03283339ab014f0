"""The three workloads: their inputs, operations and exact invariants.

Every operation goes through a public entry point of the package: the CLI
in-process where a command exists, the functions the CLI calls otherwise.
An operation's latency covers the call only; its output is checked right
after.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time

import docgen
import stats

# -- exact invariants ------------------------------------------------------------

FUNNELS = {
    3: {"universe": 5, "candidates": 260, "train_track": 160, "irreducible": 16,
        "fully_irreducible": 16, "principal": 8, "classes": 1},
    4: {"universe": 30, "candidates": 1424, "train_track": 832, "irreducible": 0,
        "fully_irreducible": 0, "principal": 0, "classes": 0},
    5: {"universe": 193, "candidates": 13214, "train_track": 7070, "irreducible": 0,
        "fully_irreducible": 0, "principal": 0, "classes": 0},
}
AUTOMATON = {
    "nodes": 24000,
    "fold_edges": 86400,
    "classes": 17,
    "scc_sizes": [1, 1, 1, 14],
    "loops_checked": 732,
    "loops_reducible": 732,
    "entering_folds": 4,
    "obstruction_holds": True,
}
# the part of AUTOMATON that node_one_analysis produces
ANALYSIS_KEYS = ("loops_checked", "loops_reducible", "entering_folds", "obstruction_holds")
VERDICTS = {
    "T": "NOT-TRAIN-TRACK",
    "N": "NOT-PRINCIPAL",
    "F": "FULLY-IRREDUCIBLE",
    "P": "PRINCIPAL",
}
# verdict of each pool word, in pool order, as recorded for the pool digest
POOL_DIGEST = "6585292cdfa2d9a3"
POOL_VERDICTS = (
    "TNPNFTPFTNNPTFPNFTTFNNTTNPTFPTTNNFNTTTNNNFTFTTTFTNTPTFNTNTNNNFTPTPTN"
    "FFTPNNFFTNPPFTTFNNNNTNTTTPTTTTTPNNNNTPFTNTNNTFNPTTNN"
)


def mismatches(observed: dict, expected: dict, where: str = "") -> list[str]:
    """One message per expected key whose observed value differs."""
    return [
        f"{where}{key}: expected {want!r}, got {observed.get(key)!r}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


# -- running the package ---------------------------------------------------------


def clear_caches() -> None:
    """Drop every function-level cache in the package and sympy's global
    cache, as a fresh CLI process would start without them."""
    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache

        clear_cache()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "traintrack":
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``traintrack.cli.main`` in-process: exit code and captured stdout."""
    import traintrack.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = traintrack.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _figure(seconds: float, unit: str = "s") -> dict:
    return {"value": seconds * 1e3 if unit == "ms" else seconds, "unit": unit}


class Workload:
    """Inputs made from the seed in ``__init__``; ``operations`` lists
    ``(name, call, check)`` where ``check(result)`` returns mismatches.

    ``op_a`` and ``op_b`` name the two operations whose latencies are the
    end-to-end metrics ``op_a_ms`` and ``op_b_ms``.  ``layers`` are the span
    layers every traced iteration must reach."""

    name = ""
    op_a = op_b = ""
    layers: tuple[str, ...] = ()
    # each operation stands for a fresh CLI process, which starts with empty caches
    clear_each_operation = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def operations(self):
        raise NotImplementedError

    def detail(self) -> dict:
        return {}

    def latencies(self, columns) -> tuple[float, float, dict]:
        """Seconds of ``op_a`` and ``op_b`` and the workload's figures, from
        ``columns``: per operation of an iteration, its name and its adjusted
        seconds in each iteration.  An operation's latency is the median of
        all its samples in the run."""
        pooled: dict[str, list[float]] = {}
        for name, samples in columns:
            pooled.setdefault(name, []).extend(samples)
        medians = {name: stats.median(samples) for name, samples in pooled.items()}
        figures = {f"{name}_s": _figure(value) for name, value in medians.items()}
        return medians[self.op_a], medians[self.op_b], figures


class TheoremB(Workload):
    """``search single-fold`` at ranks 3 and 4 (each with its universe
    build), then the rank-5 universe build.  The short searches repeat, so
    a run holds enough samples of each for a steady median."""

    name = "theorem_b"
    op_a, op_b = "search_r3", "search_r4"
    layers = (
        "cli.main", "search.search", "search.universe", "search.iso", "certify.tt",
        "certify.pnp", "spectral.classify", "spectral.irreducible", "whitehead.principal",
        "whitehead.ideal", "graphs.compose",
    )
    repeats = {"search_r3": 4, "search_r4": 2}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.funnels: dict[int, dict] = {}
        self.universe_graphs = 0

    def _search(self, rank: int):
        path = os.path.join(self.workdir, f"search-r{rank}.json")

        def call():
            code, _ = run_cli(["--jobs", "1", "search", "single-fold",
                               "--rank", str(rank), "--json", path])
            return code

        def check(code):
            with open(path, encoding="utf-8") as fh:
                funnel = json.load(fh)
            os.remove(path)
            self.funnels[rank] = funnel
            errors = mismatches(funnel, FUNNELS[rank], f"rank {rank} ")
            if code != 0:
                errors.append(f"rank {rank} exit code {code}, expected 0")
            return errors

        return call, check

    def _universe(self):
        def call():
            import traintrack.search

            return traintrack.search.build_universe(5)

        def check(universe):
            n = len(universe.graphs)
            self.universe_graphs = n
            want = FUNNELS[5]["universe"]
            return [] if n == want else [f"rank-5 universe: {n} graphs, expected {want}"]

        return call, check

    def operations(self):
        return (
            [("search_r3", *self._search(3))] * self.repeats["search_r3"]
            + [("search_r4", *self._search(4))] * self.repeats["search_r4"]
            + [("universe_r5", *self._universe())]
        )

    def detail(self) -> dict:
        return {"funnels": self.funnels, "universe_r5_graphs": self.universe_graphs}

    def _per_iteration(self, key: str) -> int:
        return sum(f.get(key, 0) * self.repeats.get(f"search_r{rank}", 1)
                   for rank, f in self.funnels.items())

    def tt_yield(self) -> float:
        cand = self._per_iteration("candidates")
        return self._per_iteration("train_track") / cand if cand else 0.0

    def graphs_per_iteration(self) -> int:
        return self._per_iteration("universe") + self.universe_graphs


class TheoremBRank5(TheoremB):
    """``search single-fold --rank 5`` alone: the full rank-5 search, about
    ninety seconds per operation, so it is not one of the timed workloads
    in BENCHMARK.json.  Run it by hand for before/after figures."""

    name = "theorem_b_r5"
    op_a = op_b = "search_r5"
    repeats = {}

    def operations(self):
        return [("search_r5", *self._search(5))]


class AutomatonBuild(Workload):
    """``automaton build --loop-bound 4``: ``build_automaton(3)``, then
    ``node_one_analysis`` of the reference node with loop bound 4, as the
    command runs them, each its own operation.  The shorter analysis
    repeats on the same automaton, so a run holds enough samples of it for
    a steady median."""

    name = "automaton"
    op_a, op_b = "build", "analysis"
    layers = (
        "automaton.build", "automaton.nodes", "automaton.transport", "automaton.relabel",
        "automaton.analysis", "automaton.out_folds", "automaton.loops",
        "automaton.loop_to_map", "spectral.irreducible", "graphs.compose",
    )
    # one command: the analysis runs on whatever the build left cached
    clear_each_operation = False
    analysis_repeats = 3

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.automaton = None
        self.observed: dict = {}

    def operations(self):
        from traintrack.automaton import automaton_json, build_automaton, node_one_analysis

        self.automaton = None

        def build():
            return build_automaton(3)

        def check_build(automaton):
            self.automaton = automaton
            observed = automaton_json(automaton)
            expected = {k: v for k, v in AUTOMATON.items() if k not in ANALYSIS_KEYS}
            self.observed.update({k: observed.get(k) for k in expected})
            return mismatches(observed, expected, "automaton ")

        def analyse():
            return node_one_analysis(self.automaton, loop_bound=4)

        def check_analysis(analysis):
            observed = automaton_json(self.automaton, analysis)["reference_analysis"]
            expected = {k: AUTOMATON[k] for k in ANALYSIS_KEYS}
            self.observed.update({k: observed.get(k) for k in expected})
            return mismatches(observed, expected, "automaton ")

        return [("build", build, check_build)] + [
            ("analysis", analyse, check_analysis)
        ] * self.analysis_repeats

    def detail(self) -> dict:
        return {"automaton": self.observed}


class CertifyBatch(Workload):
    """``certify`` then ``decompose`` on each document of the seeded batch."""

    name = "certify_batch"
    layers = (
        "cli.main", "mapdoc.parse", "reports.certify_map", "reports.render", "certify.tt",
        "certify.pnp", "certify.fic", "certify.expanding", "spectral.classify",
        "spectral.char_poly", "spectral.root", "spectral.perron", "spectral.irreducible",
        "whitehead.principal", "whitehead.ideal", "folds.apply_fold",
        "folds.decompose", "graphs.compose", "graphs.gates",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.docs = docgen.batch(seed)
        self.pool_digest = docgen.digest(docgen.pool_documents())
        self.batch_digest = docgen.digest(text for _, text in self.docs)
        self.paths = []
        for k, (_, text) in enumerate(self.docs):
            path = os.path.join(workdir, f"doc{k:04d}.map")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)
        self.histogram: dict[str, int] = {}

    def expected_verdict(self, pool_index: int) -> str | None:
        if self.pool_digest != POOL_DIGEST or len(POOL_VERDICTS) != docgen.POOL_SIZE:
            return None
        return VERDICTS[POOL_VERDICTS[pool_index]]

    def _document(self, pool_index: int, path: str):
        def call():
            return run_cli(["certify", path]), run_cli(["decompose", path])

        def check(result):
            (c_code, c_out), (d_code, d_out) = result
            errors = []
            last = c_out.strip().splitlines()[-1] if c_out.strip() else ""
            verdict = last.removeprefix("verdict: ")
            self.histogram[verdict] = self.histogram.get(verdict, 0) + 1
            want = self.expected_verdict(pool_index)
            if want is None:
                errors.append("document pool drifted from its recorded verdicts")
            elif verdict != want:
                errors.append(f"pool word {pool_index}: verdict {verdict}, expected {want}")
            want_code = 0 if verdict == "PRINCIPAL" else 4
            if c_code != want_code:
                errors.append(f"pool word {pool_index}: certify exit {c_code} for {verdict}")
            if d_code != 0 or "recomposes exactly: yes" not in d_out:
                errors.append(f"pool word {pool_index}: decomposition does not recompose (exit {d_code})")
            return errors

        return call, check

    def operations(self):
        self.histogram = {}
        return [
            ("map", *self._document(i, path))
            for (i, _), path in zip(self.docs, self.paths)
        ]

    def latencies(self, columns) -> tuple[float, float, dict]:
        """``op_a`` is the median document and ``op_b`` the tail document,
        over each document's median latency in the run."""
        docs = [stats.median(samples) for _, samples in columns]
        pct, tail = stats.tail(docs)
        p50 = stats.median(docs)
        figures = {
            "map_p50_ms": _figure(p50, "ms"),
            "map_tail_ms": dict(_figure(tail, "ms"), percentile=pct, documents=len(docs)),
        }
        return p50, tail, figures

    def detail(self) -> dict:
        return {
            "documents": len(self.docs),
            "pool_digest": self.pool_digest,
            "batch_digest": self.batch_digest,
            "verdict_histogram": dict(sorted(self.histogram.items())),
        }


WORKLOADS = {w.name: w for w in (TheoremB, TheoremBRank5, AutomatonBuild, CertifyBatch)}


def run_iteration(workload: Workload, tracer=None):
    """Run every operation once.  Returns the iteration's ``(start, end)``
    clock readings (first call until the last result is checked) and
    ``(name, t0, t1, errors)`` per operation, ``[t0, t1]`` covering the call."""
    from spans import ITERATION, OPERATION

    clock = time.perf_counter
    records = []
    gc.collect()
    root = tracer.open(ITERATION) if tracer else -1
    start = clock()
    for k, (name, call, check) in enumerate(workload.operations()):
        if k == 0 or workload.clear_each_operation:
            clear_caches()
        span = tracer.open(OPERATION) if tracer else -1
        t0 = clock()
        try:
            result = call()
            t1 = clock()
            errors = check(result)
        except Exception as exc:  # a crash is a failed operation
            t1 = clock()
            errors = [f"{name}: {type(exc).__name__}: {exc}"]
        if tracer:
            tracer.close(span)
        records.append((name, t0, t1, errors))
    end = clock()
    if tracer:
        tracer.close(root)
    return (start, end), records
