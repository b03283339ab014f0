"""Span tracing around the package's public functions.

Each wrapped call appends one span: layer name, start, end, parent span and
an optional count taken from the result.  Spans stay in memory in flat
arrays; self times, call counts and per-iteration sums are derived from
them after the run, and ``Tracer.write`` saves them as gzipped TSV.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (layer, module, attribute, class or None, count taken from the result)
TARGETS = (
    ("search.universe", "traintrack.search", "build_universe", None, None),
    ("search.iso", "traintrack.search", "graph_isomorphisms", None, len),
    ("search.search", "traintrack.search", "single_fold_search", None, None),
    ("certify.tt", "traintrack.certify", "is_train_track", None, None),
    ("certify.pnp", "traintrack.certify", "pnp_bounded_search", None, None),
    ("certify.fic", "traintrack.certify", "fic_check", None, None),
    ("certify.expanding", "traintrack.certify", "is_expanding", None, None),
    ("spectral.classify", "traintrack.spectral", "classify_matrix", None, None),
    ("spectral.char_poly", "traintrack.spectral", "char_poly", None, None),
    ("spectral.root", "traintrack.spectral", "largest_real_root_interval", None, None),
    ("spectral.perron", "traintrack.spectral", "is_perron_number", None, None),
    ("spectral.irreducible", "traintrack.spectral", "is_irreducible", None, None),
    ("whitehead.principal", "traintrack.whitehead", "is_principal", None, None),
    ("whitehead.ideal", "traintrack.whitehead", "ideal_whitehead", None, None),
    ("whitehead.ltt", "traintrack.whitehead", "ltt_structure", None, None),
    ("folds.apply_fold", "traintrack.folds", "apply_fold", None, None),
    ("folds.decompose", "traintrack.folds", "stallings_decompose", None, len),
    ("graphs.compose", "traintrack.graphs", "compose", None, None),
    ("graphs.gates", "traintrack.graphs", "gates", None, None),
    ("automaton.nodes", "traintrack.automaton", "enumerate_nodes", None, None),
    ("automaton.transport", "traintrack.automaton", "transport", None, None),
    ("automaton.relabel", "traintrack.automaton", "relabel_key", None, None),
    ("automaton.build", "traintrack.automaton", "build_automaton", None, None),
    ("automaton.out_folds", "traintrack.automaton", "out_folds", "Automaton", None),
    ("automaton.loops", "traintrack.automaton", "enumerate_loops", None, len),
    ("automaton.loop_to_map", "traintrack.automaton", "loop_to_map", None, None),
    ("automaton.analysis", "traintrack.automaton", "node_one_analysis", None, None),
    ("mapdoc.parse", "traintrack.mapdoc", "parse_map_document", None, None),
    ("reports.certify_map", "traintrack.reports", "certify_map", None, None),
    ("reports.render", "traintrack.reports", "certify_text", None, None),
    ("reports.render", "traintrack.reports", "certify_json", None, None),
    ("reports.render", "traintrack.reports", "decompose_text", None, None),
    ("reports.render", "traintrack.reports", "decompose_json", None, None),
    ("cli.main", "traintrack.cli", "main", None, None),
)

# spans the benchmark opens itself: one per iteration, one per operation
ITERATION = "bench.iteration"
OPERATION = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.values = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.starts)
        self.name_id.append(self._id(name))
        self.parents.append(self._stack[-1])
        self.values.append(0)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        sid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, starts, ends = self.name_id, self.starts, self.ends
        parents, values = self.parents, self.values

        def traced(*args, **kwargs):
            i = len(starts)
            name_id.append(sid)
            parents.append(stack[-1])
            values.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                values[i] = count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace each target wherever the package looks its name up: in
        its own module and in every package module that imported it.
        ``missing`` lists the targets that do not exist."""
        self.missing = []
        for name, module, attr, cls, count in targets:
            mod = importlib.import_module(module)
            owner = getattr(mod, cls) if cls else mod
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            traced = self.wrap(name, original, count)
            if cls:
                self._patch(owner, attr, traced)
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "traintrack":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self):
        """``(name, start, end, parent, value)`` per span, in call order."""
        for i in range(len(self.starts)):
            yield (
                self.names[self.name_id[i]],
                self.starts[i],
                self.ends[i],
                self.parents[i],
                self.values[i],
            )

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tvalue\n")
            for name, start, end, parent, value in self.spans():
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{value}\n")


SPAN_FIELDS = (str, float, float, int, int)


def read(path) -> list[tuple]:
    """The spans ``Tracer.write`` saved, as ``Tracer.spans`` yields them."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        next(fh)
        return [
            tuple(kind(field) for kind, field in zip(SPAN_FIELDS, line.rstrip("\n").split("\t")))
            for line in fh
        ]


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the time its direct children cover.
    Parents precede their children, and children nest inside them."""
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]


def enclosing(name_id, parents, target: int) -> list[int]:
    """For each span, the nearest span (itself included) whose name id is
    ``target``, or -1."""
    out = [-1] * len(parents)
    for i, p in enumerate(parents):
        if name_id[i] == target:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return out


def per_iteration(tracer: Tracer) -> list[dict[str, dict[str, float]]]:
    """For each traced iteration span: per layer name, the summed self time
    (``self``), the call count (``calls``), the summed result counts
    (``value``) and, per layer, the calls made inside ``reports.certify_map``
    (``in_certify_map``)."""
    names = tracer.names
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    it_id = tracer._ids.get(ITERATION, -1)
    cm_id = tracer._ids.get("reports.certify_map", -1)
    root = enclosing(tracer.name_id, tracer.parents, it_id)
    in_cm = enclosing(tracer.name_id, tracer.parents, cm_id)
    rows: dict[int, dict[str, dict[str, float]]] = {}
    for i in range(len(selfs)):
        r = root[i]
        if r < 0:
            continue
        row = rows.setdefault(r, {})
        cell = row.setdefault(
            names[tracer.name_id[i]],
            {"self": 0.0, "calls": 0, "value": 0, "in_certify_map": 0},
        )
        cell["self"] += selfs[i]
        cell["calls"] += 1
        cell["value"] += tracer.values[i]
        if in_cm[i] >= 0 and in_cm[i] != i:
            cell["in_certify_map"] += 1
    out = []
    for r in sorted(rows):
        row = rows[r]
        row[ITERATION]["wall"] = tracer.ends[r] - tracer.starts[r]
        out.append(row)
    return out
