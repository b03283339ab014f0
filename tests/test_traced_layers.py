"""The benchmark's tracer wraps package functions by name; a rename, or a
build that stops calling a traced layer, must fail here, in the package's
own suite, and not only in a traced run."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _workload_layers(name: str) -> tuple[str, ...]:
    """The ``layers`` of the workload class whose ``name`` is ``name``, read
    from the syntax tree of ``perfbench/workloads.py`` (importing it needs
    the benchmark's own path)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        values = {
            target.id: stmt.value
            for stmt in cls.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        if "name" in values and ast.literal_eval(values["name"]) == name:
            return ast.literal_eval(values["layers"])
    raise LookupError(f"no workload named {name!r}")


def test_every_traced_layer_resolves():
    targets = _spans().TARGETS
    assert targets
    missing = []
    for layer, module, attr, cls, _count in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{layer}: {module}.{cls + '.' if cls else ''}{attr}")
    assert not missing, missing


def _assert_reaches_every_layer(workload: str, run) -> None:
    """Install the tracer on the workload's required layers, call ``run``
    (which looks the package functions up after the wrapping), and check
    that every layer was entered."""
    spans = _spans()
    layers = _workload_layers(workload)
    assert layers
    targets = [t for t in spans.TARGETS if t[0] in layers]
    assert {t[0] for t in targets} == set(layers)
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        assert not tracer.missing
        run()
    finally:
        tracer.uninstall()
    calls = {name: 0 for name in layers}
    for name, *_ in tracer.spans():
        calls[name] += 1
    assert all(calls.values()), [name for name, n in calls.items() if not n]


def test_automaton_command_reaches_every_required_layer():
    # what a traced ``automaton`` iteration runs: a fresh build, then the
    # analysis at loop bound 4
    automaton = importlib.import_module("traintrack.automaton")
    _assert_reaches_every_layer(
        "automaton",
        lambda: automaton.node_one_analysis(automaton.build_automaton(3), loop_bound=4),
    )


def test_search_command_reaches_every_theorem_b_layer():
    # the shortest search of a traced ``theorem_b`` iteration
    cli = importlib.import_module("traintrack.cli")

    def run():
        assert cli.main(["--jobs", "1", "search", "single-fold", "--rank", "3"]) == 0

    _assert_reaches_every_layer("theorem_b", run)


def test_certify_and_decompose_reach_every_certify_batch_layer(tmp_path):
    # one document of a traced ``certify_batch`` iteration: the reference map
    cli = importlib.import_module("traintrack.cli")
    catalog = importlib.import_module("traintrack.catalog")
    path = tmp_path / "g.map"
    path.write_text(catalog.SINGLE_FOLD_DOCUMENT, encoding="utf-8")

    def run():
        assert cli.main(["certify", str(path)]) == 0
        assert cli.main(["decompose", str(path)]) == 0

    _assert_reaches_every_layer("certify_batch", run)
