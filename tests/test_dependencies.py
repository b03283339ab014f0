"""The package imports exactly the third-party distributions that
``pyproject.toml`` declares, so a dropped or an undeclared dependency fails
here rather than at install time; it imports none of them at module level,
so only the command that needs one (``certify --json``, which factors with
sympy) pays for loading it; no module imports ``multiprocessing`` or
``concurrent``, so every search runs in one process, and no command loads
either; ``import traintrack`` loads no module of the package, and each
command loads only the layers it runs; and its modules import each other in
one order, so no module reaches up past the modules it is built on."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from traintrack.catalog import SINGLE_FOLD_DOCUMENT

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def imported_top_level_modules() -> set[str]:
    modules = set()
    for path in (ROOT / "src" / "traintrack").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_third_party_imports_match_declared_dependencies():
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"traintrack"}
    assert third_party == declared_dependencies()


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports that run when the module is
    imported: everything outside function bodies."""
    modules = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(ast.iter_child_nodes(node))
    return modules


def test_no_module_imports_a_process_or_thread_pool():
    # the single-fold search has one code path, in one process
    assert imported_top_level_modules() & {"multiprocessing", "concurrent"} == set()


def test_modules_import_only_the_standard_library_at_module_level():
    third_party = {}
    for path in sorted((ROOT / "src" / "traintrack").glob("*.py")):
        names = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names - set(sys.stdlib_module_names):
            third_party[path.name] = sorted(names - set(sys.stdlib_module_names))
    assert third_party == {}


# one interpreter imports the package, then runs each command in turn, and
# reports after each step whether sympy and multiprocessing have been
# imported, and which modules of the package
IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    import traintrack
    def loaded():
        out = {name: name in sys.modules for name in ("sympy", "multiprocessing")}
        out["traintrack"] = sorted(
            name.split(".")[1] for name in sys.modules if name.startswith("traintrack.")
        )
        return out
    steps = [["import traintrack", loaded()]]
    from traintrack.cli import main
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(argv)
            except SystemExit:
                pass
        steps.append([" ".join(argv), loaded()])
    print(json.dumps(steps))
""")


def _package_env() -> dict[str, str]:
    """The environment with this tree's ``src`` first on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """Each probe step, and which of sympy, multiprocessing and the
    package's modules it had loaded: the commands that need no third-party
    module, then the sympy one.  The module sets accumulate over the
    steps."""
    tmp_path = tmp_path_factory.mktemp("probe")
    doc = tmp_path / "g.map"
    doc.write_text(SINGLE_FOLD_DOCUMENT, encoding="utf-8")
    commands = [
        ["certify", str(doc)],
        ["decompose", str(doc)],
        ["search", "single-fold", "--rank", "3"],
        ["verify", "theorem-a"],
        ["--jobs", "1", "verify", "theorem-b", "--ranks", "3"],
        ["automaton", "build", "--loop-bound", "1"],
        # the minimal-polynomial degree of the JSON report factors with sympy
        ["certify", str(doc), "--json", str(tmp_path / "g.json")],
    ]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=_package_env(), check=True,
    )
    steps = json.loads(result.stdout)
    assert len(steps) == 1 + len(commands)
    return steps


def test_only_certify_json_imports_sympy(import_probe):
    sympy = [loaded["sympy"] for _, loaded in import_probe]
    assert sympy == [False] * 7 + [True], import_probe


def test_no_step_imports_multiprocessing(import_probe):
    multiprocessing = [loaded["multiprocessing"] for _, loaded in import_probe]
    assert multiprocessing == [False] * 8, import_probe


def test_each_command_loads_only_its_layers(import_probe):
    layers = [set(loaded["traintrack"]) for _, loaded in import_probe]
    assert layers[0] == set(), import_probe
    # certify and decompose
    assert layers[2].isdisjoint({"automaton", "search"}), import_probe
    # search single-fold, verify theorem-a and verify theorem-b
    assert "search" in layers[5] and "automaton" not in layers[5], import_probe
    assert "automaton" in layers[6], import_probe


# the public names of ``traintrack``, each read from its module on first use
PUBLIC_NAMES = [
    "Automaton", "DirectedLoop", "FicReport", "FoldMove", "FoldSequence", "GraphMap",
    "GraphStructureError", "IdealWhiteheadGraph", "IntPolynomial", "IntegerMatrix",
    "MapAnalysis", "OrientedGraph", "ParseError", "PnpSearchResult", "SearchSummary",
    "SpectralReport", "TtCertificate", "WhiteheadGraph", "apply_fold", "build_automaton",
    "build_universe", "char_poly", "classify_matrix", "compose", "decomposition_to_loop",
    "direction_map", "enumerate_loops", "fic_check", "gates", "ideal_whitehead",
    "illegal_turns", "is_expanding", "is_perron_number", "is_principal", "is_train_track",
    "iterate_map", "loop_to_map", "ltt_structure", "minimal_perron_table",
    "node_one_analysis", "parse_map_document", "pnp_bounded_search", "rotate",
    "single_fold_search", "stallings_decompose", "taken_turn_closure", "trace_obstruction",
    "transition_matrix", "verify_minimal_stretch_argument",
]


def test_package_names_resolve_to_their_defining_modules():
    import traintrack

    assert sorted(traintrack.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(traintrack, name)
        assert value.__module__.startswith("traintrack."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    with pytest.raises(AttributeError, match="no_such_name"):
        traintrack.no_such_name


def test_one_public_name_loads_only_its_layers():
    probe = (
        "import sys\n"
        "from traintrack import parse_map_document\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('traintrack.'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_package_env(),
        check=True,
    )
    assert result.stdout.split() == ["traintrack.digraph", "traintrack.graphs", "traintrack.mapdoc"]


# each module may import only the modules listed before it
LAYERS = (
    "digraph", "graphs", "mapdoc", "catalog", "folds", "spectral", "certify",
    "whitehead", "search", "automaton", "reports", "cli", "__main__",
)


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports by relative import."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_modules_import_only_earlier_layers():
    package = ROOT / "src" / "traintrack"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    upward = [
        f"{module} -> {other}"
        for layer, module in enumerate(LAYERS)
        for other in sorted(package_imports(package / f"{module}.py"))
        if LAYERS.index(other) >= layer
    ]
    assert upward == []
