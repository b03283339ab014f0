"""The package imports exactly the third-party distributions that
``pyproject.toml`` declares, so a dropped or an undeclared dependency fails
here rather than at install time; it imports none of them at module level,
so only the command that needs one (``certify --json``, which factors with
sympy) pays for loading it, as only a search on several jobs pays for
multiprocessing; and its modules import each other in one order,
so no module reaches up past the modules it is built on."""

from __future__ import annotations

import ast
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


def test_modules_import_only_the_standard_library_at_module_level():
    third_party = {}
    for path in sorted((ROOT / "src" / "traintrack").glob("*.py")):
        names = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names - set(sys.stdlib_module_names):
            third_party[path.name] = sorted(names - set(sys.stdlib_module_names))
    assert third_party == {}


# one interpreter imports the package, then runs each command in turn, and
# reports after each step whether sympy and multiprocessing have been imported
IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    import traintrack
    def loaded():
        return {name: name in sys.modules for name in ("sympy", "multiprocessing")}
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


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """Each probe step, and which of sympy and multiprocessing it had
    loaded: the commands that need neither, then the sympy one, then a
    search on two jobs."""
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
        # a search on more than one job runs on a process pool
        ["--jobs", "2", "search", "single-fold", "--rank", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    steps = json.loads(result.stdout)
    assert len(steps) == 1 + len(commands)
    return steps


def test_only_certify_json_imports_sympy(import_probe):
    sympy = [loaded["sympy"] for _, loaded in import_probe]
    assert sympy == [False] * 7 + [True, True], import_probe


def test_only_a_search_on_several_jobs_imports_multiprocessing(import_probe):
    multiprocessing = [loaded["multiprocessing"] for _, loaded in import_probe]
    assert multiprocessing == [False] * 8 + [True], import_probe


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
