"""The package imports exactly the third-party distributions that
``pyproject.toml`` declares, so a dropped or an undeclared dependency fails
here rather than at install time; and its modules import each other in one
order, so no module reaches up past the modules it is built on."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

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


# each module may import only the modules listed before it
LAYERS = (
    "digraph", "graphs", "mapdoc", "catalog", "folds", "spectral", "certify",
    "whitehead", "automaton", "search", "reports", "cli",
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
