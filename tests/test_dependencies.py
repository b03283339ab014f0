"""The package imports exactly the third-party distributions that
``pyproject.toml`` declares, so a dropped or an undeclared dependency fails
here rather than at install time."""

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
