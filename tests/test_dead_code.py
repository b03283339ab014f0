"""Every name the package defines has a user.

The check parses ``src/traintrack/*.py`` and collects its functions,
classes, methods and module-level names (dunders exempt).  A name is dead
when its word appears nowhere in ``src/``, ``tests/`` or ``perfbench/``
except at its own definitions.  Any other occurrence counts as a use: a
call, an attribute, an import, or a string (the benchmark's tracer looks
its targets up by name), and also a comment or a docstring, so the guard
errs towards keeping a name rather than reporting a live one.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "perfbench")


def definitions(tree: ast.Module) -> Counter:
    """Module-level functions, classes and names, and methods, with the
    number of times each is defined."""
    names: Counter = Counter()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] += 1
        elif isinstance(node, ast.ClassDef):
            names[node.name] += 1
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names[item.name] += 1
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] += 1
    return Counter({n: k for n, k in names.items() if not (n.startswith("__") and n.endswith("__"))})


def word_counts(texts) -> Counter:
    counts: Counter = Counter()
    for text in texts:
        counts.update(re.findall(r"\w+", text))
    return counts


def unused_definitions(root: Path) -> set[str]:
    defined: Counter = Counter()
    for path in sorted((root / "src" / "traintrack").glob("*.py")):
        defined += definitions(ast.parse(path.read_text(), str(path)))
    words = word_counts(
        path.read_text() for top in SEARCHED for path in sorted((root / top).rglob("*.py"))
    )
    return {name for name, k in defined.items() if words[name] <= k}


def test_defined_names_have_users():
    assert sorted(unused_definitions(ROOT)) == []


def test_the_guard_separates_definitions_from_uses(tmp_path):
    package = tmp_path / "src" / "traintrack"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (package / "mod.py").write_text(
        "TABLE = 1\n"
        "ALIAS = TABLE\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "class Other:\n"
        "    def method(self):\n"
        "        return 1\n"
        "def unused_helper():\n"
        "    pass\n"
        "def unused_helper_twin():\n"
        "    pass\n"
        "def looked_up():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from traintrack.mod import Box, Other\n"
        "TARGETS = ('looked_up', 'method')\n"
    )
    # the two ``method`` definitions need a third occurrence; ``TARGETS`` is
    # defined outside the package, so it is not checked
    assert unused_definitions(tmp_path) == {"ALIAS", "unused_helper", "unused_helper_twin"}
