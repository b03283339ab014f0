"""Every name the package defines has a user.

The check parses ``src/traintrack/*.py`` and collects its functions,
classes, methods and module-level names (dunders exempt).  A name is dead
when no file in ``src/``, ``tests/`` or ``perfbench/`` uses it.  The files
are read as syntax trees, and a use is a name that is read, an attribute,
an imported name, or a string constant that is a single identifier (the
benchmark's tracer looks its targets up by name).  Definitions, assignment
targets, keyword-argument names, comments and docstrings are not uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "perfbench")


def definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and names, and methods."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def docstrings(tree: ast.Module) -> set[int]:
    """Ids of the string constants that are module, class or function
    docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def uses(tree: ast.Module) -> set[str]:
    skip = docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            out.add(node.value)
    return out


def unused_definitions(root: Path) -> set[str]:
    defined: set[str] = set()
    for path in sorted((root / "src" / "traintrack").glob("*.py")):
        defined |= definitions(ast.parse(path.read_text(), str(path)))
    used: set[str] = set()
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            used |= uses(ast.parse(path.read_text(), str(path)))
    return defined - used


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
        "def called():\n"
        "    pass\n"
        "def in_comment():\n"
        "    pass\n"
        "def in_docstring():\n"
        "    pass\n"
        "def as_keyword():\n"
        "    pass\n"
        "def reassigned():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from traintrack.mod import Box, Other\n"
        "import traintrack.mod\n"
        "TARGETS = ('looked_up', 'method', 'not an identifier')\n"
        "# in_comment is only mentioned in this comment\n"
        "def test_it():\n"
        '    """in_docstring"""\n'
        "    reassigned = traintrack.mod.called\n"
        "    return dict(as_keyword=1)\n"
    )
    # ``TARGETS`` and ``test_it`` are defined outside the package, so they
    # are not checked
    assert unused_definitions(tmp_path) == {
        "ALIAS", "unused_helper", "unused_helper_twin", "in_comment", "in_docstring",
        "as_keyword", "reassigned",
    }
