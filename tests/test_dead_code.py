"""Every name the package defines has a user, and that user is the package.

The check parses ``src/traintrack/*.py`` and collects its functions,
classes, methods and module-level names (dunders exempt).  A name is dead
when no file in ``src/``, ``tests/`` or ``perfbench/`` uses it.  The files
are read as syntax trees, and a use is a name that is read, an attribute,
an imported name, or a string constant that is a single identifier (the
benchmark's tracer looks its targets up by name).  Definitions, assignment
targets, keyword-argument names, comments and docstrings are not uses.

Fields, the annotated names in a package class body, are held to a
stricter rule: a field is read only as an attribute (``x.field``) or by an
identifier string.  Filling it by keyword at construction, or a bare local
name that happens to match, does not count.

A use in ``tests/`` keeps a name alive but does not make it part of what the
package runs.  So a second check collects uses only from the package modules
and ``perfbench/``.  There ``src/traintrack/__init__.py`` counts only for
the names it defines itself, since its table of public names would count as
uses of every exported name.  A name or field that
only tests reach must be listed, with its reason, in ``TEST_ONLY`` or
``TEST_ONLY_FIELDS``; a listed entry that the package does reach fails too.
Oracles and fixtures that only tests need live in ``tests/oracles.py``, and
each of its definitions needs a use in another file of ``tests/``.

Names and fields are matched by spelling, not by binding: a use of ``trace``
anywhere counts for every definition spelled ``trace``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "perfbench")
PACKAGE_USERS = ("src/traintrack", "perfbench")
ORACLES = "tests/oracles.py"

# package entries that only tests reach, each with the reason it stays
TEST_ONLY: dict[str, str] = {}
TEST_ONLY_FIELDS = {
    "SpectralReport.perron_number": (
        "filled by spectral.perron, a required traced layer of the certify_batch benchmark"
    ),
}


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


def fields(tree: ast.Module) -> set[str]:
    """Annotated names in class bodies, reported as ``Class.name``."""
    return {
        f"{node.name}.{item.target.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def identifier_strings(tree: ast.Module) -> set[str]:
    skip = docstrings(tree)
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
        and id(node) not in skip
    }


def uses(tree: ast.Module) -> set[str]:
    out = identifier_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def field_reads(tree: ast.Module) -> set[str]:
    out = identifier_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _trees(root: Path, tops, skip=()) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(), str(path))
        for top in tops
        for path in sorted((root / top).rglob("*.py"))
        if path not in skip
    ]


def _users(root: Path, package_only: bool) -> list[ast.Module]:
    if package_only:
        return _trees(root, PACKAGE_USERS, skip={root / "src/traintrack/__init__.py"})
    return _trees(root, SEARCHED)


def unused_definitions(root: Path, package_only: bool = False) -> set[str]:
    defined = set().union(*map(definitions, _trees(root, ["src/traintrack"])))
    used = set().union(*map(uses, _users(root, package_only)))
    init = root / "src/traintrack/__init__.py"
    if package_only and init.is_file():
        tree = ast.parse(init.read_text(), str(init))
        used |= uses(tree) & definitions(tree)
    return defined - used


def unread_fields(root: Path, package_only: bool = False) -> set[str]:
    defined = set().union(*map(fields, _trees(root, ["src/traintrack"])))
    read = set().union(*map(field_reads, _users(root, package_only)))
    return {f for f in defined if f.split(".")[1] not in read}


def unused_oracles(root: Path) -> set[str]:
    """Definitions in the oracle module that no other test file uses."""
    oracles = root / ORACLES
    defined = definitions(ast.parse(oracles.read_text(), str(oracles)))
    used = set().union(*map(uses, _trees(root, ["tests"], skip={oracles})))
    return defined - used


def unlisted_and_stale(found: set[str], listed: dict[str, str]) -> tuple[list[str], list[str]]:
    """Found entries missing from the list, and listed entries not found."""
    return sorted(found - listed.keys()), sorted(listed.keys() - found)


def test_defined_names_have_users():
    assert sorted(unused_definitions(ROOT)) == []


def test_fields_have_readers():
    assert sorted(unread_fields(ROOT)) == []


def test_names_only_tests_use_are_listed():
    found = unused_definitions(ROOT, package_only=True)
    assert unlisted_and_stale(found, TEST_ONLY) == ([], [])


def test_fields_only_tests_read_are_listed():
    found = unread_fields(ROOT, package_only=True)
    assert unlisted_and_stale(found, TEST_ONLY_FIELDS) == ([], [])


def test_oracles_have_test_users():
    assert sorted(unused_oracles(ROOT)) == []


def test_the_guard_separates_definitions_from_uses(tmp_path):
    package = tmp_path / "src" / "traintrack"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (package / "mod.py").write_text(
        "TABLE = 1\n"
        "ALIAS = TABLE\n"
        "class Box:\n"
        "    read: int\n"
        "    by_keyword: int\n"
        "    by_local: int\n"
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
        "    by_local = Box(read=1, by_keyword=2, by_local=3).read\n"
        "    return dict(as_keyword=by_local)\n"
    )
    # ``TARGETS`` and ``test_it`` are defined outside the package, so they
    # are not checked
    assert unused_definitions(tmp_path) == {
        "ALIAS", "unused_helper", "unused_helper_twin", "in_comment", "in_docstring",
        "as_keyword", "reassigned",
    }
    assert unread_fields(tmp_path) == {"Box.by_keyword", "Box.by_local"}


def test_the_guard_separates_package_users_from_tests(tmp_path):
    package = tmp_path / "src" / "traintrack"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("from .mod import exported\n")
    (package / "mod.py").write_text(
        "def exported():\n"
        "    pass\n"
        "def run():\n"
        "    return helper()\n"
        "def helper():\n"
        "    pass\n"
    )
    (tmp_path / "perfbench" / "bench.py").write_text("from traintrack.mod import run\nrun()\n")
    (tmp_path / "tests" / "test_mod.py").write_text("from traintrack import exported\nexported()\n")
    # every name has some user, but only a test uses the re-exported one
    assert unused_definitions(tmp_path) == set()
    found = unused_definitions(tmp_path, package_only=True)
    assert found == {"exported"}
    assert unlisted_and_stale(found, {}) == (["exported"], [])
    assert unlisted_and_stale(found, {"exported": "an oracle"}) == ([], [])
    assert unlisted_and_stale(found, {"exported": "an oracle", "gone": "stale"}) == ([], ["gone"])


def test_the_guard_counts_the_package_init_only_for_its_own_names(tmp_path):
    package = tmp_path / "src" / "traintrack"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "_MODULE_OF = {'exported': 'mod'}\n"
        "_UNUSED = 1\n"
        "def __getattr__(name):\n"
        "    return _MODULE_OF[name]\n"
    )
    (package / "mod.py").write_text("def exported():\n    pass\n")
    # the table's strings name ``exported`` but do not use it for the package
    assert unused_definitions(tmp_path) == {"_UNUSED"}
    assert unused_definitions(tmp_path, package_only=True) == {"_UNUSED", "exported"}


def test_the_guard_needs_oracles_used_outside_their_module(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracles.py").write_text(
        "def reference():\n"
        "    return inner()\n"
        "def inner():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from oracles import reference\n")
    # ``inner`` is called only inside the oracle module
    assert unused_oracles(tmp_path) == {"inner"}
