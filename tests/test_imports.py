"""Every test module imports.

The tier-1 command runs pytest with ``--continue-on-collection-errors``, so
a test module that fails to import leaves the run with a collection error
but without its tests, and the pass count alone does not show the loss.
Importing each module here turns that into a failed test.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

MODULES = sorted(path.stem for path in Path(__file__).resolve().parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
