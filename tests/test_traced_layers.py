"""The benchmark's tracer wraps package functions by name; a rename must
fail here, in the package's own suite, and not only in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path


def _span_targets():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_layer_resolves():
    targets = _span_targets()
    assert targets
    missing = []
    for layer, module, attr, cls, _count in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{layer}: {module}.{cls + '.' if cls else ''}{attr}")
    assert not missing, missing
