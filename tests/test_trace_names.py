"""The benchmark tracer wraps ringnls functions by (module, attribute)
name; every name it lists must resolve, so a rename fails here rather
than in a traced benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _name
               in spans.SPANS + spans.COUNTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
