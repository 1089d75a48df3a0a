"""The kdist functions that the bench tracer wraps by name still exist.

``bench/spans.py`` patches them by module attribute; a renamed or deleted
function would silently drop its span from ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_exist():
    names = [(layer, fname) for layer, fnames in _spans_module().SPANNED.items()
             for fname in fnames] + [("norms", "norm_eval")]
    missing = [f"kdist.{layer}.{fname}" for layer, fname in names
               if not callable(getattr(importlib.import_module(f"kdist.{layer}"), fname, None))]
    assert not missing
