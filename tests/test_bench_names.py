"""The kdist names that the bench uses still exist.

``bench/spans.py`` patches functions by module attribute, and the bench
scripts import kdist names and read them off kdist modules; a renamed or
deleted name would silently drop a span from ``bench/run.py --trace 1``
or break the benchmark only when it runs.
"""

import ast
import contextlib
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def _kdist_names(tree: ast.Module) -> list[str]:
    """Dotted kdist names that the module imports or reads off a kdist module."""
    modules: dict[str, str] = {}        # local name -> the kdist module it is bound to
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "kdist":
                    names.append(a.name)
                    modules[a.asname or "kdist"] = a.name if a.asname else "kdist"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kdist":
            for a in node.names:
                names.append(f"{node.module}.{a.name}")
                modules[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        # The outermost attribute chain on a module-bound name, e.g. cover.HALF_WIDTH.
        if isinstance(node, ast.Attribute):
            parts = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                names.append(".".join([modules[base.id]] + parts[::-1]))
    return names


def _resolves(dotted: str) -> bool:
    """True iff the dotted name is a kdist module or an attribute chain on one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):
            # A submodule its package does not import; importing binds it there.
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(".".join(parts[:i]))
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_bench_kdist_names_exist():
    used = {path.name: set(_kdist_names(ast.parse(path.read_text())))
            for path in sorted(BENCH.glob("*.py"))}
    # The walk must see the names the workloads read off kdist modules.
    assert {"kdist.cover.generated_cones", "kdist.search.SearchProblem",
            "kdist.decompose.MCVolumeReport"} <= used["workloads.py"]
    missing = sorted(f"{file}: {name}" for file, names in used.items()
                     for name in names if not _resolves(name))
    assert not missing
