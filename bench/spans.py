"""Spans around the calls into each kdist layer, for the traced run only.

The tracer replaces the traced functions in every loaded ``kdist`` module
attribute that refers to them, which is where callers look them up, and
puts the originals back on ``uninstall``.  The program itself is not
changed.  Spans stay in memory; ``write`` dumps them as JSON lines.

``norm_eval`` runs millions of times per pass, so it gets no span of its
own: its calls and time are summed, and its time is charged to the
enclosing span as child time.  A span's self time is its duration minus
the time its child spans (and norm evaluations) cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

#: Functions that get a span, by layer (the kdist module that defines them).
SPANNED = {
    "spectrum": ("distance_spectrum", "best_distinct_witness"),
    "chains": ("chain_certificate", "cone_heights", "check_cone_conditions"),
    "planar": ("planar_bound_certificate", "max_area_normalization",
               "quadrant_cones"),
    "search": ("branch_and_bound", "_pair_classes",
               "enumerate_optimal_subsets"),
    "cover": ("sphere_samples", "greedy_separated_set", "packing_bound_check",
              "cover_assignment", "generated_cones", "cone_halfwidth_check"),
    "decompose": ("decompose_recursive_bound", "clusters_at",
                  "brunn_minkowski_mc_check", "exact_box_union_area"),
    "cli": ("run_command",),
}
LAYERS = ("norms",) + tuple(SPANNED)


def _mc_tests(args, kwargs, report) -> int:
    # One norm test per trial and centre: the m balls of V, then the
    # distinct differences that centre the balls of V - V.
    ps = args[1] if len(args) > 1 else kwargs["ps"]
    pts = ps.points
    diffs = {tuple(a - b for a, b in zip(p, q)) for p in pts for q in pts}
    return report.trials * (len(pts) + len(diffs))


#: Work counters read off a traced call's arguments and result.
COUNTERS = {
    "search.branch_and_bound":
        lambda args, kwargs, r: {"search.nodes": r.nodes},
    "cover.greedy_separated_set":
        lambda args, kwargs, r: {"cover.centers": len(r.centers)},
    "decompose.decompose_recursive_bound":
        lambda args, kwargs, r: {"decompose.split_nodes": int(r.kind == "split")},
    "decompose.brunn_minkowski_mc_check":
        lambda args, kwargs, r: {"decompose.mc_tests": _mc_tests(args, kwargs, r)},
}

#: Counters that must repeat exactly between runs and passes on one seed.
EXACT_COUNTERS = ("search.nodes", "norms.eval_calls", "cover.centers",
                  "decompose.split_nodes", "decompose.clusters_calls")


class Tracer:
    """In-memory spans for one traced pass; reset before each pass."""

    def __init__(self):
        self.reset()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.item = None
        self.spans: list[tuple] = []   # (id, name, start, end, parent, item, self_s, outermost)
        self.counts: Counter = Counter()
        self.eval_calls = 0
        self.eval_s = 0.0
        self._stack = [[None, 0.0]]    # [span id, child time] per open span
        self._depth: Counter = Counter()
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            frame = [sid, 0.0]
            self._stack.append(frame)
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._depth[name] -= 1
                parent[1] += t1 - t0
                self.spans.append((sid, name, t0, t1, parent[0], self.item,
                                   t1 - t0 - frame[1], outermost))
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result
        return wrapper

    def _norm_eval(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self._stack[-1][1] += dt
            self.eval_calls += 1
            self.eval_s += dt
            return result
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in list(sys.modules.items())
                if n == "kdist" or n.startswith("kdist.")}
        replace = {}
        norm_eval = mods["kdist.norms"].norm_eval
        replace[id(norm_eval)] = self._norm_eval(norm_eval)
        for layer, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[f"kdist.{layer}"], fname)
                replace[id(fn)] = self._spanned(f"{layer}.{fname}", fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and callable(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        calls, incl, own = Counter(), Counter(), Counter()
        layer_self = Counter()
        for _, name, t0, t1, _, _, self_s, outermost in self.spans:
            calls[name] += 1
            own[name] += self_s
            if outermost:
                incl[name] += t1 - t0
            layer_self[name.split(".")[0]] += self_s
        layer_self["norms"] += self.eval_s
        c = self.counts
        m = {
            "norms.eval_calls": self.eval_calls,
            "norms.eval_s": self.eval_s,
            "spectrum.calls": calls["spectrum.distance_spectrum"],
            "spectrum.distance_spectrum_s": incl["spectrum.distance_spectrum"],
            "spectrum.witness_s": incl["spectrum.best_distinct_witness"],
            "chains.certificate_self_s": own["chains.chain_certificate"],
            "chains.cone_heights_s": incl["chains.cone_heights"],
            "chains.check_conditions_s": incl["chains.check_cone_conditions"],
            "planar.certificate_self_s": own["planar.planar_bound_certificate"],
            "planar.normalization_s": incl["planar.max_area_normalization"],
            "search.nodes": c["search.nodes"],
            "search.dfs_s": own["search.branch_and_bound"],
            "search.table_s": incl["search._pair_classes"],
            "search.enumerate_s": own["search.enumerate_optimal_subsets"],
            "cover.samples_s": incl["cover.sphere_samples"],
            "cover.greedy_s": incl["cover.greedy_separated_set"],
            "cover.packing_s": incl["cover.packing_bound_check"],
            "cover.assign_s": incl["cover.cover_assignment"],
            "cover.cones_s": incl["cover.generated_cones"],
            "cover.halfwidth_s": incl["cover.cone_halfwidth_check"],
            "cover.centers": c["cover.centers"],
            "decompose.recursive_s": incl["decompose.decompose_recursive_bound"],
            "decompose.clusters_calls": calls["decompose.clusters_at"],
            "decompose.clusters_s": incl["decompose.clusters_at"],
            "decompose.split_nodes": c["decompose.split_nodes"],
            "decompose.mc_s": incl["decompose.brunn_minkowski_mc_check"],
            "decompose.box_union_s": incl["decompose.exact_box_union_area"],
            "cli.calls": calls["cli.run_command"],
            "trace.spans": len(self.spans),
        }
        m["search.nodes_per_s"] = _rate(m["search.nodes"], m["search.dfs_s"])
        m["decompose.mc_tests_per_s"] = _rate(c["decompose.mc_tests"],
                                              m["decompose.mc_s"])
        for layer in LAYERS:
            if layer != "norms":
                m[f"{layer}.self_s"] = layer_self[layer]
        return m

def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def write(fh, spans: list[tuple], eval_calls: int, eval_s: float) -> None:
    """Write one pass's spans, then its norm_eval totals, as JSON lines."""
    for sid, name, t0, t1, parent, item, self_s, _ in spans:
        fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                             "parent": parent, "item": item, "self_s": self_s}) + "\n")
    fh.write(json.dumps({"name": "norms.norm_eval", "calls": eval_calls,
                         "total_s": eval_s}) + "\n")


def merge_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes; names of exact counters that did not repeat."""
    merged = {name: statistics.median(p[name] for p in per_pass)
              for name in per_pass[0]}
    unstable = [name for name in EXACT_COUNTERS
                if len({p[name] for p in per_pass}) > 1]
    return merged, unstable
