"""Self-checks of the benchmark: exact repeat of work counters, seeded inputs.

    python3 bench/check_repeat.py

For every workload: two traced passes on fresh inputs from one seed must
report the same work counters (nodes, norm evaluations, centres, split
nodes, cluster calls), and a second seed must give different inputs.  It
also checks that bench/predictions.json names only metrics and workloads
that BENCHMARK.json defines.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def traced_counters(wl, seed: int, workdir: Path) -> tuple[dict, str]:
    """Exact counters of one traced pass, and the digest of the inputs file."""
    inputs = wl.setup(seed, workdir)
    workloads.write_files(inputs)
    digest = hashlib.sha256((workdir / "inputs.json").read_bytes()).hexdigest()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.run(inputs, run.Pass(speed.Speedometer(), tracer))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {name: metrics[name] for name in spans.EXACT_COUNTERS}, digest


class RepeatTest(unittest.TestCase):
    def test_counters_repeat_and_seeds_differ(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                a, b, c = (Path(tmp) / x for x in "abc")
                for d in (a, b, c):
                    d.mkdir()
                first, digest0 = traced_counters(wl, 0, a)
                second, again0 = traced_counters(wl, 0, b)
                self.assertEqual(first, second)
                self.assertEqual(digest0, again0)
                self.assertGreater(sum(first.values()), 0)
                workloads.write_files(wl.setup(1, c))
                digest1 = hashlib.sha256((c / "inputs.json").read_bytes()).hexdigest()
                self.assertNotEqual(digest0, digest1)

    def test_tracer_restores_functions(self):
        import kdist.cover
        import kdist.spectrum
        before = (kdist.cover.norm_eval, kdist.spectrum.distance_spectrum)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(kdist.cover.norm_eval, before[0])
        tracer.uninstall()
        self.assertEqual((kdist.cover.norm_eval, kdist.spectrum.distance_spectrum), before)

    def test_predictions_name_defined_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer = {m["name"] for m in spec["per_layer"]}
        e2e = {m["name"] for m in spec["end_to_end"]}
        names = {w["name"] for w in spec["workloads"]}
        self.assertEqual(names, set(workloads.WORKLOADS))
        rows = json.loads((BENCH / "predictions.json").read_text())["rows"]
        for row in rows:
            self.assertLessEqual(set(row["layer"]), layer, row)
            self.assertLessEqual(set(row["end_to_end"]), e2e | {"item_tail_ms"}, row)
            self.assertIn(row["workload"], names)

    def test_local_slowdowns(self):
        # Nine samples at the reference time, then nine at twice it: an item
        # among the first ones reads 1, one among the last ones reads 2.
        times = list(range(18))
        samples = [speed.REFERENCE_S] * 9 + [2 * speed.REFERENCE_S] * 9
        self.assertEqual(speed.local_slowdowns([-5, 2, 15, 99], times, samples),
                         [1, 1, 2, 2])

    def test_tail_percentile(self):
        values = list(range(1, 101))
        value, pct = run.tail(values)
        self.assertEqual((value, pct), (90, 90))   # ten values above 90
        self.assertEqual(run.tail(list(range(1, 1001))), (990, 99))


if __name__ == "__main__":
    unittest.main()
