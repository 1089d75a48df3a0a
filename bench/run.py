"""Run one kdist benchmark workload and print its metrics.

    python3 bench/run.py --workload cone-cover --seed 0 --seconds 30 --trace 0

The benchmark imports kdist from ``src/`` of the checkout it sits in.  It
builds the workload's inputs from the seed (``setup_s``), then runs closed-
loop passes over them, one item at a time, until ``--seconds`` have passed,
checks the outputs, and prints each metric by name and unit.  Times are
in reference-speed units: each item's latency (and each group of
set-ups' times) is divided by the machine's slowdown measured around it
by a fixed reference task (see ``speed.py``); the raw figures are
printed on a ``#`` line and kept in the record.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-
end ones of BENCHMARK.json; with ``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones, including
the tracing overhead.  A full record, with the environment and every
failed item's reason, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
MIN_PASSES = 2
COLD_PER_ROUND = 2
#: Each round sets up at least this many times and for at least SETUP_ROUND_S.
SETUPS_PER_ROUND = 3
SETUP_ROUND_S = 0.1
TAIL_MIN_BEYOND = 10



class Pass:
    """One closed-loop pass: each call returns before the next one starts."""

    def __init__(self, speedometer, tracer=None):
        self.speedometer = speedometer
        self.tracer = tracer
        self.latency: dict[str, float] = {}
        self.started: dict[str, float] = {}
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}

    def call(self, item: str, fn, *args, **kwargs):
        if item in self.latency:
            raise RuntimeError(f"duplicate benchmark item id {item}")
        if self.tracer is not None:
            self.tracer.item = item
        t0 = perf_counter()
        self.started[item] = t0
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed item is recorded; the pass goes on
            self.latency[item] = perf_counter() - t0
            self.errors[item] = f"raised {type(exc).__name__}: {exc}"
            self.speedometer.tick()
            return None
        self.latency[item] = perf_counter() - t0
        self.outputs[item] = out
        self.speedometer.tick()
        return out


def tail(values: list[float]) -> tuple[float, int]:
    """Value and percentile: the highest whole percentile with TAIL_MIN_BEYOND items above it."""
    xs = sorted(values)
    for pct in range(99, 0, -1):
        rank = ceil(pct * len(xs) / 100)          # nearest-rank percentile
        if len(xs) - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], pct
    return xs[-1], 100


def cold_cli_argv(workdir: Path, seed: int) -> list[str]:
    """A fresh ``python -m kdist.cli bound`` process on one small seeded set."""
    import random

    from kdist import gen
    from kdist.norms import linf, norm_to_json
    from kdist.spectrum import pointset_to_json

    ps = gen.random_lattice_subset(random.Random(seed), 2, 5, 12)
    norm, points = workdir / "cold.norm.json", workdir / "cold.points.json"
    norm.write_text(json.dumps(norm_to_json(linf(2))))
    points.write_text(json.dumps(pointset_to_json(ps)))
    return [sys.executable, "-m", "kdist.cli", "bound", "--norm", str(norm),
            "--points", str(points)]


def cold_cli(argv: list[str]) -> tuple[float, str | None]:
    """Wall time of one cold CLI process, and the reason if it failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, f"exit code {proc.returncode}: {proc.stderr.strip()}"
    try:
        passed = json.loads(proc.stdout)["pass"]
    except (ValueError, KeyError) as exc:
        return elapsed, f"unreadable output: {exc}"
    return elapsed, None if passed else "bound did not pass"


def environment(seed: int) -> dict:
    import numpy

    cpu = Path("/proc/cpuinfo")
    info = cpu.read_text() if cpu.is_file() else ""
    model = re.search(r"^model name\s*:\s*(.*)$", info, re.M)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "cpu_model": model.group(1) if model else platform.processor(),
        "cpu_count": len(re.findall(r"^processor\s*:", info, re.M)) or os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None   # the checkout is not a git repository


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, loop over rounds for `seconds`, check, and collect metrics.

    Each round runs one pass, then a group of timed set-ups and,
    in the traced run, COLD_PER_ROUND cold CLI processes, so that the samples of every
    metric are spread over the whole run.
    """
    import spans
    import speed
    import workloads

    def setups(count: int, min_s: float):
        """Set up `count` times and for `min_s`; the slowdown is the group's."""
        meter.sample(speed.BURST)
        group = []
        while len(group) < count or sum(group) < min_s:
            gc.collect()
            t0 = perf_counter()
            inputs = wl.setup(seed, workdir)
            group.append(perf_counter() - t0)
        meter.sample(speed.BURST)
        slowdown = speed.slowdown(meter.take())
        setup_raw_s.extend(group)
        setup_s.extend(elapsed / slowdown for elapsed in group)
        return inputs

    meter = speed.Speedometer()
    setup_s: list[float] = []      # in reference-speed seconds
    setup_raw_s: list[float] = []
    inputs = setups(1, 0.0)
    workloads.write_files(inputs)      # later set-ups give the same files
    argv = cold_cli_argv(workdir, seed) if trace else None
    cold_s, cold_errors = [], []
    tracer = spans.Tracer() if trace else None
    passes = []          # (traced, latency in reference-speed seconds, summaries)
    slowdowns, raw_sums = [], []
    errors: dict[str, str] = {}
    layer, span_log = [], []
    first = None
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = Pass(meter, tracer if traced else None)
        gc.collect()
        meter.sample(speed.BURST)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wl.run(inputs, p)
        finally:
            if traced:
                tracer.uninstall()
        meter.sample(speed.BURST)
        times, samples = meter.take_timed()
        slowdowns.append(speed.slowdown(samples))
        local = speed.local_slowdowns([p.started[i] + p.latency[i] / 2 for i in p.latency],
                                      times, samples)
        raw_sums.append(sum(p.latency.values()))
        if traced:
            layer.append(tracer.layer_metrics())
            span_log.append((len(passes), tracer.spans, tracer.eval_calls, tracer.eval_s))
        summaries = {item: workloads.summarize(out) for item, out in p.outputs.items()}
        passes.append((traced, {item: lat / f for (item, lat), f in zip(p.latency.items(), local)},
                       summaries))
        for item, reason in p.errors.items():
            errors.setdefault(item, reason)
        if first is None:
            first = p
        setups(SETUPS_PER_ROUND, SETUP_ROUND_S)
        for _ in range(COLD_PER_ROUND if trace else 0):
            elapsed, error = cold_cli(argv)
            cold_s.append(elapsed)
            if error:
                cold_errors.append(error)
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 0.5) / len(passes) > seconds:
            break   # the run ends within half a round of `seconds`
    measured = perf_counter() - start

    failures = [workloads.Failure(item, reason) for item, reason in errors.items()]
    failures += wl.check(inputs, first.outputs)
    ref_summaries = passes[0][2]
    for _, _, summaries in passes[1:]:
        failures += [workloads.Failure(item, "output differs between passes")
                     for item, s in summaries.items() if ref_summaries.get(item) != s]
    notes = []
    if seed == REFERENCE_SEED:
        failures_ref, notes = compare_reference(wl.name, ref_summaries, workloads)
        failures += failures_ref
    attempted = len(first.latency)
    latencies = [lat for _, lat, _ in passes]
    if trace:
        attempted += 1   # the cold CLI counts as one item
        if cold_errors:
            failures.append(workloads.Failure("cli-cold", cold_errors[0]))
        values, unstable = spans.merge_passes(layer)
        failures += [workloads.Failure("trace", f"counter {name} differs between passes")
                     for name in unstable]
        values["cli.cold_s"] = min(cold_s)
        values["trace.overhead_s"] = (pass_time([lat for t, lat, _ in passes if t])
                                      - pass_time([lat for t, lat, _ in passes if not t]))
        with open(workdir.parent / f"{wl.name}-seed{seed}.spans.jsonl", "w") as fh:
            for index, spans_, calls, eval_s in span_log:
                fh.write(json.dumps({"pass": index}) + "\n")
                spans.write(fh, spans_, calls, eval_s)

    failed = {}
    for f in failures:
        if f.item not in failed or not f.known:
            failed[f.item] = f
    record = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "passes": len(passes), "measured_s": measured,
              "pass_sums_s": [sum(lat.values()) for lat in latencies],
              "pass_slowdowns": slowdowns, "pass_raw_sums_s": raw_sums,
              "setup_runs_s": setup_s, "setup_raw_runs_s": setup_raw_s,
              "cli_cold_runs_s": cold_s,
              "items": len(first.latency), "digest": workloads.digest(ref_summaries),
              "notes": notes, "summaries": ref_summaries}
    if not trace:
        per_item = item_times(latencies)
        record["item_latency_s"] = dict(zip(first.latency, per_item))
        tail_value, record["item_tail_percentile"] = tail(per_item)
        record["item_tail_ms"] = 1000 * tail_value
        values = {
            "wall_s": sum(per_item),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - len(failed) / attempted,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record.update({
        "correct": all(f.known for f in failed.values()),
        "attempted": attempted,
        "failed": len(failed),
        "failures": [{"item": f.item, "reason": f.reason, "known_defect": f.known}
                     for f in failed.values()],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared["per_layer" if trace else "end_to_end"]},
    })
    return record


def item_times(latencies: list[dict[str, float]]) -> list[float]:
    """Each item's latency: the median of its repeats, one per pass.

    The repeats do identical work, spread over the whole run, and are
    already divided by the slowdown measured around each; the median of
    them is taken the same way as the slowdown itself.
    """
    return [statistics.median(lat[item] for lat in latencies if item in lat)
            for item in latencies[0]]


def pass_time(latencies: list[dict[str, float]]) -> float:
    """One pass's time: the sum of its items' latencies."""
    return sum(item_times(latencies))


def compare_reference(name: str, summaries: dict, workloads):
    """Failures for outputs that differ from the committed reference seed's."""
    if not REFERENCE.is_file():
        return [], ["no reference file"]
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None:
        return [], [f"no reference for {name}"]
    failures, notes = [], []
    for item in sorted(set(ref["items"]) | set(summaries)):
        got, want = summaries.get(item), ref["items"].get(item)
        if got is None or want is None:
            failures.append(workloads.Failure(
                item, "item missing from run" if got is None else "item not in reference"))
            continue
        keys = (set(got) | set(want)) - workloads.RECORDED_ONLY
        diff = {k: (got.get(k), want.get(k)) for k in keys if got.get(k) != want.get(k)}
        if diff:
            failures.append(workloads.Failure(item, f"differs from reference: {diff}"))
        for k in (set(got) | set(want)) & workloads.RECORDED_ONLY:
            if got.get(k) != want.get(k):
                notes.append(f"{item}: {k} {got.get(k)} (reference {want.get(k)})")
    return failures, notes


def update_reference(record_summaries: dict, name: str) -> None:
    import workloads

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref[name] = {"seed": REFERENCE_SEED, "digest": workloads.digest(record_summaries),
                 "items": record_summaries}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{REFERENCE_SEED} reference")
    args = parser.parse_args(argv)

    if not (SRC / "kdist" / "__init__.py").is_file():
        print(f"benchmark: no kdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kdist
    if Path(kdist.__file__).resolve().parent != (SRC / "kdist").resolve():
        print(f"benchmark: imported kdist from {kdist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.update_reference and (args.seed != REFERENCE_SEED or args.trace):
        print(f"benchmark: --update-reference needs --seed {REFERENCE_SEED} --trace 0",
              file=sys.stderr)
        return 2

    workdir = OUT / f"{wl.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    record = run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    record["env"] = env

    if args.update_reference:
        update_reference(record["summaries"], wl.name)

    print(f"# kdist benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"{record['passes']} passes in {record['measured_s']:.1f} s, "
          f"{record['items']} items per pass, outputs digest {record['digest']}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# raw: pass sums {', '.join(f'{x:.3f}' for x in record['pass_raw_sums_s'])} s; "
          f"slowdowns {', '.join(f'{x:.3f}' for x in record['pass_slowdowns'])}; "
          f"median set-up {statistics.median(record['setup_raw_runs_s']):.6f} s")
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    if "item_tail_ms" in record:
        # Printed but not in the JSON metrics: one item's latency, so on a
        # shared machine it varies between runs by more than any bound allows.
        print(f"# item_tail_ms {record['item_tail_ms']:.6f} ms: p{record['item_tail_percentile']} "
              f"of the item latencies (median of {record['passes']} repeats each) over "
              f"{record['items']} items")
    for f in record["failures"]:
        tag = "KNOWN DEFECT" if f["known_defect"] else "FAIL"
        print(f"# {tag} {f['item']}: {f['reason']}")
    for note in record["notes"]:
        print(f"# note {note}")
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
