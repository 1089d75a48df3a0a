"""The benchmark workloads: seeded inputs, one closed-loop pass, checks.

Each workload has three parts.  ``setup(seed, workdir)`` builds every input
from the seed and its JSON text, to be written by ``write_files``; kdist
only ever sees these inputs.
``run(inputs, p)`` is one pass: a fixed sequence of items, each one call
into kdist through ``p.call``, the next starting when the previous returns.
``check(inputs, outputs)`` verifies the outputs of one pass outside the
timed loop and returns the failed items with their reasons.

Sizes are the acceptance-criterion scales shrunk so that one pass takes a
few seconds on a 2-core machine; each size is a named constant below.
Random items draw their sizes from a fixed sweep and only their points
(or polygons) from the seed, so that the work per pass barely moves
between seeds while the inputs themselves differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from kdist import cli, cover, decompose, gen, planar, search, spectrum
from kdist.norms import hexagon_gauge, l1, linf, lp, norm_to_json, vec
from kdist.spectrum import PointSet, pointset_to_json

# -- cone-cover: criterion 8 at 1/10 of its sample, fresh and trial counts --
CONE_PLANAR = (("linf2", linf(2)), ("l1-2", l1(2)), ("hexagon", hexagon_gauge()))
CONE_SAMPLES, CONE_FRESH, CONE_TRIALS = 1_000, 100, 100
# The greedy set covers only the samples it saw; fresh vectors of a random
# octagon are covered reliably from 500 samples on (at 150, one seed in ~180
# left one uncovered).
CONE_POLYGON_SAMPLES = 500
# In d = 3 about one fresh direction in ten misses the greedy set at 250
# samples (a known defect, counted); 100 fresh vectors make it show on every
# seed, so that ok_ratio does not hinge on the seed.
CONE_L1_3_SAMPLES, CONE_L1_3_FRESH, CONE_L1_3_TRIALS = 250, 100, 100
#: More unassigned than this share is not the known defect but a failure.
KNOWN_UNASSIGNED_SHARE = Fraction(1, 4)

# -- subset-search: DFS and table grounds at full scale ---------------------
SEARCH_DFS = (("linf2-g5-k3", linf(2), 5, 3), ("hexagon-g6-k3", hexagon_gauge(), 6, 3),
              ("linf2-g7-k2", linf(2), 7, 2), ("l1-2-g7-k2", l1(2), 7, 2),
              ("hexagon-g7-k2", hexagon_gauge(), 7, 2))
SEARCH_TABLE = (("linf2-g11-k1", 11, 1), ("linf2-g11-k2", 11, 2))
SEARCH_ENUM = (("linf2-g7-k2", linf(2), 7, 2, 9), ("hexagon-g7-k2", hexagon_gauge(), 7, 2, 7))
SEARCH_MIX = 300                       # criterion 9: random lattice subsets
SEARCH_MIX_SPECS = (linf(1), linf(2), linf(3), l1(2), hexagon_gauge(), lp(2, 2.0))
ORACLE_MAX_POINTS = 20

# -- certify-sets: criteria 2, 3 and 6 at 1/5 of their set counts ----------
CERT_LINF, CERT_PLANAR, CERT_L1_3, CERT_CLUSTERED, CERT_WITNESS = 40, 20, 12, 20, 40
WITNESS_SIDE = {1: 80, 2: 8, 3: 4}

# -- certify-sets, volume part: criterion 7 at 1/50 of its Monte Carlo trials,
# so that the numpy path is about a fifth of the pass, not most of it
MC_TRIALS = 20_000
VOLUME_LATTICE, VOLUME_CLUSTERED = 20, 5

#: Random polygons are octagons, so that the seed changes their shape, not their size.
POLYGON_SIDES = 8
POLYGON_EDGE_MAX = 20

KNOWN_DEFECTS = {
    "l1-3/assign": "in d = 3 the greedy separated set is maximal only on its "
                   "random samples, so fresh unit vectors can lie farther than "
                   "1/5 from every center (kdist conecover then raises its "
                   "falsification alarm)",
    "mc/cube2-linf3": "brunn_minkowski_ok has no rounding tolerance in the "
                      "Brunn-Minkowski equality case (MC half-width 0, "
                      "64**(1/3) = 3.9999999999999996 < 2*8**(1/3))",
    "mc/cube3-linf3": "brunn_minkowski_ok has no rounding tolerance in the "
                      "Brunn-Minkowski equality case (MC half-width 0, "
                      "216**(1/3) < 2*27**(1/3) in floating point)",
}


@dataclass(frozen=True)
class Failure:
    item: str
    reason: str
    known: bool = False


@dataclass
class Inputs:
    seed: int
    items: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    files: dict[Path, str] = field(default_factory=dict)   # JSON text by path


def _sweep(i: int, count: int, lo: int, hi: int) -> int:
    """The i-th of count sizes spread evenly over lo..hi."""
    return lo + (i * (hi - lo)) // max(count - 1, 1)


def _grid(side: int, d: int = 2) -> PointSet:
    return PointSet(d, tuple(vec(*c) for c in product(range(side + 1), repeat=d)))


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def write_files(inputs: Inputs) -> None:
    """Write the inputs' JSON files.

    Kept out of the timed set-up: on a shared host the same writes took
    from 5 to 125 ms, with no relation to the machine's CPU speed.
    """
    for path, text in inputs.files.items():
        path.write_text(text)


def _octagon(rng: random.Random) -> list:
    """A random centrally symmetric octagon: the Minkowski sum of four segments.

    Four integer edge vectors of distinct directions in the upper half-plane,
    sorted by angle and walked counter-clockwise from minus half their sum,
    then walked back negated.  The result is strictly convex with exactly
    POLYGON_SIDES rational vertices.  Unlike ``gen.random_symmetric_polygon``,
    which redraws its hull until the side count fits, it has no rejection
    loop, so set-up work does not depend on the seed.
    """
    edges = {}
    while len(edges) < POLYGON_SIDES // 2:
        x, y = rng.randint(-POLYGON_EDGE_MAX, POLYGON_EDGE_MAX), rng.randint(1, POLYGON_EDGE_MAX)
        edges.setdefault(Fraction(-x, y), vec(x, y))    # the key grows with the angle
    steps = [edges[key] for key in sorted(edges)]
    steps += [tuple(-c for c in e) for e in steps]
    verts = [tuple(-sum(c) / 2 for c in zip(*steps[:POLYGON_SIDES // 2]))]
    for e in steps[:-1]:
        verts.append(tuple(a + b for a, b in zip(verts[-1], e)))
    return verts


def _clustered(rng: random.Random, d: int) -> PointSet:
    # Criterion 6: clustered sets with 2 <= k <= 4 and a large distance ratio.
    while True:
        ps = gen.clustered_lattice_set(rng, d)
        sp = spectrum.distance_spectrum(linf(d), ps)
        if 2 <= sp.k <= 4 and sp.ratio > 2 ** (sp.k - 1):
            return ps


# ===========================================================================
# cone-cover

@dataclass(frozen=True)
class Gauge:
    id: str
    spec: object
    samples: int
    fresh: int
    trials: int


def cone_cover_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    gauges = [Gauge(name, spec, CONE_SAMPLES, CONE_FRESH, CONE_TRIALS)
              for name, spec in CONE_PLANAR]
    gauges.append(Gauge("polygon", planar.polygon_gauge(_octagon(rng)), CONE_POLYGON_SAMPLES,
                        CONE_POLYGON_SAMPLES // 10, CONE_TRIALS))
    gauges.append(Gauge("l1-3", l1(3), CONE_L1_3_SAMPLES, CONE_L1_3_FRESH,
                        CONE_L1_3_TRIALS))
    text = _json({"seed": seed, "gauges": [
        {"id": g.id, "norm": norm_to_json(g.spec), "samples": g.samples,
         "fresh": g.fresh, "trials": g.trials} for g in gauges]})
    return Inputs(seed, gauges, files={workdir / "inputs.json": text})


def cone_cover_run(inputs: Inputs, p) -> None:
    seed = inputs.seed
    for g in inputs.items:
        spec = g.spec
        samples = p.call(f"{g.id}/samples", cover.sphere_samples, spec, g.samples, seed=seed)
        if samples is None:
            continue
        sep = p.call(f"{g.id}/greedy", cover.greedy_separated_set, spec, samples)
        if sep is None:
            continue
        p.call(f"{g.id}/packing", cover.packing_bound_check, sep, spec)
        fresh = p.call(f"{g.id}/fresh", cover.sphere_samples, spec, g.fresh, seed=seed + 1)
        if fresh is not None:
            p.call(f"{g.id}/assign", cover.cover_assignment, sep, spec, fresh)
        cones = p.call(f"{g.id}/cones", cover.generated_cones, sep, spec, samples)
        for i, cone in enumerate(cones or ()):
            p.call(f"{g.id}/halfwidth{i:03d}", cover.cone_halfwidth_check, cone, spec,
                   trials=g.trials, seed=seed + 2)


def cone_cover_check(inputs: Inputs, out: dict) -> list[Failure]:
    bad = []
    for g in inputs.items:
        sep = out.get(f"{g.id}/greedy")
        if sep is None:
            continue
        before = len(bad)
        m, cap = len(sep.centers), cover.separated_set_capacity(g.spec.dim)
        if m > cap:
            bad.append(Failure(f"{g.id}/greedy", f"m = {m} exceeds capacity {cap}"))
        if f"{g.id}/packing" in out and out[f"{g.id}/packing"] is not True:
            bad.append(Failure(f"{g.id}/packing", "packing check did not pass"))
        report = out.get(f"{g.id}/assign")
        cones = out.get(f"{g.id}/cones")
        if cones is not None and len(cones) != m:
            bad.append(Failure(f"{g.id}/cones", f"{len(cones)} cones for {m} centers"))
        for i in range(len(cones or ())):
            item = f"{g.id}/halfwidth{i:03d}"
            hw = out.get(item)
            if hw is not None and not (hw.ok and hw.max_distance < cover.HALF_WIDTH):
                bad.append(Failure(item, f"half-width {hw.max_distance} not below 1/2"))
        if report is not None and not report.ok:
            item = f"{g.id}/assign"
            # Known only in d = 3, for a small share of the fresh vectors, and
            # only when every other item of the gauge ran and passed its checks.
            ran = all(f"{g.id}/{step}" in out for step in ("packing", "fresh", "cones"))
            known = (item in KNOWN_DEFECTS and g.spec.dim == 3 and ran
                     and len(report.unassigned) <= KNOWN_UNASSIGNED_SHARE * g.fresh
                     and len(bad) == before
                     and all(f"{g.id}/halfwidth{i:03d}" in out for i in range(m)))
            reason = f"{len(report.unassigned)} of {g.fresh} fresh vectors unassigned"
            bad.append(Failure(item, f"{reason}: {KNOWN_DEFECTS[item]}" if known else reason,
                               known))
    return bad


# ===========================================================================
# subset-search

@dataclass(frozen=True)
class SearchItem:
    id: str
    kind: str            # "dfs" | "table" | "mix" | "enum"
    problem: object
    size: int = 0        # enumeration size


def subset_search_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    items = [SearchItem(f"dfs/{name}", "dfs", search.SearchProblem(spec, _grid(side), k))
             for name, spec, side, k in SEARCH_DFS]
    items += [SearchItem(f"table/{name}", "table", search.SearchProblem(linf(2), _grid(side), k))
              for name, side, k in SEARCH_TABLE]
    for i in range(SEARCH_MIX):
        spec = SEARCH_MIX_SPECS[i % len(SEARCH_MIX_SPECS)]
        d = spec.dim
        ps = gen.random_lattice_subset(rng, d, 4, _sweep(i, SEARCH_MIX, 3, 18))
        if not spec.exact:
            ps = PointSet(d, tuple(tuple(float(a) for a in pt) for pt in ps.points))
        k = 1 + i % 3
        items.append(SearchItem(f"mix{i:03d}", "mix", search.SearchProblem(spec, ps, k)))
    items += [SearchItem(f"enum/{name}", "enum",
                         search.SearchProblem(spec, _grid(side), k), size)
              for name, spec, side, k, size in SEARCH_ENUM]
    text = _json({"seed": seed, "items": [
        {"id": it.id, "kind": it.kind, "norm": norm_to_json(it.problem.spec),
         "ground": pointset_to_json(it.problem.ground) if it.problem.spec.exact
         else {"dim": it.problem.ground.dim,
               "points": [list(pt) for pt in it.problem.ground.points]},
         "k": it.problem.k, "size": it.size} for it in items]})
    return Inputs(seed, items, files={workdir / "inputs.json": text})


def subset_search_run(inputs: Inputs, p) -> None:
    for it in inputs.items:
        if it.kind == "enum":
            p.call(it.id, search.enumerate_optimal_subsets, it.problem, it.size)
        else:
            p.call(it.id, search.branch_and_bound, it.problem,
                   use_bound_pruning=it.kind == "table")


def subset_search_check(inputs: Inputs, out: dict) -> list[Failure]:
    bad = []
    for it in inputs.items:
        res = out.get(it.id)
        if res is None:
            continue
        spec, k = it.problem.spec, it.problem.k
        if it.kind == "enum":
            wrong = [s for s in res if len(s) != it.size
                     or spectrum.distance_spectrum(spec, PointSet(spec.dim, s)).k > k]
            if not res or wrong:
                bad.append(Failure(it.id, f"{len(wrong)} of {len(res)} enumerated "
                                          f"subsets are not {k}-distance sets of size {it.size}"))
            continue
        if spectrum.distance_spectrum(spec, PointSet(spec.dim, res.points)).k > k:
            bad.append(Failure(it.id, "optimum has more than k distances"))
        if it.kind in ("dfs", "table"):
            cap = (k + 1) ** 2
            want_cap = spec.kind in ("linf", "l1")   # l1 is linf turned by 45 degrees
            if res.size > cap or (want_cap and res.size != cap):
                bad.append(Failure(it.id, f"optimum {res.size}, (k+1)^d = {cap}"))
        if len(it.problem.ground) <= ORACLE_MAX_POINTS:
            want = search.brute_force_oracle(it.problem).size
            if res.size != want:
                bad.append(Failure(it.id, f"search found {res.size}, oracle {want}"))
    return bad


# ===========================================================================
# certify-sets

@dataclass(frozen=True)
class CliOutput:
    rc: int
    stdout: str
    stderr: str


def cli_call(argv: list[str]) -> CliOutput:
    """In-process ``kdist.cli.run_command`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run_command(argv)
    return CliOutput(rc, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class CertSet:
    id: str
    route: str           # expected `bound` route
    spec: object
    ps: PointSet
    commands: tuple[str, ...]
    norm_path: str
    points_path: str


def certify_sets_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    sets = []
    files: dict[Path, str] = {}
    norm_paths: dict[str, Path] = {}     # one file per distinct norm

    def add(family, i, route, spec, ps, commands):
        sid = f"{family}{i:03d}"
        norm = _json(norm_to_json(spec))
        npath = norm_paths.get(norm)
        if npath is None:
            npath = norm_paths[norm] = workdir / f"norm{len(norm_paths):03d}.json"
            files[npath] = norm
        ppath = workdir / f"{sid}.points.json"
        files[ppath] = _json(pointset_to_json(ps))
        sets.append(CertSet(sid, route, spec, ps, commands, str(npath), str(ppath)))

    chain_cmds = ("bound", "decompose", "chains", "spectrum")
    for i in range(CERT_LINF):
        d = 1 + i % 3
        ps = gen.random_lattice_subset(rng, d, 5, _sweep(i, CERT_LINF, 2, 25))
        add("linf", i, "parallelotope-chain", linf(d), ps, chain_cmds)
    for i in range(CERT_PLANAR):
        if i % 3 == 0:
            spec = l1(2)
        elif i % 3 == 1:
            spec = hexagon_gauge()
        else:
            spec = planar.polygon_gauge(_octagon(rng))
        ps = gen.random_lattice_subset(rng, 2, 5, _sweep(i, CERT_PLANAR, 2, 16))
        add("planar", i, "planar-two-cones", spec, ps,
            ("bound", "decompose", "spectrum", "normalize2d"))
    for i in range(CERT_L1_3):
        ps = gen.random_lattice_subset(rng, 3, 3, _sweep(i, CERT_L1_3, 2, 16))
        add("l1-3-", i, "general-minkowski", l1(3), ps, ("bound", "decompose", "spectrum"))
    for i in range(CERT_CLUSTERED):
        d = 1 + i % 3
        add("clustered", i, "parallelotope-chain", linf(d), _clustered(rng, d), chain_cmds)
    witness = []
    for i in range(CERT_WITNESS):
        d = 1 + i % 3
        ps = gen.random_lattice_subset(rng, d, WITNESS_SIDE[d], _sweep(i, CERT_WITNESS, 2, 64))
        witness.append((f"witness{i:03d}", linf(d), ps))
    volume = volume_items(rng)
    files[workdir / "inputs.json"] = _json({"seed": seed, "sets": [
        {"id": s.id, "norm": norm_to_json(s.spec), "points": pointset_to_json(s.ps),
         "commands": list(s.commands)} for s in sets], "witness": [
        {"id": wid, "norm": norm_to_json(spec), "points": pointset_to_json(ps)}
        for wid, spec, ps in witness], "mc_trials": MC_TRIALS, "volume": [
        {"id": iid, "kind": kind, "norm": norm_to_json(spec), "points": pointset_to_json(ps)}
        for iid, kind, spec, ps in volume]})
    return Inputs(seed, sets, {"witness": witness, "volume": volume}, files)


def certify_sets_run(inputs: Inputs, p) -> None:
    for s in inputs.items:
        for cmd in s.commands:
            argv = [cmd, "--norm", s.norm_path]
            if cmd != "normalize2d":
                argv += ["--points", s.points_path]
            p.call(f"{s.id}/{cmd}", cli_call, argv)
    for wid, spec, ps in inputs.extra["witness"]:
        p.call(wid, spectrum.best_distinct_witness, spec, ps)
    volume_run(inputs.extra["volume"], inputs.seed, p)


def _check_cli(s: CertSet, cmd: str, res: CliOutput) -> str | None:
    if res.rc != 0:
        return f"exit code {res.rc}: {res.stderr.strip()}"
    obj = json.loads(res.stdout)
    n = len(s.ps)
    if cmd == "bound":
        if obj["bound"] != s.route:
            return f"route {obj['bound']}, expected {s.route}"
        if not (obj["pass"] and obj["observed"] <= obj["claimed"]):
            return f"observed {obj['observed']} > claimed {obj['claimed']}"
        chain = obj["witnesses"].get("chain")
        if chain and not (chain["injective"] and not chain["violations"]
                          and chain["h"] <= obj["k"]):
            return "chain certificate not ok"
    elif cmd == "chains":
        if not (obj["injective"] and not obj["violations"] and obj["h"] <= obj["k"]
                and obj["observed"] <= obj["bound"]):
            return "chain certificate not ok"
    elif cmd == "decompose":
        if not n <= obj["bound"] <= obj["claim"]:
            return f"decomposition bound {obj['bound']} outside [{n}, {obj['claim']}]"
        if s.id.startswith("clustered") and obj["kind"] != "split":
            return f"clustered set decomposed by {obj['kind']}, not split"
    elif cmd == "spectrum":
        dists = [Fraction(a, b) for a, b in obj["distances"]]
        if sum(obj["multiplicities"]) != n * (n - 1) // 2 or dists != sorted(set(dists)):
            return "spectrum multiplicities or ordering wrong"
    elif cmd == "normalize2d":
        verts = [[Fraction(a, b) for a, b in v] for v in obj["vertices"]]
        if not obj["conditions_ok"] or any(abs(c) > 1 for v in verts for c in v):
            return "normalization conditions fail"
    return None


def certify_sets_check(inputs: Inputs, out: dict) -> list[Failure]:
    bad = []
    for s in inputs.items:
        for cmd in s.commands:
            item = f"{s.id}/{cmd}"
            if item in out:
                reason = _check_cli(s, cmd, out[item])
                if reason:
                    bad.append(Failure(item, reason))
    for wid, spec, ps in inputs.extra["witness"]:
        if wid in out:
            _, count = out[wid]
            need = gen.integer_ceil_root(len(ps), spec.dim) - 1
            if count < need:
                bad.append(Failure(wid, f"witness sees {count} < {need} distances"))
    return bad + volume_check(inputs.extra["volume"], out)


# ===========================================================================
# volume checks (part of certify-sets)

@dataclass(frozen=True)
class VolumeOutput:
    m: int
    rho1: Fraction
    ratio_bound: object
    box_union: Fraction


def volume_item(spec, ps: PointSet) -> VolumeOutput:
    """Criterion 7 on one planar linf set: volume-ratio bound and exact box union."""
    sp = spectrum.distance_spectrum(spec, ps)
    rho1 = sp.distances[0]
    return VolumeOutput(len(ps), rho1, decompose.volume_ratio_bound(sp, spec.dim),
                        decompose.exact_box_union_area(ps.points, rho1 / 2))


def volume_items(rng: random.Random) -> list[tuple]:
    """Criterion 7: Monte Carlo checks on fixed sets, exact volumes on random ones."""
    grid3 = _grid(2)
    four = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1), vec(3, 3)])
    cube2, cube3 = _grid(1, 3), _grid(2, 3)
    mc = [("grid3-linf", linf(2), grid3), ("grid3-l1", l1(2), grid3),
          ("grid3-hexagon", hexagon_gauge(), grid3), ("grid3-lp3", lp(2, 3.0), grid3),
          ("four-linf", linf(2), four), ("cube2-linf3", linf(3), cube2),
          ("cube2-l1-3", l1(3), cube2), ("cube3-linf3", linf(3), cube3),
          ("cube3-l1-3", l1(3), cube3)]
    items = [(f"mc/{name}", "mc", spec, ps) for name, spec, ps in mc]
    for i in range(VOLUME_LATTICE):
        ps = gen.random_lattice_subset(rng, 2, 8, _sweep(i, VOLUME_LATTICE, 2, 64))
        items.append((f"volume/lattice{i:03d}", "volume", linf(2), ps))
    for i in range(VOLUME_CLUSTERED):
        items.append((f"volume/clustered{i:03d}", "volume", linf(2),
                      gen.clustered_lattice_set(rng, 2)))
    return items


def volume_run(items: list[tuple], seed: int, p) -> None:
    for iid, kind, spec, ps in items:
        if kind == "mc":
            p.call(iid, decompose.brunn_minkowski_mc_check, spec, ps,
                   trials=MC_TRIALS, seed=seed)
        else:
            p.call(iid, volume_item, spec, ps)


def volume_check(items: list[tuple], out: dict) -> list[Failure]:
    bad = []
    for iid, kind, spec, ps in items:
        res = out.get(iid)
        if res is None:
            continue
        if kind == "volume":
            if res.m > res.ratio_bound:
                bad.append(Failure(iid, f"{res.m} points exceed volume bound {res.ratio_bound}"))
            if res.box_union != res.m * res.rho1 ** 2:
                bad.append(Failure(iid, f"box union {res.box_union} != m rho1^2"))
            continue
        if not res.ok:
            known = (iid in KNOWN_DEFECTS and not res.brunn_minkowski_ok
                     and res.formula_ok and res.upper_ok)
            reason = KNOWN_DEFECTS[iid] if known else (
                f"MC report not ok: bm={res.brunn_minkowski_ok} "
                f"formula={res.formula_ok} upper={res.upper_ok}")
            bad.append(Failure(iid, reason, known))
        if spec.kind == "linf" and spec.dim == 2:
            sp = spectrum.distance_spectrum(spec, ps)
            exact = float(decompose.exact_box_union_area(ps.points, sp.distances[0] / 2))
            tolerance = max(3 * res.vol_v_halfwidth, 0.02 * exact)
            if abs(res.vol_v - exact) > tolerance:
                bad.append(Failure(iid, f"MC volume {res.vol_v} not within {tolerance} "
                                        f"of the exact box union {exact}"))
    return bad


# ===========================================================================
# output summaries (exact, small; compared between passes and to the reference)

_CLI_KEYS = ("bound", "k", "claimed", "observed", "pass", "h", "injective",
             "size", "claim", "kind", "conditions_ok")

#: Summary keys that record work or sampled extremes rather than results;
#: they must repeat between passes but are not compared to the reference.
RECORDED_ONLY = frozenset({"nodes", "generators", "max_distance"})


def summarize(out) -> dict:
    """A small exact JSON-able digest of one item's output."""
    if isinstance(out, CliOutput):
        s = {"rc": out.rc}
        if out.rc == 0:
            obj = json.loads(out.stdout)
            s.update({k: obj[k] for k in _CLI_KEYS
                      if isinstance(obj.get(k), (bool, int, float, str))})
        return s
    if isinstance(out, search.SearchResult):
        return {"size": out.size, "nodes": out.nodes}
    if isinstance(out, cover.SeparatedSet):
        return {"m": len(out.centers)}
    if isinstance(out, cover.CoverReport):
        return {"unassigned": len(out.unassigned)}
    if isinstance(out, cover.HalfwidthReport):
        return {"ok": out.ok, "max_distance": str(out.max_distance)}
    if isinstance(out, decompose.MCVolumeReport):
        return {"ok": bool(out.ok), "bm": bool(out.brunn_minkowski_ok),
                "formula": bool(out.formula_ok), "upper": bool(out.upper_ok)}
    if isinstance(out, VolumeOutput):
        return {"m": out.m, "bound": str(out.ratio_bound), "area": str(out.box_union)}
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int):
        return {"witness_count": out[1]}
    if isinstance(out, list) and out and isinstance(out[0], cover.GeneratedCone):
        return {"cones": len(out), "generators": sum(len(c.generators) for c in out)}
    if isinstance(out, list):
        return {"count": len(out)}
    return {"value": out if isinstance(out, (bool, int)) else str(out)}


def digest(summaries: dict) -> str:
    blob = json.dumps(summaries, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {w.name: w for w in (
    Workload("cone-cover", cone_cover_setup, cone_cover_run, cone_cover_check),
    Workload("subset-search", subset_search_setup, subset_search_run, subset_search_check),
    Workload("certify-sets", certify_sets_setup, certify_sets_run, certify_sets_check),
)}
