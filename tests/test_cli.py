import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from kdist import (PolyhedralCone, __version__, criteria, hexagon_gauge, l1, linf, lp,
                   max_area_normalization, planar_bound_certificate, polygon_gauge,
                   polygon_vertices_2d, polytopal, vec)
import kdist
from kdist import chains, cli, cover, norms, planar, search, spectrum
from kdist.cli import run_command
from kdist.gen import random_symmetric_polygon
from kdist.cover import (MAX_SAMPLES, cone_halfwidth_check, cover_assignment, generated_cones,
                         greedy_separated_set, packing_bound_check, sphere_samples)
from kdist.errors import InputError
from kdist.norms import MAX_JSON_DIM, MAX_TABLE_BYTES, gauge, norm_to_json, vec_to_json
from kdist.planar import apply_matrix, planar_cones, quadrant_cones
from kdist.spectrum import (PairTable, PointSet, distance_spectrum, pointset_from_json,
                            pointset_to_json)


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def _grid_points():
    return PointSet.of([vec(x, y) for x in range(3) for y in range(3)])


def test_spectrum_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2
    assert out["distances"] == [[1, 1], [2, 1]]


def test_chains_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["chains", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == 2 and out["bound"] == 9 and out["observed"] == 9


def test_normalize2d_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    assert run_command(["normalize2d", "--norm", norm]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conditions_ok"]
    assert out["x0"] == [[1, 1], [1, 1]]


def test_decompose_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(1)))
    pts = PointSet.of([vec(0), vec(1), vec(100), vec(101)])
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["decompose", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "split" and out["size"] == 4


def test_bound_on_a_chain_deeper_than_the_recursion_limit(files, capsys):
    norm = files("norm.json", {"dim": 1, "kind": "polytopal", "functionals": [[-1]]})
    points = files("pts.json", {"dim": 1, "points": [[i] for i in range(1100)]})
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["k"], out["claimed"], out["observed"]) == (1099, 1100, 1100)
    assert out["witnesses"]["chain"]["h"] == 1099


def _huge_points():
    # 28 of 30 points near 2^345: a bound past float range, about 2^1038.
    rng = random.Random(1)
    return {"dim": 3, "points": [[0, 0, 0], [1, 0, 0]] + [
        [rng.randint(2 ** 345, 2 ** 346) for _ in range(3)] for _ in range(28)]}


@pytest.mark.parametrize("command, norm", [("decompose", linf(3)), ("decompose", l1(3)),
                                           ("bound", l1(3))])
def test_bound_past_float_range_is_written_exactly(files, capsys, command, norm):
    argv = [command, "--norm", files("norm.json", norm_to_json(norm)),
            "--points", files("pts.json", _huge_points())]
    assert run_command(argv) == 0
    out = json.loads(capsys.readouterr().out)
    node = out["witnesses"]["decomposition"] if command == "bound" else out
    assert node["size"] == 30
    assert isinstance(node["bound"], int) and 30 <= node["bound"] <= node["claim"]


_LINE = PointSet.of([vec(0), vec(1), vec(100), vec(101)])
_SPLIT_3D = PointSet.of([vec(0, 0, 0), vec(1, 0, 0), vec(100, 0, 0), vec(101, 0, 0)])


@pytest.mark.parametrize("command, norm, pts", [
    (["bound"], linf(2), _grid_points()),
    (["chains"], linf(2), _grid_points()),
    # Planar: the cones are pulled back to the input set's own table.
    (["bound"], hexagon_gauge(), PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)])),
    # General: a volume leaf, k read off the decomposition's root.
    (["bound"], l1(3), PointSet.of([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])),
    # Splits: the clusters and representatives are read off the root's table.
    (["bound"], l1(3), _SPLIT_3D),
    (["decompose"], linf(1), _LINE),
    # The optimum's spectrum is read off the ground's table.
    (["search", "--k", "2"], linf(2), _grid_points()),
    # k = 0: the table gives k, and no route is taken.
    (["bound"], linf(2), PointSet.of([vec(1, 2)])),
    (["bound"], lp(2, 3.0), PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1)])),
    (["chains"], polytopal([(1, 1, 0), (0, 1, 0), (0, 0, 1)]),
     PointSet.of([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(-1, 1, 1)])),
], ids=["bound", "chains", "bound-planar", "bound-general", "bound-general-split",
        "decompose-split", "search", "bound-single-point", "bound-lp", "chains-skewed"])
def test_one_pair_table_per_command(files, capsys, monkeypatch, command, norm, pts):
    builds = []
    init = PairTable.__init__

    def counting_init(self, spec, ps):
        builds.append(ps)
        init(self, spec, ps)

    monkeypatch.setattr(PairTable, "__init__", counting_init)
    flag = "--ground" if command[0] == "search" else "--points"
    argv = command + ["--norm", files("norm.json", norm_to_json(norm)),
                      flag, files("pts.json", pointset_to_json(pts))]
    assert run_command(argv) == 0
    assert len(builds) == 1
    assert ('"split"' in capsys.readouterr().out) == (pts in (_LINE, _SPLIT_3D))


@st.composite
def _route_cases(draw):
    """A norm (linf, l1, lp, or polytopal of full rank) in d <= 3 and 2 to 5 lattice points."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["linf", "l1", "lp", "polytopal"]))
    if kind == "polytopal":
        rows = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        spec = polytopal(draw(st.lists(rows, min_size=d, max_size=d + 2)))
    else:
        spec = {"linf": linf, "l1": l1, "lp": lambda d: lp(d, 3.0)}[kind](d)
    coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(lambda c: vec(*c))
    pts = draw(st.lists(coords, min_size=2, max_size=5, unique=True))
    return spec, PointSet.of(pts)


@settings(max_examples=80, deadline=None)
@given(case=_route_cases())
def test_bound_and_the_search_cap_claim_the_least_route(tmp_path_factory, case):
    spec, ps = case
    assume(gauge(spec).rank() == spec.dim)
    k = distance_spectrum(spec, ps).k
    assume(k <= 6)
    least = min(r.claim(k, spec.dim) for r in planar.routes(spec))
    assert search._bound_cap(search.SearchProblem(spec, ps, k)) == least
    tmp = tmp_path_factory.mktemp("route")
    (tmp / "norm.json").write_text(json.dumps(norm_to_json(spec)))
    (tmp / "pts.json").write_text(json.dumps(pointset_to_json(ps)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["bound", "--norm", str(tmp / "norm.json"),
                            "--points", str(tmp / "pts.json")]) == 0
    got = json.loads(out.getvalue())
    event(got["bound"])
    assert got["claimed"] == least


def test_search_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    ground = files("ground.json", pointset_to_json(_grid_points()))
    rc = run_command(["search", "--norm", norm, "--ground", ground,
                      "--k", "1", "--enumerate-optima"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 4
    assert len(out["optima"]) == 5


def test_search_prints_lp_points_as_rational_pairs(files, capsys):
    ground = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1), vec("1/2", 1)])
    argv = ["search", "--norm", files("norm.json", norm_to_json(lp(2, 3.0))),
            "--ground", files("ground.json", pointset_to_json(ground)),
            "--k", "2", "--enumerate-optima"]
    assert run_command(argv) == 0
    out = json.loads(capsys.readouterr().out)
    want = [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    assert pointset_from_json({"dim": 2, "points": out["points"]}).points == tuple(want)
    assert [pointset_from_json({"dim": 2, "points": s}).points
            for s in out["optima"]] == [tuple(want)]


def test_pruned_search_with_k_past_every_pair_forms_no_bound(files, capsys, monkeypatch):
    # Two points have one pair: every k >= 1 admits both, and 2^{kd} is never formed.
    argv = ["search", "--norm", files("norm.json", norm_to_json(l1(3))),
            "--ground", files("ground.json", {"dim": 3, "points": [[0, 0, 0], [1, 0, 0]]}),
            "--use-bound-pruning", "--k"]
    assert run_command(argv + ["1"]) == 0
    want = capsys.readouterr().out

    def no_cap(problem):
        raise AssertionError("the bound cap is formed for a k past every pair")

    monkeypatch.setattr(search, "_bound_cap", no_cap)
    assert run_command(argv + [str(10 ** 18)]) == 0
    assert capsys.readouterr().out == want


def test_bound_command_linf(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == "parallelotope-chain"
    assert out["pass"] and out["claimed"] == 9 and out["observed"] == 9
    assert out["inputs_digest"]


def test_bound_command_planar(files, capsys):
    norm = files("norm.json", norm_to_json(hexagon_gauge()))
    pts = PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1)])
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == "planar-two-cones"
    assert out["claimed"] == 4 and out["observed"] == 3


def test_bound_planar_heights_are_keyed_by_input_points(files, capsys):
    spec = hexagon_gauge()
    pts = PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)])
    norm = files("norm.json", norm_to_json(spec))
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == "planar-two-cones" and out["k"] == 2
    heights = out["witnesses"]["chain"]["heights"]
    assert sorted(heights) == sorted(f"{x},{y}" for x, y in pts.points)
    # The hexagon's normalization moves the points: its image is another set.
    T = max_area_normalization(polygon_vertices_2d(spec)).matrix
    assert {apply_matrix(T, p) for p in pts.points} != set(pts.points)
    cert = planar_bound_certificate(spec, pts)
    assert heights == {f"{x},{y}": list(hv) for (x, y), hv in cert.heights.items()}


@pytest.mark.parametrize("spec", [hexagon_gauge(), polygon_gauge(
    [vec(2, 1), vec(1, 2), vec(-1, 1), vec(-2, -1), vec(-1, -2), vec(1, -1)]),
    polygon_gauge(random_symmetric_polygon(random.Random(1), 4, 10))])
def test_bound_planar_removed_rays_are_in_the_input_frame(files, capsys, spec):
    pts = PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)])
    argv = ["bound", "--norm", files("norm.json", norm_to_json(spec)),
            "--points", files("pts.json", pointset_to_json(pts))]
    assert run_command(argv) == 0
    rays = json.loads(capsys.readouterr().out)["witnesses"]["removed_rays"]
    nrm = max_area_normalization(polygon_vertices_2d(spec))
    qc, family = quadrant_cones(nrm.vertices), planar_cones(spec)
    assert rays and len(rays) == len(qc.removed)
    for item in rays:
        label, ray = item["cone"], vec(*(Fraction(a, b) for a, b in item["ray"]))
        assert (label, apply_matrix(nrm.matrix, ray)) in qc.removed
        cone = family[("p1", "p2").index(label)]
        assert not cone.contains(ray) and PolyhedralCone(cone.facets).contains(ray)


def test_each_planar_command_builds_only_what_it_prints(files, capsys, monkeypatch):
    # bound prints the input-frame cones' certificate and rays; normalize2d
    # prints C' and the condition report of the same cones, checked in the
    # input frame, once per norm.
    planar.planar_conditions.cache_clear()
    calls = {"quadrant_cones": 0, "check_cone_conditions": 0, "planar_cones": 0}

    def count(module, name):
        f = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(module, name, counting)

    for module in (chains, planar, cli):
        for name in calls:
            if hasattr(module, name):
                count(module, name)
    norm = files("norm.json", norm_to_json(hexagon_gauge()))
    points = files("pts.json", pointset_to_json(
        PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)])))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    assert calls == {"quadrant_cones": 0, "check_cone_conditions": 0, "planar_cones": 1}
    assert run_command(["normalize2d", "--norm", norm]) == 0
    assert calls == {"quadrant_cones": 0, "check_cone_conditions": 1, "planar_cones": 1}
    assert run_command(["normalize2d", "--norm", norm]) == 0
    assert calls == {"quadrant_cones": 0, "check_cone_conditions": 1, "planar_cones": 1}


def test_normalize2d_validates_the_polygon_once(files, capsys, monkeypatch):
    planar.planar_normalization.cache_clear()
    calls = []
    for name in ("_validate_polygon", "_check_symmetric"):
        def counting(*args, f=getattr(planar, name), name=name):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(planar, name, counting)
    norm = files("norm.json", norm_to_json(hexagon_gauge()))
    assert run_command(["normalize2d", "--norm", norm]) == 0
    assert sorted(calls) == ["_check_symmetric", "_validate_polygon"]


_OCTAGONS = [polygon_gauge(random_symmetric_polygon(random.Random(seed), 8, 8))
             for seed in (3, 4)]


@pytest.mark.parametrize("spec", [l1(2), hexagon_gauge(), *_OCTAGONS, linf(3)],
                         ids=["l1", "hexagon", "octagon3", "octagon4", "linf3"])
def test_planar_commands_print_the_same_from_a_cold_and_a_warm_cache(files, capsys, spec):
    pts = PointSet.of([vec(*p[:spec.dim]) for p in
                       [(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 2, 1), (3, 1, 2)]])
    norm = files("norm.json", norm_to_json(spec))
    points = files("pts.json", pointset_to_json(pts))
    outputs = []
    planar.planar_normalization.cache_clear()
    for _ in range(2):                  # from a cold cache, then from a warm one
        for cmd in ("bound", "chains", "normalize2d"):
            argv = [cmd, "--norm", norm] + (["--points", points] if cmd != "normalize2d" else [])
            rc = run_command(argv)
            outputs.append((cmd, rc, *capsys.readouterr()))
    assert outputs[:3] == outputs[3:]
    # chains takes only parallelotopes, normalize2d only planar norms.
    assert [rc for _, rc, _, _ in outputs[:3]] == ([0, 0, 1] if spec.dim == 3 else [0, 1, 0])


def test_one_normalization_per_norm_across_commands_and_files(files, capsys, monkeypatch):
    planar.planar_normalization.cache_clear()
    calls = []
    build = planar.max_area_normalization
    monkeypatch.setattr(planar, "max_area_normalization",
                        lambda polygon: calls.append(polygon) or build(polygon))
    spec = _OCTAGONS[0]
    first = files("norm.json", norm_to_json(spec))
    again = files("same.json", norm_to_json(spec))
    points = files("pts.json", pointset_to_json(PointSet.of([vec(0, 0), vec(1, 1)])))
    for argv in (["bound", "--norm", first, "--points", points],
                 ["normalize2d", "--norm", first],
                 ["bound", "--norm", again, "--points", points],
                 ["normalize2d", "--norm", again]):
        assert run_command(argv) == 0
    assert len(calls) == 1


def test_distinct_octagons_keep_distinct_normalizations():
    planar.planar_normalization.cache_clear()
    a, b = (planar.planar_normalization(spec) for spec in _OCTAGONS)
    assert planar.planar_normalization.cache_info().currsize == 2
    assert a.polygon != b.polygon and a.cones != b.cones
    for spec, nrm in zip(_OCTAGONS, (a, b)):
        assert nrm == max_area_normalization(polygon_vertices_2d(spec))
        assert planar_cones(spec) is nrm.cones


@pytest.mark.parametrize("spec", [l1(2), hexagon_gauge(), polygon_gauge(
    [vec(2, 1), vec(1, 2), vec(-1, 1), vec(-2, -1), vec(-1, -2), vec(1, -1)])])
def test_normalize2d_reports_the_cones_of_the_normalized_polygon(files, capsys, spec):
    nrm = max_area_normalization(polygon_vertices_2d(spec))
    qc = quadrant_cones(nrm.vertices)
    assert run_command(["normalize2d", "--norm", files("norm.json", norm_to_json(spec))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["removed_rays"] == [{"cone": c, "ray": vec_to_json(r)} for c, r in qc.removed]
    assert out["conditions_ok"] and out["uncovered"] == [] == qc.condition_report.uncovered


# l-infinity with a zero functional, which constrains nothing.
LINF2_WITH_ZERO = polytopal([(0, 0), (0, 1), (1, 0)])
LINF3_WITH_ZERO = polytopal([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_a_zero_functional_constrains_nothing_in_the_plane(files, capsys):
    pts = files("pts.json", pointset_to_json(PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1)])))
    outs = {}
    for spec in (LINF2_WITH_ZERO, polytopal([(0, 1), (1, 0)])):
        norm = files("norm.json", norm_to_json(spec))
        for argv in (["spectrum", "--points", pts], ["decompose", "--points", pts],
                     ["bound", "--points", pts], ["normalize2d"]):
            assert run_command(argv + ["--norm", norm]) == 0, argv
            out = json.loads(capsys.readouterr().out)
            out.pop("inputs_digest", None)
            outs.setdefault(argv[0], []).append(out)
    assert all(a == b for a, b in outs.values())
    assert outs["bound"][0]["bound"] == "planar-two-cones"
    assert outs["bound"][0]["claimed"] == 4


def test_a_zero_functional_constrains_nothing_in_space(files, capsys):
    argv = ["--norm", files("norm.json", norm_to_json(LINF3_WITH_ZERO)),
            "--points", files("pts.json", pointset_to_json(
                PointSet.of([vec(*p) for p in product(range(2), repeat=3)])))]
    assert run_command(["bound"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["bound"], out["k"], out["claimed"], out["observed"]) == \
        ("parallelotope-chain", 1, 8, 8)
    assert run_command(["chains"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["injective"]


def test_all_zero_functionals_are_rejected(files, capsys):
    norm = files("norm.json", {"dim": 2, "kind": "polytopal", "functionals": [[0, 0], [0, 0]]})
    assert run_command(["normalize2d", "--norm", norm]) == 1
    assert "do not span the plane" in capsys.readouterr().err


SKEWED_CUBE = polytopal([(1, 1, 0), (0, 1, 0), (0, 0, 1)])
# A^-1 {0, 1, 2}^3 for the rows A of SKEWED_CUBE: a 2-distance set of 27 points.
SKEWED_GRID = PointSet.of([vec(a - b, b, c) for a, b, c in product(range(3), repeat=3)])


def test_skewed_cube_takes_the_parallelotope_route(files, capsys):
    argv = ["--norm", files("norm.json", norm_to_json(SKEWED_CUBE)),
            "--points", files("pts.json", pointset_to_json(SKEWED_GRID))]
    assert run_command(["bound"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["bound"], out["k"], out["claimed"], out["observed"]) == \
        ("parallelotope-chain", 2, 27, 27)
    assert run_command(["chains"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["h"], out["bound"], out["observed"], out["injective"]) == (2, 27, 27, True)


def test_l1_3_stays_general_and_chains_refuses_it(files, capsys):
    argv = ["--norm", files("norm.json", norm_to_json(l1(3))),
            "--points", files("pts.json", pointset_to_json(
                PointSet.of([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])))]
    assert run_command(["bound"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == "general-minkowski"
    assert run_command(["chains"] + argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert "parallelotope" in out.err


def test_conecover_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    rc = run_command(["conecover", "--norm", norm, "--samples", "1000"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] <= out["capacity"] == 20
    assert out["unassigned"] == 0 and out["halfwidth_ok"]
    assert out["max_halfwidth"] < 0.5


@pytest.mark.parametrize("spec, m, max_halfwidth", [(linf(2), 20, 8 / 25),
                                                    (hexagon_gauge(), 14, 6 / 17)])
def test_conecover_output_is_pinned(files, capsys, spec, m, max_halfwidth):
    norm = files("norm.json", norm_to_json(spec))
    assert run_command(["conecover", "--norm", norm, "--samples", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert ({k: out[k] for k in ("m", "unassigned", "halfwidth_ok", "max_halfwidth")}
            == {"m": m, "unassigned": 0, "halfwidth_ok": True, "max_halfwidth": max_halfwidth})


def test_conecover_rejects_seminorm(files, capsys):
    # Two functionals cannot span R^3: the unit sphere is an unbounded cylinder.
    norm = files("norm.json", {"dim": 3, "kind": "polytopal",
                               "functionals": [[1, 0, 0], [0, 1, 0]]})
    rc = run_command(["conecover", "--norm", norm, "--samples", "100"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and "seminorm" in out.err


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10 ** 20])
def test_conecover_samples_above_the_ceiling_is_input_error(files, capsys, monkeypatch,
                                                            samples):
    monkeypatch.setattr(random, "Random", None)     # nothing may be sampled
    norm = files("norm.json", norm_to_json(l1(3)))
    assert run_command(["conecover", "--norm", norm, "--samples", str(samples)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and f"must be in 1..{MAX_SAMPLES}, got {samples}" in out.err


def test_conecover_undersampled_is_inconclusive(files, capsys):
    # A one-sample greedy set is maximal only on that sample, so unassigned
    # fresh directions say the sampling was too coarse, not that a bound failed.
    norm = files("norm.json", {"dim": 3, "kind": "linf"})
    rc = run_command(["conecover", "--norm", norm, "--samples", "1"])
    assert rc == 1
    out = capsys.readouterr()
    unassigned = json.loads(out.out)["unassigned"]
    assert unassigned > 0
    assert f"{unassigned} of 10 fresh directions unassigned; raise --samples" in out.err


def test_conecover_halfwidth_failure_is_alarm(files, capsys, monkeypatch):
    from kdist import cli
    real = cli.cone_halfwidth_check

    def failing(cone, spec):
        report = real(cone, spec)
        report.failures.append("forced")
        return report

    monkeypatch.setattr(cli, "cone_halfwidth_check", failing)
    # Under-sampled as above: a half-width failure outranks unassigned directions.
    norm = files("norm.json", {"dim": 3, "kind": "linf"})
    rc = run_command(["conecover", "--norm", norm, "--samples", "1"])
    assert rc == 2
    out = capsys.readouterr()
    assert not json.loads(out.out)["halfwidth_ok"]
    assert "falsification alarm" in out.err


def test_normalize2d_failed_cone_conditions_are_an_alarm(files, capsys, monkeypatch):
    real = cli.planar_conditions

    def violated(spec):     # a new report: the norm's own stays cached as it was
        report = real(spec)
        return chains.ConeConditionReport(
            report.uncovered, report.equal_norm_violations + [(0, vec(1, 0), vec(0, 1))])

    monkeypatch.setattr(cli, "planar_conditions", violated)
    norm = files("norm.json", norm_to_json(hexagon_gauge()))
    assert run_command(["normalize2d", "--norm", norm]) == 2
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert not report["conditions_ok"] and report["equal_norm_violations"] == 1
    assert out.err.startswith("falsification alarm: ")


# Closed quadrants: on the points below, (-1, 0) and (-1, 1) are differences
# of norm 1 in the second quadrant, and their difference (0, 1) lies in it too.
CLOSED_QUADRANTS = (PolyhedralCone(facets=(vec(1, 0), vec(0, 1))),
                    PolyhedralCone(facets=(vec(-1, 0), vec(0, 1))))


@pytest.mark.parametrize("command, norm, route", [
    ("chains", linf(2), None),
    ("bound", linf(2), "parallelotope-chain"),
    ("bound", polytopal([(1, 0), (0, 1)]), "planar-two-cones"),
], ids=["chains", "bound-parallelotope", "bound-planar"])
def test_failed_chain_certificate_is_an_alarm(files, capsys, monkeypatch, command, norm, route):
    for module, name in ((cli, "parallelotope_cones"), (planar, "parallelotope_cones"),
                         (planar, "planar_cones")):
        monkeypatch.setattr(module, name, lambda spec: CLOSED_QUADRANTS)
    pts = PointSet.of([vec(-1, 0), vec(-1, 1), vec(0, 0)])
    argv = [command, "--norm", files("norm.json", norm_to_json(norm)),
            "--points", files("pts.json", pointset_to_json(pts))]
    assert run_command(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("falsification alarm: ")
    if route:
        assert out.out == "" and f"the {route} route" in out.err
    else:
        cert = json.loads(out.out)
        assert (cert["k"], cert["h"], len(cert["violations"])) == (1, 2, 2)


def test_search_empty_ground_is_input_error(files, capsys):
    norm = files("norm.json", norm_to_json(linf(1)))
    ground = files("ground.json", {"dim": 1, "points": []})
    assert run_command(["search", "--norm", norm, "--ground", ground,
                        "--k", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "empty ground" in out.err


#: A planar gauge with eight vertices: the square cut at its corners by |x +- y| <= 3/2.
_OCTAGON = polytopal([(1, 0), (0, 1), ("2/3", "2/3"), ("2/3", "-2/3")])


def test_library_paths_evaluate_exact_norms_only_on_image_arrays(files, monkeypatch):
    def scalar(spec, v):
        if spec.exact:
            raise AssertionError("an exact norm was evaluated vector by vector")
        return reference(spec, v)

    reference = norms.norm_eval
    for module in (norms, cover):
        monkeypatch.setattr(module, "norm_eval", scalar)
    for spec in (hexagon_gauge(), l1(3)):           # the criterion-8 pipeline, small
        samples = sphere_samples(spec, 200, seed=8)
        sep = greedy_separated_set(spec, samples)
        assert packing_bound_check(sep, spec)
        cover_assignment(sep, spec, sphere_samples(spec, 20, seed=9))
        assert all(cone_halfwidth_check(c, spec).ok for c in generated_cones(sep, spec, samples))
    for spec, vertices in ((hexagon_gauge(), 6), (_OCTAGON, 8)):
        assert len(polygon_vertices_2d(spec)) == vertices
        assert run_command(["normalize2d", "--norm", files("norm.json", norm_to_json(spec))]) == 0
    pts = [[0, 0, 0], [1, 0, 0], [0, 2, 1], [3, 1, 1], [[1, 2], 1, 0]]
    for spec in (hexagon_gauge(), l1(3)):
        argv = ["--norm", files("norm.json", norm_to_json(spec)), "--points",
                files("pts.json", {"dim": spec.dim, "points": [p[:spec.dim] for p in pts]})]
        for command in ("bound", "decompose", "spectrum"):
            assert run_command([command] + argv) == 0


@pytest.mark.parametrize("norm, digests", [
    (linf(2), ("240535fbc8fbc389", "259718c93c2d1021")),
    (hexagon_gauge(), ("d1392aca6ae5a24b", "689c8c26e836ad89")),
    (l1(3), ("46e07539cbbfcd0f", "b13cf8cfe5bd5dd6")),
    (lp(2, 2.0), ("b69ff336480c0f19", "efe01b5a526e41e0")),
], ids=["linf", "hexagon", "l1-3", "lp"])
@pytest.mark.parametrize("size", [0, 1])
def test_empty_and_one_point_sets_have_no_distances(files, capsys, norm, digests, size):
    pts = [[[1, 2]] + [3] * (norm.dim - 1)][:size]
    argv = ["--norm", files("norm.json", norm_to_json(norm)),
            "--points", files("pts.json", {"dim": norm.dim, "points": pts})]
    want = {
        "spectrum": {"k": 0, "distances": [], "multiplicities": []},
        "bound": {"bound": "single-point", "version": __version__,
                  "inputs_digest": digests[size], "k": 0, "dim": norm.dim, "claimed": 1,
                  "observed": size, "pass": True, "witnesses": {}},
        "decompose": {"kind": "leaf", "size": size, "k": 0, "bound": 1.0, "claim": 1},
    }
    for command, out in want.items():
        assert run_command([command] + argv) == 0
        assert json.loads(capsys.readouterr().out) == out


def test_missing_file_is_input_error(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    assert run_command(["spectrum", "--norm", norm,
                        "--points", "/nonexistent.json"]) == 1


def test_malformed_norm_is_input_error(files, capsys):
    norm = files("norm.json", {"dim": 2, "kind": "nonsense"})
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 1


def test_dimension_mismatch_is_input_error(files, capsys):
    norm = files("norm.json", norm_to_json(linf(3)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 1


@pytest.mark.parametrize("norm, points", [
    ({"dim": 2, "kind": "linf"}, {"points": 5}),
    ({"dim": 2, "kind": "linf"}, {"dim": 2, "points": [[True, 0], [0, 0]]}),
    ({"dim": 2.7, "kind": "linf"}, {"dim": 2, "points": [[0, 0], [1, 0]]}),
    ({"dim": 2, "kind": "lp", "p": "3"}, {"dim": 2, "points": [[0, 0], [1, 0]]}),
], ids=["points-not-a-list", "boolean-coordinate", "fractional-dim", "string-exponent"])
def test_malformed_json_is_input_error(files, capsys, norm, points):
    rc = run_command(["spectrum", "--norm", files("norm.json", norm),
                      "--points", files("pts.json", points)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("role", ["--points", "--norm"])
@pytest.mark.parametrize("data", [
    b"[" * 100_000,                                 # deeper than the decoder's recursion
    b'\xff\xfe{"dim": 1, "kind": "linf"}',          # a UTF-16 mark: not UTF-8 text
    b'{"dim": 1, "points": [[' + b"7" * 5000 + b"]]}",  # past Python's int-string limit
], ids=["nested", "utf16-bom", "5000-digits"])
def test_unreadable_json_is_one_input_error_line(files, tmp_path, capsys, role, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    paths = {"--norm": files("norm.json", norm_to_json(linf(1))),
             "--points": files("pts.json", {"dim": 1, "points": [[0], [1]]}), role: str(bad)}
    assert run_command(["spectrum", *chain.from_iterable(paths.items())]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"input error: cannot read JSON from {bad}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectrum", "chains", "normalize2d", "conecover",
                                     "decompose", "search", "bound"])
@pytest.mark.parametrize("dim", [MAX_JSON_DIM + 1, 5_000_000, 10 ** 30])
def test_norm_dim_above_the_limit_is_input_error(files, capsys, command, dim):
    # conecover draws dim coordinates per sample: a huge dim would run for minutes.
    norm = files("norm.json", {"dim": dim, "kind": "l1"})
    points = files("pts.json", {"dim": 2, "points": [[0, 0], [1, 0]]})
    argv = [command, "--norm", norm] + {
        "normalize2d": [], "conecover": ["--samples", "40"],
        "search": ["--ground", points, "--k", "1"]}.get(command, ["--points", points])
    assert run_command(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and f"norm dim {dim} exceeds the limit {MAX_JSON_DIM}" in out.err


def test_seminorm_is_rejected_not_a_crash(files, capsys):
    # The functionals do not span R^3: (0,0,0) and (0,0,1) are at distance 0.
    norm = files("norm.json", {"dim": 3, "kind": "polytopal",
                               "functionals": [[1, 0, 0], [0, 1, 0]]})
    pts = PointSet.of([vec(0, 0, 0), vec(0, 0, 1), vec(1, 0, 0), vec(2, 0, 0)])
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 1
    assert "distance 0" in capsys.readouterr().err


def test_lp_overflow_is_an_error_not_a_crash(files, capsys):
    norm = files("norm.json", {"dim": 1, "kind": "lp", "p": 2000.0})
    points = files("pts.json", {"dim": 1, "points": [[0], [4]]})
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 1
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "conecover"])
def test_infinite_lp_exponent_is_input_error(files, capsys, command):
    # Python's JSON reader accepts Infinity; lp with p = inf is 1 on every vector, zero included.
    norm = files("norm.json", {"dim": 2, "kind": "lp", "p": float("inf")})
    points = files("pts.json", {"dim": 2, "points": [[0, 0], [1, 0]]})
    argv = {"bound": ["bound", "--norm", norm, "--points", points],
            "conecover": ["conecover", "--norm", norm, "--samples", "20"]}[command]
    assert run_command(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and "lp exponent must be finite" in out.err


@pytest.mark.parametrize("command", ["decompose", "bound"])
def test_lp_float_bound_is_no_false_alarm(files, capsys, command):
    # ||(5,)|| evaluates to 4.999999999999999, so the volume bound reads just below 6.
    norm = files("norm.json", {"dim": 1, "kind": "lp", "p": 3.0})
    points = files("pts.json", {"dim": 1, "points": [[x] for x in range(6)]})
    assert run_command([command, "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    node = out["witnesses"]["decomposition"] if command == "bound" else out
    assert node["kind"] == "volume" and node["size"] == 6 and node["bound"] < 6


ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_selftest_runs_the_acceptance_criteria(capsys):
    assert run_command(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # test_criterion_NN_name in the acceptance file <-> "PASS  N name detail".
    expected = [["PASS", str(int(n)), name] for n, name in re.findall(
        r"^def test_criterion_(\d\d)_(\w+)\(", ACCEPTANCE.read_text(), re.M)]
    assert len(expected) == 10
    assert [line.split()[:3] for line in lines[:-1]] == expected
    assert all(len(line.split()) > 3 for line in lines[:-1])
    assert lines[-1] == "10/10 criteria passed"


def test_selftest_reports_a_failing_criterion(monkeypatch, capsys):
    monkeypatch.setattr(criteria, "general_bound", lambda k, d: 17)
    assert run_command(["selftest"]) == 2
    out = capsys.readouterr().out
    failed = [line.split(maxsplit=3) for line in out.splitlines()
              if line.startswith("FAIL")]
    assert [f[:3] for f in failed] == [["FAIL", "8", "cone_cover"]]
    assert failed[0][3].strip()
    assert out.splitlines()[-1] == "9/10 criteria passed"


def test_selftest_failure_survives_python_O():
    # Bare asserts vanish under -O; the criteria raise explicitly instead.
    script = ("import sys; from kdist import cli, criteria; "
              "criteria.general_bound = lambda k, d: 17; "
              "sys.exit(cli.run_command(['selftest']))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert re.search(r"^FAIL\s+8 cone_cover\s+\S", proc.stdout, re.M)


SEMINORM_3D = {"dim": 3, "kind": "polytopal", "functionals": [[1, 0, 0], [0, 1, 0]]}


@pytest.mark.parametrize("command, points_flag", [("bound", "--points"),
                                                  ("search", "--ground")])
def test_seminorm_rejected_without_zero_distance(files, capsys, command, points_flag):
    # No two points differ by a kernel vector, so no distance is 0; the
    # rank of the functionals still marks the gauge as a seminorm.
    norm = files("norm.json", SEMINORM_3D)
    pts = PointSet.of([vec(0, 0, 0), vec(1, 0, 0), vec(3, 0, 0)])
    argv = [command, "--norm", norm, points_flag, files("pts.json", pointset_to_json(pts))]
    if command == "search":
        argv += ["--k", "1"]
    assert run_command(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and "seminorm" in out.err


def test_bound_rejects_a_planar_seminorm(files, capsys):
    # The planar cones are built before the table: the unit polygon is unbounded.
    norm = files("norm.json", {"dim": 2, "kind": "polytopal", "functionals": [[1, 0], [2, 0]]})
    points = files("pts.json", pointset_to_json(PointSet.of([vec(0, 0), vec(1, 0)])))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "functionals do not span the plane" in out.err


@pytest.mark.parametrize("argv, err", [
    ([], "kdist: the following arguments are required: command"),
    (["bound"], "kdist bound: the following arguments are required: --norm, --points"),
    (["bound", "--points", "x"], "kdist bound: the following arguments are required: --norm"),
    (["nonsense"], "kdist: argument command: invalid choice: 'nonsense' (choose from "
                   "'spectrum', 'chains', 'normalize2d', 'conecover', 'decompose', 'search', "
                   "'bound', 'selftest')"),
    (["search", "--norm", "n", "--ground", "g", "--k", "two"],
     "kdist search: argument --k: invalid int value: 'two'"),
    (["spectrum", "--norm", "n", "--points", "p", "--extra"],
     "kdist: unrecognized arguments: --extra"),
    (["bound", "--norm", "a", "--points", "b", "extra"], "kdist: unrecognized arguments: extra"),
])
def test_usage_error_is_input_error(capsys, argv, err):
    assert run_command(argv) == 1
    assert capsys.readouterr() == ("", f"input error: {err}\n")


def test_a_command_is_parsed_in_one_argparse_pass(files, capsys, monkeypatch):
    passes = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 0
    assert passes == ["kdist spectrum"]
    assert json.loads(capsys.readouterr().out)["k"] > 0


@pytest.mark.parametrize("command", ["spectrum", "decompose", "chains", "bound"])
@pytest.mark.parametrize("encode", [list, vec_to_json], ids=["ints", "pairs"])
def test_integer_points_are_read_as_rows_and_build_no_fraction_point(
        files, capsys, monkeypatch, command, encode):
    # The first run builds the norm's cached cones, whose facets are cleared too.
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", {"points": [encode((x, y)) for x in range(6) for y in range(3)]})
    argv = [command, "--norm", norm, "--points", points]
    assert run_command(argv) == 0
    first = capsys.readouterr()
    calls, clear = [], norms.clear_denominators

    def counted(vectors):
        calls.append(sys._getframe(1).f_code.co_qualname)
        return clear(vectors)

    def no_points(rows, den):
        raise AssertionError("a Fraction point was built")

    for module in vars(kdist).values():
        if getattr(module, "clear_denominators", None) is clear:
            monkeypatch.setattr(module, "clear_denominators", counted)
    monkeypatch.setattr(spectrum, "_points_of", no_points)
    assert run_command(argv) == 0
    assert calls == [] and capsys.readouterr() == first


def _old_rat(obj):
    if type(obj) is int:
        return Fraction(obj)
    if type(obj) in (list, tuple) and len(obj) == 2:
        num, den = obj
        if type(num) is int and type(den) is int and den:
            return Fraction(num, den)
    raise InputError(f"not a rational [num, den] pair: {obj!r}")


def _old_pointset_from_json(obj):
    """The reader that made every coordinate a Fraction and then the
    PointSet of those points: the oracle of the row reader."""
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise InputError("point set must be a JSON object with a 'points' list")
    pts = []
    for p in obj["points"]:
        if not isinstance(p, (list, tuple)):
            raise InputError(f"not a vector: {p!r}")
        pts.append(tuple(_old_rat(a) for a in p))
    dim = obj.get("dim", len(pts[0]) if pts else 0)
    if type(dim) is not int:
        raise InputError(f"point set dim must be an integer, got {dim!r}")
    return PointSet(dim, tuple(pts))


_bad_coordinates = st.sampled_from([True, 0.5, "1/2", None, [1, 0], [1, 2, 3], [True, 1],
                                    [1, True], [1, False], [1.0, 2], [[1], 2], {}])
# Ints, pairs out of lowest terms such as [2, 4], negative denominators such
# as [1, -2], and now and then a coordinate that is no rational at all.
_json_integer = st.integers(-300, 300) | st.integers(-300, 300).map(lambda n: [n, 1])
_json_rational = _json_integer | st.builds(
    lambda num, den, sign: [num, sign * den], st.integers(-300, 300),
    st.integers(1, 12) | st.integers(1, 2 ** 70), st.sampled_from([1, -1]))


@st.composite
def _json_point_sets(draw):
    d = draw(st.integers(1, 3))
    coordinate = draw(st.sampled_from([_json_integer, _json_rational]))
    if draw(st.integers(0, 3)) == 0:
        coordinate |= _bad_coordinates
    point = st.lists(coordinate, min_size=d, max_size=d)
    if draw(st.integers(0, 4)) == 0:    # a point of another length, or no vector
        point = point | st.lists(_json_rational, max_size=4) | st.sampled_from([3, None, "ab"])
    pts = draw(st.lists(point, max_size=8))
    if pts and draw(st.integers(0, 4)) == 0:
        pts.append(draw(st.sampled_from(pts)))          # a duplicate, as written
    obj = {"points": pts}
    if draw(st.booleans()):
        obj["dim"] = draw(st.sampled_from([d, d, d, d + 1, 0, True, 2.0, "2"]))
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=_json_point_sets())
@example(obj={"points": [[0, [1, True]], [2, 3]]})
def test_json_points_read_as_rows_match_the_fraction_reader(obj):
    try:
        want = _old_pointset_from_json(obj)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            pointset_from_json(obj)
        assert str(got.value) == str(exc)
        event(f"rejected: {str(exc).split(':')[0][:24]}")
        return
    ps = pointset_from_json(obj)
    event(f"read, den {'> 1' if ps.den > 1 else '1'}")
    assert "points" not in vars(ps)             # read into rows only
    assert (ps.rows, ps.den, ps.dim) == (want.rows, want.den, want.dim)
    assert ps.den == math.lcm(*(a.denominator for p in want.points for a in p))
    assert pointset_to_json(ps) == {"dim": want.dim,
                                    "points": [vec_to_json(p) for p in want.points]}
    assert ps == want and hash(ps) == hash(want) and repr(ps) == repr(want)
    assert ps.points == want.points
    assert all(type(a) is Fraction for p in ps.points for a in p)


@pytest.mark.parametrize("coord, integer", [
    (3, True), ([3, 1], True), ([-3, 1], True), (True, False), (3.0, False), ([3, True], False),
    ([True, 1], False), ([3, 1.0], False), ([6, 2], False), ([-3, -1], False), ([3, 1, 1], False),
    ((3, 1), False), ("3", False)])
def test_only_int_and_n_1_coordinates_skip_the_rational_reader(monkeypatch, coord, integer):
    # The set-wide integer read takes a coordinate only where ratio_from_json
    # would read (n, 1); any other set goes to ratio_from_json, and its errors.
    def refuse(obj):
        raise AssertionError(f"ratio_from_json read {obj!r}")

    obj = {"points": [[0, 0], [1, coord]]}
    assert (spectrum._integer_rows(obj["points"]) is not None) is integer
    monkeypatch.setattr(spectrum, "ratio_from_json", refuse)
    if integer:
        assert pointset_from_json(obj).rows == ((0, 0), (1, coord if type(coord) is int else coord[0]))
    else:
        with pytest.raises(AssertionError, match="ratio_from_json read"):
            pointset_from_json(obj)


def test_usage_error_exit_status_of_the_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = [sys.executable, "-m", "kdist.cli"]
    proc = subprocess.run(run + ["bound", "--points", "x"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "--norm" in proc.stderr
    proc = subprocess.run(run + ["--help"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and "bound" in proc.stdout


def test_closed_stdout_exits_1_without_traceback(files):
    # The reader closes its end before kdist writes anything.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "kdist.cli", "spectrum", "--norm",
            files("norm.json", norm_to_json(linf(2))), "--points",
            files("pts.json", pointset_to_json(_grid_points()))]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv, env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "closed" in proc.stderr


def test_help_exits_0(capsys):
    assert run_command(["--help"]) == 0
    assert run_command(["search", "-h"]) == 0
    assert "--enumerate-optima" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzz: random argv and random JSON files never escape run_command

_small_ints = st.integers(-3, 4)
_json_scalars = (st.none() | st.booleans() | _small_ints
                 | st.floats(-1e3, 1e3) | st.sampled_from([0.5, 2.0, 1e300, float("inf"),
                                                           float("nan"), 10 ** 30])
                 | st.text(max_size=3))
_json_any = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["dim", "kind", "points", "functionals", "p"]), kids, max_size=4),
    max_leaves=10)
# Mostly small coordinates, some up to 2^400, whose cubes leave float range.
_coordinate_ints = _small_ints | st.integers(-2 ** 400, 2 ** 400)
_coordinate = _coordinate_ints | st.lists(_coordinate_ints, min_size=2, max_size=2)
_norm_json = st.fixed_dictionaries(
    {"dim": st.integers(0, 3) | _json_scalars,
     "kind": st.sampled_from(["linf", "l1", "polytopal", "lp", "l2"])},
    optional={"functionals": st.lists(st.lists(_coordinate, max_size=4), max_size=4),
              "p": st.sampled_from([0, 1, 1.5, 2, 3.0, 2000.0, "2", True])})
_points_json = st.fixed_dictionaries(
    {"points": st.lists(st.lists(_coordinate, min_size=1, max_size=3), max_size=6)},
    optional={"dim": st.integers(0, 3) | _json_scalars})


@st.composite
def _well_formed(draw):
    """A norm and a point set of one dimension (the gauge may be a seminorm)."""
    d = draw(st.integers(1, 3))
    vectors = st.lists(st.lists(_coordinate, min_size=d, max_size=d), min_size=1, max_size=6)
    norm = {"dim": d, "kind": draw(st.sampled_from(["linf", "l1", "polytopal", "lp"]))}
    if norm["kind"] == "polytopal":
        norm["functionals"] = draw(vectors)
    if norm["kind"] == "lp":
        norm["p"] = draw(st.sampled_from([1.5, 3.0, 2000.0]))
    return norm, {"dim": d, "points": draw(vectors)}


_tokens = st.sampled_from([
    "spectrum", "chains", "normalize2d", "conecover", "decompose", "search",
    "bound", "nonsense", "--norm", "--points", "--ground", "--k", "--samples",
    "--seed", "--use-bound-pruning", "--enumerate-optima", "-h",
    "NORM", "POINTS", "/nonexistent.json", "1", "2", "-1", "x"])


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["spectrum", "chains", "normalize2d", "conecover",
                                "decompose", "search", "bound"]),
       rest=st.just([]) | st.lists(_tokens, max_size=8),
       files=_well_formed() | st.tuples(_norm_json | _json_any, _points_json | _json_any))
def test_cli_fuzz_exit_status(tmp_path_factory, command, rest, files):
    # `selftest` takes no input and runs for seconds, so it is left out;
    # conecover's default of 10,000 samples is capped for the same reason.
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {"NORM": tmp / "norm.json", "POINTS": tmp / "points.json"}
    for path, obj in zip(paths.values(), files):
        path.write_text(json.dumps(obj))
    argv = [command] + [str(paths.get(t, t)) for t in rest] + ["--norm", str(paths["NORM"])]
    if command == "search":
        argv += ["--ground", str(paths["POINTS"]), "--k", "1"]
    elif command not in ("normalize2d", "conecover"):
        argv += ["--points", str(paths["POINTS"])]
    if command == "conecover":
        argv += ["--samples", "40"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_command(argv)
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2), (argv, rc)


# Valid files of both kinds, written out, and then cut short or run on.
_json_bytes = st.builds(lambda obj, cut, junk: json.dumps(obj).encode()[:cut] + junk,
                        _norm_json | _points_json | _json_any, st.integers(0, 200),
                        st.binary(max_size=3))
_COMMANDS = {"spectrum": "--points", "chains": "--points", "normalize2d": None,
             "conecover": None, "decompose": "--points", "search": "--ground",
             "bound": "--points"}


@settings(max_examples=25, deadline=None)
@given(data=st.binary(max_size=64) | _json_bytes)
def test_any_file_content_exits_0_1_or_2(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("raw")
    raw, norm, points = tmp / "raw", tmp / "norm.json", tmp / "points.json"
    raw.write_bytes(data)
    norm.write_text(json.dumps(norm_to_json(linf(2))))
    points.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}))
    for command, flag in _COMMANDS.items():
        roles = [("--norm", raw, flag, points)] + ([(flag, raw, "--norm", norm)] if flag else [])
        for role, path, other, other_path in roles:
            argv = [command, role, str(path)] + ([other, str(other_path)] if other else [])
            argv += {"search": ["--k", "1"], "conecover": ["--samples", "40"]}.get(command, [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_command(argv)
            assert rc in (0, 1, 2), (argv, rc)
            assert rc == 0 or err.getvalue().count("\n") == 1


def test_a_pair_table_over_the_size_limit_is_refused_before_it_is_built(files, capsys,
                                                                        monkeypatch):
    # 6,000 points in d = 1 estimate 6000^2 * 4 * 8 bytes, about 1.1 GB.
    n = 6_000
    assert n * n * 4 * 8 > MAX_TABLE_BYTES >= 1_000 * 1_000 * 8 * 8
    ps = PointSet(1, tuple((i,) for i in range(n)))
    monkeypatch.setattr(spectrum, "image_array", None)       # no table is built
    with pytest.raises(InputError, match=r"pair table of 6000 points in dimension 1 needs "
                                         r"about 1098 MiB, over the limit of 1024 MiB"):
        PairTable(linf(1), ps)
    norm = files("norm.json", norm_to_json(linf(1)))
    points = files("pts.json", {"points": [[i] for i in range(n)]})
    for argv in (["spectrum", "--points", points], ["search", "--ground", points, "--k", "1"]):
        assert run_command([argv[0], "--norm", norm, *argv[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "over the limit of 1024 MiB" in out.err
