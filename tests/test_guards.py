"""Input guards and falsification alarms that the other tests never reach.

Each guard is called once with the input it refuses, and its message is
checked.  Each alarm is forced by patching the bound it checks, so a
working computation can be made to contradict it.
"""

import json

import pytest

from kdist import (CertificateError, GeometryError, InputError, PointSet,
                   PolyhedralCone, best_distinct_witness, brunn_minkowski_mc_check,
                   check_cone_conditions, decompose_recursive_bound, linf,
                   linf_cone_family, lp, max_area_normalization, polygon_gauge,
                   polygon_vertices_2d, polytopal, unit_ball_volume, vec, volume_ratio_bound)
from kdist import decompose, planar
from kdist.cli import run_command
from kdist.cover import (GeneratedCone, SeparatedSet, cone_halfwidth_check,
                         greedy_separated_set, packing_bound_check)
from kdist.errors import FalsificationError
from kdist.gen import half_open_grid_set
from kdist.norms import NormSpec
from kdist.search import SearchProblem, extremal_grid
from kdist.spectrum import DistanceSpectrum, PairTable

LINE = PointSet.of([vec(0), vec(1)])

GUARDS = {
    "chains-zero-ray": (lambda: PolyhedralCone((vec(1, 0),), (vec(0, 0),)),
                        InputError, "an excluded ray must be nonzero"),
    "chains-no-vectors": (lambda: check_cone_conditions(linf_cone_family(2), linf(2),
                                                        [vec(0, 0)]),
                          InputError, "vectors must be nonempty"),
    "cover-dimension": (lambda: greedy_separated_set(linf(2), [vec(1, 0, 0)]),
                        InputError, "vector has dimension 3, expected 2"),
    "cover-no-samples": (lambda: greedy_separated_set(linf(2), []),
                         InputError, "samples must be nonempty"),
    "cover-no-generators": (lambda: cone_halfwidth_check(GeneratedCone(vec(1, 0), ()), linf(2)),
                            InputError, "cone has no generators"),
    "cover-packing-cap": (lambda: packing_bound_check(
                              SeparatedSet(tuple(vec(1, i) for i in range(21))), linf(2)),
                          CertificateError,
                          "separated set of size 21 exceeds the packing cap 20 in dimension 2"),
    "decompose-no-distance": (lambda: volume_ratio_bound(DistanceSpectrum((), ()), 2),
                              InputError, "volume bound requires at least one distance"),
    "decompose-polytopal-3d": (lambda: unit_ball_volume(polytopal([(1, 0, 0), (0, 1, 0),
                                                                   (0, 0, 1)])),
                               InputError, "polytopal ball volume implemented for d = 2 only"),
    "gen-empty-grid-set": (lambda: half_open_grid_set(0, 2),
                           GeometryError, "no half-open grid set with n=0, d=2"),
    "norms-functional-length": (lambda: NormSpec(2, "polytopal", (vec(1, 0, 0),)),
                                InputError, "functional length does not match dimension"),
    "norms-no-functionals": (lambda: polytopal([]),
                             InputError, "polytopal gauge needs at least one functional"),
    "norms-lp-polygon": (lambda: polygon_vertices_2d(lp(2, 2.0)),
                         InputError, "polygon_vertices_2d requires an exact norm kind"),
    "planar-few-vertices": (lambda: max_area_normalization([(1, 0), (-1, 0)]),
                            GeometryError, "need at least 4 vertices"),
    "planar-repeated-vertex": (lambda: max_area_normalization([(1, 0), (1, 0), (-1, 0), (-1, 0)]),
                               GeometryError, "repeated polygon vertex"),
    "planar-edge-through-origin": (lambda: polygon_gauge([(1, 0), (2, 0), (-1, 0), (-2, 0)]),
                                   GeometryError, "polygon edge collinear with the origin"),
    "search-k": (lambda: SearchProblem(linf(1), LINE, 0), InputError, "k must be >= 1"),
    "search-dimension": (lambda: SearchProblem(linf(2), LINE, 1),
                         InputError, "ground dimension does not match norm dimension"),
    "search-grid-k": (lambda: extremal_grid(0, 2),
                      InputError, "extremal grid requires k >= 1 and d >= 1"),
    "search-grid-scale": (lambda: extremal_grid(1, 2, scale=0),
                          InputError, "scale must be positive"),
    "search-grid-offset": (lambda: extremal_grid(1, 2, offset=(0,)),
                           InputError, "offset dimension mismatch"),
    "spectrum-empty-set": (lambda: PointSet.of([]), InputError, "point set must be nonempty"),
    "spectrum-no-ratio": (lambda: DistanceSpectrum((), ()).ratio,
                          InputError, "empty spectrum has no distance ratio"),
    "spectrum-one-point-witness": (lambda: best_distinct_witness(linf(1), PointSet.of([vec(0)])),
                                   InputError, "witness needs at least two points"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_each_input_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_a_norm_file_whose_functionals_are_no_list_exits_1(tmp_path, capsys):
    norm, pts = tmp_path / "norm.json", tmp_path / "pts.json"
    norm.write_text(json.dumps({"dim": 2, "kind": "polytopal", "functionals": 5}))
    pts.write_text(json.dumps({"dim": 2, "points": [[0, 0]]}))
    assert run_command(["spectrum", "--norm", str(norm), "--points", str(pts)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "input error: functionals must be a list, got 5\n")


def test_monte_carlo_volumes_of_one_point_take_radius_one():
    # Under linf the sampling box is the ball itself: every sample lands inside.
    report = brunn_minkowski_mc_check(linf(2), PointSet.of([vec(3, "1/2")]), trials=500)
    assert (report.vol_v, report.vol_v_halfwidth, report.vol_v_formula) == (1.0, 0.0, 1.0)
    assert (report.vol_vv, report.vol_vv_halfwidth, report.vol_vv_upper) == (4.0, 0.0, 16.0)
    assert report.brunn_minkowski_ok and report.formula_ok and report.upper_ok


# ---------------------------------------------------------------------------
# falsification alarms, each forced by a patched bound

def test_bound_beyond_a_patched_claim_prints_the_json_then_one_alarm(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(planar.Route, "claim", lambda self, k, d: 1)
    norm, pts = tmp_path / "norm.json", tmp_path / "pts.json"
    norm.write_text(json.dumps({"dim": 1, "kind": "linf"}))
    pts.write_text(json.dumps({"dim": 1, "points": [[0], [1], [2]]}))
    assert run_command(["bound", "--norm", str(norm), "--points", str(pts)]) == 2
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert (report["claimed"], report["observed"], report["pass"]) == (1, 3, False)
    assert out.err == "falsification alarm: observed cardinality 3 exceeds the proved bound 1\n"


def _decompose_line(*xs):
    return decompose_recursive_bound(PairTable(linf(1), PointSet.of([vec(x) for x in xs])))


def test_decompose_volume_alarm(monkeypatch):
    # {0, 1, 2}: ratio 2, 1 + 2 <= 2^2, so the volume bound decides.
    monkeypatch.setattr(decompose, "volume_ratio_bound", lambda sp, d: 1)
    with pytest.raises(FalsificationError, match=r"^3 points exceed the volume bound 1 "
                                                 r"\(k=2, d=1\)$"):
        _decompose_line(0, 1, 2)


def test_decompose_missing_threshold_alarm(monkeypatch):
    # {0, 1, 100, 101}: ratio 101 > 2^3, so a threshold must exist.
    monkeypatch.setattr(decompose, "_threshold", lambda table, idx, sp: None)
    with pytest.raises(FalsificationError, match=r"^distance ratio 101 > 2\^3 but no "
                                                 r"equivalence threshold exists$"):
        _decompose_line(0, 1, 100, 101)


def test_decompose_recursion_alarm(monkeypatch):
    # Both clusters and the representatives take the volume bound: 2^10 each.
    monkeypatch.setattr(decompose, "volume_ratio_bound", lambda sp, d: 2 ** 10)
    with pytest.raises(FalsificationError, match=r"^cluster recursion bound 1048576 fails "
                                                 r"for 4 points \(claim 16\)$"):
        _decompose_line(0, 1, 100, 101)
