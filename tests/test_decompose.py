import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdist import (DecompositionNode, InputError, PointSet,
                   brunn_minkowski_mc_check, clusters_at,
                   decompose_recursive_bound, exact_box_union_area,
                   find_equivalence_threshold, hexagon_gauge, l1, linf, lp,
                   polygon_vertices_2d, polytopal, unit_ball_volume, vec,
                   volume_ratio_bound)
from kdist.decompose import _ball_reach, _mc_union_volume
from kdist.gen import clustered_lattice_set
from kdist.norms import gauge
from kdist.spectrum import PairTable, distance_spectrum


def _two_cluster_line():
    # {0, 1} and {100, 101}: distances 1, 99, 100, 101.
    return PointSet.of([vec(0), vec(1), vec(100), vec(101)])


def test_clusters_at_threshold_one():
    ps = _two_cluster_line()
    clusters = clusters_at(linf(1), ps, 1)
    assert clusters == [[vec(0), vec(1)], [vec(100), vec(101)]]


def test_clusters_at_non_equivalence():
    # Path 0 - 1 - 2 at threshold 1 is connected but not a clique.
    ps = PointSet.of([vec(0), vec(1), vec(2)])
    assert clusters_at(linf(1), ps, 1) is None
    assert clusters_at(linf(1), ps, 2) == [[vec(0), vec(1), vec(2)]]


def test_find_equivalence_threshold_line():
    ps = _two_cluster_line()
    sp = distance_spectrum(linf(1), ps)
    assert sp.k == 4
    assert find_equivalence_threshold(ps, linf(1)) == 1


def test_find_equivalence_threshold_requires_k_at_least_2():
    ps = PointSet.of([vec(0), vec(1)])
    with pytest.raises(InputError):
        find_equivalence_threshold(ps, linf(1))


def test_threshold_none_when_no_transitive_level():
    # {0, 1, 2, 4}: every threshold level below the diameter gives a
    # connected component that is not a clique.
    ps = PointSet.of([vec(0), vec(1), vec(2), vec(4)])
    sp = distance_spectrum(linf(1), ps)
    assert sp.k == 4
    assert find_equivalence_threshold(ps, linf(1)) is None


def test_threshold_exists_when_ratio_large():
    rng = random.Random(8)
    for _ in range(25):
        d = rng.choice((1, 2, 3))
        ps = clustered_lattice_set(rng, d)
        sp = distance_spectrum(linf(d), ps)
        if sp.k < 2 or sp.ratio <= 2 ** (sp.k - 1):
            continue
        assert find_equivalence_threshold(ps, linf(d)) is not None


def test_volume_ratio_bound_values():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(2, 0)])
    sp = distance_spectrum(linf(2), ps)
    assert sp.ratio == 2
    assert volume_ratio_bound(sp, 2) == 9


def test_decompose_volume_branch():
    grid = PointSet.of([vec(x, y) for x in range(3) for y in range(3)])
    node = decompose_recursive_bound(PairTable(linf(2), grid))
    assert node.kind == "volume"
    assert 9 <= node.bound <= node.claim == 16


def test_decompose_split_branch():
    ps = _two_cluster_line()
    node = decompose_recursive_bound(PairTable(linf(1), ps))
    assert node.kind == "split" and node.threshold == 1
    assert len(node.children) == 2
    assert 4 <= node.bound <= node.claim == 16
    trace = node.to_json()
    assert trace["kind"] == "split" and len(trace["clusters"]) == 2


def test_decompose_clustered_sets():
    rng = random.Random(21)
    done = 0
    while done < 20:
        d = rng.choice((1, 2, 3))
        ps = clustered_lattice_set(rng, d)
        sp = distance_spectrum(linf(d), ps)
        if sp.k < 1:
            continue
        node = decompose_recursive_bound(PairTable(linf(d), ps))
        assert len(ps) <= node.bound <= 2 ** (sp.k * d)
        done += 1


def test_unit_ball_volumes():
    assert unit_ball_volume(linf(2)) == 4
    assert unit_ball_volume(linf(3)) == 8
    assert unit_ball_volume(l1(2)) == 2
    assert unit_ball_volume(l1(3)) == Fraction(4, 3)
    assert unit_ball_volume(hexagon_gauge()) == 3
    assert unit_ball_volume(lp(2, 2.0)) == pytest.approx(3.14159265, rel=1e-6)


def test_exact_box_union_area():
    # Two unit squares overlapping by half.
    area = exact_box_union_area([vec(0, 0), vec(Fraction(1, 2), 0)],
                                Fraction(1, 2))
    assert area == Fraction(3, 2)
    # Disjoint squares add up.
    assert exact_box_union_area([vec(0, 0), vec(5, 5)], Fraction(1, 2)) == 2
    # Identical squares do not double count.
    assert exact_box_union_area([vec(0, 0), vec(0, 0)], 1) == 4


def _cell_box_union_area(centers, half):
    """The union area by testing every cell of the edge grid against every square."""
    half = Fraction(half)
    boxes = [(c[0] - half, c[0] + half, c[1] - half, c[1] + half) for c in centers]
    xs = sorted({x for b in boxes for x in (b[0], b[1])})
    ys = sorted({y for b in boxes for y in (b[2], b[3])})
    area = Fraction(0)
    for i in range(len(xs) - 1):
        mx = (xs[i] + xs[i + 1]) / 2
        for j in range(len(ys) - 1):
            my = (ys[j] + ys[j + 1]) / 2
            if any(b[0] <= mx <= b[1] and b[2] <= my <= b[3] for b in boxes):
                area += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return area


# Integer x and thirds in y give touching, overlapping and repeated squares;
# half-width 0 gives empty ones.
@settings(max_examples=150, deadline=None)
@given(centers=st.lists(st.tuples(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)),
                        min_size=1, max_size=12),
       half=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(5, 4), 0]))
def test_slab_merge_box_union_equals_cell_loop(centers, half):
    centers = [tuple(map(Fraction, c)) for c in centers]
    assert exact_box_union_area(centers, half) == _cell_box_union_area(centers, half)


# Denominators up to 7 in the centres and the half-width: pairwise coprime ones
# (5 and 7 against 6) clear to a common denominator above any single one.
sevenths = st.fractions(-3, 3, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(centers=st.lists(st.tuples(sevenths, sevenths), min_size=1, max_size=10),
       half=st.fractions(0, 2, max_denominator=7))
def test_int_box_union_equals_cell_loop_over_mixed_denominators(centers, half):
    area = exact_box_union_area(centers, half)
    assert type(area) is Fraction
    assert area == _cell_box_union_area(centers, half)


def _or_mask_union_volume(spec, centers, radius, trials, rng):
    """The union volume with every ball tested on every point, OR-ed into a mask."""
    d = centers.shape[1]
    reach = radius * _ball_reach(spec)
    lo, hi = centers.min(axis=0) - reach, centers.max(axis=0) + reach
    boxvol = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(trials, d))
    inside = np.zeros(trials, dtype=bool)
    values = gauge(spec).values
    for c in centers:
        inside |= values(pts - c) <= radius
    p = inside.mean()
    return p * boxvol, 2.576 * math.sqrt(max(p * (1 - p), 0.0) / trials) * boxvol


def _grid(n, d):
    return [vec(*p) for p in np.ndindex(*([n] * d))]


MC_SETS = [(linf(2), _grid(3, 2)), (l1(2), _grid(3, 2)), (hexagon_gauge(), _grid(3, 2)),
           (lp(2, 3.0), _grid(3, 2)), (linf(2), [vec(0, 0), vec(1, 0), vec(0, 1), vec(3, 3)]),
           (linf(3), _grid(2, 3)), (l1(3), _grid(2, 3)), (linf(3), _grid(3, 3)),
           (l1(3), _grid(3, 3))]


@pytest.mark.parametrize("spec,pts", MC_SETS)
def test_active_set_union_volume_is_the_or_mask_volume(spec, pts):
    # V and V - V of each set, as brunn_minkowski_mc_check builds them.
    centers = np.array([[float(a) for a in p] for p in pts])
    diffs = np.unique((centers[:, None, :] - centers[None, :, :]).reshape(-1, spec.dim), axis=0)
    rho1 = float(distance_spectrum(spec, PointSet.of(pts)).distances[0])
    for seed in range(3):
        for c, radius in ((centers, rho1 / 2), (diffs, rho1)):
            got = _mc_union_volume(spec, c, radius, 20_000, np.random.default_rng(seed))
            assert got == _or_mask_union_volume(spec, c, radius, 20_000,
                                                np.random.default_rng(seed))


def test_active_set_union_volume_edge_cases():
    one = np.array([[0.0, 0.0]])
    for trials in (1, 1000):
        assert (_mc_union_volume(l1(2), one, 1.0, trials, np.random.default_rng(4))
                == _or_mask_union_volume(l1(2), one, 1.0, trials, np.random.default_rng(4)))
    # Unit squares tile [-1/2, 5/2]^2: every point is inside, and no point is left.
    tiles = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float)
    assert _mc_union_volume(linf(2), tiles, 0.5, 5000, np.random.default_rng(0)) == (9.0, 0.0)
    # A repeated centre: under linf the first ball fills the box, so no point is left.
    twice = np.array([[0.0, 0.0], [0.0, 0.0]])
    for spec in (linf(2), l1(2), hexagon_gauge(), lp(2, 3.0)):
        got = _mc_union_volume(spec, twice, 1.0, 1000, np.random.default_rng(1))
        assert got == _or_mask_union_volume(spec, twice, 1.0, 1000, np.random.default_rng(1))


# A square unit ball [-2, 2]^2: it reaches twice as far as the unit vectors.
WIDE = polytopal([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
MC_GAUGES_2D = [linf(2), l1(2), lp(2, 3.0), hexagon_gauge(), WIDE]
MC_GAUGES_3D = [linf(3), l1(3), lp(3, 1.5)]


def test_ball_reach():
    assert _ball_reach(WIDE).tolist() == [2.0, 2.0]
    for spec in MC_GAUGES_2D[:-1] + MC_GAUGES_3D:
        assert _ball_reach(spec).tolist() == [1.0] * spec.dim
    assert _ball_reach(polytopal([(1, 0), (1, 3)])).tolist() == [1.0, 2 / 3]


@st.composite
def mc_instances(draw):
    spec = draw(st.sampled_from(MC_GAUGES_2D + MC_GAUGES_3D))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # Few coordinate values, so first coordinates repeat; one centre is allowed.
    coord = st.sampled_from([-2.0, -0.7, 0.0, 1 / 3, 1.0, 2.5]).map(lambda a: a * scale)
    centers = draw(st.lists(st.tuples(*[coord] * spec.dim), min_size=1, max_size=12))
    radius = scale * draw(st.sampled_from([0.1, 1 / 3, 0.5, 1.0, 2.5]))
    return spec, np.array(centers), radius, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(mc_instances())
def test_slab_union_volume_is_the_or_mask_volume(instance):
    spec, centers, radius, seed = instance
    got = _mc_union_volume(spec, centers, radius, 2000, np.random.default_rng(seed))
    assert got == _or_mask_union_volume(spec, centers, radius, 2000,
                                        np.random.default_rng(seed))


class _FixedDraw:
    """A generator stand-in whose one uniform draw is a given array."""

    def __init__(self, pts):
        self.pts = pts

    def uniform(self, lo, hi, size):
        assert size == self.pts.shape
        return self.pts.copy()


def _boundary_samples(spec, centers, radius):
    """Points at c_0 +- r w_0 and up to 3 floats past it, and c + r v for unit-ball vertices v."""
    d, w = centers.shape[1], _ball_reach(spec)
    if spec.kind == "polytopal":
        verts = [np.array([float(a) for a in v]) for v in polygon_vertices_2d(spec)]
    else:
        verts = [s * e for e in np.eye(d) for s in (1, -1)]
    pts = []
    for c in centers:
        for s in (1, -1):
            far = max(verts, key=lambda u: s * u[0])     # a vertex with u_0 = s w_0
            for k in range(-3, 4):
                x0 = c[0] + s * radius * w[0]
                for _ in range(abs(k)):
                    x0 = math.nextafter(x0, math.copysign(math.inf, s * k))
                pts.append(np.concatenate(([x0], c[1:] + radius * far[1:])))
        pts.extend(c + radius * v for v in verts)
    return np.array(pts)


@pytest.mark.parametrize("spec", MC_GAUGES_2D + MC_GAUGES_3D)
@pytest.mark.parametrize("offset,radius", [(0.7, 0.5), (1 / 3, 1 / 3), (2.0, 2.5),
                                           (2.0 ** 30, 1.0)])
def test_slab_union_volume_on_slab_edges_and_ball_boundaries(spec, offset, radius):
    # Rounding puts some floats just past c_0 +- r w_0 inside a ball; at the
    # offset 2^30 the samples at exactly c_0 +- r w_0 are inside, and the
    # margin rounds away.
    centers = offset + np.array([[0.0] * spec.dim, [radius] + [0.0] * (spec.dim - 1),
                                 [-radius / 3] + [radius] * (spec.dim - 1)])
    pts = _boundary_samples(spec, centers, radius)
    n = len(pts)
    assert (_mc_union_volume(spec, centers, radius, n, _FixedDraw(pts))
            == _or_mask_union_volume(spec, centers, radius, n, _FixedDraw(pts)))


def test_mc_uses_the_real_extent_of_a_wide_ball():
    # The balls of radius rho_1/2 = 1/4 are squares of side 1 that tile
    # [-1/2, 5/2]^2, so vol(V) is 9 exactly.
    ps = PointSet.of(_grid(3, 2))
    report = brunn_minkowski_mc_check(WIDE, ps, trials=200_000)
    assert report.vol_v_formula == 9.0
    assert (report.vol_v, report.vol_v_halfwidth) == (9.0, 0.0)
    assert report.ok


@pytest.mark.parametrize("points,kwargs", [
    ((), {}), (_grid(2, 2), {"trials": 0}), (_grid(2, 2), {"trials": -5}),
    (_grid(2, 2), {"trials": 2.5}), (_grid(2, 2), {"trials": True}),
    (_grid(2, 2), {"trials": "100"}), (_grid(2, 2), {"seed": -1}),
    (_grid(2, 2), {"seed": 1.5})])
def test_mc_rejects_malformed_input(points, kwargs):
    with pytest.raises(InputError):
        brunn_minkowski_mc_check(linf(2), PointSet(2, tuple(points)), **kwargs)


def test_mc_matches_exact_box_union():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1)])
    sp = distance_spectrum(linf(2), ps)
    exact = float(exact_box_union_area(ps.points, sp.distances[0] / 2))
    report = brunn_minkowski_mc_check(linf(2), ps, trials=200_000, seed=1)
    assert report.ok
    assert report.vol_v == pytest.approx(exact, abs=4 * report.vol_v_halfwidth)


@pytest.mark.parametrize("spec,pts", [
    (linf(2), [(0, 0), (1, 0), (0, 1), (1, 1)]),
    (l1(2), [(0, 0), (2, 0), (0, 2)]),
    (hexagon_gauge(), [(0, 0), (1, 0), (1, 1)]),
    (linf(3), [(0, 0, 0), (1, 0, 0), (0, 1, 1)]),
])
def test_brunn_minkowski_mc(spec, pts):
    ps = PointSet.of([vec(*p) for p in pts])
    report = brunn_minkowski_mc_check(spec, ps, trials=150_000, seed=2)
    assert report.ok


def test_mc_rejects_high_dimension():
    with pytest.raises(InputError):
        brunn_minkowski_mc_check(linf(4), PointSet.of([vec(0, 0, 0, 0)]))


def test_bound_json_is_float_in_range_and_exact_floor_past_it():
    small = DecompositionNode("volume", 2, 1, Fraction(9, 4), 4)
    assert small.to_json()["bound"] == 2.25
    huge = Fraction(3 ** 700, 2)                 # about 1.3e334
    assert DecompositionNode("volume", 2, 1, huge, 4).to_json()["bound"] == 3 ** 700 // 2
