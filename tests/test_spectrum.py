import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdist import (GeometryError, InputError, PointSet, best_distinct_witness,
                   distance_spectrum, linf, lp, polytopal, vec)
from kdist.gen import integer_ceil_root
from kdist.norms import rat_from_pair, rat_to_pair, vadd, vec_to_json
from kdist.search import extremal_grid
from kdist.spectrum import PairTable, pointset_from_json, pointset_to_json


def vscale(q, v):
    return tuple(q * a for a in v)


GRID33 = extremal_grid(2, 2)  # {0,1,2}^2


def test_spectrum_grid():
    sp = distance_spectrum(linf(2), GRID33)
    assert sp.distances == (1, 2)
    assert sum(sp.multiplicities) == 9 * 8 // 2


def test_spectrum_equilateral_square():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)])
    sp = distance_spectrum(linf(2), ps)
    assert sp.distances == (1,)
    assert sp.multiplicities == (6,)


def test_spectrum_single_point():
    sp = distance_spectrum(linf(2), PointSet.of([vec(0, 0)]))
    assert sp.k == 0


def test_duplicate_points_rejected():
    with pytest.raises(InputError):
        PointSet.of([vec(0, 0), vec(0, 0)])


@pytest.mark.parametrize("spec, points", [
    # A seminorm: the functionals do not span R^3.
    (polytopal([(1, 0, 0), (0, 1, 0)]), [vec(0, 0, 0), vec(0, 0, 1), vec(1, 0, 0)]),
    # The lp difference underflows to 0.0.
    (lp(1, 2.0), [vec(0), vec(Fraction(1, 10 ** 400)), vec(1)]),
])
def test_zero_distance_between_distinct_points_rejected(spec, points):
    with pytest.raises(GeometryError):
        distance_spectrum(spec, PointSet.of(points))


def test_is_k_distance_examples():
    assert distance_spectrum(linf(2), GRID33).k == 2
    assert distance_spectrum(linf(1), PointSet.of([vec(0), vec(5)])).k == 1
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            assert distance_spectrum(linf(d), extremal_grid(k, d)).k == k


def test_lp_float_grouping():
    # Perturbations below the relative tolerance merge into one class.
    ps = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0 + 1e-13)])
    sp = distance_spectrum(lp(2, 2.0), ps)
    assert sp.k == 2  # distances ~1, ~1, ~sqrt(2): classes {1, sqrt2}


def _witness_oracle(spec, ps):
    # Independent: count distinct distances from every point directly.
    best = None
    for x in sorted(ps.points):
        seen = {distance_spectrum(spec, PointSet.of([x, y])).distances[0]
                for y in ps.points if y != x}
        if best is None or len(seen) > best[1]:
            best = (x, len(seen))
    return best


def test_best_distinct_witness_examples():
    point, count = best_distinct_witness(linf(2), GRID33)
    assert count == 2 == integer_ceil_root(9, 2) - 1
    assert best_distinct_witness(linf(2), PointSet.of([vec(0, 0), vec(5, 0)]))[1] == 1
    line = PointSet.of([vec(i) for i in range(8)])
    point, count = best_distinct_witness(linf(1), line)
    assert (point, count) == (vec(0), 7)


def test_best_distinct_witness_matches_oracle():
    rng = random.Random(42)
    from kdist.gen import random_lattice_subset
    for _ in range(20):
        d = rng.choice((1, 2, 3))
        ps = random_lattice_subset(rng, d, 5, rng.randint(2, 12))
        assert best_distinct_witness(linf(d), ps) == _witness_oracle(linf(d), ps)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=4)


@settings(max_examples=40)
@given(pts=st.lists(st.tuples(rationals, rationals), min_size=2, max_size=8,
                    unique=True),
       shift=st.tuples(rationals, rationals),
       scale=st.fractions(min_value="1/4", max_value=8, max_denominator=4))
def test_spectrum_translation_and_scaling(pts, shift, scale):
    spec = linf(2)
    ps = PointSet.of(pts)
    sp = distance_spectrum(spec, ps)
    shifted = PointSet.of([vadd(p, shift) for p in pts])
    assert distance_spectrum(spec, shifted) == sp
    scaled = PointSet.of([vscale(scale, p) for p in pts])
    sp2 = distance_spectrum(spec, scaled)
    assert sp2.distances == tuple(scale * d for d in sp.distances)
    assert sp2.multiplicities == sp.multiplicities


def test_pointset_json_round_trip():
    ps = PointSet.of([vec(0, "1/2"), vec(-3, 4)])
    assert pointset_from_json(pointset_to_json(ps)) == ps


# ---------------------------------------------------------------------------
# rationals in and out of JSON


@pytest.mark.parametrize("q, pair", [
    (Fraction(2, 4), [1, 2]), (Fraction(-3, 6), [-1, 2]), (7, [7, 1]), (-7, [-7, 1]),
    (True, [1, 1]), (False, [0, 1]), (np.int64(-3), [-3, 1]), (0.5, [1, 2]), ("2/4", [1, 2]),
])
def test_rat_to_pair_writes_lowest_terms_as_ints(q, pair):
    out = rat_to_pair(q)
    assert out == pair and type(out) is list
    assert all(type(a) is int for a in out)


def test_numpy_ints_write_as_json_ints():
    assert json.dumps(vec_to_json((np.int64(3), np.int32(-2)))) == "[[3, 1], [-2, 1]]"


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_rat_to_pair_refuses_a_non_finite_float(q):
    with pytest.raises((OverflowError, ValueError)):
        rat_to_pair(q)


@pytest.mark.parametrize("obj, q", [
    (3, Fraction(3)), ([2, 4], Fraction(1, 2)), ([3, -6], Fraction(-1, 2)),
    ((-2, -4), Fraction(1, 2)), ([0, 5], Fraction(0)),
])
def test_rat_from_pair_reads_ints_and_int_pairs(obj, q):
    out = rat_from_pair(obj)
    assert out == q and type(out) is Fraction
    assert out.denominator > 0 and math.gcd(out.numerator, out.denominator) == 1


@pytest.mark.parametrize("obj", [
    True, [True, 2], [1, False], np.int64(3), [np.int64(1), 2], 0.5, [1.0, 2], "1/2",
    [1, 0], [1, 2, 3], math.inf, math.nan, [math.inf, 1], None,
])
def test_rat_from_pair_rejects_what_is_not_an_int_or_int_pair(obj):
    with pytest.raises(InputError, match="not a rational"):
        rat_from_pair(obj)


def test_point_set_duplicates_are_equal_values_of_any_type():
    for pts in ([(True, 0), (1, 0)], [(0.5,), (Fraction(1, 2),)], [(Fraction(2, 4), 3), (0.5, 3.0)],
                [(-0.0,), (0,)]):
        with pytest.raises(InputError, match="duplicate"):
            PointSet.of(pts)
    assert len(PointSet.of([(0.5, 1.0), (0.25, 1.0), (Fraction(1, 3), 1)])) == 3


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.int64(1), "1/2"])
def test_point_set_rejects_coordinates_without_an_exact_ratio(bad):
    with pytest.raises(InputError, match="point coordinates must be finite ints, Fractions "
                                         "or floats"):
        PointSet.of([(0.0, 1.0), (bad, 1.0)])


@st.composite
def mixed_point_sets(draw):
    """Up to 8 distinct points (d = 1 to 3) mixing ints, Fractions, floats and bools."""
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-5, 5), st.booleans(), st.integers(-50, 50).map(lambda n: n / 10),
                      st.fractions(min_value=-5, max_value=5, max_denominator=6))
    pts = draw(st.lists(st.tuples(*[coord] * d), max_size=8,
                        unique_by=lambda p: tuple(map(Fraction, p))))
    return PointSet(d, tuple(pts))


@settings(max_examples=150, deadline=None)
@given(ps=mixed_point_sets())
@example(ps=PointSet(1, ((-2.6,), (Fraction(-13, 5),))))
def test_point_set_rows_are_its_points_over_their_least_denominator(ps):
    assert ps.den == math.lcm(*(Fraction(a).denominator for p in ps.points for a in p))
    assert all(type(a) is int for r in ps.rows for a in r)
    assert ps.rows == tuple(tuple(Fraction(a) * ps.den for a in p) for p in ps.points)
    assert PairTable(linf(ps.dim), ps).ints == sorted(ps.rows)
    assert pointset_to_json(ps)["points"] == [vec_to_json(p) for p in ps.points]
    # lp differences are taken in the points' own arithmetic, and a float
    # minus a Fraction is a float: two distinct points with one float image,
    # such as -2.6 and -13/5, are at lp distance 0.  The gaps of the
    # coordinates otherwise keep lp's distance classes apart: no chain.
    images = [tuple(map(float, p)) for p in ps.points]
    if len(set(images)) < len(images):
        with pytest.raises(GeometryError, match="float distance 0"):
            PairTable(lp(ps.dim, 2.0), ps)
    else:
        assert PairTable(lp(ps.dim, 2.0), ps).ints == sorted(ps.rows)


def test_point_set_json_round_trip_keeps_types():
    ps = PointSet.of([vec(0, "1/2"), vec(-3, "-7/3"), vec(True, 0.25)])
    back = pointset_from_json(json.loads(json.dumps(pointset_to_json(ps))))
    assert back == ps and all(type(a) is Fraction for p in back.points for a in p)
