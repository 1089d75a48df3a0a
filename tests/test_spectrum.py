import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdist import (GeometryError, InputError, PointSet, best_distinct_witness,
                   distance_spectrum, linf, lp, polytopal, vec)
from kdist.gen import integer_ceil_root
from kdist.norms import vadd, vscale
from kdist.search import extremal_grid
from kdist.spectrum import pointset_from_json, pointset_to_json

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
