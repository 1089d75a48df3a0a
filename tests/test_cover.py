import dataclasses
import random
from fractions import Fraction
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdist import (CertificateError, GeometryError, InputError,
                   cone_halfwidth_check,
                   cover_assignment, general_bound, generated_cones,
                   greedy_separated_set, hexagon_gauge, l1, linf, lp,
                   norm_eval, packing_bound_check, polygon_gauge,
                   polygon_vertices_2d, polytopal, separated_set_capacity,
                   sphere_samples, vec)
from kdist import cover, norms
from kdist.gen import random_symmetric_polygon
from kdist.cover import GeneratedCone, SeparatedSet
from kdist.norms import gauge, is_unit, vadd, vscale, vsub


def test_capacity_values():
    assert separated_set_capacity(1) == 1
    assert separated_set_capacity(2) == 20
    assert separated_set_capacity(3) == 301


def test_general_bound_values():
    assert general_bound(1, 1) == 2
    assert general_bound(1, 2) == 4       # 2^2 < 2^20
    assert general_bound(2, 2) == 16
    assert general_bound(59, 2) == 2 ** 118
    assert general_bound(60, 2) == 61 ** 20  # (k+1)^20 takes over
    assert general_bound(1, 3) == 8


def test_general_bound_equals_the_eager_formula():
    for d in range(1, 6):
        for k in range(1, 41):
            assert general_bound(k, d) == min(2 ** (k * d), (k + 1) ** separated_set_capacity(d))


def test_general_bound_skips_a_power_it_cannot_need():
    # (11^12 - 9^12)/2 is about 4.3e12: the eager power would not fit in memory.
    assert general_bound(3, 12) == 2 ** 36


def test_general_bound_rejects_bad_input():
    with pytest.raises(InputError):
        general_bound(0, 2)


@pytest.mark.parametrize("spec", [linf(2), l1(2), hexagon_gauge()])
def test_sphere_samples_exact_2d(spec):
    samples = sphere_samples(spec, 500, seed=1)
    assert len(samples) >= 500
    assert all(is_unit(spec, s) for s in samples)
    assert all(isinstance(a, Fraction) for s in samples for a in s)


def test_sphere_samples_exact_3d():
    spec = linf(3)
    samples = sphere_samples(spec, 200, seed=2)
    assert len(samples) == 200
    assert all(is_unit(spec, s) for s in samples)


def test_sphere_samples_rejects_seminorm():
    # Two functionals cannot span R^3: the unit "sphere" is an unbounded cylinder.
    with pytest.raises(GeometryError):
        sphere_samples(polytopal([[1, 0, 0], [0, 1, 0]]), 10, seed=2)
    with pytest.raises(GeometryError):
        sphere_samples(polytopal([[1, 1, 0], [2, 2, 0], [0, 0, 1]]), 10, seed=2)


def test_sphere_samples_lp():
    spec = lp(3, 2.0)
    samples = sphere_samples(spec, 100, seed=3)
    assert all(abs(norm_eval(spec, s) - 1.0) < 1e-9 for s in samples)


def _assert_separated(spec, centers):
    sep = Fraction(1, 5) if spec.exact else float(Fraction(1, 5)) - 1e-9
    for i, c in enumerate(centers):
        for c2 in centers[i + 1:]:
            assert norm_eval(spec, vsub(c, c2)) >= sep
            assert norm_eval(spec, vadd(c, c2)) >= sep


@pytest.mark.parametrize("spec", [linf(2), l1(2), hexagon_gauge()])
def test_greedy_separated_set_exact(spec):
    samples = sphere_samples(spec, 2000, seed=4)
    sep = greedy_separated_set(spec, samples)
    _assert_separated(spec, sep.centers)
    assert len(sep.centers) <= separated_set_capacity(2)
    assert packing_bound_check(sep, spec)


def test_greedy_separated_set_lp():
    spec = lp(2, 2.0)
    samples = sphere_samples(spec, 2000, seed=5)
    sep = greedy_separated_set(spec, samples)
    _assert_separated(spec, sep.centers)
    assert len(sep.centers) <= separated_set_capacity(2)


def test_greedy_rejects_non_unit_sample():
    with pytest.raises(InputError):
        greedy_separated_set(linf(2), [vec(2, 0)])


def test_greedy_is_maximal_over_samples():
    spec = linf(2)
    samples = sphere_samples(spec, 1500, seed=6)
    sep = greedy_separated_set(spec, samples)
    # Every sample is within 1/5 of some +-center, else greedy missed it.
    report = cover_assignment(sep, spec, samples)
    assert report.ok


def test_cover_assignment_unassigned_vector():
    spec = linf(2)
    sep = SeparatedSet((vec(1, 0),))
    report = cover_assignment(sep, spec, [vec(0, 1)])
    assert not report.ok and report.assignments == [None]


def test_cover_assignment_threshold_is_closed():
    spec = linf(2)
    sep = SeparatedSet((vec(1, 0),))
    # ||c - x|| exactly 1/5 must be assigned (maximality is non-strict).
    x = vec(1, Fraction(1, 5))
    report = cover_assignment(sep, spec, [x])
    assert report.ok and report.assignments == [0]


def test_generated_cones_strict_threshold():
    spec = linf(2)
    sep = SeparatedSet((vec(1, 0),))
    boundary = vec(1, Fraction(1, 5))   # distance exactly 1/5: excluded
    inside = vec(1, Fraction(1, 6))
    cones = generated_cones(sep, spec, [boundary, inside])
    assert cones[0].generators == (inside,)


def test_generated_cones_fall_back_to_center():
    spec = linf(2)
    sep = SeparatedSet((vec(1, 0),))
    cones = generated_cones(sep, spec, [vec(0, 1)])
    assert cones[0].generators == (vec(1, 0),)


@pytest.mark.parametrize("spec", [linf(2), hexagon_gauge()])
def test_halfwidth_below_half(spec):
    samples = sphere_samples(spec, 2000, seed=7)
    sep = greedy_separated_set(spec, samples)
    for cone in generated_cones(sep, spec, samples):
        report = cone_halfwidth_check(cone, spec, trials=200, seed=8)
        assert report.ok
        assert report.max_distance < Fraction(1, 2)
        assert report.max_coeff_sum < Fraction(5, 4)


def test_halfwidth_detects_wide_cone():
    spec = linf(2)
    # Generators spanning far more than a 1/5-cap around the center.
    cone_gens = (vec(1, 1), vec(1, -1))
    report = cone_halfwidth_check(GeneratedCone(vec(1, 1), cone_gens),
                                  spec, trials=200, seed=9)
    assert not report.ok


def test_halfwidth_bounds_from_generator_radius():
    cone = GeneratedCone(vec(1, 0), (vec(1, Fraction(1, 10)), vec(1, Fraction(-1, 20))))
    report = cone_halfwidth_check(cone, linf(2))
    assert report.ok and report.radius == Fraction(1, 10)
    assert (report.max_distance, report.max_coeff_sum) == (Fraction(1, 5), Fraction(10, 9))


def test_halfwidth_rejects_non_unit_center():
    # The lemma needs ||c|| = 1: ||y|| >= s * (||c|| - r).
    with pytest.raises(InputError):
        cone_halfwidth_check(GeneratedCone(vec(2, 0), (vec(1, 0),)), linf(2))


def test_packing_bound_check_rejects_close_pair():
    spec = linf(2)
    bad = SeparatedSet((vec(1, 0), vec(1, Fraction(1, 10))))
    with pytest.raises(CertificateError):
        packing_bound_check(bad, spec)


# ---------------------------------------------------------------------------
# the integer-kernel cover functions against plain norm_eval loops

SEP = Fraction(1, 5)
#: Its functionals (1/5, 2/5), ... have non-integer entries.
OCTAGON = polygon_gauge([vec(3, 1), vec(1, 2), vec(-1, 2), vec(-3, 1),
                         vec(-3, -1), vec(-1, -2), vec(1, -2), vec(3, -1)])
REFERENCE_GAUGES = [linf(2), l1(2), hexagon_gauge(), OCTAGON]


def _ref_greedy(spec, samples):
    kept = []
    for s in samples:
        if all(norm_eval(spec, vsub(c, s)) >= SEP
               and norm_eval(spec, vadd(c, s)) >= SEP for c in kept):
            kept.append(s)
    return tuple(kept)


def _ref_assignments(spec, centers, xs):
    return [next((i for i, c in enumerate(centers)
                  if norm_eval(spec, vsub(c, x)) <= SEP
                  or norm_eval(spec, vadd(c, x)) <= SEP), None) for x in xs]


def _ref_generators(spec, centers, samples):
    return [tuple(x for x in samples if norm_eval(spec, vsub(c, x)) < SEP) or (c,)
            for c in centers]


def _ref_halfwidth(spec, cone, trials, seed):
    rng = random.Random(seed)
    gens = list(cone.generators)
    max_dist = max_sum = Fraction(0)
    failures = []
    for _ in range(trials):
        chosen = rng.sample(gens, k=rng.randint(1, min(6, len(gens))))
        coeffs = [Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in chosen]
        acc = vec(*[0] * spec.dim)
        for lam, x in zip(coeffs, chosen):
            acc = vadd(acc, vscale(lam, x))
        n = norm_eval(spec, acc)
        dist = norm_eval(spec, vsub(cone.center, vscale(1 / n, acc)))
        coeff_sum = sum(coeffs) / n
        max_dist, max_sum = max(max_dist, dist), max(max_sum, coeff_sum)
        if dist >= Fraction(1, 2) or coeff_sum >= Fraction(5, 4):
            failures.append({"coeffs": coeffs, "generators": chosen,
                             "distance": dist, "coeff_sum": coeff_sum})
    return max_dist, max_sum, failures


def _assert_halfwidth_dominates(spec, cone, trials, seed):
    """The proved bounds dominate every sampled conic combination."""
    report = cone_halfwidth_check(cone, spec, trials=trials, seed=seed)
    max_dist, max_sum, failures = _ref_halfwidth(spec, cone, trials, seed)
    slack = 0 if spec.exact else 1e-9
    assert max_dist <= report.max_distance + slack
    assert max_sum <= report.max_coeff_sum + slack
    assert report.ok == (5 * report.radius < 1)
    assert not failures or not report.ok
    return report


def _edge_points(spec):
    """Per polygon vertex v: the unit vectors on its outgoing edge at
    distance exactly 1/5 and just below 1/5 from v."""
    verts = polygon_vertices_2d(spec)
    out = []
    for v, w in zip(verts, verts[1:] + verts[:1]):
        step = vsub(w, v)
        t = SEP / norm_eval(spec, step)
        if t <= 1:
            out.append((v, vadd(v, vscale(t, step)),
                        vadd(v, vscale(t * Fraction(9, 10), step))))
    return out


def _assert_cover_matches_reference(spec):
    """Greedy set, packing check, assignments, cones and half-widths equal
    the norm_eval loops on seeded samples."""
    samples = sphere_samples(spec, 150 if spec.dim == 2 else 60, seed=11)
    sep = greedy_separated_set(spec, samples)
    assert sep.centers == _ref_greedy(spec, samples)
    assert packing_bound_check(sep, spec)
    fresh = sphere_samples(spec, 40, seed=12)
    report = cover_assignment(sep, spec, fresh)
    assert report.assignments == _ref_assignments(spec, sep.centers, fresh)
    cones = generated_cones(sep, spec, samples)
    assert [c.generators for c in cones] == _ref_generators(spec, sep.centers, samples)
    assert any(len(c.generators) > 1 for c in cones)
    for i, cone in enumerate(cones):
        assert _assert_halfwidth_dominates(spec, cone, trials=30, seed=i).ok


@pytest.mark.parametrize("spec", REFERENCE_GAUGES + [l1(3)])
def test_cover_functions_match_reference(spec):
    _assert_cover_matches_reference(spec)


def test_cover_functions_reject_non_unit_centers():
    # The packing argument packs balls around unit vectors, and the cover
    # and the cones are read off 1/5-neighbourhoods of unit centres.
    spec, sep = linf(2), SeparatedSet((vec(5, 0), vec(0, 3)))
    for run in (lambda: packing_bound_check(sep, spec),
                lambda: cover_assignment(sep, spec, [vec(1, 0)]),
                lambda: generated_cones(sep, spec, [vec(1, 0)])):
        with pytest.raises(InputError, match=r"center \(.*\) is not a unit vector"):
            run()


@pytest.mark.parametrize("spec", [linf(2), hexagon_gauge(), l1(3), lp(2, 2.0)])
def test_greedy_centers_pass_the_unit_check(spec):
    samples = sphere_samples(spec, 300, seed=4)
    sep = greedy_separated_set(spec, samples)
    assert packing_bound_check(sep, spec)
    assert cover_assignment(sep, spec, samples).ok
    assert len(generated_cones(sep, spec, samples)) == len(sep.centers)


@pytest.mark.parametrize("spec", [lp(2, 2.0), lp(3, 3.0)])
def test_lp_cover_functions_match_float_loops(spec):
    # lp runs the exact kinds' threshold tests in floats; the references
    # compare float norm_eval values with 1/5 directly.
    _assert_cover_matches_reference(spec)


@pytest.mark.parametrize("spec", REFERENCE_GAUGES)
def test_cover_thresholds_match_reference(spec):
    _assert_thresholds_match_reference(spec)


def _assert_thresholds_match_reference(spec):
    cases = _edge_points(spec)
    assert cases
    centers = tuple(v for v, _, _ in cases)
    at, inside = [x for _, x, _ in cases], [x for _, _, x in cases]
    assert all(norm_eval(spec, vsub(v, x)) == SEP for v, x, _ in cases)
    # Closed threshold: a vector at exactly 1/5 is assigned.
    report = cover_assignment(SeparatedSet(centers), spec, at + inside)
    assert report.assignments == _ref_assignments(spec, centers, at + inside)
    assert report.ok
    # Open threshold: it does not generate the cone.
    cones = generated_cones(SeparatedSet(centers), spec, at + inside)
    assert [c.generators for c in cones] == _ref_generators(spec, centers, at + inside)
    for (v, x_at, x_in), cone in zip(cases, cones):
        assert x_at not in cone.generators and x_in in cone.generators


#: Functional denominators near 10^12 take 5 * value past 2^62, so the
#: kernel runs on Python ints in object arrays.
HUGE_DENOMINATORS = polytopal([[Fraction(10**12 + 39, 10**12 - 11), Fraction(1, 3)],
                               [Fraction(-7, 10**12 + 3), Fraction(10**12 + 1, 10**12 + 7)],
                               [Fraction(5, 7), Fraction(-2, 3)]])


def _kernel_dtype(spec):
    [(images, _)] = cover._split(gauge(spec), spec, sphere_samples(spec, 10, seed=11))
    return images.dtype


def test_huge_denominators_stay_exact_on_object_arrays():
    assert _kernel_dtype(HUGE_DENOMINATORS) == object
    _assert_cover_matches_reference(HUGE_DENOMINATORS)
    _assert_thresholds_match_reference(HUGE_DENOMINATORS)


@pytest.mark.parametrize("spec", REFERENCE_GAUGES)
def test_object_arrays_match_reference(spec, monkeypatch):
    assert _kernel_dtype(spec) == np.int64
    monkeypatch.setattr(norms, "INT64_LIMIT", 0)
    assert _kernel_dtype(spec) == object
    _assert_cover_matches_reference(spec)
    _assert_thresholds_match_reference(spec)


def test_cover_assignment_takes_the_first_center_of_either_sign():
    spec = linf(2)
    c0, c1 = vec(1, 0), vec(-1, Fraction(1, 5))     # ||c0 + c1|| = 1/5: separated
    sep = SeparatedSet((c0, c1))
    assert packing_bound_check(sep, spec)
    x = vec(-1, Fraction(1, 10))                    # within 1/10 of -c0 and of +c1
    boundary = vec(1, Fraction(1, 5))               # exactly 1/5 from c0
    assert cover_assignment(sep, spec, [x, boundary]).assignments == [0, 0]
    # The closed cover threshold assigns the boundary vector; the open cone
    # threshold does not make it a generator.
    assert generated_cones(sep, spec, [boundary])[0].generators == (c0,)


def test_halfwidth_wide_cone_dominates_reference():
    cone = GeneratedCone(vec(1, 1), (vec(1, 1), vec(1, -1)))
    report = _assert_halfwidth_dominates(linf(2), cone, trials=200, seed=9)
    assert _ref_halfwidth(linf(2), cone, trials=200, seed=9)[2]
    assert not report.ok and report.radius == 2 and report.max_distance == 4
    assert [f["generator"] for f in report.failures] == [vec(1, -1)]


HALFWIDTH_GAUGES = REFERENCE_GAUGES + [l1(3)]


@cache
def _nearest_unit_vectors(i):
    """Per sphere sample of gauge i: it and its 7 nearest samples."""
    spec = HALFWIDTH_GAUGES[i]
    sphere = sphere_samples(spec, 40, seed=13)
    return [(c, sorted(sphere, key=lambda x: norm_eval(spec, vsub(x, c)))[:8])
            for c in sphere]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_halfwidth_bounds_dominate_rational_combinations(data):
    i = data.draw(st.integers(0, len(HALFWIDTH_GAUGES) - 1))
    spec = HALFWIDTH_GAUGES[i]
    center, near = data.draw(st.sampled_from(_nearest_unit_vectors(i)))
    gens = data.draw(st.lists(st.sampled_from(near), min_size=1, max_size=6))
    coeffs = data.draw(st.lists(
        st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=64),
        min_size=len(gens), max_size=len(gens)))
    report = cone_halfwidth_check(GeneratedCone(center, tuple(gens)), spec)
    assert report.max_distance == 2 * report.radius
    assert report.ok == (5 * report.radius < 1)
    y = vec(*[0] * spec.dim)
    for lam, x in zip(coeffs, gens):
        y = vadd(y, vscale(lam, x))
    n = norm_eval(spec, y)
    assume(n > 0)
    assert norm_eval(spec, vsub(center, vscale(1 / n, y))) <= report.max_distance
    assert sum(coeffs) / n <= report.max_coeff_sum


# ---------------------------------------------------------------------------
# cones carry the rows generated_cones split for them

CARRY_GAUGES = [linf(2), l1(2), hexagon_gauge(), l1(3), lp(2, 3.0), HUGE_DENOMINATORS] + [
    polygon_gauge(random_symmetric_polygon(random.Random(seed), 8, 8)) for seed in range(2)]


def _cones_and_rebuilt(spec, samples, lonely):
    """generated_cones on the samples, and the same cones built by hand.  If
    lonely, the samples near the first center are dropped first, so its cone
    falls back to the center."""
    sep = greedy_separated_set(spec, samples)
    if lonely:
        near = set(generated_cones(SeparatedSet(sep.centers[:1]), spec, samples)[0].generators)
        samples = [x for x in samples if x not in near]
    cones = generated_cones(sep, spec, samples)
    if lonely:
        assert cones[0].generators == (sep.centers[0],)
    return cones, [GeneratedCone(c.center, c.generators) for c in cones]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(CARRY_GAUGES), count=st.integers(1, 120), seed=st.integers(0, 50),
       lonely=st.booleans(), force_objects=st.booleans())
def test_carried_rows_give_the_reports_of_rebuilt_cones(spec, count, seed, lonely,
                                                         force_objects):
    samples = sphere_samples(spec, count if spec.dim == 2 else count // 2 + 1, seed=seed)
    with mock.patch.object(norms, "INT64_LIMIT", 0 if force_objects else norms.INT64_LIMIT):
        cones, rebuilt = _cones_and_rebuilt(spec, samples, lonely)
        for cone, hand in zip(cones, rebuilt):
            got, want = cone_halfwidth_check(cone, spec), cone_halfwidth_check(hand, spec)
            assert got == want and type(got.radius) is type(want.radius)


def _count_split_rows(monkeypatch):
    """Patch cover._split_set to record how many vectors each call clears."""
    counts, split_set = [], cover._split_set

    def counted(g, vectors):
        counts.append(len(vectors))
        return split_set(g, vectors)

    monkeypatch.setattr(cover, "_split_set", counted)
    return counts


def test_cone_cover_splits_each_generator_once(monkeypatch):
    # The criterion-8 pipeline on the hexagon at 1,000 samples: after sphere_samples
    # no sample, fresh vector or center is cleared again.
    spec, counts = hexagon_gauge(), _count_split_rows(monkeypatch)
    samples, fresh = sphere_samples(spec, 1000, seed=8), sphere_samples(spec, 100, seed=9)
    sep = greedy_separated_set(spec, samples)
    assert packing_bound_check(sep, spec)
    assert cover_assignment(sep, spec, fresh).ok
    cones = generated_cones(sep, spec, samples)
    assert all(cone_halfwidth_check(cone, spec).ok for cone in cones)
    assert counts == []
    # Hand-built cones clear their center and generators, to the same reports.
    assert [cone_halfwidth_check(GeneratedCone(c.center, c.generators), spec)
            for c in cones] == [cone_halfwidth_check(c, spec) for c in cones]
    assert counts == [n for c in cones for n in (1, len(c.generators))]
    # Plain copies carry nothing: each is cleared once per call.
    del counts[:]
    assert greedy_separated_set(spec, list(samples)) == sep
    assert cover_assignment(SeparatedSet(sep.centers), spec, tuple(fresh)).ok
    assert counts == [1000, len(sep.centers), 100]


def test_rows_made_for_another_norm_are_not_read(monkeypatch):
    counts = _count_split_rows(monkeypatch)
    c, inside = vec(1, 0), [vec(1, Fraction(1, 10)), vec(1, Fraction(-1, 8))]
    [cone] = generated_cones(SeparatedSet((c,)), linf(2), inside)
    assert cone.generators == tuple(inside) and counts == [1, 2]
    assert cone_halfwidth_check(cone, l1(2)) == cone_halfwidth_check(
        GeneratedCone(c, cone.generators), l1(2))
    assert counts == [1, 2] * 3
    # (1, 1/10) is a unit vector of linf(2) but not of l1(2): its linf rows would pass.
    [cone] = generated_cones(SeparatedSet((inside[0],)), linf(2), [c])
    for run in (cone, GeneratedCone(cone.center, cone.generators)):
        with pytest.raises(InputError, match="cone center .* is not a unit vector"):
            cone_halfwidth_check(run, l1(2))


@pytest.mark.parametrize("spec", [hexagon_gauge(), lp(2, 3.0)])
def test_carried_rows_do_not_change_equality_hash_or_repr(spec):
    samples = sphere_samples(spec, 200, seed=3)
    cones = generated_cones(greedy_separated_set(spec, samples), spec, samples)
    rebuilt = [GeneratedCone(c.center, c.generators) for c in cones]
    assert all(c._rows is not None for c in cones)
    assert cones == rebuilt
    assert list(map(hash, cones)) == list(map(hash, rebuilt))
    assert list(map(repr, cones)) == list(map(repr, rebuilt))


# ---------------------------------------------------------------------------
# sphere_samples hands its split on: the samples, the greedy set and its centers

def _fraction_sphere_samples(spec, count, seed=0):
    """sphere_samples built on Fractions alone, each vector normalized by
    norm_eval in d >= 3, with nothing carried: the reference for the sampler."""
    rng = random.Random(seed)
    if spec.exact and spec.dim == 2:
        verts, den = norms.clear_denominators(polygon_vertices_2d(spec))
        per_edge = max(1, -(-count // len(verts)))
        out = [tuple([Fraction(a * (per_edge - j) + b * j, den * per_edge)
                      for a, b in zip(u, v)])
               for u, v in zip(verts, verts[1:] + verts[:1]) for j in range(per_edge)]
        return out[:max(count, len(verts))]
    draw = ((lambda: Fraction(rng.randint(-64, 64), 64)) if spec.exact
            else (lambda: rng.gauss(0.0, 1.0)))
    out = []
    while len(out) < count:
        v = tuple(draw() for _ in range(spec.dim))
        n = norm_eval(spec, v)
        if n:
            out.append(tuple(a / n for a in v))
    return out


#: Its functionals have denominators 2, 3 and 5: scale 30.
FRACTIONAL_3D = polytopal([[Fraction(1, 2), 0, Fraction(1, 3)], [0, 1, 0],
                           [Fraction(2, 3), Fraction(-1, 5), 1]])
SAMPLER_GAUGES = [linf(2), l1(2), hexagon_gauge(), OCTAGON,
                  polygon_gauge(random_symmetric_polygon(random.Random(5), 6, 10)),
                  linf(3), l1(3), FRACTIONAL_3D, HUGE_DENOMINATORS, lp(2, 3.0), lp(3, 2.5)]


def test_sampler_gauges_cover_fractional_vertices_and_functionals():
    assert any(a.denominator > 1 for v in polygon_vertices_2d(SAMPLER_GAUGES[4]) for a in v)
    assert gauge(FRACTIONAL_3D).scale == 30


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from(SAMPLER_GAUGES), count=st.integers(1, 150),
       seed=st.integers(0, 10 ** 6))
def test_sphere_samples_equal_the_fraction_sampler(spec, count, seed):
    got = sphere_samples(spec, count if spec.dim == 2 else count // 3 + 1, seed=seed)
    want = _fraction_sphere_samples(spec, count if spec.dim == 2 else count // 3 + 1, seed)
    assert isinstance(got, list) and got == want
    assert [tuple(map(type, v)) for v in got] == [tuple(map(type, v)) for v in want]
    # The carried (Y, q) stand for the same vectors as a fresh split: Y / q agree.
    g = gauge(spec)
    [(ys, qs)] = cover._split(g, spec, got)
    [(fresh_ys, fresh_qs)] = cover._split(g, spec, list(got))
    assert (ys.astype(object) * fresh_qs.astype(object)[:, None]
            == fresh_ys.astype(object) * qs.astype(object)[:, None]).all()


def test_replace_drops_the_carried_split():
    # A cone whose generator is swapped by replace() is checked as the equal hand-built cone.
    spec = linf(2)
    samples = sphere_samples(spec, 100, seed=0)
    sep = greedy_separated_set(spec, samples)
    cone = generated_cones(sep, spec, samples)[0]
    swapped = dataclasses.replace(cone, generators=(vec(-1, 0),))
    report = cone_halfwidth_check(swapped, spec)
    assert report == cone_halfwidth_check(GeneratedCone(cone.center, (vec(-1, 0),)), spec)
    assert not report.ok and report.radius == 2
    # A greedy set whose centers are replaced is split anew, and checked.
    moved = dataclasses.replace(sep, centers=(vec(5, 0),) + sep.centers[1:])
    assert moved._rows is None and swapped._rows is None
    with pytest.raises(InputError, match=r"center \(.*\) is not a unit vector"):
        packing_bound_check(moved, spec)


def test_a_changed_sample_list_is_split_anew(monkeypatch):
    counts = _count_split_rows(monkeypatch)
    spec = hexagon_gauge()
    samples = sphere_samples(spec, 200, seed=1)
    samples[3] = vec(2, 0)
    with pytest.raises(InputError, match=r"sample \(.*\) is not a unit vector"):
        greedy_separated_set(spec, samples)
    samples[3] = vec(1, 0)
    samples.append(vec(0, 1))
    assert greedy_separated_set(spec, samples) == greedy_separated_set(spec, list(samples))
    assert counts == [200, 201, 201]


def test_samples_handed_to_another_spec_are_split_again(monkeypatch):
    counts = _count_split_rows(monkeypatch)
    samples = sphere_samples(linf(2), 100, seed=2)
    sep = greedy_separated_set(linf(2), samples)     # an equal spec reads the carried split
    assert counts == []
    # The same unit ball under another spec: the linf split is not read.
    square = polytopal([(1, 0), (0, 1)])
    assert greedy_separated_set(square, samples).centers == sep.centers
    assert cover_assignment(sep, square, samples).ok
    assert counts == [100, len(sep.centers), 100]
    with pytest.raises(InputError, match=r"sample \(.*\) is not a unit vector"):
        greedy_separated_set(l1(2), samples)


#: linf unit vectors over denominators near 10^12, given by hand.
HUGE_UNIT_VECTORS = [vec(1, Fraction(10 ** 12 - k, 10 ** 12 + 7)) for k in (0, 3)] + [
    vec(Fraction(-(10 ** 12 + 1), 10 ** 12 + 9), 1), vec(1, Fraction(1, 10 ** 12 + 3))]


def _split_dtypes(spec, *vector_sets):
    return {a.dtype for split in cover._split(gauge(spec), spec, *vector_sets) for a in split}


def test_carried_int64_rows_meet_a_hand_given_set_on_object_arrays():
    spec = linf(2)
    samples = sphere_samples(spec, 200, seed=3)
    sep = greedy_separated_set(spec, samples)
    assert _split_dtypes(spec, samples) == _split_dtypes(spec, sep) == {np.dtype(np.int64)}
    # Over the union, max q^2 passes 2^62: every array of the call holds Python ints.
    assert _split_dtypes(spec, sep, HUGE_UNIT_VECTORS) == {np.dtype(object)}
    assert _split_dtypes(spec, SeparatedSet(tuple(HUGE_UNIT_VECTORS)), samples) == {
        np.dtype(object)}
    report = cover_assignment(sep, spec, HUGE_UNIT_VECTORS)
    assert report.assignments == _ref_assignments(spec, sep.centers, HUGE_UNIT_VECTORS)
    for centers in (HUGE_UNIT_VECTORS, HUGE_UNIT_VECTORS[:1]):
        hand = SeparatedSet(tuple(centers))
        cones = generated_cones(hand, spec, samples + HUGE_UNIT_VECTORS)
        assert [c.generators for c in cones] == _ref_generators(
            spec, hand.centers, samples + HUGE_UNIT_VECTORS)
        for i, cone in enumerate(cones):
            _assert_halfwidth_dominates(spec, cone, trials=20, seed=i)


def test_huge_denominator_samples_meet_a_hand_given_set():
    spec = HUGE_DENOMINATORS
    samples = sphere_samples(spec, 150, seed=11)
    fresh = list(sphere_samples(spec, 40, seed=12))        # a plain list: split here
    sep = greedy_separated_set(spec, samples)
    assert sep.centers == _ref_greedy(spec, samples)
    assert _split_dtypes(spec, sep, fresh) == {np.dtype(object)}
    report = cover_assignment(sep, spec, fresh)
    assert report.assignments == _ref_assignments(spec, sep.centers, fresh)
    cones = generated_cones(SeparatedSet(sep.centers), spec, samples)
    assert [c.generators for c in cones] == _ref_generators(spec, sep.centers, samples)


def test_carried_int64_rows_follow_a_lowered_limit(monkeypatch):
    # Drawn while int64 fits, then used under a limit of 0: every array is promoted.
    spec = hexagon_gauge()
    samples, fresh = sphere_samples(spec, 150, seed=11), sphere_samples(spec, 40, seed=12)
    sep = greedy_separated_set(spec, samples)
    assert _split_dtypes(spec, sep, fresh) == {np.dtype(np.int64)}
    monkeypatch.setattr(norms, "INT64_LIMIT", 0)
    assert _split_dtypes(spec, samples) == _split_dtypes(spec, sep, fresh) == {np.dtype(object)}
    assert greedy_separated_set(spec, samples) == sep and packing_bound_check(sep, spec)
    report = cover_assignment(sep, spec, fresh)
    assert report.assignments == _ref_assignments(spec, sep.centers, fresh)
    cones = generated_cones(sep, spec, samples)
    assert [c.generators for c in cones] == _ref_generators(spec, sep.centers, samples)
    assert all(c._rows[2][0].dtype == object for c in cones)
