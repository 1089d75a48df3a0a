import copy
import dataclasses
import pickle
import random
import re
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
from kdist.norms import gauge, vadd, vsub


def is_unit(spec, v):
    return abs(norm_eval(spec, v) - 1) <= gauge(spec).tol


def vscale(q, v):
    return tuple(q * a for a in v)


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


@pytest.mark.parametrize("v", [vec(2, 0), vec(Fraction(1, 10 ** 30), 0)])
def test_greedy_rejects_non_unit_sample(v):
    # (1/10^30, 0): its row (1, 0) fits int64, its q does not.
    with pytest.raises(InputError, match="is not a unit vector"):
        greedy_separated_set(linf(2), [v])


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


@pytest.mark.parametrize("samples, named", [
    ([vec(1, 0), vec(5, 0), vec("11/10", 0)], vec(5, 0)),
    # Within 1/5 of the center: accepted, it would become the cone's one generator.
    ([vec("11/10", 0)], vec("11/10", 0)),
])
def test_generated_cones_reject_non_unit_samples(samples, named):
    with pytest.raises(InputError, match=re.escape(f"sample {named!r} is not a unit vector")):
        generated_cones(SeparatedSet((vec(1, 0),)), linf(2), samples)


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
    return sphere_samples(spec, 10, seed=11).units.ys.dtype


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
# every input form gives the same cover: a SampleList, a copy, a tuple, UnitVectors

CARRY_GAUGES = [linf(2), l1(2), hexagon_gauge(), l1(3), lp(2, 3.0), HUGE_DENOMINATORS] + [
    polygon_gauge(random_symmetric_polygon(random.Random(seed), 8, 8)) for seed in range(2)]
INPUT_FORMS = ("samples", "list", "tuple", "units")


def _as(form, samples):
    """The vectors of a SampleList in one input form."""
    return {"samples": samples, "list": list(samples), "tuple": tuple(samples),
            "units": samples.units}[form]


def _cover_run(spec, samples, fresh, hand_set, lonely):
    """Centers, assignments, generators and half-width reports of the pipeline;
    the cones also checked as built by hand and after replace().  If hand_set,
    the greedy centers are handed on as a plain tuple.  If lonely, the samples
    near the first center are dropped, so its cone falls back to the center."""
    sep = greedy_separated_set(spec, samples)
    given = SeparatedSet(tuple(sep.centers)) if hand_set else sep
    if lonely:
        near = set(generated_cones(SeparatedSet(sep.centers[:1]), spec, samples)[0].generators)
        samples = [x for x in samples if x not in near]
    report = cover_assignment(given, spec, fresh)
    cones = generated_cones(given, spec, samples)
    if lonely:
        assert cones[0].generators == (sep.centers[0],)
    reports = [cone_halfwidth_check(c, spec) for c in cones]
    for cone, want in zip(cones, reports):
        got = cone_halfwidth_check(GeneratedCone(cone.center, cone.generators), spec)
        assert got == want and type(got.radius) is type(want.radius)
    for cone, other in zip(cones, cones[1:] + cones[:1]):
        for changes in ({"generators": other.generators}, {"center": other.center}):
            moved = dataclasses.replace(cone, **changes)
            assert cone_halfwidth_check(moved, spec) == cone_halfwidth_check(
                GeneratedCone(moved.center, moved.generators), spec)
    return sep.centers, report, [c.generators for c in cones], reports


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(CARRY_GAUGES), count=st.integers(1, 120), seed=st.integers(0, 50),
       forms=st.lists(st.sampled_from(INPUT_FORMS), min_size=3, max_size=3),
       hand_set=st.booleans(), lonely=st.booleans(), force_objects=st.booleans())
def test_every_input_form_gives_the_same_cover(spec, count, seed, forms, hand_set, lonely,
                                               force_objects):
    n = count if spec.dim == 2 else count // 2 + 1
    samples, fresh = sphere_samples(spec, n, seed=seed), sphere_samples(spec, 20, seed=seed + 1)
    with mock.patch.object(norms, "INT64_LIMIT", 0 if force_objects else norms.INT64_LIMIT):
        want = _cover_run(spec, tuple(samples), tuple(fresh), True, lonely)
        greedy_in, fresh_in, cones_in = [_as(f, xs) for f, xs in
                                          zip(forms, (samples, fresh, samples))]
        sep = greedy_separated_set(spec, greedy_in)
        assert sep.centers == want[0]
        got = _cover_run(spec, cones_in, fresh_in, hand_set, lonely)
        assert got == want and cover_assignment(sep, spec, fresh_in) == want[1]


def _count_split_rows(monkeypatch):
    """Patch the cover's image formation to record how many vectors each split
    clears.  Draw the samples first: sphere_samples forms its images there too."""
    counts, image_array = [], cover.image_array

    def counted(g, rows):
        counts.append(len(rows))
        return image_array(g, rows)

    monkeypatch.setattr(cover, "image_array", counted)
    return counts


def test_cone_cover_splits_each_generator_once(monkeypatch):
    # The criterion-8 pipeline on the hexagon at 1,000 samples: after sphere_samples
    # no sample, fresh vector or center is cleared again.
    spec = hexagon_gauge()
    samples, fresh = sphere_samples(spec, 1000, seed=8), sphere_samples(spec, 100, seed=9)
    counts = _count_split_rows(monkeypatch)
    sep = greedy_separated_set(spec, samples)
    assert packing_bound_check(sep, spec)
    assert cover_assignment(sep, spec, fresh).ok
    cones = generated_cones(sep, spec, samples)
    assert all(cone_halfwidth_check(cone, spec).ok for cone in cones)
    assert counts == []
    # Hand-built cones clear their center and generators together, to the same reports.
    assert [cone_halfwidth_check(GeneratedCone(c.center, c.generators), spec)
            for c in cones] == [cone_halfwidth_check(c, spec) for c in cones]
    assert counts == [1 + len(c.generators) for c in cones]
    # Plain copies carry nothing: each is cleared once per call.
    del counts[:]
    assert greedy_separated_set(spec, list(samples)) == sep
    assert cover_assignment(SeparatedSet(tuple(sep.centers)), spec, tuple(fresh)).ok
    assert counts == [1000, len(sep.centers), 100]


def test_rows_made_for_another_norm_are_not_read(monkeypatch):
    counts = _count_split_rows(monkeypatch)
    c, inside = vec(1, 0), [vec(1, Fraction(1, 10)), vec(1, Fraction(-1, 8))]
    [cone] = generated_cones(SeparatedSet((c,)), linf(2), inside)
    assert cone.generators == tuple(inside) and counts == [1, 2]
    assert cone_halfwidth_check(cone, linf(2)).ok and counts == [1, 2]
    assert cone_halfwidth_check(cone, l1(2)) == cone_halfwidth_check(
        GeneratedCone(c, cone.generators), l1(2))
    assert counts == [1, 2, 3, 3]
    # (1, 1/10) is a unit vector of linf(2) but not of l1(2): its linf rows would pass.
    [cone] = generated_cones(SeparatedSet((inside[0],)), linf(2), [c])
    for run in (cone, GeneratedCone(cone.center, cone.generators)):
        with pytest.raises(InputError, match="cone center .* is not a unit vector"):
            cone_halfwidth_check(run, l1(2))


@pytest.mark.parametrize("spec", [hexagon_gauge(), lp(2, 3.0)])
def test_carried_rows_do_not_change_equality_hash_or_repr(spec):
    samples = sphere_samples(spec, 200, seed=3)
    sep = greedy_separated_set(spec, samples)
    cones = generated_cones(sep, spec, samples)
    rebuilt = [GeneratedCone(c.center, c.generators) for c in cones]
    assert all(isinstance(c.rows, cover.UnitVectors) for c in cones)
    assert isinstance(sep.centers, cover.UnitVectors)
    for got, want in ((cones, rebuilt), ([sep], [SeparatedSet(tuple(sep.centers))]),
                      ([samples.units], [tuple(samples)])):
        assert got == want
        assert list(map(hash, got)) == list(map(hash, want))
        assert list(map(repr, got)) == list(map(repr, want))


def _bound(spec, units):
    """The cover's bound over a set, on Python ints."""
    ys, qs = units.ys.astype(object), units.qs.astype(object)
    top, qtop = max(map(abs, ys.flat), default=0), max(qs, default=1)
    return max(10 * ys.shape[1] * top * qtop, qtop * qtop * gauge(spec).scale)


def _assert_rows_stand_for_their_vectors(spec, units):
    """The units' dtype keeps the bound, and each row over q is its vector."""
    assert isinstance(units, cover.UnitVectors) and units.spec == spec
    assert units.ys.dtype == units.qs.dtype
    if units.ys.dtype == np.int64:
        assert _bound(spec, units) < norms.INT64_LIMIT
    fresh = cover._units(gauge(spec), spec, list(units))
    assert fresh == units and fresh is not units
    assert (units.ys.astype(object) * fresh.qs.astype(object)[:, None]
            == fresh.ys.astype(object) * units.qs.astype(object)[:, None]).all()
    return units.ys.dtype


#: linf unit vectors over denominators near 10^12, given by hand.
HUGE_UNIT_VECTORS = [vec(1, Fraction(10 ** 12 - k, 10 ** 12 + 7)) for k in (0, 3)] + [
    vec(Fraction(-(10 ** 12 + 1), 10 ** 12 + 9), 1), vec(1, Fraction(1, 10 ** 12 + 3))]


def test_pipeline_rows_are_int64_only_below_the_bound():
    dtypes = []
    for spec, extra, hand in ((HUGE_DENOMINATORS, [], False), (linf(2), [], False),
                              (linf(2), HUGE_UNIT_VECTORS, False),
                              (linf(2), HUGE_UNIT_VECTORS, True)):
        samples = sphere_samples(spec, 150, seed=11)
        sep = greedy_separated_set(spec, samples)
        given = SeparatedSet(tuple(HUGE_UNIT_VECTORS)) if hand else sep
        cones = generated_cones(given, spec, samples + extra)
        for units in [samples.units, sep.centers] + [c.rows for c in cones]:
            dtypes.append(_assert_rows_stand_for_their_vectors(spec, units))
        if extra:
            assert {c.rows.ys.dtype for c in cones} == {np.dtype(object)}
    assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("spec", [hexagon_gauge(), l1(3), lp(2, 3.0)])
def test_copies_and_pickles_give_equal_values_and_reports(spec):
    samples, fresh = sphere_samples(spec, 200, seed=3), sphere_samples(spec, 40, seed=4)
    sep = greedy_separated_set(spec, samples)
    cones = generated_cones(sep, spec, samples)
    reports = [cone_halfwidth_check(c, spec) for c in cones]
    for copied in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        samples2, fresh2, sep2, cones2 = copied((samples, fresh, sep, cones))
        assert (samples2, fresh2, sep2, cones2) == (samples, fresh, sep, cones)
        assert list(map(hash, (sep2, *cones2))) == list(map(hash, (sep, *cones)))
        assert greedy_separated_set(spec, samples2) == sep and packing_bound_check(sep2, spec)
        assert cover_assignment(sep2, spec, fresh2) == cover_assignment(sep, spec, fresh)
        assert generated_cones(sep2, spec, samples2) == cones
        assert [cone_halfwidth_check(c, spec) for c in cones2] == reports


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
    assert got.units == tuple(got)
    _assert_rows_stand_for_their_vectors(spec, got.units)


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
    # The center too: the stale rows would pass the unit check and give radius 0.
    moved_cone = dataclasses.replace(cone, center=vec(2, 0))
    assert moved_cone.rows is cone.rows
    with pytest.raises(InputError, match=r"cone center \(.*\) is not a unit vector"):
        cone_halfwidth_check(moved_cone, spec)
    # A greedy set whose centers are replaced is split anew, and checked.
    moved = dataclasses.replace(sep, centers=(vec(5, 0),) + sep.centers[1:])
    assert type(moved.centers) is tuple
    with pytest.raises(InputError, match=r"center \(.*\) is not a unit vector"):
        packing_bound_check(moved, spec)


def test_a_changed_sample_list_is_split_anew(monkeypatch):
    spec = hexagon_gauge()
    samples = sphere_samples(spec, 200, seed=1)
    counts = _count_split_rows(monkeypatch)
    samples[3] = vec(2, 0)
    with pytest.raises(InputError, match=r"sample \(.*\) is not a unit vector"):
        greedy_separated_set(spec, samples)
    samples[3] = vec(1, 0)
    samples.append(vec(0, 1))
    assert greedy_separated_set(spec, samples) == greedy_separated_set(spec, list(samples))
    assert counts == [200, 201, 201]


def test_samples_handed_to_another_spec_are_split_again(monkeypatch):
    samples = sphere_samples(linf(2), 100, seed=2)
    counts = _count_split_rows(monkeypatch)
    sep = greedy_separated_set(linf(2), samples)     # an equal spec reads the carried rows
    assert counts == []
    # The same unit ball under another spec: the linf rows are not read.
    square = polytopal([(1, 0), (0, 1)])
    assert greedy_separated_set(square, samples).centers == sep.centers
    assert cover_assignment(sep, square, samples).ok
    assert counts == [100, len(sep.centers), 100]
    with pytest.raises(InputError, match=r"sample \(.*\) is not a unit vector"):
        greedy_separated_set(l1(2), samples)


def _cast_dtypes(spec, *vector_sets):
    """The dtypes of the vector sets' arrays as one call of the cover meets them."""
    g = gauge(spec)
    sets = cover._cast(g, *[cover._units(g, spec, vs) for vs in vector_sets])
    return {a.dtype for s in sets for a in (s.ys, s.qs)}


def test_carried_int64_rows_meet_a_hand_given_set_on_object_arrays():
    spec = linf(2)
    samples = sphere_samples(spec, 200, seed=3)
    sep = greedy_separated_set(spec, samples)
    assert _cast_dtypes(spec, samples) == _cast_dtypes(spec, sep.centers) == {np.dtype(np.int64)}
    # Over the union, max q^2 passes 2^62: every array of the call holds Python ints.
    assert _cast_dtypes(spec, sep.centers, HUGE_UNIT_VECTORS) == {np.dtype(object)}
    assert _cast_dtypes(spec, tuple(HUGE_UNIT_VECTORS), samples) == {np.dtype(object)}
    report = cover_assignment(sep, spec, HUGE_UNIT_VECTORS)
    assert report.assignments == _ref_assignments(spec, sep.centers, HUGE_UNIT_VECTORS)
    for centers in (HUGE_UNIT_VECTORS, HUGE_UNIT_VECTORS[:1]):
        hand = SeparatedSet(tuple(centers))
        cones = generated_cones(hand, spec, samples + HUGE_UNIT_VECTORS)
        assert [c.generators for c in cones] == _ref_generators(
            spec, hand.centers, samples + HUGE_UNIT_VECTORS)
        for i, cone in enumerate(cones):
            _assert_halfwidth_dominates(spec, cone, trials=20, seed=i)


def test_sets_meeting_in_one_call_are_cast_over_their_union():
    # Each set alone fits int64, but q_c * Y_x = 2^28 * (2^36 + 1) = 2^64 + 2^28 does not:
    # in int64 the difference q_x * Y_c - q_c * Y_x would wrap to (0, 1), within 1/5.
    c, far = vec(1, Fraction(1, 2 ** 28)), vec(2 ** 36 + 1, 0)
    assert _cast_dtypes(linf(2), [c]) == _cast_dtypes(linf(2), [far]) == {np.dtype(np.int64)}
    assert _cast_dtypes(linf(2), [c], [far]) == {np.dtype(object)}
    # far is no unit vector: generated_cones names it before it forms any difference.
    with pytest.raises(InputError, match=r"sample \(.*\) is not a unit vector"):
        generated_cones(SeparatedSet((c,)), linf(2), [far])


def test_huge_denominator_samples_meet_a_hand_given_set():
    spec = HUGE_DENOMINATORS
    samples = sphere_samples(spec, 150, seed=11)
    fresh = list(sphere_samples(spec, 40, seed=12))        # a plain list: split here
    sep = greedy_separated_set(spec, samples)
    assert sep.centers == _ref_greedy(spec, samples)
    assert _cast_dtypes(spec, sep.centers, fresh) == {np.dtype(object)}
    report = cover_assignment(sep, spec, fresh)
    assert report.assignments == _ref_assignments(spec, sep.centers, fresh)
    cones = generated_cones(SeparatedSet(tuple(sep.centers)), spec, samples)
    assert [c.generators for c in cones] == _ref_generators(spec, sep.centers, samples)


def test_carried_int64_rows_follow_a_lowered_limit(monkeypatch):
    # Rows are cast once, when they are made: drawn under a limit of 0, every array
    # the pipeline builds holds Python ints, to the reference results.
    spec = hexagon_gauge()
    monkeypatch.setattr(norms, "INT64_LIMIT", 0)
    samples, fresh = sphere_samples(spec, 150, seed=11), sphere_samples(spec, 40, seed=12)
    sep = greedy_separated_set(spec, samples)
    cones = generated_cones(sep, spec, samples)
    built = [samples.units, fresh.units, sep.centers] + [c.rows for c in cones]
    assert {a.dtype for u in built for a in (u.ys, u.qs)} == {np.dtype(object)}
    assert _cast_dtypes(spec, sep.centers, fresh) == {np.dtype(object)}
    assert sep.centers == _ref_greedy(spec, samples) and packing_bound_check(sep, spec)
    report = cover_assignment(sep, spec, fresh)
    assert report.assignments == _ref_assignments(spec, sep.centers, fresh)
    assert [c.generators for c in cones] == _ref_generators(spec, sep.centers, samples)
    assert all(cone_halfwidth_check(c, spec).ok for c in cones)
