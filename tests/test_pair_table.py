"""The pair table against plain norm_eval loops on the original points.

Each reference below evaluates every pair with ``norm_eval`` on the
``Fraction`` (or float) differences, as the pairwise passes did before
they shared one integer table.
"""

import functools
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdist import (CertificateError, GeometryError, PointSet, PolyhedralCone, SearchProblem,
                   best_distinct_witness, branch_and_bound, brute_force_oracle,
                   chain_certificate, check_cone_conditions, clusters_at,
                   decompose_recursive_bound, distance_spectrum, hexagon_gauge, l1, linf,
                   linf_cone_family, lp, norm_eval, parallelotope_cones, polygon_gauge,
                   polytopal, vec)
from kdist import norms
from kdist.gen import random_symmetric_polygon
from kdist.norms import FLOAT_EPS, clear_denominators, gauge, vadd, vneg, vsub
from kdist.planar import planar_cones
from kdist.search import _pair_classes
from kdist.spectrum import DistanceSpectrum, PairTable, _value_classes


def dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def vscale(q, v):
    return tuple(q * a for a in v)


# ---------------------------------------------------------------------------
# references


def _merge(values):
    groups = []
    for v in sorted(values):
        if groups and v - groups[-1][-1] <= FLOAT_EPS * max(v, 1.0):
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def ref_spectrum(spec, pts):
    dists = [norm_eval(spec, vsub(y, x)) for x, y in combinations(pts, 2)]
    if not spec.exact:
        groups = _merge(dists)
        return tuple(g[0] for g in groups), tuple(len(g) for g in groups)
    counts = Counter(dists)
    return tuple(sorted(counts)), tuple(counts[d] for d in sorted(counts))


def ref_witness(spec, pts):
    best = None
    for x in sorted(pts):
        dists = [norm_eval(spec, vsub(y, x)) for y in pts if y != x]
        count = len(set(dists)) if spec.exact else len(_merge(dists))
        if best is None or count > best[1]:
            best = (x, count)
    return best


def ref_clusters(spec, pts, rho):
    pts = sorted(pts)
    near = {x: {y for y in pts if y != x and norm_eval(spec, vsub(y, x)) <= rho}
            for x in pts}
    clusters, seen = [], set()
    for x in pts:                      # components, by breadth-first search
        if x in seen:
            continue
        comp, todo = [], [x]
        seen.add(x)
        while todo:
            y = todo.pop()
            comp.append(y)
            for z in near[y] - seen:
                seen.add(z)
                todo.append(z)
        clusters.append(sorted(comp))
    if any(y not in near[x] for c in clusters for x in c for y in c if y != x):
        return None
    return sorted(clusters)


def ref_contains(cone, v):
    if any(dot(c, v) < 0 for c in cone.facets):
        return False
    for r in cone.excluded_rays:
        i = next(i for i, b in enumerate(r) if b != 0)
        t = Fraction(v[i]) / r[i]
        if t > 0 and all(a == t * b for a, b in zip(v, r)):
            return False
    return True


def ref_conditions(family, spec, vectors):
    vectors = list(dict.fromkeys(v for v in vectors if any(v)))
    uncovered = [v for v in vectors
                 if not any(ref_contains(c, v) or ref_contains(c, vneg(v)) for c in family)]
    violations = []
    for idx, cone in enumerate(family):
        by_norm = {}
        for v in vectors:
            if ref_contains(cone, v):
                by_norm.setdefault(norm_eval(spec, v), []).append(v)
        for group in by_norm.values():
            for u, v in combinations(group, 2):
                d = vsub(u, v)
                if ref_contains(cone, d) or ref_contains(cone, vneg(d)):
                    violations.append((idx, u, v))
    return uncovered, violations


def ref_certificate(spec, pts, family):
    pts = sorted(pts)
    diffs = [vsub(x, y) for x in pts for y in pts if x != y]
    violations = ref_conditions(family, spec, diffs)[1]

    @functools.cache
    def height(cone, x):
        return max((1 + height(cone, y) for y in pts
                    if y != x and ref_contains(cone, vsub(x, y))), default=0)

    heights = {x: tuple(height(cone, x) for cone in family) for x in pts}
    return heights, violations


# ---------------------------------------------------------------------------
# inputs: rational points with mixed denominators and negative coordinates

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
positive = st.fractions(min_value="1/5", max_value=4, max_denominator=5)


@st.composite
def gauges(draw, d):
    kind = draw(st.sampled_from(["linf", "l1", "polytopal"] + (["hexagon"] if d == 2 else [])))
    if kind == "linf":
        return linf(d)
    if kind == "l1":
        return l1(d)
    if kind == "hexagon":
        return hexagon_gauge()
    # Scaled coordinate functionals keep the gauge a norm; the rest are random.
    axes = [[draw(positive) if i == j else 0 for j in range(d)] for i in range(d)]
    extra = draw(st.lists(st.lists(rationals, min_size=d, max_size=d), max_size=3))
    return polytopal(axes + extra)


@st.composite
def cases(draw, min_size=2, max_size=7):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[rationals] * d), min_size=min_size,
                        max_size=max_size, unique=True))
    return draw(gauges(d)), PointSet(d, tuple(pts))


# ---------------------------------------------------------------------------
# exact kinds


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_spectrum_witness_and_classes_match_reference(case):
    spec, ps = case
    sp = distance_spectrum(spec, ps)
    assert (sp.distances, sp.multiplicities) == ref_spectrum(spec, ps.points)
    assert best_distinct_witness(spec, ps) == ref_witness(spec, ps.points)
    # The class ids of the search partition the pairs as their distances do.
    pts = sorted(ps.points)
    cls = _pair_classes(spec, PointSet(ps.dim, tuple(pts))).classes
    by_class = {}
    for i, j in combinations(range(len(pts)), 2):
        by_class.setdefault(cls[i][j], set()).add(norm_eval(spec, vsub(pts[j], pts[i])))
        assert cls[j][i] == cls[i][j]
    assert all(len(v) == 1 for v in by_class.values())
    assert len(by_class) == len(sp.distances)


@settings(max_examples=60, deadline=None)
@given(case=cases(max_size=6), off=st.fractions(min_value="1/7", max_value="6/7",
                                                max_denominator=7))
def test_clusters_match_reference(case, off):
    spec, ps = case
    dists = distance_spectrum(spec, ps).distances
    # Every spectrum distance, and values below, between and above them.
    rhos = list(dists) + [dists[0] * off, dists[-1] + off]
    if len(dists) > 1:
        rhos.append(dists[0] + (dists[1] - dists[0]) * off)
    for rho in rhos:
        assert clusters_at(spec, ps, rho) == ref_clusters(spec, ps.points, rho)


QUADRANTS = (PolyhedralCone(facets=(vec("1/2", 0), vec(0, 3))),
             PolyhedralCone(facets=(vec(-2, 0), vec(0, "1/3"))))
# The same quadrants with one open boundary ray removed from each.
HALF_OPEN = (PolyhedralCone(QUADRANTS[0].facets, excluded_rays=(vec(1, 0),)),
             PolyhedralCone(QUADRANTS[1].facets, excluded_rays=(vec(0, "1/2"),)))


@settings(max_examples=80, deadline=None)
@given(case=cases(max_size=6), data=st.data())
def test_chain_certificate_matches_reference(case, data):
    spec, ps = case
    families = [linf_cone_family(ps.dim)]
    if ps.dim == 2:
        # Closed quadrants cover the plane but are too wide: equal-norm
        # comparable pairs (violations) are common.
        families += [QUADRANTS, HALF_OPEN]
    family = data.draw(st.sampled_from(families))
    cert = chain_certificate(PairTable(spec, ps), family)
    heights, violations = ref_certificate(spec, ps.points, family)
    assert cert.heights == heights
    assert cert.h == max(max(hv) for hv in heights.values())
    assert cert.injective == (len(set(heights.values())) == len(ps))
    assert cert.violations == violations


@settings(max_examples=80, deadline=None)
@given(spec=gauges(2), family=st.sampled_from([QUADRANTS, HALF_OPEN, (QUADRANTS[0],)]),
       vectors=st.lists(st.tuples(rationals, rationals), min_size=1, max_size=12))
def test_cone_conditions_match_reference(spec, family, vectors):
    if not any(any(v) for v in vectors):
        vectors.append(vec(1, 0))
    report = check_cone_conditions(family, spec, vectors)
    assert (report.uncovered, report.equal_norm_violations) == \
        ref_conditions(family, spec, vectors)


@st.composite
def planar_cases(draw, max_size=12):
    """The planar cones of l1, the hexagon or a random polygon; a gauge, their
    own or another; and up to max_size points, some of them a multiple of an
    excluded ray apart, so that differences fall on the removed rays."""
    kind = draw(st.sampled_from(["l1", "hexagon", "polygon"]))
    own = (l1(2) if kind == "l1" else hexagon_gauge() if kind == "hexagon" else
           polygon_gauge(random_symmetric_polygon(random.Random(draw(st.integers(0, 2 ** 32))))))
    family = planar_cones(own)
    rays = [r for cone in family for r in cone.excluded_rays] or [vec(1, 1)]
    pts = draw(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=max_size // 2,
                        unique=True))
    steps = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1), st.sampled_from(rays),
                                    rationals), max_size=max_size - len(pts)))
    pts += [vadd(pts[i], vscale(t, r)) for i, r, t in steps]
    return draw(st.one_of(st.just(own), gauges(2))), family, list(dict.fromkeys(pts))


@settings(max_examples=60, deadline=None)
@given(case=planar_cases())
def test_chain_certificate_matches_reference_on_planar_cones(case):
    spec, family, pts = case
    cert = chain_certificate(PairTable(spec, PointSet(2, tuple(pts))), family)
    heights, violations = ref_certificate(spec, pts, family)
    assert cert.heights == heights
    assert cert.injective == (len(set(heights.values())) == len(pts))
    assert cert.violations == violations


@settings(max_examples=60, deadline=None)
@given(case=planar_cases())
def test_cone_conditions_match_reference_on_planar_cones(case):
    spec, family, pts = case
    vectors = [vsub(x, y) for x in pts for y in pts if x != y] or [vec(1, 0)]
    report = check_cone_conditions(family, spec, vectors)
    assert (report.uncovered, report.equal_norm_violations) == \
        ref_conditions(family, spec, vectors)


def test_violations_come_back_in_the_scale_of_the_points():
    ps = PointSet.of([vec(0, 0), vec("1/2", "1/3"), vec("1/2", 0)])
    cert = chain_certificate(PairTable(linf(2), ps), QUADRANTS)
    assert cert.violations == ref_certificate(linf(2), ps.points, QUADRANTS)[1]
    assert cert.violations == [(0, vec("1/2", 0), vec("1/2", "1/3"))]


def test_table_values_are_scaled_distances():
    ps = PointSet.of([vec("1/2", 0), vec(0, "1/3"), vec(-1, "2/7")])
    spec = polytopal([("1/2", 1), (1, "-1/3")])
    table = PairTable(spec, ps)
    for i, j in combinations(range(3), 2):
        exact = norm_eval(spec, vsub(table.points[j], table.points[i]))
        assert table.distance(table.values[i][j]) == exact
        assert exact == Fraction(table.values[i][j], table.scale)


@st.composite
def lp_cases(draw):
    """Up to 7 float points under an lp norm."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[rationals.map(float)] * d), min_size=2, max_size=7,
                        unique=True))
    return lp(d, draw(st.sampled_from([1.5, 2.0, 3.0]))), PointSet(d, tuple(pts))


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(cases(), lp_cases()), data=st.data())
def test_spectrum_of_a_subset_is_the_spectrum_of_its_own_table(case, data):
    spec, ps = case
    table = PairTable(spec, ps)
    idx = sorted(data.draw(st.sets(st.integers(0, len(ps) - 1), min_size=1)))
    sub = PointSet(ps.dim, tuple(table.points[i] for i in idx))
    assert table.spectrum_of(idx) == distance_spectrum(spec, sub)


class LoopTable:
    """The pair table as one Python loop over the pairs: the points sorted,
    one ``norm_eval`` per pair difference, times the scale of the cleared
    points (lp: 1, the float distance itself), and each value's class
    looked up by bisection among the representatives."""

    def __init__(self, spec, ps):
        g = gauge(spec)
        self.points = pts = sorted(ps.points)
        self.scale, self.gauge = (1 if g.tol else clear_denominators(pts)[1] * g.scale), g
        n = len(pts)
        self.values = values = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                value = norm_eval(spec, vsub(pts[j], pts[i])) * self.scale
                assert g.tol or value.denominator == 1
                values[i][j] = values[j][i] = value if g.tol else int(value)
        self.spectrum = self.spectrum_of(range(n))
        reps = [g.at_most(d, self.scale) for d in self.spectrum.distances]
        self.classes = [[max(bisect_right(reps, v) - 1, 0) for v in row] for row in values]

    def spectrum_of(self, idx):
        pairs = [self.values[i][j] for i, j in combinations(idx, 2)]
        groups = _merge(pairs) if self.gauge.tol else [[v] * m for v, m in
                                                       sorted(Counter(pairs).items())]
        return DistanceSpectrum(tuple(self.gauge.quotient(grp[0], self.scale) for grp in groups),
                                tuple(map(len, groups)))


@st.composite
def lp_rational_cases(draw):
    """Up to 7 rational points under an lp norm: differences taken as Fractions."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[rationals] * d), max_size=7, unique=True))
    return lp(d, draw(st.sampled_from([1.5, 2.0, 3.0]))), PointSet(d, tuple(pts))


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(cases(min_size=0), lp_cases(), lp_rational_cases()),
       force_objects=st.booleans(), data=st.data())
def test_array_table_equals_the_pair_loop(case, force_objects, data):
    spec, ps = case
    limit = 0 if force_objects else norms.INT64_LIMIT
    with mock.patch.object(norms, "INT64_LIMIT", limit):
        table = PairTable(spec, ps)
    want = LoopTable(spec, ps)
    # Exact kinds on int64 unless forced onto Python ints; lp values are floats.
    assert table._values.dtype == (float if not spec.exact else
                                   object if force_objects else np.int64)
    assert table.points == want.points
    assert table.values == want.values
    assert all(type(v) is type(w) for row, wrow in zip(table.values, want.values)
               for v, w in zip(row, wrow) if v)
    assert table.classes == want.classes
    assert table.spectrum == want.spectrum
    idx = sorted(data.draw(st.sets(st.integers(0, max(len(ps) - 1, 0)), max_size=len(ps))))
    assert table.spectrum_of(idx) == want.spectrum_of(idx)


@st.composite
def counted_cases(draw):
    """1 to 12 points under linf or l1 (d = 1 to 3), the hexagon or a random octagon."""
    kind = draw(st.sampled_from(["linf", "l1", "hexagon", "octagon"]))
    d = 2 if kind in ("hexagon", "octagon") else draw(st.integers(1, 3))
    spec = (linf(d) if kind == "linf" else l1(d) if kind == "l1" else
            hexagon_gauge() if kind == "hexagon" else polygon_gauge(random_symmetric_polygon(
                random.Random(draw(st.integers(0, 2 ** 32))), 8, 8)))
    pts = draw(st.lists(st.tuples(*[rationals] * d), min_size=1, max_size=12, unique=True))
    return spec, PointSet(d, tuple(pts))


@settings(max_examples=150, deadline=None)
@given(case=counted_cases(), force_objects=st.booleans())
def test_exact_spectrum_counts_the_upper_triangle(case, force_objects):
    # The table counts all n x n values at once; the reference groups the
    # Fraction distances of the pairs i < j.
    spec, ps = case
    with mock.patch.object(norms, "INT64_LIMIT", 0 if force_objects else norms.INT64_LIMIT):
        table = PairTable(spec, ps)
    assert table._values.dtype == (object if force_objects else np.int64)
    sp = table.spectrum
    assert (sp.distances, sp.multiplicities) == ref_spectrum(spec, ps.points)
    assert all(type(d) is Fraction for d in sp.distances)


def test_searches_and_the_recursion_build_one_table(monkeypatch):
    builds = []
    init = PairTable.__init__
    monkeypatch.setattr(PairTable, "__init__",
                        lambda self, spec, ps: builds.append(ps) or init(self, spec, ps))
    line = PointSet.of([vec(0), vec(1), vec(100), vec(101)])
    problem = SearchProblem(linf(1), line, 1)
    for run in (lambda: brute_force_oracle(problem), lambda: branch_and_bound(problem),
                lambda: decompose_recursive_bound(PairTable(linf(1), line))):
        builds.clear()
        result = run()
        assert builds == [line]
    assert result.kind == "split" and len(result.children) == 2


# ---------------------------------------------------------------------------
# lp: one float branch

def test_lp_float_points_global_classes_and_row_local_witness():
    # Values 1, 1 + 0.4e-9 and 1 + 0.8e-9 form one global class within the
    # tolerance; the point 0 sees only its two ends and groups them alike.
    spec = lp(1, 2.0)
    pts = [(0.0,), (1.0,), (-1.0 - 0.8e-9,), (5.0,), (6.0 + 0.4e-9,)]
    ps = PointSet(1, tuple(pts))
    sp = distance_spectrum(spec, ps)
    assert (sp.distances, sp.multiplicities) == ref_spectrum(spec, pts)
    assert best_distinct_witness(spec, ps) == ref_witness(spec, pts)
    zero = sorted(pts).index((0.0,))
    row = [norm_eval(spec, vsub(y, (0.0,))) for y in pts if y != (0.0,)]
    cls = _pair_classes(spec, PointSet(1, tuple(sorted(pts)))).classes
    assert len(_merge(row)) == len({cls[zero][j] for j in range(len(pts)) if j != zero}) == 3
    # Global single linkage: class ids follow the merged groups.
    groups = _merge([norm_eval(spec, vsub(y, x)) for x, y in combinations(sorted(pts), 2)])
    gid = {v: c for c, g in enumerate(groups) for v in g}
    s = sorted(pts)
    assert all(cls[i][j] == gid[norm_eval(spec, vsub(s[j], s[i]))]
               for i, j in combinations(range(len(s)), 2))
    for rho in list(sp.distances) + [1.0 + 0.6e-9, 0.5]:
        assert clusters_at(spec, ps, rho) == ref_clusters(spec, pts, rho)
    # A subset without the pair at 1 takes its class's least value left, as
    # a table of its own points does.
    table = PairTable(spec, ps)
    idx = [i for i, p in enumerate(table.points) if p != (1.0,)]
    sub = table.spectrum_of(idx)
    assert sub == distance_spectrum(spec, PointSet(1, tuple(table.points[i] for i in idx)))
    assert sub.distances[0] > sp.distances[0] == 1.0


def test_lp_chain_wider_than_the_tolerance_is_an_error():
    # Gaps of 0.8e-9 chain 1, 1 + 0.8e-9 and 1 + 1.6e-9, whose ends are
    # distinct distances: every pass over the pairs refuses the class.
    spec = lp(1, 2.0)
    ps = PointSet(1, ((0.0,), (1.0,), (-1.0 - 1.6e-9,), (5.0,), (6.0 + 0.8e-9,)))
    for run in (distance_spectrum, best_distinct_witness,
                lambda spec, ps: _pair_classes(spec, PointSet(1, tuple(sorted(ps.points))))):
        with pytest.raises(GeometryError, match="span 1.6e-09"):
            run(spec, ps)
    # 2,000 values 0.9e-9 apart used to collapse into one class 1.8e-6 wide.
    with pytest.raises(GeometryError, match="2000 lp distances"):
        _value_classes([1.0 + i * 0.9e-9 for i in range(2000)], FLOAT_EPS)
    # Near-equal values, as rounding leaves them, still make one class.
    near = [1.0 + i * 2e-12 for i in range(400)] + [3.0, 3.0 + 4e-16]
    assert list(map(len, _value_classes(near, FLOAT_EPS))) == [400, 2]


# ---------------------------------------------------------------------------
# the bitmask orders against the reference, on every outcome


def ref_cycle_points(cone, pts):
    """The points of pts on a cycle of the cone's order (x above y iff x - y
    lies in the cone), by transitive closure."""
    above = {(x, y) for x in pts for y in pts if x != y and ref_contains(cone, vsub(x, y))}
    for z in pts:
        above |= {(x, y) for x, w in above if w == z for v, y in above if v == z}
    return {x for x in pts if (x, x) in above}


@st.composite
def family_cases(draw, max_size=10):
    """A norm among linf(1..3), l1(2), the hexagon and a random octagon, with
    its own cone family, that family with its excluded rays put back (too
    wide), that family less one cone (pairs go uncovered), or
    plus a half-space (the whole line in d = 1), which is not acute: points
    a multiple of a boundary direction apart are a cycle of its order,
    unless that direction is an excluded ray; and points, some of them a
    multiple of an excluded ray or the boundary direction apart."""
    kind = draw(st.sampled_from(["linf1", "linf2", "linf3", "l1", "hexagon", "octagon"]))
    if kind.startswith("linf"):
        spec = linf(int(kind[-1]))
        family = list(parallelotope_cones(spec))
    else:
        spec = (l1(2) if kind == "l1" else hexagon_gauge() if kind == "hexagon" else
                polygon_gauge(random_symmetric_polygon(
                    random.Random(draw(st.integers(0, 2 ** 32))), 8, 8)))
        family = list(planar_cones(spec))
    d = spec.dim
    change = draw(st.sampled_from(["own", "closed", "drop", "half-space"]))
    if change == "closed":      # too wide: equal-norm violations are common
        family = [PolyhedralCone(cone.facets) for cone in family]
    if change == "drop" and len(family) > 1:
        family.pop(draw(st.integers(0, len(family) - 1)))
    side = ()
    if change == "half-space":
        a = draw(st.tuples(*[rationals] * d).filter(lambda a: a[0]))
        side = (vec(-a[1], a[0], *[0] * (d - 2)),) if d > 1 else ()
        ray = side if d == 2 and draw(st.booleans()) else ()
        facets = (a,) if d > 1 else ()
        family.insert(draw(st.integers(0, len(family))), PolyhedralCone(facets, ray))
    rays = [r for cone in family for r in cone.excluded_rays] + list(side) or [vec(*[1] * d)]
    # Small lattice points repeat norms, and so give equal-norm violations.
    coords = draw(st.sampled_from([rationals, st.integers(-2, 2).map(Fraction)]))
    pts = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=max_size // 2,
                        unique=True))
    steps = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1), st.sampled_from(rays),
                                    rationals), max_size=max_size - len(pts)))
    pts += [vadd(pts[i], vscale(t, r)) for i, r, t in steps]
    return spec, tuple(family), sorted(dict.fromkeys(pts))


@settings(max_examples=150, deadline=None)
@given(case=family_cases())
def test_bitmask_certificate_matches_reference_on_every_outcome(case):
    spec, family, pts = case
    diffs = [vsub(x, y) for x in pts for y in pts if x != y] or [vec(*[1] * spec.dim)]
    report = check_cone_conditions(family, spec, diffs)
    assert (report.uncovered, report.equal_norm_violations) == \
        ref_conditions(family, spec, diffs)
    uncovered = [(x, y) for x, y in combinations(pts, 2)
                 if not any(ref_contains(c, vsub(x, y)) or ref_contains(c, vsub(y, x))
                            for c in family)]
    cycles = [on for on in (ref_cycle_points(c, pts) for c in family) if on]
    table = PairTable(spec, PointSet(spec.dim, tuple(pts)))
    if uncovered:
        x, y = uncovered[0]
        with pytest.raises(CertificateError, match="no cone of the family covers the "
                           f"difference of {re.escape(str(x))} and {re.escape(str(y))}$"):
            chain_certificate(table, family)
    elif cycles:
        with pytest.raises(CertificateError, match="cycle in cone order at") as err:
            chain_certificate(table, family)
        assert any(f"at {p};" in str(err.value) for p in cycles[0])
    else:
        cert = chain_certificate(table, family)
        heights, violations = ref_certificate(spec, pts, family)
        assert cert.heights == heights
        assert cert.h == max(max(hv) for hv in heights.values())
        assert cert.injective == (len(set(heights.values())) == len(pts))
        assert cert.violations == violations


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(lp_cases(), lp_rational_cases().filter(lambda c: len(c[1]) > 1)))
def test_lp_witness_matches_the_single_linkage_reference(case):
    # The exact kinds' witness is checked against the Fraction classes in
    # test_spectrum_witness_and_classes_match_reference.
    spec, ps = case
    assert best_distinct_witness(spec, ps) == ref_witness(spec, ps.points)
