import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdist import (CertificateError, InputError, PointSet, chain_certificate,
                   check_cone_conditions, l1, linf, linf_cone_family, lp, norm_eval,
                   parallelotope_cones, polytopal, vec)
from kdist import chains
from kdist.chains import HeightCertificate, PolyhedralCone, cone_heights
from kdist.gen import random_lattice_subset
from kdist.norms import vadd, vneg, vsub
from kdist.search import extremal_grid
from kdist.spectrum import PairTable


def dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def vscale(q, v):
    return tuple(q * a for a in v)


GRID33 = extremal_grid(2, 2)


def test_linf_cone_membership():
    # Cone i of the family is {v : max_j |v_j| = v_i}; in d = 1, {v >= 0}.
    rng = random.Random(0)
    for d in (1, 2, 3):
        family = linf_cone_family(d)
        vectors = [vec(*(rng.randint(-3, 3) for _ in range(d))) for _ in range(300)]
        vectors += [vec(*[0] * d), vec(*[2] * d), vec(*[-2] * d)]
        for v in vectors:
            assert [c.contains(v) for c in family] == \
                [max(map(abs, v)) == v[i] for i in range(d)]


def test_polyhedral_cone_excluded_ray():
    q1 = PolyhedralCone(facets=(vec(1, 0), vec(0, 1)),
                        excluded_rays=(vec(1, 0),))
    assert q1.contains(vec(1, 1))
    assert q1.contains(vec(0, 0))
    assert not q1.contains(vec(2, 0))  # on the removed open ray
    assert q1.contains(vec(0, 3))
    assert not q1.contains(vec(-1, 1))


def _chain_length_brute(points, cone, x):
    # Exponential enumeration of descending chains; no memoization.
    best = 0
    for y in points:
        if y != x and cone.contains(vsub(x, y)):
            best = max(best, 1 + _chain_length_brute(points, cone, y))
    return best


@pytest.mark.parametrize("d,m", [(1, 3), (2, 3), (3, 2)])
def test_heights_match_brute_force_on_grids(d, m):
    pts = [vec(*c) for c in product(range(m + 1), repeat=d)]
    ps = PointSet(d, tuple(pts))
    for axis, cone in enumerate(linf_cone_family(d)):
        heights = cone_heights(ps, cone)
        for p in pts:
            assert heights[p] == _chain_length_brute(pts, cone, p) == p[axis]


def _heights(ps):
    """Height vector of every point under the linf coordinate cones."""
    return chain_certificate(PairTable(linf(ps.dim), ps), linf_cone_family(ps.dim)).heights


def test_height_vector_examples():
    heights = _heights(PointSet.of([vec(0, 0), vec(3, 1)]))
    assert heights[vec(3, 1)] == (1, 0)
    assert heights[vec(0, 0)] == (0, 0)
    assert _heights(PointSet.of([vec(4, 5)])) == {vec(4, 5): (0, 0)}


def test_grid_heights_equal_coordinates():
    assert all(hv == p for p, hv in _heights(GRID33).items())


def test_chain_certificate_grid():
    cert = chain_certificate(PairTable(linf(2), GRID33), linf_cone_family(2))
    assert cert.h == 2 and cert.bound == 9 and cert.injective and cert.ok


def test_chain_certificate_two_points():
    ps = PointSet.of([vec(0, 0), vec(1, 1)])
    cert = chain_certificate(PairTable(linf(2), ps), linf_cone_family(2))
    assert cert.h == 1 and cert.bound == 4 and cert.injective


def test_chain_certificate_grid4():
    grid = extremal_grid(3, 2)
    cert = chain_certificate(PairTable(linf(2), grid), linf_cone_family(2))
    assert cert.h == 3 and cert.bound == 16


def test_cone_conditions_linf():
    rng = random.Random(1)
    vectors = [vec(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(100)]
    vectors = [v for v in vectors if v != (0, 0)] + [vec(2, 1), vec(2, -1)]
    report = check_cone_conditions(linf_cone_family(2), linf(2), vectors)
    assert report.ok


def test_cone_conditions_coverage_violation():
    family = linf_cone_family(2)[:1]  # first coordinate cone alone
    report = check_cone_conditions(family, linf(2), [vec(0, 1)])
    assert report.uncovered == [vec(0, 1)]


def test_cone_conditions_equal_norm_violation():
    # A blunt cone containing equal-norm comparable vectors.
    halfplane = PolyhedralCone(facets=(vec(1, 0),))
    report = check_cone_conditions((halfplane,), linf(2),
                                   [vec(2, 1), vec(2, -1), vec(0, 2)])
    assert report.equal_norm_violations


def test_lp_cone_conditions_decide_membership_on_exact_rows():
    # v's facet sum over (1, 1, 1) is 0.1 + 0.3 - 0.4 = 0.0 in floats, but
    # exactly -2^-55: v lies outside the cone, and so does -v (its x0 < 0).
    cone = PolyhedralCone(facets=(vec(1, 1, 1), vec(1, 0, 0)))
    v = (0.1, 0.3, -0.4)
    assert check_cone_conditions((cone,), lp(3, 2.0), [v]).uncovered == [v]


CLOSED_QUADRANTS = (PolyhedralCone(facets=(vec(1, 0), vec(0, 1))),
                    PolyhedralCone(facets=(vec(-1, 0), vec(0, 1))))


def test_equal_norm_check_sees_both_signs_of_each_difference():
    # (-1, 0) - (0, 0) = (-1, 0) lies in the second quadrant; the pair's other
    # difference, (1, 0), does not.  The check must see both.
    ps = PointSet.of([vec(-1, 0), vec(-1, 1), vec(0, 0)])
    cert = chain_certificate(PairTable(linf(2), ps), CLOSED_QUADRANTS)
    assert cert.violations == [(1, vec(-1, 0), vec(-1, 1)), (1, vec(0, 1), vec(-1, 1))]
    assert not cert.ok and cert.h == 2


@pytest.mark.parametrize("pts", [[vec(0, 0), vec(1, 0), vec(3, 1), vec(7, 4)],
                                 [vec(0), vec(1), vec(3)]])
def test_one_membership_test_per_ordered_pair_and_cone(monkeypatch, pts):
    # Each cone's order is built once per certificate, as bitmasks from
    # facet values taken once per point: no per-pair membership test.  All
    # differences have distinct norms, so the equal-norm check builds no
    # order either.
    ordered, tests = [], [0]
    order, contains = chains._order_masks, PolyhedralCone.contains

    def counting_order(cone, ints, vals):
        ordered.append(cone)
        return order(cone, ints, vals)

    def counting_contains(self, v):
        tests[0] += 1
        return contains(self, v)

    monkeypatch.setattr(chains, "_order_masks", counting_order)
    monkeypatch.setattr(PolyhedralCone, "contains", counting_contains)
    family = linf_cone_family(len(pts[0]))
    cert = chain_certificate(PairTable(linf(len(pts[0])), PointSet.of(pts)), family)
    assert ordered == list(family) and tests == [0]
    assert cert.ok


def test_certificate_with_a_height_above_k_is_not_ok():
    table = PairTable(linf(1), PointSet.of([vec(0), vec(1), vec(2)]))
    cert = HeightCertificate(table, [(0,), (1,), (2,)], h=2, bound=3, injective=True, k=1)
    assert cert.heights == {vec(0): (0,), vec(1): (1,), vec(2): (2,)}
    assert not cert.violations and not cert.ok
    assert replace(cert, k=2).ok


def test_certificates_compare_their_points_and_cache_their_heights():
    def cert(xs):
        table = PairTable(linf(1), PointSet.of([vec(x) for x in xs]))
        return HeightCertificate(table, [(0,), (1,)], h=1, bound=2, injective=True, k=1)

    a = cert([0, 1])
    assert a == cert([0, 1]) and a != cert([0, 2]) and a != cert([0, Fraction(1, 2)])
    assert a.heights is a.heights


def _masks(below):
    """An order given as lists of the points below each point, as the
    (below, above) bitmasks of chains._heights."""
    above = [0] * len(below)
    for x, ys in enumerate(below):
        for y in ys:
            above[y] |= 1 << x
    return [sum(1 << y for y in ys) for ys in below], above


def test_heights_of_a_chain_deeper_than_the_recursion_limit():
    n = 5000
    up = [[x - 1] if x else [] for x in range(n)]
    down = [[x + 1] if x < n - 1 else [] for x in range(n)]
    assert chains._heights(*_masks(up), str) == list(range(n))
    assert chains._heights(*_masks(down), str) == list(range(n))[::-1]


def test_heights_cycle_names_a_point_on_the_cycle():
    # 0 lies above the cycle 1 > 2 > 3 > 1, and 4 below it.
    below = [[1], [2, 4], [3], [1], []]
    with pytest.raises(CertificateError, match="cycle in cone order at [123];"):
        chains._heights(*_masks(below), str)


def test_certificate_uncovered_difference_raises():
    family = linf_cone_family(2)[:1]
    ps = PointSet.of([vec(0, 0), vec(0, 1)])
    with pytest.raises(CertificateError):
        chain_certificate(PairTable(linf(2), ps), family)


def test_heights_translation_and_scaling_invariant():
    rng = random.Random(3)
    for _ in range(10):
        ps = random_lattice_subset(rng, 2, 4, rng.randint(2, 8))
        base = _heights(ps)
        shift = vec(rng.randint(-5, 5), rng.randint(-5, 5))
        moved = _heights(PointSet.of([vadd(p, shift) for p in ps.points]))
        scaled = _heights(PointSet.of([vscale(3, p) for p in ps.points]))
        for p in ps.points:
            assert moved[vadd(p, shift)] == base[p]
            assert scaled[vscale(3, p)] == base[p]


def test_order_is_strict_partial_order():
    rng = random.Random(5)
    ps = random_lattice_subset(rng, 2, 3, 10)
    for cone in linf_cone_family(2):
        less = {(x, y) for x in ps.points for y in ps.points
                if x != y and cone.contains(vsub(y, x))}
        assert all((x, x) not in less for x in ps.points)
        for (a, b) in less:
            assert (b, a) not in less
            for c in ps.points:
                if (b, c) in less:
                    assert (a, c) in less


# ---------------------------------------------------------------------------
# parallelotope gauges ||A x||_inf

@pytest.mark.parametrize("spec, cones", [
    (linf(1), 1),
    (linf(3), 3),
    (polytopal([(1, 1, 0), (0, 1, 0), (0, 0, 1)]), 3),               # the skewed cube
    (polytopal([(2,)]), 1),
    (polytopal([(1, 1), (-1, -1), (0, "1/2"), (1, 1)]), 2),           # repeats up to sign
    (polytopal([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]), None),  # a cube cut by a slab
    (polytopal([(1, 0, 0), (0, 1, 0), (1, 1, 0)]), None),             # rank 2: a seminorm
    (l1(3), None),
    (lp(2, 3.0), None),
])
def test_parallelotope_recognition(spec, cones):
    family = parallelotope_cones(spec)
    assert (None if family is None else len(family)) == cones


def test_parallelotope_cones_keep_the_first_sign_of_a_repeated_functional():
    # (1, 1) repeats (-1, -1) up to sign, so cone 0 is {x : -x_1 - x_2 >= |x_2 / 2|}.
    p0, p1 = parallelotope_cones(polytopal([(-1, -1), (1, 1), (0, "1/2")]))
    assert p0.contains(vec(-1, 0)) and not p0.contains(vec(1, 0))
    assert p1.contains(vec(-4, 4)) and not p1.contains(vec(4, -4))


def _mat_vec(A, v):
    return tuple(dot(a, v) for a in A)


@st.composite
def invertible_matrices(draw, max_dim=3):
    d = draw(st.integers(1, max_dim))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = st.lists(st.tuples(*[entries] * d), min_size=d, max_size=d)
    A = draw(rows.filter(lambda A: _det(A) != 0))
    return [vec(*a) for a in A]


def _det(A):
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * _det([r[:j] + r[j + 1:] for r in A[1:]])
               for j in range(len(A)))


@settings(max_examples=80, deadline=None)
@given(A=invertible_matrices(), data=st.data())
def test_parallelotope_certificate_is_the_linf_certificate_of_the_image(A, data):
    # The certificate of S under ||A x||_inf is the linf certificate of A S,
    # with its heights keyed by S.
    d = len(A)
    coords = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    pts = data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=8, unique=True))
    ps = PointSet(d, tuple(vec(*p) for p in pts))
    cert = chain_certificate(PairTable(polytopal(A), ps), parallelotope_cones(polytopal(A)))
    image = PointSet(d, tuple(_mat_vec(A, p) for p in ps.points))
    ref = chain_certificate(PairTable(linf(d), image), linf_cone_family(d))
    assert (cert.h, cert.bound, cert.injective) == (ref.h, ref.bound, ref.injective)
    assert cert.heights == {p: ref.heights[_mat_vec(A, p)] for p in ps.points}
    assert cert.violations == ref.violations == []


def _pull_back(facets, A):
    """The facets c A of the cone {x : A x in P}, for the facets c of a cone P:
    the reference construction of the parallelotope cones."""
    cols = tuple(zip(*A))
    return tuple(tuple(dot(c, col) for col in cols) for c in facets)


@settings(max_examples=120, deadline=None)
@given(A=invertible_matrices(max_dim=4), data=st.data())
def test_parallelotope_facets_are_the_linf_facets_pulled_back(A, data):
    # Repeats up to sign and zero functionals, shuffled; A is then the first
    # nonzero functional of each +- pair, in order.
    d = len(A)
    extras = data.draw(st.lists(st.sampled_from(A + [vneg(a) for a in A] + [vec(*[0] * d)]),
                                max_size=4))
    funcs = data.draw(st.permutations(A + extras))
    firsts: dict = {}
    for a in funcs:
        if any(a):
            firsts.setdefault(max(a, vneg(a)), a)
    A = list(firsts.values())
    e = [vec(*(int(i == j) for j in range(d))) for i in range(d)]
    family = parallelotope_cones(polytopal(funcs))
    assert [c.facets for c in family] == [_pull_back(
        [c for j in range(d) if j != i for c in (vsub(e[i], e[j]), vadd(e[i], e[j]))] or [e[i]],
        A) for i in range(d)]


def test_zero_functionals_are_skipped_by_the_parallelotope_test():
    family = parallelotope_cones(polytopal([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert [c.facets for c in family] == [c.facets for c in linf_cone_family(3)]
    assert parallelotope_cones(polytopal([(0, 0), (1, 0)])) is None     # one functional left


# ---------------------------------------------------------------------------
# cone dimension

@pytest.mark.parametrize("facets, rays", [
    ((vec(1, 0), vec(0, 1, 0)), ()),
    ((vec(1, 0),), (vec(1, 0, 0),)),
])
def test_cone_rejects_facets_and_rays_of_different_lengths(facets, rays):
    with pytest.raises(InputError, match="differ in length"):
        PolyhedralCone(facets, rays)


SPACE_PTS = PointSet.of([vec(0, 0, 0), vec(1, 0, 5)])


@pytest.mark.parametrize("run", [
    lambda fam: chain_certificate(PairTable(linf(3), SPACE_PTS), fam),
    lambda fam: cone_heights(SPACE_PTS, fam[0]),
    lambda fam: check_cone_conditions(fam, linf(2), [vec(1, 2, 3), vec(0, 1)]),
    lambda fam: check_cone_conditions(fam, linf(3), [vec(1, 2, 3)]),
    lambda fam: check_cone_conditions(fam, linf(2), [vec(0, 1), vec(1, 2, 3)]),
], ids=["chain_certificate", "cone_heights",
        "check_cone_conditions", "check_cone_conditions-norm", "check_cone_conditions-late"])
def test_cones_of_another_dimension_are_rejected(run):
    with pytest.raises(InputError, match="dimension"):
        run(linf_cone_family(2))


def test_lp_certificate_keys_float_points_on_their_exact_differences():
    # lp orders and keys are taken on the float points' exact rows: keyed in
    # floats, u's difference would collide with another's, and the violation
    # would be lost.  Ordered in floats, (0.7, 0.3) - (0.9, 0.1) would lie in
    # cone 1 {x1 >= |x0|}, as the facet sums 0.3 + 0.7 and 0.1 + 0.9 both
    # round to 1.0; its exact value (-0.20000000000000007, 0.19999999999999998)
    # lies outside, so (0.7, 0.3) has height 0 in cone 1, not 1.
    ps = PointSet.of([(0.1, 0.1), (0.3, 0.3), (0.4, 0.7), (0.7, 0.3), (0.9, 0.1), (1.0, 0.5)])
    cert = chain_certificate(PairTable(lp(2, 2.0), ps), linf_cone_family(2))
    assert {**cert.to_json(), "k": cert.k} == {
        "heights": {"0.1,0.1": [0, 0], "0.3,0.3": [1, 1], "0.4,0.7": [0, 2],
                    "0.7,0.3": [2, 0], "0.9,0.1": [3, 0], "1.0,0.5": [3, 1]},
        "h": 3, "bound": 16, "injective": True, "k": 11,
        "violations": [{"cone": 0,
                        "u": [[1351079888211149, 2251799813685248],
                              [-7205759403792793, 36028797018963968]],
                        "v": [[5404319552844595, 9007199254740992],
                              [-900719925474099, 4503599627370496]]}]}


def test_lp_equal_norm_check_groups_differences_by_distance_class():
    # (0.7, 0.3) - (0.4, 0.4) and (0.9, 0.7) - (0.6, 0.8) have the lp values
    # 0.3162277660168379 and 0.316227766016838: two floats, one class of the
    # table's k.  Grouped by float value, the pair was never compared.
    ps = PointSet.of([(0.4, 0.4), (0.9, 0.7), (1.0, 0.3), (0.8, 0.6), (0.7, 0.3), (0.6, 0.8),
                      (0.9, 0.0)])
    table = PairTable(lp(2, 2.0), ps)
    u, v = table.points.index((0.7, 0.3)), table.points.index((0.9, 0.7))
    assert table.values[u][0] != table.values[v][1] and table.classes[u][0] == table.classes[v][1]
    cert = chain_certificate(table, linf_cone_family(2))
    assert cert.violations == [(0, (0.7 - 0.4, 0.3 - 0.4), (0.9 - 0.6, 0.7 - 0.8))]
    assert cert.injective and cert.h <= cert.k and not cert.ok


def test_lp_cone_conditions_group_norms_by_distance_class():
    # The two differences above on their own: two float norms, one tolerance
    # class, so the cone conditions report the violation the certificate does.
    u, v = (0.7 - 0.4, 0.3 - 0.4), (0.9 - 0.6, 0.7 - 0.8)
    assert (norm_eval(lp(2, 2.0), u), norm_eval(lp(2, 2.0), v)) == (0.3162277660168379,
                                                                    0.316227766016838)
    report = check_cone_conditions(linf_cone_family(2), lp(2, 2.0), [u, v])
    assert report.equal_norm_violations == [(0, u, v)] and report.uncovered == []
