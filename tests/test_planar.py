import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdist import (GeometryError, InputError, PointSet, PolyhedralCone, chain_certificate,
                   criteria, hexagon_gauge, l1, linf, lp, max_area_normalization, norm_eval,
                   planar_bound_certificate, polygon_gauge, polygon_vertices_2d, polytopal,
                   quadrant_cones, vec)
from kdist import chains
from kdist.gen import random_lattice_subset, random_symmetric_polygon
from kdist.norms import cross2, vsub
from kdist.planar import Route, apply_matrix, best_route, planar_cones, routes
from kdist.search import extremal_grid
from kdist.spectrum import PairTable


def dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def vscale(q, v):
    return tuple(q * a for a in v)


SQUARE = [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
DIAMOND = [vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)]
HEXAGON = [vec(1, 0), vec(1, 1), vec(0, 1), vec(-1, 0), vec(-1, -1), vec(0, -1)]


def test_square_normalizes_to_diamond():
    nrm = max_area_normalization(SQUARE)
    assert (nrm.x0, nrm.y0) == (vec(1, 1), vec(-1, 1))
    assert list(nrm.vertices) == DIAMOND


def test_diamond_is_fixed():
    nrm = max_area_normalization(DIAMOND)
    assert (nrm.x0, nrm.y0) == (vec(1, 0), vec(0, 1))
    assert nrm.matrix == ((1, 0), (0, 1))
    assert list(nrm.vertices) == DIAMOND


def test_hexagon_normalization_invariants():
    nrm = max_area_normalization(HEXAGON)
    for v in nrm.vertices:
        assert abs(v[0]) <= 1 and abs(v[1]) <= 1
    for e in DIAMOND:
        assert norm_eval(polygon_gauge(list(nrm.vertices)), e) <= 1


def test_degenerate_polygon_rejected():
    with pytest.raises(GeometryError):
        max_area_normalization([vec(1, 0), vec(2, 0), vec(-1, 0), vec(-2, 0)])


def _check_normalization_invariants(nrm):
    verts = list(nrm.vertices)
    for v in verts:
        assert abs(v[0]) <= 1 and abs(v[1]) <= 1
    for e in DIAMOND:
        assert norm_eval(polygon_gauge(verts), e) <= 1
    n = len(verts)
    for i in range(n):
        u, v = verts[i], verts[(i + 1) % n]
        assert any(sx * u[0] >= 0 and sy * u[1] >= 0
                   and sx * v[0] >= 0 and sy * v[1] >= 0
                   for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)))


def test_random_polygons_normalize_exactly():
    rng = random.Random(2024)
    for _ in range(20):
        poly = random_symmetric_polygon(rng)
        nrm = max_area_normalization(poly)
        _check_normalization_invariants(nrm)


def test_the_first_max_area_pair_is_counterclockwise_in_every_rotation():
    # On a strictly convex counterclockwise symmetric cycle the first pair i < j
    # of largest |cross| has 0 < j - i < n/2, so it needs no orientation swap.
    rng = random.Random(33)
    for _ in range(30):
        poly = random_symmetric_polygon(rng, 4, 12)
        n = len(poly)
        for r in range(n):
            verts = poly[r:] + poly[:r]
            areas = {(i, j): abs(cross2(verts[i], verts[j]))
                     for i in range(n) for j in range(i + 1, n)}
            i, j = max(areas, key=areas.get)        # the first pair of the largest area
            x0, y0 = verts[i], verts[j]
            if cross2(x0, y0) < 0:                  # a reversed pair would be swapped
                x0, y0 = y0, x0
            nrm = max_area_normalization(verts)
            assert 0 < j - i < n // 2 and cross2(nrm.x0, nrm.y0) > 0
            assert (nrm.x0, nrm.y0) == (x0, y0)


def test_gauge_covariance():
    rng = random.Random(9)
    poly = random_symmetric_polygon(rng)
    nrm = max_area_normalization(poly)
    before = polygon_gauge(poly)
    after = polygon_gauge(list(nrm.vertices))
    for _ in range(25):
        x = vec(rng.randint(-9, 9), rng.randint(-9, 9))
        assert norm_eval(after, apply_matrix(nrm.matrix, x)) == norm_eval(before, x)


def test_quadrant_cones_diamond_no_removals():
    qc = quadrant_cones(DIAMOND)
    assert qc.removed == ()
    assert qc.condition_report.ok


def test_quadrant_cones_hexagon_removals():
    # The hexagon itself satisfies the normalization invariants; its two
    # axis-parallel first-quadrant boundary segments force both positive
    # axis rays out of the first-quadrant cone.
    qc = quadrant_cones(HEXAGON)
    assert set(qc.removed) == {("p1", vec(1, 0)), ("p1", vec(0, 1))}
    assert qc.condition_report.ok
    assert not qc.p1.contains(vec(1, 0))
    assert not qc.p1.contains(vec(0, 1))
    assert qc.p2.contains(vec(0, 1))


def test_quadrant_cones_reject_square():
    # The square's boundary segments cross quadrants; it must be normalized
    # before cones can be built.
    with pytest.raises(GeometryError):
        quadrant_cones(SQUARE)


def test_removed_ray_preserves_acuteness_and_convexity():
    qc = quadrant_cones(HEXAGON)
    rng = random.Random(31)
    for _ in range(50):
        u = vec(rng.randint(0, 6), rng.randint(0, 6))
        v = vec(rng.randint(0, 6), rng.randint(0, 6))
        if qc.p1.contains(u) and qc.p1.contains(v):
            s = vec(u[0] + v[0], u[1] + v[1])
            assert qc.p1.contains(s)  # convex + homogeneous: closed under +
        if u != (0, 0) and qc.p1.contains(u):
            assert not qc.p1.contains(vec(-u[0], -u[1]))
            assert qc.p1.contains(vec(3 * u[0], 3 * u[1]))


def _claim(spec, k):
    """The claim of the planar route at k, read off its two cones."""
    return Route("planar-two-cones", planar_cones(spec)).claim(k, 2)


def test_planar_certificate_grid():
    grid = extremal_grid(2, 2)
    cert = planar_bound_certificate(linf(2), grid)
    assert cert.ok and cert.k == 2 and _claim(linf(2), cert.k) == 9 and len(grid) == 9


def test_planar_certificate_two_points():
    ps = PointSet.of([vec(0, 0), vec(4, 1)])
    cert = planar_bound_certificate(linf(2), ps)
    assert cert.ok and cert.k == 1 and _claim(linf(2), cert.k) == 4


def test_planar_certificate_hexagon_equilateral():
    tri = PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1)])
    cert = planar_bound_certificate(hexagon_gauge(), tri)
    assert cert.ok and cert.k == 1 and _claim(hexagon_gauge(), cert.k) == 4
    assert cert.injective


def test_planar_certificate_l1():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)])
    cert = planar_bound_certificate(l1(2), ps)
    assert cert.ok and cert.k == 2 and _claim(l1(2), cert.k) == 9    # distances 1 and 2 under l1


@pytest.mark.parametrize("pts", [
    [vec(0, 0, 0), vec(1, 0, 0)],
    [vec(0), vec(1)],
], ids=["3-dimensional-points", "1-dimensional-points"])
def test_planar_certificate_rejects_other_dimensions(pts):
    with pytest.raises(InputError):
        planar_bound_certificate(linf(2), PointSet.of(pts))


def test_planar_bound_criterion_builds_one_table_per_optimum(monkeypatch):
    optima = criteria._planar_optima()         # the searches build tables of their own
    builds = []
    init = PairTable.__init__

    def counting_init(self, spec, ps):
        builds.append(ps)
        init(self, spec, ps)

    monkeypatch.setattr(PairTable, "__init__", counting_init)
    criteria.planar_bound(full=False)
    assert builds == [ps for _, _, ps in optima]


# ---------------------------------------------------------------------------
# the input-frame certificate against the image-frame reference

def _image_frame_certificate(spec, ps):
    """The chain certificate of T(S) under the gauge of C' and the unpulled cones."""
    nrm = max_area_normalization(polygon_vertices_2d(spec))
    qc = quadrant_cones(nrm.vertices)
    image = PointSet(2, tuple(apply_matrix(nrm.matrix, p) for p in ps.points))
    return nrm.matrix, chain_certificate(PairTable(polygon_gauge(list(nrm.vertices)), image),
                                         (qc.p1, qc.p2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), norm=st.sampled_from(("polygon", l1(2), hexagon_gauge())),
       side=st.integers(1, 4), size=st.integers(1, 7))
def test_input_frame_certificate_matches_image_frame(seed, norm, side, size):
    rng = random.Random(seed)
    spec = polygon_gauge(random_symmetric_polygon(rng, 4, 10)) if norm == "polygon" else norm
    ps = random_lattice_subset(rng, 2, side, size)
    T, ref = _image_frame_certificate(spec, ps)
    cert = planar_bound_certificate(spec, ps)
    assert (cert.k, cert.h, cert.bound, cert.injective, len(cert.violations)) == \
        (ref.k, ref.h, ref.bound, ref.injective, len(ref.violations))
    assert set(cert.heights) == set(ps.points)
    assert all(cert.heights[p] == ref.heights[apply_matrix(T, p)] for p in ps.points)


@pytest.mark.parametrize("verts, calls", [
    # 2 cones x 8 distinct differences, and -x for the 3 in neither cone
    # (4 calls: the scan of -x stops at the first cone that holds it).
    (DIAMOND, 20),
    # 2 x 18, and -x for 9 (14 calls).
    (HEXAGON, 50),
])
def test_quadrant_cones_one_membership_test_per_vector_and_cone(monkeypatch, verts, calls):
    """contains runs only in the coverage test; the equal-norm check compares
    facet values through the cone's order."""
    count, checks = [0], []
    contains, equal_norm = PolyhedralCone.contains, chains._equal_norm_violations

    def counting(self, v):
        count[0] += 1
        return contains(self, v)

    def checked(*args):
        before = count[0]
        out = equal_norm(*args)
        checks.append(count[0] - before)
        return out

    monkeypatch.setattr(PolyhedralCone, "contains", counting)
    monkeypatch.setattr(chains, "_equal_norm_violations", checked)
    assert quadrant_cones(verts).condition_report.ok
    assert count[0] == calls
    assert checks == [0, 0]


# ---------------------------------------------------------------------------
# the input-frame cones against the quadrant cones of C' pulled back by T

PARALLELOGRAM = [vec(2, 1), vec(-1, 1), vec(-2, -1), vec(1, -1)]


def _reference_quadrant_cones(verts):
    """The quadrant cones of a normalized polygon C' and their removed axis
    rays, by the axis-parallel edges in each closed upper quadrant: the
    reference construction, in the frame of C'."""
    removed = {"p1": [], "p2": []}
    for u, v in zip(verts, verts[1:] + verts[:1]):
        for label, sx, x_ray in (("p1", 1, vec(1, 0)), ("p2", -1, vec(-1, 0))):
            if min(sx * u[0], sx * v[0], u[1], v[1]) >= 0:
                if u[1] == v[1] and x_ray not in removed[label]:
                    removed[label].append(x_ray)
                if u[0] == v[0] and vec(0, 1) not in removed[label]:
                    removed[label].append(vec(0, 1))
    return [PolyhedralCone((vec(sx, 0), vec(0, 1)), tuple(removed[label]))
            for label, sx in (("p1", 1), ("p2", -1))]


@pytest.mark.parametrize("spec", [hexagon_gauge(), l1(2), polygon_gauge(PARALLELOGRAM)] + [
    polygon_gauge(random_symmetric_polygon(random.Random(seed), 4, 10)) for seed in range(8)])
def test_planar_cones_are_the_quadrant_cones_pulled_back(spec):
    # x lies in an input-frame cone iff T x lies in the reference cone, and
    # the removed rays are T^-1 r = r_1 x0 + r_2 y0 for its rays r, in order.
    nrm = max_area_normalization(polygon_vertices_2d(spec))
    ref = _reference_quadrant_cones(list(nrm.vertices))
    qc = quadrant_cones(nrm.vertices)
    assert [qc.p1, qc.p2] == ref
    inverse = tuple(zip(nrm.x0, nrm.y0))
    rays = [tuple(apply_matrix(inverse, r) for r in c.excluded_rays) for c in ref]
    family = planar_cones(spec)
    assert [c.excluded_rays for c in family] == rays
    rng = random.Random(len(rays[0]) + 3 * len(rays[1]))
    verts = polygon_vertices_2d(spec)
    axes = [vscale(t, v) for v in (nrm.x0, nrm.y0) for t in (1, -1, 3, Fraction(-1, 2))]
    edges = [vscale(t, vsub(v, u)) for u, v in zip(verts, verts[1:] + verts[:1]) for t in (1, -2)]
    randoms = [vec(Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                   Fraction(rng.randint(-20, 20), rng.randint(1, 5))) for _ in range(200)]
    for x in axes + edges + randoms + [vec(0, 0)]:
        tx = apply_matrix(nrm.matrix, x)
        assert [c.contains(x) for c in family] == [c.contains(tx) for c in ref]


# ---------------------------------------------------------------------------
# polygon_gauge: one functional per pair of opposite edges

def _all_edge_functionals(verts):
    n = len(verts)
    return [((v[1] - u[1]) / cross2(u, v), (u[0] - v[0]) / cross2(u, v))
            for u, v in ((verts[i], verts[(i + 1) % n]) for i in range(n))]


@pytest.mark.parametrize("verts", [HEXAGON, DIAMOND, SQUARE] + [
    random_symmetric_polygon(random.Random(seed)) for seed in range(5)])
def test_polygon_gauge_keeps_one_functional_per_opposite_pair(verts):
    rng = random.Random(len(verts))
    spec = polygon_gauge(verts)
    assert len(spec.functionals) == len(verts) // 2
    funcs = _all_edge_functionals(verts)
    for _ in range(30):
        x = vec(Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
        assert norm_eval(spec, x) == max(abs(dot(a, x)) for a in funcs)
    assert all(norm_eval(spec, v) == 1 for v in verts)


@pytest.mark.parametrize("verts", [
    HEXAGON[:3] + [HEXAGON[4], HEXAGON[3], HEXAGON[5]],    # symmetric as a set only
    HEXAGON[:5],                                            # odd length
    [vec(1, 0), vec(0, 1), vec(-1, 0), vec(1, -1)],         # not symmetric
])
def test_polygon_gauge_rejects_a_list_not_symmetric_in_cyclic_order(verts):
    with pytest.raises(GeometryError):
        polygon_gauge(verts)


# The octagon (3, 0), (2, 2), (0, 3), ..., (2, -2) listed in steps of three:
# cyclically symmetric, a left turn at every vertex, no repeat, but three turns.
OCTAGON = [vec(3, 0), vec(2, 2), vec(0, 3), vec(-2, 2),
           vec(-3, 0), vec(-2, -2), vec(0, -3), vec(2, -2)]


@pytest.mark.parametrize("build", [max_area_normalization, quadrant_cones])
def test_polygon_winding_more_than_once_rejected(build):
    build(OCTAGON)                      # in order, it winds once
    with pytest.raises(GeometryError, match="wind exactly once"):
        build([OCTAGON[3 * i % 8] for i in range(8)])


# ---------------------------------------------------------------------------
# the route table

SQUARE_GAUGE = polytopal([(1, 0), (0, 1)])
SKEWED_CUBE = polytopal([(1, 1, 0), (0, 1, 0), (0, 0, 1)])
PLANAR, CUBE, GENERAL = "planar-two-cones", "parallelotope-chain", "general-minkowski"


@pytest.mark.parametrize("spec, k, claims, best", [
    # At k = 1 a chain route ties the general route, listed last, in every dimension.
    (linf(1), 1, {CUBE: 2, GENERAL: 2}, CUBE),
    (linf(2), 1, {CUBE: 4, GENERAL: 4}, CUBE),
    (linf(3), 1, {CUBE: 8, GENERAL: 8}, CUBE),
    (l1(2), 1, {PLANAR: 4, GENERAL: 4}, PLANAR),
    (l1(3), 1, {GENERAL: 8}, GENERAL),
    (hexagon_gauge(), 1, {PLANAR: 4, GENERAL: 4}, PLANAR),
    # A parallelogram has both chain routes: the planar one, listed first, wins the tie.
    (SQUARE_GAUGE, 1, {PLANAR: 4, CUBE: 4, GENERAL: 4}, PLANAR),
    (SKEWED_CUBE, 1, {CUBE: 8, GENERAL: 8}, CUBE),
    (lp(2, 3.0), 1, {GENERAL: 4}, GENERAL),
    (lp(3, 3.0), 1, {GENERAL: 8}, GENERAL),
    # At k = 3 the chain routes win outright, except in d = 1, where (k+1)^C = k+1.
    (linf(1), 3, {CUBE: 4, GENERAL: 4}, CUBE),
    (linf(3), 3, {CUBE: 64, GENERAL: 512}, CUBE),
    (l1(3), 3, {GENERAL: 512}, GENERAL),
    (hexagon_gauge(), 3, {PLANAR: 16, GENERAL: 64}, PLANAR),
    (SQUARE_GAUGE, 3, {PLANAR: 16, CUBE: 16, GENERAL: 64}, PLANAR),
    (lp(2, 3.0), 3, {GENERAL: 64}, GENERAL),
])
def test_route_table_maps_each_kind_to_its_route_and_claim(spec, k, claims, best):
    found = routes(spec)
    assert [(r.name, r.claim(k, spec.dim)) for r in found] == list(claims.items())
    assert best_route(found, k, spec.dim) == found[list(claims).index(best)]


def test_route_families_are_the_norms_cones():
    planar, cube, general = routes(SQUARE_GAUGE)
    assert planar.family == planar_cones(SQUARE_GAUGE)
    assert cube.family == chains.parallelotope_cones(SQUARE_GAUGE)
    assert general.family is None
