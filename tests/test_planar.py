import random

import pytest

from kdist import (GeometryError, InputError, PointSet, hexagon_gauge, l1, linf,
                   max_area_normalization, norm_eval, planar_bound_certificate,
                   polygon_gauge, quadrant_cones, vec)
from kdist.gen import random_symmetric_polygon
from kdist.planar import apply_matrix, polygon_contains
from kdist.search import extremal_grid

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
        assert polygon_contains(list(nrm.vertices), e)


def test_degenerate_polygon_rejected():
    with pytest.raises(GeometryError):
        max_area_normalization([vec(1, 0), vec(2, 0), vec(-1, 0), vec(-2, 0)])


def _check_normalization_invariants(nrm):
    verts = list(nrm.vertices)
    for v in verts:
        assert abs(v[0]) <= 1 and abs(v[1]) <= 1
    for e in DIAMOND:
        assert polygon_contains(verts, e)
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


def test_planar_certificate_grid():
    grid = extremal_grid(2, 2)
    cert = planar_bound_certificate(linf(2), grid, 2)
    assert cert.ok and cert.claimed == 9 and len(grid) == 9


def test_planar_certificate_two_points():
    ps = PointSet.of([vec(0, 0), vec(4, 1)])
    cert = planar_bound_certificate(linf(2), ps, 1)
    assert cert.ok and cert.claimed == 4


def test_planar_certificate_hexagon_equilateral():
    tri = PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1)])
    cert = planar_bound_certificate(hexagon_gauge(), tri, 1)
    assert cert.ok and cert.claimed == 4
    assert cert.chain.injective


def test_planar_certificate_l1():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)])
    k = 2  # distances 1 and 2 under l1
    cert = planar_bound_certificate(l1(2), ps, k)
    assert cert.ok and cert.claimed == 9


@pytest.mark.parametrize("spec, pts, k", [
    (hexagon_gauge(), [vec(0, 0), vec(1, 0), vec(1, 1)], 2),       # k is 1
    (linf(2), [vec(0, 0, 0), vec(1, 0, 0)], 1),                    # 3-dimensional points
    (linf(2), [vec(0), vec(1)], 1),                                # 1-dimensional points
])
def test_planar_certificate_rejects_wrong_k_or_dimension(spec, pts, k):
    with pytest.raises(InputError):
        planar_bound_certificate(spec, PointSet.of(pts), k)
