"""Planar normalization and the two-quadrant-cone (k+1)^2 certificate.

Any symmetric convex polygon can be mapped by an invertible linear map to
a polygon C' squeezed between the cross-polytope and the square, with
every boundary segment inside one closed coordinate quadrant.  The closed
first and second quadrants, with some open boundary rays removed, then
form a two-cone family valid for the gauge of C', which yields the
(k+1)^2 bound for planar k-distance sets.  Written in the input frame,
through the vertices x0, y0 that the map sends to e1, e2, the two cones
certify the input points under the original norm.  The route table at
the end, routes and best_route, is the one place that picks a bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .chains import (ConeConditionReport, HeightCertificate, PolyhedralCone,
                     chain_certificate, check_cone_conditions, parallelotope_cones)
from .cover import general_bound
from .errors import GeometryError, InputError
from .norms import (NormSpec, Vec, cross2, polygon_vertices_2d, polytopal,
                    vec, vneg, vsub)
from .spectrum import PairTable, PointSet

Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def apply_matrix(T: Matrix2, v: Vec) -> Vec:
    return (T[0][0] * v[0] + T[0][1] * v[1],
            T[1][0] * v[0] + T[1][1] * v[1])


def _check_symmetric(verts: list[Vec]) -> None:
    """Vertex i + n/2 must be vertex i negated (central symmetry in cyclic order)."""
    n = len(verts)
    if n % 2 or any(vneg(verts[i + n // 2]) != verts[i] for i in range(n // 2)):
        raise GeometryError("polygon vertices are not centrally symmetric in cyclic order")


def _validate_polygon(verts: list[Vec]) -> None:
    """Symmetric (cyclically: the same as a set under strict convexity),
    strictly convex and counterclockwise, winding once around the origin."""
    if len(verts) < 4:
        raise GeometryError("need at least 4 vertices")
    _check_symmetric(verts)
    if len(set(verts)) != len(verts):
        raise GeometryError("repeated polygon vertex")
    n = len(verts)
    for i in range(n):
        u, v, w = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
        turn = cross2(vsub(v, u), vsub(w, v))
        if turn <= 0:
            raise GeometryError("polygon is not strictly convex counterclockwise")
    # Steps of less than a half turn cross the positive x-axis once per turn.
    upper = [(y, x) > (0, 0) for x, y in verts]
    if (any(cross2(verts[i - 1], verts[i]) <= 0 for i in range(n))
            or sum(up and not upper[i - 1] for i, up in enumerate(upper)) != 1):
        raise GeometryError("polygon does not wind exactly once around the origin")


def polygon_gauge(verts: list[Vec]) -> NormSpec:
    """Facet-functional gauge whose unit ball is the given symmetric polygon:
    edge i + n/2 is edge i negated, so the functionals of the first n/2
    edges give the gauge."""
    _check_symmetric(verts)
    n = len(verts)
    funcs = []
    for i in range(n // 2):
        u, v = verts[i], verts[(i + 1) % n]
        det = cross2(u, v)
        if det == 0:
            raise GeometryError("polygon edge collinear with the origin")
        # a . u = a . v = 1 on the supporting line of the edge.
        funcs.append(((v[1] - u[1]) / det, (u[0] - v[0]) / det))
    return polytopal(funcs)


def _quadrant_pair(verts: list[Vec], x0: Vec, y0: Vec) -> tuple[PolyhedralCone, PolyhedralCone]:
    """The quadrant pair of a polygon's vertex basis x0, y0 (cross(x0, y0) > 0),
    each cone with its removed rays in edge order: p1 = {cross(x, y0) >= 0,
    cross(x0, x) >= 0}, p2 = {cross(x, y0) <= 0, cross(x0, x) >= 0}.  Those
    two values are det T x for T x0 = e1, T y0 = e2, so x lies in p1 (p2)
    iff T x lies in the first (second) closed quadrant.  A cone loses the
    open ray +-x0 (y0) where an edge lying in it runs parallel to x0 (y0);
    none leaves both cones, which would need an edge on a line through 0.
    An edge whose ends have coordinates of opposite signs lies in no closed
    quadrant, a GeometryError."""
    coords = [(cross2(v, y0), cross2(x0, v)) for v in verts]
    n = len(verts)
    removed: dict[tuple[str, Vec], bool] = {}
    for a in range(n):
        u, v = coords[a], coords[(a + 1) % n]
        if u[0] * v[0] < 0 or u[1] * v[1] < 0:
            raise GeometryError(f"boundary segment {verts[a]}-{verts[(a + 1) % n]} lies "
                                "in no closed quadrant of the basis")
        if min(u[1], v[1]) < 0:                     # in the lower half: no upper cone
            continue
        for label, x_ray, inside in (("p1", x0, min(u[0], v[0]) >= 0),
                                     ("p2", vneg(x0), max(u[0], v[0]) <= 0)):
            if inside and u[1] == v[1]:             # parallel to x0
                removed[(label, x_ray)] = True
            if inside and u[0] == v[0]:             # parallel to y0
                removed[(label, y0)] = True
    return tuple(PolyhedralCone((vec(sign * y0[1], -sign * y0[0]), vec(-x0[1], x0[0])),
                                tuple(r for c, r in removed if c == label))
                 for sign, label in ((1, "p1"), (-1, "p2")))


def removed_rays(cones: tuple[PolyhedralCone, PolyhedralCone]) -> list[tuple[str, Vec]]:
    """A quadrant pair's removed rays as (label, ray): p1's, then p2's."""
    return [(label, r) for label, cone in zip(("p1", "p2"), cones) for r in cone.excluded_rays]


@dataclass(frozen=True)
class Normalization2D:
    """Result of the max-area normalization of a symmetric polygon."""

    x0: Vec
    y0: Vec
    matrix: Matrix2              # T with T x0 = e1, T y0 = e2
    vertices: tuple[Vec, ...]    # image polygon C', counterclockwise
    cones: tuple[PolyhedralCone, PolyhedralCone]    # the quadrant pair of x0, y0
    polygon: tuple[Vec, ...]     # the input polygon, counterclockwise


def max_area_normalization(polygon) -> Normalization2D:
    """Map a symmetric convex polygon onto a normalized polygon C'.

    Chooses boundary points x0, y0 among the vertices maximizing the area
    |cross(x0, y0)| (ties: lexicographically smallest vertex index pair,
    which has cross(x0, y0) > 0), and applies the inverse
    of the matrix with columns x0, y0.  The three normalization invariants
    (B1 inside C', C' inside the square, single-quadrant boundary segments)
    are verified exactly and failures raise GeometryError; the last one
    while building the quadrant pair of x0, y0 on the input polygon.
    """
    verts = [vec(*v) for v in polygon]
    _validate_polygon(verts)
    best = None  # (|area|, i, j)
    for i, u in enumerate(verts):
        for j in range(i + 1, len(verts)):
            area = abs(cross2(u, verts[j]))
            if best is None or area > best[0]:
                best = (area, i, j)
    _, i, j = best                  # the area is positive: validation winds once
    # cross(x0, y0) > 0: a counterclockwise symmetric cycle's first best pair has 0 < j - i < n/2.
    x0, y0 = verts[i], verts[j]
    det = cross2(x0, y0)
    T: Matrix2 = ((y0[1] / det, -y0[0] / det),
                  (-x0[1] / det, x0[0] / det))
    image = tuple(apply_matrix(T, v) for v in verts)

    for p in image:
        if abs(p[0]) > 1 or abs(p[1]) > 1:
            raise GeometryError(f"normalized vertex {p} escapes the unit square")
    # C' is convex (validated), so it holds B1 when it has +-e1, +-e2 as vertices.
    if not {vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)} <= set(image):
        raise GeometryError("cross-polytope vertex outside normalized polygon")
    return Normalization2D(x0, y0, T, image, _quadrant_pair(verts, x0, y0), tuple(verts))


@dataclass(frozen=True)
class QuadrantCones:
    """First- and second-quadrant cones with their removed boundary rays."""

    p1: PolyhedralCone
    p2: PolyhedralCone
    condition_report: ConeConditionReport


def quadrant_cones(vertices) -> QuadrantCones:
    """Build the two-cone family for a normalized polygon C'.

    For every axis-parallel boundary segment of C' lying in the first
    (resp. second) closed quadrant, the corresponding open axis ray is
    removed from that cone.  Conditions (coverage and the equal-norm
    condition) are then verified on all vertex-pair differences under the
    gauge of C' and returned in the report.
    """
    verts = [vec(*v) for v in vertices]
    _validate_polygon(verts)
    cones = _quadrant_pair(verts, vec(1, 0), vec(0, 1))
    report = check_cone_conditions(cones, polygon_gauge(verts),
                                   [vsub(v, u) for u in verts for v in verts if u != v])
    return QuadrantCones(*cones, report)


@functools.cache       # once per norm, as parallelotope_cones
def planar_normalization(spec: NormSpec) -> Normalization2D:
    """The max-area normalization of a planar exact norm's unit polygon."""
    return max_area_normalization(polygon_vertices_2d(spec))


@functools.cache       # once per norm, as planar_normalization
def planar_conditions(spec: NormSpec) -> ConeConditionReport:
    """The planar cones' conditions on the unit polygon's vertex differences.
    One report per norm, shared by every caller: read it, do not change it."""
    nrm = planar_normalization(spec)
    return check_cone_conditions(nrm.cones, spec, [vsub(v, u) for u in nrm.polygon
                                                   for v in nrm.polygon if u != v])


def planar_cones(spec: NormSpec) -> tuple[PolyhedralCone, PolyhedralCone]:
    """The two cones of the planar certificate in the input frame: the
    quadrant pair of the normalization's basis x0, y0 on the unit polygon.
    x lies in one iff T x lies in the matching cone of quadrant_cones(C'),
    and the removed rays are T^-1 r = r_1 x0 + r_2 y0."""
    return planar_normalization(spec).cones


def planar_bound_certificate(spec: NormSpec, ps: PointSet) -> HeightCertificate:
    """The chain certificate of ps under the planar cones, claimed (k+1)^2.

    The cones are written in the input frame, so the certificate is taken
    on the point set's own table; its heights are those of the image T(S)
    under the gauge of C', keyed by S.
    """
    if spec.dim != 2 or ps.dim != 2 or not spec.exact:
        raise InputError("planar bound requires a 2-dimensional exact norm and point set")
    cones = planar_cones(spec)
    return chain_certificate(PairTable(spec, ps), cones)


@dataclass(frozen=True)
class Route:
    """A proved bound: (k+1)^m from m cones, or the general bound when family is None."""

    name: str
    family: tuple[PolyhedralCone, ...] | None = None

    def claim(self, k: int, d: int) -> int:
        return general_bound(k, d) if self.family is None else (k + 1) ** len(self.family)


def routes(spec: NormSpec) -> list[Route]:
    """A norm's routes in tie order: the planar cones on exact planar norms but linf,
    parallelograms too; the cube's on parallelotope gauges; the general bound always."""
    found = []
    if spec.dim == 2 and spec.exact and spec.kind != "linf":
        found.append(Route("planar-two-cones", planar_cones(spec)))
    family = parallelotope_cones(spec)
    if family is not None:
        found.append(Route("parallelotope-chain", family))
    return found + [Route("general-minkowski")]


def best_route(found: list[Route], k: int, d: int) -> Route:
    """The route with the least claim at k in dimension d; the first on a tie."""
    return min(found, key=lambda route: route.claim(k, d))
