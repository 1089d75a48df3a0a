"""Cone partial orders, chain heights, and (h+1)^m cardinality certificates.

A family of acute cones P_1..P_m whose union with its negatives covers
space induces, on a finite point set S, the orders y <_i x iff x - y in
P_i.  If additionally no two equal-norm vectors inside one cone differ by
a vector of that cone, the height map x -> (h_1(x), ..., h_m(x)) is
injective and |S| <= (h+1)^m where h is the largest height; for a
k-distance set h <= k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, neg, sub

from .errors import CertificateError, InputError
from .norms import (NormSpec, Vec, clear_denominators, gauge, is_zero,
                    vec_to_json, vsub)
from .spectrum import PairTable, PointSet


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class LInfCone:
    """The cone {v : max_j |v_j| = v_axis} of the l-infinity order (0-based axis)."""

    axis: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.axis < self.dim:
            raise InputError(f"axis {self.axis} out of range for dimension {self.dim}")

    def contains(self, v: Vec) -> bool:
        if len(v) != self.dim:
            raise InputError("dimension mismatch in cone membership")
        return max(map(abs, v)) == v[self.axis]


@dataclass(frozen=True)
class PolyhedralCone:
    """Intersection of halfspaces c.x >= 0, minus optional open boundary rays.

    Each excluded ray is a direction r; the open ray {t r : t > 0} is removed
    from the closed cone (the origin always remains a member).
    """

    facets: tuple[Vec, ...]
    excluded_rays: tuple[Vec, ...] = ()
    # The facets times one common denominator: the same halfspaces.
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", tuple(clear_denominators(self.facets)[0]))

    def contains(self, v: Vec) -> bool:
        if any(sum(map(mul, c, v)) < 0 for c in self._rows):
            return False
        for r in self.excluded_rays:
            if _same_direction(v, r):
                return False
        return True


def _same_direction(v: Vec, r: Vec) -> bool:
    """True iff v = t r for some t > 0."""
    i = next((i for i, b in enumerate(r) if b != 0), None)
    if i is None:
        return False
    t = Fraction(v[i], r[i])
    return t > 0 and all(a == t * b for a, b in zip(v, r))


def linf_cone_family(dim: int) -> tuple[LInfCone, ...]:
    return tuple(LInfCone(i, dim) for i in range(dim))


# ---------------------------------------------------------------------------
# heights

def cone_heights(ps: PointSet, cone) -> dict[Vec, int]:
    """Longest strictly descending chain length from each point, under cone's order.

    Memoized longest-path on the comparability DAG; a cycle (cone not acute
    on these differences) raises CertificateError.  Membership is tested on
    the differences cleared to ints, which scaling by D > 0 leaves unchanged.
    """
    pts = sorted(ps.points)
    ints, _ = clear_denominators(pts)
    below: list[list[int]] = [[] for _ in pts]     # ascending indices
    for i, x in enumerate(ints):
        for j in range(i + 1, len(pts)):
            d = tuple(map(sub, ints[j], x))
            if cone.contains(d):
                below[j].append(i)
            if cone.contains(tuple(map(neg, d))):
                below[i].append(j)
    height: dict[int, int] = {}
    in_progress: set[int] = set()

    def visit(x: int) -> int:
        if x in height:
            return height[x]
        if x in in_progress:
            raise CertificateError(f"cycle in cone order at {pts[x]}; cone is not acute")
        in_progress.add(x)
        h = 0
        for y in below[x]:
            h = max(h, 1 + visit(y))
        in_progress.discard(x)
        height[x] = h
        return h

    return {x: visit(i) for i, x in enumerate(pts)}


# ---------------------------------------------------------------------------
# cone-family conditions

@dataclass
class ConeConditionReport:
    """Violations of the covering condition and the equal-norm condition."""

    uncovered: list[Vec] = field(default_factory=list)
    equal_norm_violations: list[tuple[int, Vec, Vec]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.uncovered and not self.equal_norm_violations


def check_cone_conditions(family, spec: NormSpec, vectors) -> ConeConditionReport:
    """Check conditions (coverage; no equal-norm comparable pairs) on vectors.

    Coverage: every vector lies in some P_i or -P_i.  Equal-norm condition:
    for distinct u, v in a common P_i with ||u|| = ||v||, neither u - v nor
    v - u lies in P_i.  Both are decided on the vectors cleared over one
    common denominator (cone membership and the equal-norm grouping are
    invariant under that scaling), with the norm's gauge.
    """
    vectors = list(dict.fromkeys(v for v in vectors if not is_zero(v)))
    if not vectors:
        raise InputError("vectors must be nonempty")
    g = gauge(spec)
    scaled, _ = g.clear(vectors)
    return _cone_conditions(family, vectors, scaled, [g.value(g.image(x)) for x in scaled])


def _cone_conditions(family, vectors, scaled, norms) -> ConeConditionReport:
    """check_cone_conditions on distinct nonzero vectors, given their scaled
    copies and the gauge values of those."""
    report = ConeConditionReport()
    for v, x in zip(vectors, scaled):
        neg_x = tuple(map(neg, x))
        if not any(c.contains(x) or c.contains(neg_x) for c in family):
            report.uncovered.append(v)
    for idx, cone in enumerate(family):
        by_norm: dict = {}
        for v, x, n in zip(vectors, scaled, norms):
            if cone.contains(x):
                by_norm.setdefault(n, []).append((v, x))
        for group in by_norm.values():
            for i, (u, xu) in enumerate(group):
                for v, xv in group[i + 1:]:
                    d = tuple(map(sub, xu, xv))
                    if cone.contains(d) or cone.contains(tuple(map(neg, d))):
                        report.equal_norm_violations.append((idx, u, v))
    return report


# ---------------------------------------------------------------------------
# certificates

@dataclass
class HeightCertificate:
    """Record of the height map on S and the cardinality bound it implies."""

    heights: dict[Vec, tuple[int, ...]]
    h: int
    bound: int
    injective: bool
    violations: list[tuple[int, Vec, Vec]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.injective and not self.violations

    def to_json(self) -> dict:
        return {
            "heights": {_point_key(p): list(hv) for p, hv in self.heights.items()},
            "h": self.h,
            "bound": self.bound,
            "injective": self.injective,
            "violations": [
                {"cone": i, "u": vec_to_json(u), "v": vec_to_json(v)}
                for i, u, v in self.violations
            ],
        }


def _point_key(p: Vec) -> str:
    return ",".join(str(a) for a in p)


def chain_certificate(spec: NormSpec, ps: PointSet, family) -> HeightCertificate:
    """Height-vector certificate for ps under the cone family.

    Raises CertificateError if some difference of ps is covered by no cone
    (condition (1) fails on S).  Equal-norm violations found on S are
    recorded in the certificate rather than raised, since they invalidate
    the h <= k guarantee but not the height computation.
    """
    return _chain_certificate(PairTable(spec, ps), ps, family)


def _chain_certificate(table: PairTable, ps: PointSet, family) -> HeightCertificate:
    pts, values = table.points, table.values
    pairs = {}          # integer difference -> the (last) pair (x, y) with it
    norms = {}          # integer difference -> its table value
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            d = table.diff(i, j)
            pairs[d], norms[d] = (x, pts[j]), values[i][j]
    violations = []
    if pairs:
        diffs = list(pairs)
        report = _cone_conditions(family, diffs, diffs, list(norms.values()))
        if report.uncovered:
            x, y = pairs[report.uncovered[0]]
            raise CertificateError(
                f"no cone of the family covers the difference of {x} and {y}")
        # Back from the integer differences to those of the points.
        violations = [(idx, vsub(*pairs[u][::-1]), vsub(*pairs[v][::-1]))
                      for idx, u, v in report.equal_norm_violations]

    per_cone = [cone_heights(ps, cone) for cone in family]
    heights = {x: tuple(hc[x] for hc in per_cone) for x in pts}
    h = max((max(hv) for hv in heights.values()), default=0)
    injective = len(set(heights.values())) == len(pts)
    return HeightCertificate(
        heights=heights,
        h=h,
        bound=(h + 1) ** len(family),
        injective=injective,
        violations=violations,
    )


def chain_distinct_distances(spec: NormSpec, ps: PointSet, family):
    """Longest chain of the family's orders and the distances from its head.

    Returns (chain, distances) where chain = [x_0 > x_1 > ... > x_h] in one
    cone order and distances[j-1] = ||x_0 - x_j||; the distances are
    asserted pairwise distinct (the head of a longest chain witnesses that
    many distinct distances).  The family must cover the differences of ps
    (see chain_certificate).
    """
    table = PairTable(spec, ps)
    pts = table.points
    heights = _chain_certificate(table, ps, family).heights
    hv = [heights[x] for x in pts]
    # The highest head; ties go to the smallest point, then the first cone.
    _, head, idx = min((-h[c], i, c) for i, h in enumerate(hv) for c in range(len(family)))
    cone = family[idx]
    chain = [head]
    while hv[chain[-1]][idx] > 0:
        cur = chain[-1]
        chain.append(min(j for j in range(len(pts))
                         if j != cur and hv[j][idx] == hv[cur][idx] - 1
                         and cone.contains(table.diff(j, cur))))
    dists = [table.values[head][j] for j in chain[1:]]
    if len(set(dists)) != len(dists):
        raise CertificateError(
            "distances along the longest chain are not distinct; "
            "equal-norm cone condition fails on S")
    return [pts[i] for i in chain], [table.distance(v) for v in dists]
