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

from .errors import CertificateError, InputError
from .norms import NormSpec, Vec, dot, is_zero, norm_eval, vec_to_json, vsub
from .spectrum import PointSet


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
        if is_zero(v):
            return True
        return max(abs(a) for a in v) == v[self.axis]


@dataclass(frozen=True)
class PolyhedralCone:
    """Intersection of halfspaces c.x >= 0, minus optional open boundary rays.

    Each excluded ray is a direction r; the open ray {t r : t > 0} is removed
    from the closed cone (the origin always remains a member).
    """

    facets: tuple[Vec, ...]
    excluded_rays: tuple[Vec, ...] = ()

    def contains(self, v: Vec) -> bool:
        if is_zero(v):
            return True
        if any(dot(c, v) < 0 for c in self.facets):
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
    on these differences) raises CertificateError.
    """
    pts = sorted(ps.points)
    below = {x: [y for y in pts if y != x and cone.contains(vsub(x, y))] for x in pts}
    height: dict[Vec, int] = {}
    in_progress: set[Vec] = set()

    def visit(x: Vec) -> int:
        if x in height:
            return height[x]
        if x in in_progress:
            raise CertificateError(f"cycle in cone order at {x}; cone is not acute")
        in_progress.add(x)
        h = 0
        for y in below[x]:
            h = max(h, 1 + visit(y))
        in_progress.discard(x)
        height[x] = h
        return h

    for x in pts:
        visit(x)
    return height


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
    v - u lies in P_i.
    """
    vectors = list(dict.fromkeys(v for v in vectors if not is_zero(v)))
    if not vectors:
        raise InputError("vectors must be nonempty")
    report = ConeConditionReport()
    for v in vectors:
        neg = tuple(-a for a in v)
        if not any(c.contains(v) or c.contains(neg) for c in family):
            report.uncovered.append(v)
    for idx, cone in enumerate(family):
        members = [v for v in vectors if cone.contains(v)]
        by_norm: dict = {}
        for v in members:
            by_norm.setdefault(norm_eval(spec, v), []).append(v)
        for group in by_norm.values():
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    d = vsub(u, v)
                    if cone.contains(d) or cone.contains(tuple(-a for a in d)):
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
    pts = sorted(ps.points)
    diffs = {}
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            diffs[vsub(y, x)] = (x, y)
    if diffs:
        report = check_cone_conditions(family, spec, list(diffs))
        if report.uncovered:
            x, y = diffs[report.uncovered[0]]
            raise CertificateError(
                f"no cone of the family covers the difference of {x} and {y}")
        violations = report.equal_norm_violations
    else:
        violations = []

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
    many distinct distances).
    """
    pts = sorted(ps.points)
    per_cone = [cone_heights(ps, cone) for cone in family]
    # The highest head; ties go to the smallest point, then the first cone.
    _, x, idx = min((-hc[x], x, idx) for idx, hc in enumerate(per_cone) for x in pts)
    cone, hc = family[idx], per_cone[idx]
    chain = [x]
    while hc[chain[-1]] > 0:
        cur = chain[-1]
        succ = min(y for y in pts
                   if y != cur and cone.contains(vsub(cur, y))
                   and hc[y] == hc[cur] - 1)
        chain.append(succ)
    dists = [norm_eval(spec, vsub(chain[0], y)) for y in chain[1:]]
    if len(set(dists)) != len(dists):
        raise CertificateError(
            "distances along the longest chain are not distinct; "
            "equal-norm cone condition fails on S")
    return chain, dists
