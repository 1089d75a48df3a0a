"""Cone partial orders, chain heights, and (h+1)^m cardinality certificates.

A family of acute cones P_1..P_m whose union with its negatives covers
space induces, on a finite point set S, the orders y <_i x iff x - y in
P_i.  If additionally no two equal-norm vectors inside one cone differ by
a vector of that cone, the height map x -> (h_1(x), ..., h_m(x)) is
injective and |S| <= (h+1)^m where h is the largest height; for a
k-distance set h <= k.  chain_certificate is the one entry point of every
chain route, and HeightCertificate.ok its one verdict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import and_, mul, neg, or_, sub

from .errors import CertificateError, InputError
from .norms import (NormSpec, Vec, clear_denominators, gauge, image_array, is_zero, linf,
                    vadd, vec, vec_to_json, vneg, vsub)
from .spectrum import PairTable, PointSet, _value_classes


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class PolyhedralCone:
    """Intersection of halfspaces c.x >= 0, minus optional open boundary rays.

    Each excluded ray is a direction r; the open ray {t r : t > 0} is removed
    from the closed cone (the origin always remains a member).  Facets and
    rays share one length, the cone's dim (None when it has neither).
    """

    facets: tuple[Vec, ...]
    excluded_rays: tuple[Vec, ...] = ()
    dim: int | None = field(init=False, compare=False)
    # The facets times one common denominator: the same halfspaces.
    _rows: tuple = field(init=False, repr=False, compare=False)
    # The rays likewise, each as (its first nonzero index, the integer ray).
    _rays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(is_zero(r) for r in self.excluded_rays):
            raise InputError("an excluded ray must be nonzero")
        dims = {len(v) for v in (*self.facets, *self.excluded_rays)}
        if len(dims) > 1:
            raise InputError("cone facets and excluded rays differ in length")
        object.__setattr__(self, "dim", dims.pop() if dims else None)
        object.__setattr__(self, "_rows", clear_denominators(self.facets)[0])
        object.__setattr__(self, "_rays", tuple(
            (next(i for i, b in enumerate(r) if b), r)
            for r in clear_denominators(self.excluded_rays)[0]))

    def contains(self, v: Vec) -> bool:
        """True iff v meets every facet and is no t r, t > 0, for an excluded ray
        r: v parallel to r (v_j r_i = v_i r_j) with r's sign at r's first nonzero i."""
        for c in self._rows:
            if sum(map(mul, c, v)) < 0:
                return False
        return not any(v[i] * r[i] > 0 and all(a * r[i] == v[i] * b for a, b in zip(v, r))
                       for i, r in self._rays)


@functools.cache       # once per norm: the rank test and the facets run on Fractions
def parallelotope_cones(spec: NormSpec) -> tuple[PolyhedralCone, ...] | None:
    """The cones of a parallelotope gauge ||x|| = ||A x||_inf, or None if not one.

    A is I for linf; for polytopal, its nonzero functionals (the first of
    each +- pair) when there are d of rank d: a sound test that misses
    dominated extras.  Cone i = {x : a_i.x >= |a_j.x| for j != i} has the
    facets a_i -+ a_j; in d = 1 the facet a_0 alone, {a_0.x >= 0}.
    """
    d = spec.dim
    firsts: dict = {}
    for a in spec.functionals:
        if not is_zero(a):
            firsts.setdefault(max(a, vneg(a)), a)
    A = ([vec(*(int(i == j) for j in range(d))) for i in range(d)] if spec.kind == "linf"
         else list(firsts.values()))
    if spec.kind not in ("linf", "polytopal") or len(A) != d or gauge(spec).rank() != d:
        return None
    return tuple(PolyhedralCone(tuple(
        c for j in range(d) if j != i for c in (vsub(A[i], A[j]), vadd(A[i], A[j]))) or (A[i],))
        for i in range(d))


def linf_cone_family(dim: int) -> tuple[PolyhedralCone, ...]:
    """The l-infinity cones {v : max_j |v_j| = v_i}: the parallelotope cones of A = I."""
    return parallelotope_cones(linf(dim))


# ---------------------------------------------------------------------------
# orders and heights

def _facet_values(cone, ints) -> list[tuple]:
    """Each point's values on the cone's facet rows, taken once per point.
    Points of another dimension than the cone's raise InputError."""
    if cone.dim is not None and any(len(x) != cone.dim for x in ints):
        raise InputError(f"a cone of dimension {cone.dim} on points of another dimension")
    return [tuple([sum(map(mul, r, x)) for r in cone._rows]) for x in ints]


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1                # clear the lowest set bit
    return out


def _order_masks(cone, ints, vals) -> tuple[list[int], list[int]]:
    """The cone's order as bitmasks: bit y of below[x] and bit x of above[y]
    are set iff ints[x] - ints[y] (y != x) lies in the cone, that is iff
    vals[x] >= vals[y] termwise and, per excluded ray r, x - y is no t r,
    t > 0.  Per facet, the points valued at most x's are a prefix of the
    sorted values; per r, the points on each line along r drop in order."""
    n = len(vals)
    bits = [1 << x for x in range(n)]
    below = [((1 << n) - 1) ^ b for b in bits]
    above = below[:]
    for col in zip(*vals):
        up = sorted(range(n), key=col.__getitem__)
        for masks, run in ((below, up), (above, up[::-1])):
            upto, seen = {}, 0          # facet value -> the points valued at most (least) it
            for x in run:
                seen |= bits[x]
                upto[col[x]] = seen     # a tie's last point holds all of them
            masks[:] = map(and_, masks, map(upto.__getitem__, col))
    for i, r in cone._rays:
        lines: dict = {}                # x - y is parallel to r iff their keys agree
        for x, p in enumerate(ints):
            lines.setdefault(tuple([a * r[i] - p[i] * b for a, b in zip(p, r)]), []).append(x)
        for line in lines.values():     # distinct points: no ties along r
            line.sort(key=lambda x: ints[x][i] * r[i])
            for masks, run in ((below, line), (above, line[::-1])):
                for x, passed in zip(run, accumulate(map(bits.__getitem__, run), or_, initial=0)):
                    masks[x] &= ~passed
    return below, above


def _heights(below: list[int], above: list[int], point) -> list[int]:
    """Longest descending chain length from each point of the order, level
    by level: a point, looked at only once a point below it joins a level
    (linear in the pairs), joins the next once all points below it have.
    Points that never join lie on or above a cycle (the cone is not acute
    here), and CertificateError names point(x) for a point x on one."""
    height = [0] * len(below)
    level, done, h = [x for x, m in enumerate(below) if not m], 0, 0
    while level:
        for x in level:
            height[x] = h
            done |= 1 << x
        near = functools.reduce(or_, [above[y] for y in level]) & ~done
        level, h = [x for x in _bits(near) if not below[x] & ~done], h + 1
    if done != (1 << len(below)) - 1:
        x = _bits((1 << len(below)) - 1 & ~done)[0]
        for _ in below:                     # walk down into the cycle
            x = _bits(below[x] & ~done)[0]
        raise CertificateError(f"cycle in cone order at {point(x)}; cone is not acute")
    return height


def cone_heights(ps: PointSet, cone) -> dict[Vec, int]:
    """Longest strictly descending chain length from each point, under cone's order.

    The order is built on the point set's rows, which scaling by den > 0
    leaves unchanged; a cycle raises CertificateError.
    """
    order = sorted(range(len(ps)), key=ps.rows.__getitem__)
    pts, ints = [ps.points[i] for i in order], [ps.rows[i] for i in order]
    return dict(zip(pts, _heights(*_order_masks(cone, ints, _facet_values(cone, ints)),
                                  pts.__getitem__)))


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


def _equal_norm_violations(idx: int, cone, members) -> list[tuple[int, Vec, Vec]]:
    """(idx, u, v) for the labels u before v of two members (label, integer
    vector, facet values, norm) of one norm whose difference lies in the
    cone, either way: the facet values of a difference are the difference
    of the members' facet values."""
    by_norm: dict = {}
    for v, x, f, n in members:
        by_norm.setdefault(n, []).append((v, x, f))
    out = []
    for group in (g for g in by_norm.values() if len(g) > 1):
        labels, ints, vals = zip(*group)
        below, above = _order_masks(cone, ints, vals)
        out += [(idx, labels[i], labels[j]) for i in range(len(labels))
                for j in _bits((below[i] | above[i]) >> (i + 1) << (i + 1))]
    return out


def check_cone_conditions(family, spec: NormSpec, vectors) -> ConeConditionReport:
    """Check conditions (coverage; no equal-norm comparable pairs) on vectors.

    Coverage: every vector lies in some P_i or -P_i.  Equal-norm condition:
    for distinct u, v in a common P_i with ||u|| = ||v||, neither u - v nor
    v - u lies in P_i.  Both are decided on the vectors cleared over one
    common denominator (cone membership and the equal-norm grouping are
    invariant under that scaling), with the norm's gauge (lp's on the vectors
    themselves, grouped by the pair table's tolerance classes).  Cones or
    vectors of another dimension than the norm's raise InputError.
    """
    vectors = list(dict.fromkeys(v for v in vectors if not is_zero(v)))
    if not vectors:
        raise InputError("vectors must be nonempty")
    if {len(v) for v in vectors} | ({c.dim for c in family} - {None}) != {spec.dim}:
        raise InputError("the cones, the vectors and the norm differ in dimension")
    g = gauge(spec)
    scaled = clear_denominators(vectors)[0]
    values = g.reduce(image_array(g, vectors if g.tol else scaled)).tolist()
    if g.tol:                   # lp norms within tol are one norm: one id per class
        ids = {v: i for i, c in enumerate(_value_classes(values, g.tol)) for v in c}
        values = [ids[v] for v in values]
    inside = [[cone.contains(x) for cone in family] for x in scaled]
    report = ConeConditionReport()
    for v, x, hits in zip(vectors, scaled, inside):
        if not any(hits) and not any(c.contains(tuple(map(neg, x))) for c in family):
            report.uncovered.append(v)
    for idx, cone in enumerate(family):
        members = zip(vectors, scaled, _facet_values(cone, scaled), values)
        report.equal_norm_violations += _equal_norm_violations(
            idx, cone, [m for m, hits in zip(members, inside) if hits[idx]])
    return report


# ---------------------------------------------------------------------------
# certificates

@dataclass
class HeightCertificate:
    """Record of the height map on S and the cardinality bound it implies.

    ``vectors[i]`` is the height vector of ``table.points[i]``.  k is the
    number of distances of S.  ok is the height lemma's conclusion on S: the
    height map is injective, no equal-norm violation was found, and h <= k,
    so |S| <= bound <= (k+1)^m for m cones, the route's claim.  Two
    certificates are equal when their points (the table's rows over its
    denominator) and all their records are.
    """

    table: PairTable = field(repr=False, compare=False)
    vectors: list[tuple[int, ...]]
    h: int
    bound: int
    injective: bool
    k: int
    violations: list[tuple[int, Vec, Vec]] = field(default_factory=list)
    rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.rows = (tuple(self.table.ints), self.table.den)

    @functools.cached_property
    def heights(self) -> dict[Vec, tuple[int, ...]]:
        return dict(zip(self.table.points, self.vectors))

    @property
    def ok(self) -> bool:
        return self.injective and not self.violations and self.h <= self.k

    def to_json(self) -> dict:
        return {
            "heights": dict(zip(self.table.texts(), map(list, self.vectors))),
            "h": self.h,
            "bound": self.bound,
            "injective": self.injective,
            "violations": [
                {"cone": i, "u": vec_to_json(u), "v": vec_to_json(v)}
                for i, u, v in self.violations
            ],
        }


def chain_certificate(table: PairTable, family) -> HeightCertificate:
    """Height-vector certificate for the table's points S under the cone family.

    Coverage, the equal-norm check (on all of D(S) in each cone, grouped by
    the table's distance classes) and the heights are all read off the
    cones' orders and the facet values they are built from, taken once per
    point, on the table's rows.
    Raises CertificateError if some difference of S is covered by no cone
    (condition (1) fails on S).  Equal-norm violations found on S are
    recorded in the certificate rather than raised, since they invalidate
    the h <= k guarantee but not the height computation.
    """
    ints, n = table.ints, len(table.ints)
    # Exact values are equal iff their classes are; lp values within tol share a class.
    norms = table.classes if table.gauge.tol else table.values
    facets = [_facet_values(cone, ints) for cone in family]
    orders = [_order_masks(cone, ints, vals) for cone, vals in zip(family, facets)]
    for x in range(n):          # the first y > x that no order relates to x
        missing = ~functools.reduce(or_, (b[x] | a[x] for b, a in orders), 0) >> (x + 1)
        y = x + (missing & -missing).bit_length()
        if y < n:
            raise CertificateError(f"no cone of the family covers the difference of "
                                   f"{table.points[x]} and {table.points[y]}")
    # One int key per point, one-to-one on differences of the rows: a
    # difference's coordinates (within +-span) are its key's digits in base 2 span + 1.
    base = 2 * max((max(c) - min(c) for c in zip(*ints)), default=0) + 1
    keys = [sum(a * base ** j for j, a in enumerate(x)) for x in ints]
    violations = []
    for idx, (cone, vals, (below, _)) in enumerate(zip(family, facets, orders)):
        first: dict = {}        # difference (by key) -> the first pair (x, y) with it
        for x, mask in enumerate(below):
            for y in _bits(mask):
                first.setdefault(keys[x] - keys[y], (x, y))
        members = [((x, y), tuple(map(sub, ints[x], ints[y])), tuple(map(sub, vals[x], vals[y])),
                    norms[x][y]) for x, y in first.values()]
        # The table's points are read, and built if it has none, only for a violation.
        violations += [(i, vsub(table.points[x], table.points[y]),
                        vsub(table.points[z], table.points[w]))
                       for i, (x, y), (z, w) in _equal_norm_violations(idx, cone, members)]

    per_cone = [_heights(below, above, lambda x: table.points[x]) for below, above in orders]
    vectors = list(zip(*per_cone)) if per_cone else [()] * n
    h = max(chain.from_iterable(per_cone), default=0)
    return HeightCertificate(table, vectors, h=h, bound=(h + 1) ** len(family),
                             injective=len(set(vectors)) == n,
                             k=table.spectrum.k, violations=violations)
