"""Greedy separated sets on the unit sphere and the generic cone cover.

A maximal set C of unit vectors with pairwise ||c_i - c_j||, ||c_i + c_j||
>= 1/5 has at most (11^d - 9^d)/2 elements (a packing argument), covers
the sphere by the 1/5-neighbourhoods of +-C, and generates acute cones in
which every unit vector stays within 1/2 of the center: proved per cone
from its generators' distance to the center, not sampled.  Together these
give the general bound min(2^{kd}, (k+1)^{(11^d-9^d)/2}).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from fractions import Fraction
from math import inf

from .errors import CertificateError, GeometryError, InputError
from .norms import (Gauge, NormSpec, Vec, gauge, norm_eval, polygon_vertices_2d,
                    vadd, vscale, vsub)

HALF_WIDTH = Fraction(1, 2)


def separated_set_capacity(d: int) -> int:
    """Packing cap (11^d - 9^d)/2 on the size of a 1/5-separated set."""
    return (11 ** d - 9 ** d) // 2


def general_bound(k: int, d: int) -> int:
    """min(2^{kd}, (k+1)^{(11^d-9^d)/2}) in exact integer arithmetic."""
    if k < 1 or d < 1:
        raise InputError("general_bound requires k >= 1 and d >= 1")
    return min(2 ** (k * d), (k + 1) ** separated_set_capacity(d))


# ---------------------------------------------------------------------------
# sphere sampling

def sphere_samples(spec: NormSpec, count: int, seed: int = 0) -> list[Vec]:
    """Unit vectors of the norm's sphere.

    2D exact kinds: rational subdivision of the unit polygon's edges (exact
    unit vectors).  Higher dimensions: random rational directions scaled by
    the exact reciprocal norm.  lp: normalized random float directions.
    """
    if count < 1:
        raise InputError("need at least one sample")
    rng = random.Random(seed)
    if spec.exact and spec.dim == 2:
        verts = polygon_vertices_2d(spec)
        m = len(verts)
        per_edge = max(1, -(-count // m))
        out = []
        for i in range(m):
            u, v = verts[i], verts[(i + 1) % m]
            step = vsub(v, u)
            for j in range(per_edge):
                out.append(vadd(u, vscale(Fraction(j, per_edge), step)))
        return out[:max(count, m)]
    if gauge(spec).rank() < spec.dim:
        raise GeometryError("a seminorm: its unit sphere is unbounded in R^d")
    draw = ((lambda: Fraction(rng.randint(-64, 64), 64)) if spec.exact
            else (lambda: rng.gauss(0.0, 1.0)))
    out = []
    while len(out) < count:
        v = tuple(draw() for _ in range(spec.dim))
        n = norm_eval(spec, v)
        if n:
            out.append(tuple(a / n for a in v))
    return out


# ---------------------------------------------------------------------------
# greedy separated set

@dataclass(frozen=True)
class SeparatedSet:
    """Unit vectors pairwise 1/5-separated in both +- combinations."""

    centers: tuple[Vec, ...]


# Every threshold is decided on gauge values: with c = (Y_c, q_c) and
# x = (Y_x, q_x), ||c - x|| compared with 1/5 is
# 5 * value(q_x * Y_c - q_c * Y_x) compared with q_c * q_x * scale.  On
# IntGauge ints that is exact; LpGauge runs the same tests in floats.

def _distances(g: Gauge, c, xs):
    """||c - x|| for each split x of xs, lazily, as the pair
    (value(q_x * Y_c - q_c * Y_x), q_c * q_x * scale)."""
    yc, qc = c
    value, den = g.value, qc * g.scale
    for yx, qx in xs:
        yield value([qx * a - qc * b for a, b in zip(yc, yx)]), qx * den


def _plus_minus(splits) -> list:
    """Each split followed by its negative's, (-Y, q): ||c + x|| is ||c - (-x)||."""
    return [s for y, q in splits for s in ((y, q), (tuple([-a for a in y]), q))]


def _unit_splits(g: Gauge, vectors, what: str) -> list:
    """``g.split`` of each vector, which must be a unit vector."""
    out = []
    for v in vectors:
        y, q = g.split(v)
        unit = q * g.scale
        if abs(g.value(y) - unit) > g.tol * unit:
            raise InputError(f"{what} {v} is not a unit vector")
        out.append((y, q))
    return out


def _check_separated(spec: NormSpec, centers, message: str) -> None:
    """Raise CertificateError unless the centers are pairwise 1/5-separated."""
    g = gauge(spec)
    pts = _plus_minus(g.split(c) for c in centers)
    for i in range(0, len(pts), 2):
        if any(5 * v < den for v, den in _distances(g, pts[i], pts[i + 2:])):
            raise CertificateError(message)


def greedy_separated_set(spec: NormSpec, samples) -> SeparatedSet:
    """Greedy pass in input order keeping every sample far from all kept ones.

    The result is maximal with respect to the sample set.  Each separation
    test is decided on gauge values (exactly on integers for the exact
    kinds, in floats for lp), and the kept centers are re-checked afterwards.
    """
    samples = list(samples)
    if not samples:
        raise InputError("samples must be nonempty")
    g = gauge(spec)
    kept: list[Vec] = []
    kept_splits: list = []          # each kept center and its negative
    for s, xs in zip(samples, _unit_splits(g, samples, "sample")):
        if all(5 * v >= den for v, den in _distances(g, xs, kept_splits)):
            kept.append(s)
            kept_splits += _plus_minus([xs])
    _check_separated(spec, kept, "greedy output violates separation")
    return SeparatedSet(tuple(kept))


# ---------------------------------------------------------------------------
# covering and generated cones

@dataclass
class CoverReport:
    """Assignment of test vectors to separated-set indices."""

    assignments: list  # index or None per test vector
    unassigned: list[Vec] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unassigned


def cover_assignment(sep: SeparatedSet, spec: NormSpec, test_vectors) -> CoverReport:
    """Assign each unit test vector an index i with ||c_i -+ x|| <= 1/5.

    The non-strict threshold follows the maximality clause: a vector at
    distance exactly 1/5 from every center could not extend the set.
    """
    test_vectors = list(test_vectors)
    g = gauge(spec)
    centers = _plus_minus(g.split(c) for c in sep.centers)
    assignments = [next((i // 2 for i, (v, den) in enumerate(_distances(g, x, centers))
                         if 5 * v <= den), None)
                   for x in _unit_splits(g, test_vectors, "test vector")]
    unassigned = [v for v, i in zip(test_vectors, assignments) if i is None]
    return CoverReport(assignments, unassigned)


@dataclass(frozen=True)
class GeneratedCone:
    """Cone generated by the unit vectors within 1/5 of a center."""

    center: Vec
    generators: tuple[Vec, ...]


def generated_cones(sep: SeparatedSet, spec: NormSpec, samples) -> list[GeneratedCone]:
    """The cones of the construction: generators are samples strictly within 1/5."""
    g = gauge(spec)
    samples = list(samples)
    xs = [g.split(x) for x in samples]
    cones = []
    for c in sep.centers:
        near = [5 * v < den for v, den in _distances(g, g.split(c), xs)]
        cones.append(GeneratedCone(c, tuple(compress(samples, near)) or (c,)))
    return cones


@dataclass
class HalfwidthReport:
    """Proved bounds on the unit vectors of a generated cone.

    ``radius`` is r = max_i ||x_i - c|| over the generators.  Every unit
    vector of the cone lies within ``max_distance`` = 2r of the center, and
    its coefficient sum is at most ``max_coeff_sum`` = 1/(1 - r) (infinite
    when r >= 1).  ``failures`` lists the generators at distance >= 1/5
    from c: the lemma certifies only cones with r < 1/5.
    """

    radius: object
    max_distance: object
    max_coeff_sum: object
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def cone_halfwidth_check(cone: GeneratedCone, spec: NormSpec,
                         trials: int = 1000, seed: int = 0) -> HalfwidthReport:
    """Prove that the cone's unit vectors stay within 1/2 of its unit center c.

    For a conic combination y = sum_i lambda_i x_i with coefficient sum s,
    ||y - s*c|| <= s*r, so ||y|| >= s*(1 - r) and y/||y|| lies within 2r of
    c with coefficient sum s/||y|| <= 1/(1 - r).  With r < 1/5 these are
    below 1/2 and 5/4.  r is exact on the exact kinds and a float for lp.
    ``trials`` and ``seed`` are accepted and ignored: nothing is sampled.
    """
    if not cone.generators:
        raise InputError("cone has no generators")
    g = gauge(spec)
    [cs] = _unit_splits(g, [cone.center], "cone center")
    # The same ||c - x|| as generated_cones, so the strict 1/5 threshold agrees.
    dists = list(_distances(g, cs, map(g.split, cone.generators)))
    far, failures = (0, 1), []
    for dist in dists:
        if dist[0] * far[1] > far[0] * dist[1]:
            far = dist
    if 5 * far[0] >= far[1]:                # else no generator is that far
        failures = [{"generator": x, "distance": g.quotient(*d)}
                    for x, d in zip(cone.generators, dists) if 5 * d[0] >= d[1]]
    r = g.quotient(*far)
    return HalfwidthReport(r, 2 * r, 1 / (1 - r) if r < 1 else inf, failures)


def packing_bound_check(sep: SeparatedSet, spec: NormSpec) -> bool:
    """Verify m <= (11^d - 9^d)/2 and the pairwise separation on C itself.

    Separation >= 1/5 makes the radius-1/10 balls at +-c_i interior-disjoint,
    which is what the packing argument packs into B(0, 11/10).
    """
    m = len(sep.centers)
    if m > separated_set_capacity(spec.dim):
        raise CertificateError(
            f"separated set of size {m} exceeds the packing cap "
            f"{separated_set_capacity(spec.dim)} in dimension {spec.dim}")
    _check_separated(spec, sep.centers, "separated-set invariant violated")
    return True
