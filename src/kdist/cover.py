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
from itertools import chain
from fractions import Fraction
from math import inf, lcm

import numpy as np

from . import norms
from .errors import CertificateError, GeometryError, InputError
from .norms import (Gauge, IntGauge, NormSpec, Vec, clear_denominators, gauge,
                    image_array, norm_eval, polygon_vertices_2d)

HALF_WIDTH = Fraction(1, 2)

#: The most samples sphere_samples draws: 100 times the CLI default.
MAX_SAMPLES = 10 ** 6


def separated_set_capacity(d: int) -> int:
    """Packing cap (11^d - 9^d)/2 on the size of a 1/5-separated set."""
    return (11 ** d - 9 ** d) // 2


def general_bound(k: int, d: int) -> int:
    """min(2^{kd}, (k+1)^{(11^d-9^d)/2}) in exact integer arithmetic.

    With C = (11^d-9^d)/2 >= kd, (k+1)^C >= 2^C >= 2^{kd}, so the power is
    formed only when C < kd, where it is small."""
    if k < 1 or d < 1:
        raise InputError("general_bound requires k >= 1 and d >= 1")
    cap = separated_set_capacity(d)
    return 2 ** (k * d) if cap >= k * d else min(2 ** (k * d), (k + 1) ** cap)


# ---------------------------------------------------------------------------
# unit vectors and sphere sampling

# Every threshold is decided on gauge values: with c = (Y_c, q_c) and x = (Y_x, q_x),
# ||c - x|| < 1/5 is 5 * value(q_x * Y_c - q_c * Y_x) < q_c * q_x * scale, homogeneous
# in (Y, q), so q need not be least.  sphere_samples draws each sample as an integer row
# over q, the greedy set keeps its centers' rows and each cone its center's and
# generators'; any other set is split on use, each v cleared to q, the lcm of its
# denominators, and q * v.  Each test is one array comparison per center.

class UnitVectors(tuple):
    """Unit vectors of one norm, vector i the row ``ys[i]`` over ``qs[i]``.  A tuple,
    so the rows cannot go stale; it compares, hashes, prints, copies and pickles as the
    plain tuple.  Its arrays are int64 only while the bound of :func:`_cast` over the
    set is below INT64_LIMIT, and a subset keeps that."""

    def __new__(cls, vectors, spec: NormSpec, ys: np.ndarray, qs: np.ndarray):
        self = super().__new__(cls, vectors)
        self.spec, self.ys, self.qs = spec, ys, qs
        return self

    def take(self, idx: np.ndarray) -> UnitVectors:
        """The vectors at the indices idx, with their rows."""
        return UnitVectors([self[i] for i in idx.tolist()], self.spec, self.ys[idx], self.qs[idx])

    def __reduce__(self):                   # copies drop the rows
        return tuple, (tuple(self),)


def _cast(g: Gauge, *sets: UnitVectors) -> list[UnitVectors]:
    """The sets in one dtype: int64 while max(10 * width * max|Y| * max q, max q^2 * scale)
    over their union, which bounds 5 * value(q_x * Y_c - q_c * Y_x) and q_c * q_x * scale,
    is below INT64_LIMIT.  lp's arrays hold the points' own numbers, always object."""
    if not isinstance(g, IntGauge):
        return list(sets)
    qtop = max((int(s.qs.max()) for s in sets if len(s)), default=1)
    top = max((int(abs(s.ys).max()) for s in sets if len(s)), default=0)
    bound = max(10 * sets[0].ys.shape[1] * top * qtop, qtop * qtop * g.scale)
    dtype = np.int64 if bound < norms.INT64_LIMIT else object
    return [s if s.ys.dtype == dtype else
            UnitVectors(s, s.spec, s.ys.astype(dtype), s.qs.astype(dtype)) for s in sets]


def _units(g: Gauge, spec: NormSpec, vectors, carried=None) -> UnitVectors:
    """The vectors as UnitVectors of spec.  The carried value (by default a
    SampleList's units, or the vectors themselves) is returned if it was made
    under spec for exactly these vectors; else each vector is split once."""
    if carried is None:
        carried = getattr(vectors, "units", vectors)
    if (isinstance(carried, UnitVectors) and (carried.spec is spec or carried.spec == spec)
            and (carried is vectors or carried == tuple(vectors))):
        return carried
    vectors = tuple(vectors)
    if bad := [v for v in vectors if len(v) != g.dim]:
        raise InputError(f"vector has dimension {len(bad[0])}, expected {g.dim}")
    if isinstance(g, IntGauge):
        qs = [lcm(*[a.denominator for a in v]) for v in vectors]
        rows = [[a.numerator * (q // a.denominator) for a in v] for v, q in zip(vectors, qs)]
    else:
        rows, qs = vectors, [1] * len(vectors)
    ys = image_array(g, rows)
    # A non-unit v can have a q past int64 while its row fits.
    fits = ys.dtype != object and max(qs, default=1) < norms.INT64_LIMIT
    return _cast(g, UnitVectors(vectors, spec, ys, np.array(qs, np.int64 if fits else object)))[0]


class SampleList(list):
    """The list of :func:`sphere_samples`, its UnitVectors in ``units``."""

    __slots__ = ("units",)


def sphere_samples(spec: NormSpec, count: int, seed: int = 0) -> list[Vec]:
    """Unit vectors of the norm's sphere.

    2D exact kinds: rational subdivision of the unit polygon's edges (exact
    unit vectors).  Higher dimensions: random rational directions scaled by
    the exact reciprocal norm.  lp: normalized random float directions.
    """
    if not 1 <= count <= MAX_SAMPLES:
        raise InputError(f"the sample count must be in 1..{MAX_SAMPLES}, got {count}")
    rng, g = random.Random(seed), gauge(spec)
    if spec.exact and spec.dim == 2:
        # Vertices a / D, b / D: the j-th point of edge ab is (a(P - j) + bj) / (DP).
        verts, den = clear_denominators(polygon_vertices_2d(spec))
        per_edge = max(1, -(-count // len(verts)))
        rows = [[a * (per_edge - j) + b * j for a, b in zip(u, v)]
                for u, v in zip(verts, verts[1:] + verts[:1]) for j in range(per_edge)]
        rows, q = rows[:max(count, len(verts))], den * per_edge
        ys, qs = image_array(g, rows), [q] * len(rows)
        # One Fraction per distinct numerator: the rows share their denominator.
        fractions = {a: Fraction(a, q) for a in set(chain.from_iterable(rows))}
        vectors = [tuple([fractions[a] for a in r]) for r in rows]
    elif g.rank() < spec.dim:
        raise GeometryError("a seminorm: its unit sphere is unbounded in R^d")
    elif spec.exact:
        # The direction w / 64 has norm n / (64 * scale), n the value of w's image, and
        # the row w * scale has the value n * scale: its unit vector is that row over n.
        rows = []
        while len(rows) < count:
            w = [rng.randint(-64, 64) for _ in range(spec.dim)]
            if any(w):                      # full rank: only w = 0 has norm 0
                rows.append([a * g.scale for a in w])
        ys = image_array(g, rows)
        qs = (g.reduce(ys) // g.scale).tolist()
        vectors = [tuple([Fraction(a, q) for a in r]) for r, q in zip(rows, qs)]
    else:
        rows = []
        while len(rows) < count:
            v = tuple(rng.gauss(0.0, 1.0) for _ in range(spec.dim))
            n = norm_eval(spec, v)
            if n:
                rows.append(tuple(a / n for a in v))
        vectors, ys, qs = rows, image_array(g, rows), [1] * len(rows)
    out = SampleList(vectors)
    [out.units] = _cast(g, UnitVectors(vectors, spec, ys, np.array(qs, ys.dtype)))
    return out


# ---------------------------------------------------------------------------
# greedy separated set

@dataclass(frozen=True)
class SeparatedSet:
    """Unit vectors pairwise 1/5-separated in both +- combinations.  The greedy
    set's centers are UnitVectors; a hand-built set's are split on use."""

    centers: tuple[Vec, ...]


def _distances(g: Gauge, c, xs):
    """||c - x|| for every row x of xs = (Y, q), as the two arrays
    value(q_x * Y_c - q_c * Y_x) and q_c * q_x * scale."""
    (yc, qc), (ys, qs) = c, xs
    return g.reduce(qs[:, None] * yc - qc * ys), qs * (qc * g.scale)


def _near(g: Gauge, c, xs, closed: bool = False):
    """Mask of the rows x with ||c - x|| or ||c + x|| = ||-c - x|| below 1/5
    (at most 1/5 if closed)."""
    below, (y, q) = (np.less_equal if closed else np.less), c
    return np.logical_or(*[below(5 * v, den) for v, den in
                           (_distances(g, c, xs), _distances(g, (-y, q), xs))])


def _check_unit(g: Gauge, units: UnitVectors, what: str, n: int | None = None) -> None:
    """Raise InputError unless the first n vectors (all by default) are unit vectors."""
    den = units.qs[:n] * g.scale
    bad = abs(g.reduce(units.ys[:n]) - den) > g.tol * den
    if bad.any():
        raise InputError(f"{what} {units[bad.argmax()]} is not a unit vector")


def _check_separated(g: Gauge, units: UnitVectors, message: str) -> None:
    """Raise CertificateError unless the vectors are pairwise 1/5-separated."""
    ys, qs = units.ys, units.qs
    for i in range(len(qs) - 1):
        if _near(g, (ys[i], qs[i]), (ys[i + 1:], qs[i + 1:])).any():
            raise CertificateError(message)


def greedy_separated_set(spec: NormSpec, samples) -> SeparatedSet:
    """Greedy pass in input order keeping every sample far from all kept ones.

    The result is maximal with respect to the sample set.  Each separation
    test is decided on gauge values (exactly on integers for the exact
    kinds, in floats for lp), and the kept centers are re-checked afterwards.
    """
    g = gauge(spec)
    samples = _units(g, spec, samples)
    if not samples:
        raise InputError("samples must be nonempty")
    _check_unit(g, samples, "sample")
    ys, qs = samples.ys, samples.qs
    blocked = np.zeros(len(samples), bool)      # within 1/5 of a kept +-center
    for i in range(len(samples)):
        if not blocked[i]:
            blocked[i + 1:] |= _near(g, (ys[i], qs[i]), (ys[i + 1:], qs[i + 1:]))
    centers = samples.take(np.flatnonzero(~blocked))
    _check_separated(g, centers, "greedy output violates separation")
    return SeparatedSet(centers)


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
    g = gauge(spec)
    centers, xs = _cast(g, _units(g, spec, sep.centers), _units(g, spec, test_vectors))
    _check_unit(g, centers, "center")
    _check_unit(g, xs, "test vector")
    first = np.full(len(xs), -1)
    for i, c in enumerate(zip(centers.ys, centers.qs)):
        first[(first < 0) & _near(g, c, (xs.ys, xs.qs), closed=True)] = i
    assignments = [i if i >= 0 else None for i in first.tolist()]
    return CoverReport(assignments, [v for v, i in zip(xs, assignments) if i is None])


@dataclass(frozen=True)
class GeneratedCone:
    """Cone generated by the unit vectors within 1/5 of a center.  ``rows``, set by
    :func:`generated_cones`, holds the center and then the generators as one
    UnitVectors: read only while it is ``(center, *generators)`` under its spec."""

    center: Vec
    generators: tuple[Vec, ...]
    rows: UnitVectors | None = field(default=None, compare=False, repr=False)


def generated_cones(sep: SeparatedSet, spec: NormSpec, samples) -> list[GeneratedCone]:
    """The cones of the construction: generators are samples strictly within 1/5."""
    g = gauge(spec)
    centers, xs = _cast(g, _units(g, spec, sep.centers), _units(g, spec, samples))
    _check_unit(g, centers, "center")
    _check_unit(g, xs, "sample")
    # Cone i holds center i and then its generators, or center i again if it has none.
    both = UnitVectors(centers + xs, spec, np.concatenate([centers.ys, xs.ys]),
                       np.concatenate([centers.qs, xs.qs]))
    cones = []
    for i, c in enumerate(centers):
        v, den = _distances(g, (centers.ys[i], centers.qs[i]), (xs.ys, xs.qs))
        near = np.flatnonzero(5 * v < den) + len(centers)
        rows = both.take(np.concatenate(([i], near if near.size else [i])))
        cones.append(GeneratedCone(c, rows[1:], rows))
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
    rows = _units(g, spec, (cone.center, *cone.generators), cone.rows)
    _check_unit(g, rows, "cone center", 1)
    # The same ||c - x|| as generated_cones, so the strict 1/5 threshold agrees.  Row 0
    # is c itself, at distance 0: it changes neither the radius nor the failures.
    v, den = _distances(g, (rows.ys[0], rows.qs[0]), (rows.ys, rows.qs))
    dists = list(zip(v.tolist(), den.tolist()))
    far, failures = (0, 1), []
    for dist in dists:
        if dist[0] * far[1] > far[0] * dist[1]:
            far = dist
    if 5 * far[0] >= far[1]:                # else no generator is that far
        failures = [{"generator": x, "distance": g.quotient(*d)}
                    for x, d in zip(rows, dists) if 5 * d[0] >= d[1]]
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
    g = gauge(spec)
    centers = _units(g, spec, sep.centers)
    _check_unit(g, centers, "center")
    _check_separated(g, centers, "separated-set invariant violated")
    return True
