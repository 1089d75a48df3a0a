"""Distance spectra, the pairwise distance table, and distinct-distance witnesses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import GeometryError, InputError
from .norms import (NormSpec, Vec, clear_denominators, gauge, image_array, int_from_json,
                    vec_from_json, vec_to_json)


@dataclass(frozen=True)
class PointSet:
    """A finite set of pairwise-distinct points of one dimension, cleared once:
    ``rows[i]`` is ``points[i]`` times ``den``, their least common denominator,
    as an int tuple.  Duplicates, the pair table and cone orders read the rows."""

    dim: int
    points: tuple[Vec, ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    den: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dim:
                raise InputError(
                    f"point {p} has dimension {len(p)}, expected {self.dim}")
        try:
            rows, den = clear_denominators(self.points)
        except (AttributeError, OverflowError, ValueError):
            raise InputError("point coordinates must be finite ints, Fractions or floats") from None
        if len(set(rows)) != len(rows):
            raise InputError("point set contains duplicate points")
        self.__dict__.update(rows=rows, den=den)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def of(cls, points) -> "PointSet":
        pts = tuple(tuple(c) for c in points)
        if not pts:
            raise InputError("point set must be nonempty")
        return cls(len(pts[0]), pts)


@dataclass(frozen=True)
class DistanceSpectrum:
    """Strictly increasing distinct nonzero distances with pair multiplicities."""

    distances: tuple
    multiplicities: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.distances)

    @property
    def ratio(self):
        """rho_k / rho_1; requires k >= 1."""
        if not self.distances:
            raise InputError("empty spectrum has no distance ratio")
        return self.distances[-1] / self.distances[0]


def _value_classes(values: list, tol) -> list[list]:
    """The sorted values in runs whose consecutive gaps are within relative
    tol (single linkage); a run wider than relative tol is a chain of near
    ties, a GeometryError."""
    groups: list[list] = []
    for v in sorted(values):
        if groups and v - groups[-1][-1] <= tol * max(v, 1.0):
            groups[-1].append(v)
        else:
            groups.append([v])
    for g in groups:
        if g[-1] - g[0] > tol * max(g[-1], 1.0):
            raise GeometryError(f"{len(g)} lp distances from {g[0]!r} to {g[-1]!r} chain into "
                                f"one class of span {g[-1] - g[0]:.3g} > relative tol {tol:g}")
    return groups


class PairTable:
    """Every pairwise distance of one point set, computed once.

    ``points`` are the points sorted, ``ints`` their ``PointSet.rows`` in that
    order; ``values[i][j]`` is the distance of points i and j as a value of
    the norm's :func:`~kdist.norms.gauge`.  An exact kind maps the rows to
    gauge images, so a value is the distance times ``scale`` = den * gauge
    scale, a plain int, where equality and order stay exact; lp maps the
    points, at scale 1, so a value is the float distance.  The images form
    one array (int64, or Python objects: see :func:`~kdist.norms.image_array`),
    reduced over all n x n pairs at once.  ``spectrum`` holds the distance
    classes and ``classes[i][j]`` numbers the class of a pair, in increasing
    order of distance; lp merges distances within the gauge's relative
    tolerance by single linkage over all pairs.  A seminorm, two distinct
    points at lp distance 0 (underflow) or an lp class wider than tol
    raises GeometryError.
    """

    def __init__(self, spec: NormSpec, ps: PointSet):
        if ps.dim != spec.dim:
            raise InputError(
                f"point set dimension {ps.dim} does not match norm dimension {spec.dim}")
        self.gauge = g = gauge(spec)
        if g.rank() < spec.dim:
            raise GeometryError(
                f"a seminorm: its functionals do not span R^{spec.dim}, "
                "so distinct points can be at distance 0")
        # den > 0, so the rows sort as the points do, and sort faster.
        order = sorted(range(len(ps)), key=ps.rows.__getitem__)
        self.ints, self.points = [ps.rows[i] for i in order], [ps.points[i] for i in order]
        rows, self.scale = (self.points, 1) if g.tol else (self.ints, ps.den * g.scale)
        array = image_array(g, rows)
        # reduce folds the columns of the transpose: [i, j] is the value of Y_j - Y_i.
        self._values = g.reduce(array[:, None] - array[None])
        self.values = self._values.tolist()
        if g.tol:
            self.spectrum = self.spectrum_of(range(len(array)))
            if self.spectrum.k and not self.spectrum.distances[0]:
                raise GeometryError("distinct points at float distance 0 (underflow)")
        else:   # each pair's value twice, and the diagonal's zeros: no pair's value is 0
            counts = Counter(chain.from_iterable(self.values))
            del counts[0]
            self.spectrum = self._spectrum([(v, m // 2) for v, m in sorted(counts.items())])

    def spectrum_of(self, idx) -> DistanceSpectrum:
        """The spectrum of the points at ascending indices idx, read off the
        stored values and grouped on their own, as a table of those points
        alone would group them."""
        rows = self.values
        values = [row[j] for a, i in enumerate(idx) for row in [rows[i]] for j in idx[a + 1:]]
        if self.gauge.tol:
            return self._spectrum([(g[0], len(g)) for g in _value_classes(values, self.gauge.tol)])
        return self._spectrum(sorted(Counter(values).items()))

    def _spectrum(self, classes: list[tuple]) -> DistanceSpectrum:
        """The spectrum of (least value, pair count) classes, in increasing order."""
        return DistanceSpectrum(tuple([self.distance(v) for v, _ in classes]),
                                tuple([m for _, m in classes]))

    @cached_property
    def classes(self) -> list[list[int]]:
        # A class holds the values from its least one, the representative,
        # up to the next class's; the diagonal's 0 gets class 0.
        reps = np.array([self.gauge.at_most(d, self.scale) for d in self.spectrum.distances],
                        self._values.dtype)
        return np.maximum(np.searchsorted(reps, self._values, side="right") - 1, 0).tolist()

    def distance(self, value):
        """The distance a table value stands for: a Fraction, or a float for lp."""
        return self.gauge.quotient(value, self.scale)


def distance_spectrum(spec: NormSpec, ps: PointSet) -> DistanceSpectrum:
    """Distinct nonzero distances of ps under spec, with multiplicities.

    Exact kinds group by exact equality; for lp, distances within relative
    FLOAT_EPS are merged into one class (class representative: its minimum).
    A seminorm, a zero lp distance or a wider lp class raise GeometryError.
    """
    return PairTable(spec, ps).spectrum


def best_distinct_witness(spec: NormSpec, ps: PointSet) -> tuple[Vec, int]:
    """Point of ps seeing the most distinct nonzero distances, with its count.

    Ties are broken by the lexicographically smallest point.  An exact row's
    distinct values are its distances and the diagonal's 0; for lp the
    distances from each point are grouped on their own, by single linkage.
    """
    if len(ps) < 2:
        raise InputError("witness needs at least two points")
    table = PairTable(spec, ps)
    tol = table.gauge.tol
    counts = [len(_value_classes(row[:i] + row[i + 1:], tol)) if tol else len(set(row)) - 1
              for i, row in enumerate(table.values)]
    best = max(range(len(counts)), key=counts.__getitem__)     # the first of the largest
    return table.points[best], counts[best]


# ---------------------------------------------------------------------------
# JSON schema

def pointset_to_json(ps: PointSet) -> dict:
    return {"dim": ps.dim, "points": [vec_to_json(p) for p in ps.points]}


def pointset_from_json(obj) -> PointSet:
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise InputError("point set must be a JSON object with a 'points' list")
    pts = tuple(vec_from_json(p) for p in obj["points"])
    dim = int_from_json(obj.get("dim", len(pts[0]) if pts else 0), "point set dim")
    return PointSet(dim, pts)


def spectrum_to_json(spec: NormSpec, sp: DistanceSpectrum) -> dict:
    if spec.exact:
        dists = [[d.numerator, d.denominator] for d in sp.distances]
    else:
        dists = list(sp.distances)
    return {"k": sp.k, "distances": dists,
            "multiplicities": list(sp.multiplicities)}
