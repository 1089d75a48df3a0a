"""Distance spectra, the pairwise distance table, and distinct-distance witnesses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

from .errors import GeometryError, InputError
from .norms import (MAX_TABLE_BYTES, NormSpec, Vec, clear_denominators, gauge, image_array,
                    int_from_json, ratio_from_json, row_pairs, vec_from_json)


@dataclass(frozen=True)
class PointSet:
    """A finite set of pairwise-distinct points of one dimension, cleared once:
    ``rows[i]`` is ``points[i]`` times ``den``, their least common denominator,
    as an int tuple.  Duplicates, the pair table and cone orders read the rows.
    A set built by :meth:`of_rows` builds its Fraction points on first read."""

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
        self._set_rows(rows, den)

    @classmethod
    def of_rows(cls, dim: int, rows: tuple[tuple[int, ...], ...], den: int) -> "PointSet":
        """The set of the points rows[i] / den, for int rows and den > 0 the
        least common denominator of their reduced coordinates."""
        if any(len(r) != dim for r in rows):
            return cls(dim, _points_of(rows, den))      # raises, naming the point
        ps = cls.__new__(cls)
        ps.__dict__["dim"] = dim
        ps._set_rows(rows, den)
        return ps

    def _set_rows(self, rows, den) -> None:
        if len(set(rows)) != len(rows):
            raise InputError("point set contains duplicate points")
        self.__dict__.update(rows=rows, den=den)

    def __getattr__(self, name):
        # Called only for a missing attribute: the points of a set built from rows.
        if name != "points" or "rows" not in self.__dict__:
            raise AttributeError(name)
        self.__dict__["points"] = points = _points_of(self.rows, self.den)
        return points

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def of(cls, points) -> "PointSet":
        pts = tuple(tuple(c) for c in points)
        if not pts:
            raise InputError("point set must be nonempty")
        return cls(len(pts[0]), pts)


def _points_of(rows, den) -> tuple[Vec, ...]:
    """The points rows[i] / den, as Fraction tuples."""
    return tuple(tuple(Fraction(a, den) for a in r) for r in rows)


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
        n, d = len(ps), spec.dim
        if (peak := n * n * (2 * d + 2) * 8) > MAX_TABLE_BYTES:
            raise InputError(f"a pair table of {n} points in dimension {d} needs about "
                             f"{peak >> 20} MiB, over the limit of {MAX_TABLE_BYTES >> 20} MiB")
        self.gauge = g = gauge(spec)
        if g.rank() < d:
            raise GeometryError(
                f"a seminorm: its functionals do not span R^{d}, "
                "so distinct points can be at distance 0")
        # den > 0, so the rows sort as the points do, and sort faster.
        rows, points = ps.rows, vars(ps).get("points")
        order = sorted(range(n), key=rows.__getitem__)
        self.ints, self.den = [rows[i] for i in order], ps.den
        if points is not None:          # else built from the rows on first read
            self.points = [points[i] for i in order]
        images, self.scale = (self.points, 1) if g.tol else (self.ints, ps.den * g.scale)
        array = image_array(g, images)
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

    @cached_property
    def points(self) -> list[Vec]:
        """The sorted points: the point set's own, or built from the rows."""
        return list(_points_of(self.ints, self.den))

    def texts(self) -> list[str]:
        """Each point as "x,y,...", as str prints its coordinates."""
        if "points" in vars(self):      # floats print as floats
            return [",".join(map(str, p)) for p in self.points]
        # else each coordinate as its Fraction prints
        return [",".join([str(a) if q == 1 else f"{a}/{q}" for a, q in row_pairs(r, self.den)])
                for r in self.ints]

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
    """The set's points as [num, den] pairs in lowest terms, read off its rows."""
    return {"dim": ps.dim, "points": [row_pairs(r, ps.den) for r in ps.rows]}


def pointset_from_json(obj) -> PointSet:
    """A JSON point set read straight into integer rows over their least
    common denominator; its Fraction points are built on first read."""
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise InputError("point set must be a JSON object with a 'points' list")
    pts = obj["points"]
    rows, den = _integer_rows(pts), 1
    if rows is None:
        ratios = [vec_from_json(p, ratio_from_json) for p in pts]
        den = lcm(*{q for r in ratios for _, q in r})
        rows = tuple(tuple(a * (den // q) for a, q in r) for r in ratios)
    dim = int_from_json(obj.get("dim", len(rows[0]) if rows else 0), "point set dim")
    return PointSet.of_rows(dim, rows, den)


def _integer_rows(pts) -> tuple | None:
    """The rows of JSON points whose coordinates are all ints or [int, 1]
    pairs, the form pointset_to_json writes integer points in, read with no
    call per coordinate; None for any other set, which ratio_from_json reads
    (and whose errors it raises).  A coordinate is taken here only when
    ratio_from_json would read it as (n, 1)."""
    rows = []
    for p in pts:
        if type(p) is not list:
            return None
        row = tuple([c if type(c) is int                            # n (not a bool)
                     else c[0] if (type(c) is list and len(c) == 2  # [n, 1]
                                   and type(c[0]) is int and type(c[1]) is int and c[1] == 1)
                     else None for c in p])
        if None in row:
            return None
        rows.append(row)
    return tuple(rows)


def spectrum_to_json(spec: NormSpec, sp: DistanceSpectrum) -> dict:
    if spec.exact:
        dists = [[d.numerator, d.denominator] for d in sp.distances]
    else:
        dists = list(sp.distances)
    return {"k": sp.k, "distances": dists,
            "multiplicities": list(sp.multiplicities)}
