"""Distance spectra, k-distance predicates, and distinct-distance witnesses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import GeometryError, InputError
from .norms import (FLOAT_EPS, NormSpec, Vec, int_from_json, norm_eval,
                    vec_from_json, vec_to_json, vsub)


@dataclass(frozen=True)
class PointSet:
    """A finite set of pairwise-distinct points of one dimension."""

    dim: int
    points: tuple[Vec, ...]

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dim:
                raise InputError(
                    f"point {p} has dimension {len(p)}, expected {self.dim}")
        if len(set(self.points)) != len(self.points):
            raise InputError("point set contains duplicate points")

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


def _merge_float_classes(values: list[float]) -> list[list[float]]:
    # Single-linkage on the sorted list with relative gap FLOAT_EPS.
    values = sorted(values)
    groups: list[list[float]] = [[values[0]]]
    for v in values[1:]:
        if v - groups[-1][-1] <= FLOAT_EPS * max(v, 1.0):
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def pair_distances(spec: NormSpec, ps: PointSet) -> list:
    """All n(n-1)/2 pairwise distances (unsorted)."""
    if ps.dim != spec.dim:
        raise InputError(
            f"point set dimension {ps.dim} does not match norm dimension {spec.dim}")
    pts = ps.points
    return [norm_eval(spec, vsub(pts[j], pts[i]))
            for i in range(len(pts)) for j in range(i + 1, len(pts))]


def distance_spectrum(spec: NormSpec, ps: PointSet) -> DistanceSpectrum:
    """Distinct nonzero distances of ps under spec, with multiplicities.

    Exact kinds group by exact equality; for lp, distances within relative
    FLOAT_EPS are merged into one class (class representative: its minimum).
    Two distinct points at distance 0 (a seminorm, or lp underflow) raise
    GeometryError.
    """
    dists = pair_distances(spec, ps)
    if not dists:
        return DistanceSpectrum((), ())
    if spec.exact:
        counts = Counter(dists)
        if 0 in counts:
            raise GeometryError("distinct points at distance 0: the gauge is a seminorm")
        keys = sorted(counts)
        return DistanceSpectrum(tuple(keys), tuple(counts[k] for k in keys))
    groups = _merge_float_classes(dists)
    if groups[0][0] == 0:
        raise GeometryError("distinct points at float distance 0 (underflow)")
    return DistanceSpectrum(tuple(g[0] for g in groups),
                            tuple(len(g) for g in groups))


def is_k_distance_set(spec: NormSpec, ps: PointSet, k: int) -> bool:
    if k < 0:
        raise InputError("k must be >= 0")
    return distance_spectrum(spec, ps).k == k


def distinct_distances_from(spec: NormSpec, ps: PointSet, x: Vec) -> int:
    """Number of distinct nonzero distances from x to the rest of ps."""
    dists = [norm_eval(spec, vsub(y, x)) for y in ps.points if y != x]
    if not dists:
        return 0
    if spec.exact:
        return len(set(dists))
    return len(_merge_float_classes(dists))


def best_distinct_witness(spec: NormSpec, ps: PointSet) -> tuple[Vec, int]:
    """Point of ps seeing the most distinct nonzero distances, with its count.

    Ties are broken by the lexicographically smallest point.
    """
    if len(ps) < 2:
        raise InputError("witness needs at least two points")
    best_point, best_count = None, -1
    for x in sorted(ps.points):
        c = distinct_distances_from(spec, ps, x)
        if c > best_count:
            best_point, best_count = x, c
    return best_point, best_count


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
