"""Cluster decomposition, the volume-ratio bound, and the 2^{kd} recursion.

If the largest-to-smallest distance ratio of a k-distance set exceeds
2^{k-1}, some threshold distance turns "within rho_i" into an equivalence
relation; splitting there and recursing multiplies an i-level bound with a
(k-i)-level bound, giving 2^{kd}.  When the ratio is small, a volume
packing argument (via Brunn-Minkowski) bounds the set directly by
(1 + rho_k/rho_1)^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import FalsificationError, InputError
from .norms import NormSpec, Vec, clear_denominators, cross2, gauge, polygon_vertices_2d
from .spectrum import DistanceSpectrum, PairTable, PointSet, distance_spectrum


# ---------------------------------------------------------------------------
# equivalence thresholds and clusters

def clusters_at(spec: NormSpec, ps: PointSet, rho) -> list[list[Vec]] | None:
    """Components of the "distance <= rho" graph, or None if not an equivalence.

    The relation is an equivalence iff related points have equal closed
    balls of radius rho; those balls are then the components.
    """
    table = PairTable(spec, ps)
    clusters = _clusters(table, range(len(ps)), rho)
    return None if clusters is None else [[table.points[i] for i in c] for c in clusters]


def _clusters(table: PairTable, idx, rho) -> list[list[int]] | None:
    """clusters_at on the points at ascending indices idx of the table,
    as lists of indices."""
    rows, limit = table.values, table.gauge.at_most(rho, table.scale)
    balls = {i: frozenset(j for j in idx if rows[i][j] <= limit or j == i) for i in idx}
    if any(balls[j] != ball for ball in balls.values() for j in ball):
        return None
    return [sorted(ball) for ball in sorted(set(balls.values()), key=min)]


def find_equivalence_threshold(ps: PointSet, spec: NormSpec) -> int | None:
    """Smallest i (1-based, 1 <= i <= k-1) whose threshold relation is transitive.

    Guaranteed to exist when rho_k / rho_1 > 2^{k-1}.
    """
    table = PairTable(spec, ps)
    if table.spectrum.k < 2:
        raise InputError("threshold search requires a k-distance set with k >= 2")
    found = _threshold(table, range(len(ps)), table.spectrum)
    return found[0] if found else None


def _threshold(table: PairTable, idx, sp: DistanceSpectrum) -> tuple[int, list] | None:
    """The smallest threshold index i for the points at indices idx, whose
    spectrum is sp, with its clusters of indices, or None."""
    for i in range(1, sp.k):
        clusters = _clusters(table, idx, sp.distances[i - 1])
        if clusters is not None:
            return i, clusters
    return None


# ---------------------------------------------------------------------------
# the 2^{kd} recursion

@dataclass
class DecompositionNode:
    """One node of the recursive bound trace."""

    kind: str                    # "leaf" | "volume" | "split"
    size: int
    k: int
    bound: object                # exact rational (or int) cardinality bound
    claim: int                   # the 2^{kd} claim at this node
    threshold: int | None = None
    children: list["DecompositionNode"] = field(default_factory=list)
    representatives: "DecompositionNode | None" = None

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "size": self.size, "k": self.k,
               "bound": _bound_to_json(self.bound), "claim": self.claim}
        if self.threshold is not None:
            obj["threshold"] = self.threshold
        if self.children:
            obj["clusters"] = [c.to_json() for c in self.children]
        if self.representatives is not None:
            obj["representatives"] = self.representatives.to_json()
        return obj


def _bound_to_json(bound):
    """The bound as a float; past float range, its floor, still a bound on |S|."""
    try:
        return float(bound)
    except OverflowError:
        return math.floor(bound)


def volume_ratio_bound(sp: DistanceSpectrum, d: int):
    """(1 + rho_k/rho_1)^d; exact rational for exact spectra."""
    if sp.k < 1:
        raise InputError("volume bound requires at least one distance")
    return (1 + sp.ratio) ** d


def decompose_recursive_bound(table: PairTable) -> DecompositionNode:
    """Certify |S| <= 2^{kd} on the table's points: volume bound or cluster recursion.

    Raises FalsificationError if any intermediate bound is violated or if
    the ratio condition promises a threshold that does not exist.
    """
    return _decompose(table, range(len(table.ints)), table.spectrum)


def _decompose(table: PairTable, idx, sp: DistanceSpectrum) -> DecompositionNode:
    """decompose_recursive_bound on the points at ascending indices idx of
    the table, whose spectrum is sp."""
    d = table.gauge.dim
    k, m = sp.k, len(idx)
    # lp bounds are floats, correct only up to the gauge's relative tolerance.
    slack = 1 + table.gauge.tol
    claim = 2 ** (k * d)
    if k == 0:
        return DecompositionNode("leaf", m, 0, 1, 1)

    ratio = sp.ratio
    if 1 + ratio <= 2 ** k:
        vb = volume_ratio_bound(sp, d)
        if m > vb * slack:
            raise FalsificationError(
                f"{m} points exceed the volume bound {vb} (k={k}, d={d})")
        return DecompositionNode("volume", m, k, vb, claim)

    found = _threshold(table, idx, sp)
    if found is None:
        raise FalsificationError(
            f"distance ratio {ratio} > 2^{k - 1} but no equivalence threshold exists")
    i, clusters = found
    children = [_decompose(table, c, table.spectrum_of(c)) for c in clusters]
    reps = [c[0] for c in clusters]
    rep_node = _decompose(table, reps, table.spectrum_of(reps))
    bound = rep_node.bound * max((c.bound for c in children), default=1)
    if m > bound * slack or bound > claim:
        raise FalsificationError(
            f"cluster recursion bound {bound} fails for {m} points (claim {claim})")
    node = DecompositionNode("split", m, k, bound, claim, threshold=i,
                             children=children, representatives=rep_node)
    return node


# ---------------------------------------------------------------------------
# volumes

def unit_ball_volume(spec: NormSpec):
    """Volume of the unit ball; exact rational where elementary."""
    d = spec.dim
    if spec.kind == "linf":
        return Fraction(2) ** d
    if spec.kind == "l1":
        return Fraction(2 ** d, math.factorial(d))
    if spec.kind == "polytopal":
        if d != 2:
            raise InputError("polytopal ball volume implemented for d = 2 only")
        verts = polygon_vertices_2d(spec)
        area = Fraction(0)
        for i in range(len(verts)):
            area += cross2(verts[i], verts[(i + 1) % len(verts)])
        return area / 2
    # lp: (2 Gamma(1 + 1/p))^d / Gamma(1 + d/p)
    p = spec.p
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** d / math.gamma(1.0 + d / p)


def _ball_reach(spec: NormSpec) -> np.ndarray:
    """Per axis i, the largest |u_i| over the unit ball, in floats."""
    if spec.kind == "polytopal":
        # d = 2 only, as unit_ball_volume; float() of a Fraction rounds correctly
        return np.abs(np.array(polygon_vertices_2d(spec), dtype=float)).max(axis=0)
    return np.ones(spec.dim)                    # linf, l1 and lp reach +-e_i


def exact_box_union_area(centers, half) -> Fraction:
    """Exact area of a union of axis-aligned squares (l-infinity balls, d=2):
    over each x-slab, the merged y-intervals of the squares covering it,
    summed in ints on the centres and half cleared over one denominator D."""
    ((h, _), *rows), den = clear_denominators([(Fraction(half),) * 2, *centers])
    boxes = [(c[0] - h, c[0] + h, c[1]) for c in rows]
    xs = sorted({x for b in boxes for x in b[:2]})
    area = 0
    for x0, x1 in zip(xs, xs[1:]):     # a box covers all of the slab or none of it
        ys = sorted(y for a, b, y in boxes if a <= x0 and x1 <= b)
        if ys:  # intervals of one length: each adds its gap to the last, at most 2*h
            area += (x1 - x0) * (2 * h + sum(min(b - a, 2 * h) for a, b in zip(ys, ys[1:])))
    return Fraction(area, den * den)


# ---------------------------------------------------------------------------
# Monte Carlo Brunn-Minkowski sanity check

@dataclass
class MCVolumeReport:
    """Monte Carlo volume estimates for V and V - V with a 99% half-width."""

    trials: int
    vol_v: float
    vol_v_halfwidth: float
    vol_v_formula: float          # m (rho_1/2)^d vol(B); exact (balls disjoint)
    vol_vv: float
    vol_vv_halfwidth: float
    vol_vv_upper: float           # (rho_1 + rho_k)^d vol(B)
    brunn_minkowski_ok: bool
    formula_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.brunn_minkowski_ok and self.formula_ok and self.upper_ok


def _mc_union_volume(spec: NormSpec, centers: np.ndarray, radius: float,
                     trials: int, rng: np.random.Generator):
    d = centers.shape[1]
    reach = radius * _ball_reach(spec)
    lo = centers.min(axis=0) - reach
    hi = centers.max(axis=0) + reach
    boxvol = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(trials, d))
    # A ball B(c, r) holds no point with |x_0 - c_0| > reach_0, so test each
    # ball only on the samples in that slab of the first coordinate.  The
    # margin covers rounding: every point gets the same test as with every
    # ball on every point, so the count is unchanged.  Column-major samples
    # let the gauge reduce contiguous columns.
    pts = np.asfortranarray(pts[np.argsort(pts[:, 0])])
    edge = reach[0] * (1 + 1e-9)
    starts = np.searchsorted(pts[:, 0], centers[:, 0] - edge, "left")
    stops = np.searchsorted(pts[:, 0], centers[:, 0] + edge, "right")
    outside = np.ones(trials, dtype=bool)
    values = gauge(spec).values
    for c, a, b in zip(centers, starts, stops):
        outside[a:b] &= values(pts[a:b] - c) > radius
    p = (trials - int(np.count_nonzero(outside))) / trials
    vol = p * boxvol
    halfwidth = 2.576 * math.sqrt(max(p * (1 - p), 0.0) / trials) * boxvol
    return vol, halfwidth


def brunn_minkowski_mc_check(spec: NormSpec, ps: PointSet,
                             trials: int = 200_000, seed: int = 0) -> MCVolumeReport:
    """Estimate vol(V) and vol(V-V) for V = union of balls B(x_i, rho_1/2).

    V - V is itself a union of balls B(x_i - x_j, rho_1), which makes
    membership exact.  Checks, within the reported Monte Carlo confidence:
    the Brunn-Minkowski consequence vol(V-V)^{1/d} >= 2 vol(V)^{1/d}, the
    exact formula vol(V) = m (rho_1/2)^d vol(B) (the balls have disjoint
    interiors by definition of rho_1), and the containment upper bound
    vol(V-V) <= (rho_1 + rho_k)^d vol(B).
    """
    d = spec.dim
    if d not in (2, 3):
        raise InputError("Monte Carlo volume check supports d in {2, 3}")
    for name, n, least in (("trials", trials, 1), ("seed", seed, 0)):
        if isinstance(n, bool) or not isinstance(n, int) or n < least:
            raise InputError(f"{name} must be an integer >= {least}, got {n!r}")
    if not ps.points:
        raise InputError("Monte Carlo volume check needs a nonempty point set")
    sp = distance_spectrum(spec, ps)
    m = len(ps)
    volB = float(unit_ball_volume(spec))
    centers = np.array([[float(a) for a in p] for p in ps.points])
    rng = np.random.default_rng(seed)

    if sp.k == 0:
        rho1 = rho_k = 1.0  # single point: any radius; pick 1 for the report
    else:
        rho1, rho_k = float(sp.distances[0]), float(sp.distances[-1])

    vol_v, hw_v = _mc_union_volume(spec, centers, rho1 / 2, trials, rng)
    formula = m * (rho1 / 2) ** d * volB

    diff_centers = np.unique(
        (centers[:, None, :] - centers[None, :, :]).reshape(-1, d), axis=0)
    vol_vv, hw_vv = _mc_union_volume(spec, diff_centers, rho1, trials, rng)
    upper = (rho1 + rho_k) ** d * volB

    bm_ok = (vol_vv + hw_vv) ** (1 / d) >= 2 * max(vol_v - hw_v, 0.0) ** (1 / d)
    formula_ok = abs(vol_v - formula) <= max(3 * hw_v, 0.02 * formula)
    upper_ok = vol_vv - hw_vv <= upper * (1 + 1e-9)
    return MCVolumeReport(trials, vol_v, hw_v, formula, vol_vv, hw_vv, upper,
                          bm_ok, formula_ok, upper_ok)
