"""Exact maximum-cardinality k-distance subset search over finite grounds.

Two independent routes: a dumb top-down enumeration oracle (combinations
by decreasing size, first hit wins) and a depth-first branch-and-bound
that prunes on the distance-class count, on the incumbent, and optionally
on the proved cardinality bounds.  Both are deterministic: points are
sorted lexicographically and the reported optimum is the lexicographically
smallest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .cover import general_bound
from .errors import FalsificationError, InputError
from .norms import NormSpec, Vec, linf, vec
from .spectrum import DistanceSpectrum, PairTable, PointSet, distance_spectrum


@dataclass(frozen=True)
class SearchProblem:
    spec: NormSpec
    ground: PointSet
    k: int
    goal: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be >= 1")
        if self.ground.dim != self.spec.dim:
            raise InputError("ground dimension does not match norm dimension")


@dataclass
class SearchResult:
    points: tuple[Vec, ...]
    spectrum: DistanceSpectrum
    nodes: int
    optimal: bool

    @property
    def size(self) -> int:
        return len(self.points)


def _pair_classes(spec: NormSpec, pts: list[Vec]) -> list[list[int]]:
    """Distance-class id per pair of the sorted points (see PairTable)."""
    return PairTable(spec, PointSet(spec.dim, tuple(pts))).classes


def brute_force_oracle(problem: SearchProblem) -> SearchResult:
    """Exhaustive enumeration: combinations by decreasing size, first hit wins.

    Refuses grounds larger than 20 points; use branch_and_bound there.
    """
    pts = sorted(problem.ground.points)
    n = len(pts)
    if n > 20:
        raise InputError("brute-force oracle refuses grounds larger than 20 points")
    cls = _pair_classes(problem.spec, pts)
    k = problem.k
    examined = 0
    for size in range(n, 0, -1):
        for comb in combinations(range(n), size):
            examined += 1
            seen: set[int] = set()
            ok = True
            for a in range(size):
                ia = comb[a]
                row = cls[ia]
                for b in range(a + 1, size):
                    seen.add(row[comb[b]])
                    if len(seen) > k:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                chosen = tuple(pts[i] for i in comb)
                sub = PointSet(problem.ground.dim, chosen)
                return SearchResult(chosen, distance_spectrum(problem.spec, sub),
                                    examined, True)
    raise InputError("empty ground")


def _bound_cap(problem: SearchProblem) -> int:
    spec, k, d = problem.spec, problem.k, problem.spec.dim
    cap = general_bound(k, d)
    if spec.kind == "linf":
        cap = min(cap, (k + 1) ** d)
    if d == 2 and spec.exact:
        cap = min(cap, (k + 1) ** 2)
    return cap


def branch_and_bound(problem: SearchProblem,
                     use_bound_pruning: bool = False) -> SearchResult:
    """DFS over sorted candidates with class-count and incumbent pruning.

    With use_bound_pruning, the search additionally stops once the
    incumbent reaches the tightest applicable proved bound; keep it off
    when the bound itself is the claim under test.
    """
    pts = sorted(problem.ground.points)
    n = len(pts)
    cls = _pair_classes(problem.spec, pts)
    k = problem.k
    cap = _bound_cap(problem) if use_bound_pruning else n
    best: list[int] = []
    nodes = 0
    chosen: list[int] = []

    def dfs(idx: int, mask: int) -> bool:
        nonlocal nodes, best
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) >= cap:
                return True
        if idx == n or len(chosen) + (n - idx) <= len(best):
            return False
        # include pts[idx]
        new_mask = mask
        row = cls[idx]
        for i in chosen:
            new_mask |= 1 << row[i]
        if new_mask.bit_count() <= k:
            chosen.append(idx)
            if dfs(idx + 1, new_mask):
                return True
            chosen.pop()
        # exclude pts[idx]
        return dfs(idx + 1, mask)

    dfs(0, 0)
    chosen_pts = tuple(pts[i] for i in best)
    sub = PointSet(problem.ground.dim, chosen_pts)
    return SearchResult(chosen_pts, distance_spectrum(problem.spec, sub),
                        nodes, True)


def enumerate_optimal_subsets(problem: SearchProblem, size: int) -> list[tuple[Vec, ...]]:
    """All subsets of exactly the given size with at most k distance classes."""
    pts = sorted(problem.ground.points)
    n = len(pts)
    cls = _pair_classes(problem.spec, pts)
    k = problem.k
    out: list[tuple[Vec, ...]] = []
    chosen: list[int] = []

    def dfs(idx: int, mask: int):
        if len(chosen) == size:
            out.append(tuple(pts[i] for i in chosen))
            return
        if idx == n or len(chosen) + (n - idx) < size:
            return
        row = cls[idx]
        new_mask = mask
        for i in chosen:
            new_mask |= 1 << row[i]
        if new_mask.bit_count() <= k:
            chosen.append(idx)
            dfs(idx + 1, new_mask)
            chosen.pop()
        dfs(idx + 1, mask)

    dfs(0, 0)
    return out


# ---------------------------------------------------------------------------
# extremal grids

def extremal_grid(k: int, d: int, offset=None, scale=1) -> PointSet:
    """The k-distance grid a + lambda {0, ..., k}^d (under l-infinity)."""
    if k < 1 or d < 1:
        raise InputError("extremal grid requires k >= 1 and d >= 1")
    lam = vec(scale)[0]
    if lam <= 0:
        raise InputError("scale must be positive")
    off = vec(*offset) if offset is not None else vec(*([0] * d))
    if len(off) != d:
        raise InputError("offset dimension mismatch")
    pts = tuple(tuple(off[i] + lam * c[i] for i in range(d))
                for c in product(range(k + 1), repeat=d))
    return PointSet(d, pts)


def is_grid_homothet(points, k: int) -> bool:
    """True iff the points are exactly some a + lambda {0..k}^d."""
    pts = list(points)
    d = len(pts[0])
    axes = []
    step = None
    for i in range(d):
        vals = sorted({p[i] for p in pts})
        if len(vals) != k + 1:
            return False
        diffs = {vals[j + 1] - vals[j] for j in range(k)}
        if len(diffs) != 1:
            return False
        s = diffs.pop()
        if step is None:
            step = s
        elif s != step:
            return False
        axes.append(vals)
    return set(pts) == set(product(*axes)) and len(pts) == (k + 1) ** d


@dataclass
class UniquenessReport:
    target_size: int
    optima: list[tuple[Vec, ...]]
    counterexamples: list[tuple[Vec, ...]]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_extremal_uniqueness(d: int, k: int, m: int) -> UniquenessReport:
    """Check, on the lattice {0..m}^d, that every maximum k-distance subset
    of size (k+1)^d is a grid homothet.

    Desk scale only (d = 2, k <= 2, m <= 4).  A counterexample raises
    FalsificationError.
    """
    if d != 2 or k > 2 or m > 4 or k < 1 or m < k:
        raise InputError("uniqueness check is desk-scale: d=2, 1<=k<=2, k<=m<=4")
    ground = PointSet(d, tuple(vec(*c) for c in product(range(m + 1), repeat=d)))
    problem = SearchProblem(linf(d), ground, k)
    target = (k + 1) ** d
    optima = enumerate_optimal_subsets(problem, target)
    # Keep only genuine k-distance subsets (exactly k classes, not fewer).
    optima = [s for s in optima
              if distance_spectrum(problem.spec, PointSet(d, s)).k == k]
    bad = [s for s in optima if not is_grid_homothet(s, k)]
    if bad:
        raise FalsificationError(
            f"non-grid maximum k-distance set found at desk scale: {bad[0]}")
    return UniquenessReport(target, optima, bad)
