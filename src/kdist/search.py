"""Exact maximum-cardinality k-distance subset search over finite grounds.

Two independent routes: a dumb top-down enumeration oracle (combinations
by decreasing size, first hit wins) and a forward-checking branch-and-bound
(Carraghan-Pardalos, Oper. Res. Lett. 9, 1990, with a class count in place
of adjacency): each candidate carries the mask of distance classes it would
add, choosing a point drops every candidate past k classes, and `nodes`
counts the chosen sets so checked.  Both are deterministic: points are
sorted, candidates keep that order and inclusion is tried first, so the
reported optimum is the lexicographically smallest one.

The branch-and-bound root branches only on the lowest layer L0 of axis 0
(the points of least first coordinate, a prefix of the sorted points) when
an exact ground is closed under the shift by s, the gap to the next first
coordinate: every point off L0, moved down by s along axis 0, is again a
ground point.  An optimum S that misses L0 then has the translate S - s*e0,
with the same distances and lexicographically before S, so the
lexicographically smallest optimum starts in L0.  lp keeps the full root,
since its float differences are not exactly translation-invariant.

The enumeration takes the same cut and recovers the rest by translation.
On a closed ground, a valid subset S that misses L0 moved down by s stays
in the ground (each of its points is off L0), with the same distances;
repeating this reaches exactly one translate T = S - j*s*e0 that meets L0,
and T's first point lies in L0, so the root cut lists T.  Going up from T,
once a translate T + i*s*e0 leaves the ground no later one is in it: were
T + (i+1)*s*e0 in the ground, moving it down would put T + i*s*e0 back in.
So listing the subsets that meet L0 and then each one's translates up to
the first that leaves the ground yields every valid subset exactly once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter

from .errors import FalsificationError, InputError
from .norms import NormSpec, Vec, linf, vec
from .planar import best_route, routes
from .spectrum import DistanceSpectrum, PairTable, PointSet


@dataclass(frozen=True)
class SearchProblem:
    spec: NormSpec
    ground: PointSet
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be >= 1")
        if not len(self.ground):
            raise InputError("empty ground")
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


def _pair_classes(spec: NormSpec, ground: PointSet) -> PairTable:
    """The pair table of the ground, its points sorted, with its distance-class ids built."""
    # Built here, ids included: bench/spans.py times this name as search.table_s.
    table = PairTable(spec, ground)
    table.classes
    return table


def _root_layer(spec: NormSpec, ints: list[tuple]) -> int:
    """How many of the sorted points the root branches on: |L0| when the
    ground is exact and closed under the shift along axis 0 (see the module
    docstring), else all of them."""
    n = len(ints)
    if not spec.exact:
        return n
    m = bisect_right(ints, ints[0][0], key=itemgetter(0))
    if m == n:
        return n
    s, ground = ints[m][0] - ints[0][0], set(ints)
    # A loop: all() over a generator takes twice as long on these short lists.
    for p in ints[m:]:
        if (p[0] - s, *p[1:]) not in ground:
            return n
    return m


def brute_force_oracle(problem: SearchProblem) -> SearchResult:
    """Exhaustive enumeration: combinations by decreasing size, first hit wins.

    Refuses grounds larger than 20 points; use branch_and_bound there.
    """
    n = len(problem.ground)
    if n > 20:
        raise InputError("brute-force oracle refuses grounds larger than 20 points")
    table = _pair_classes(problem.spec, problem.ground)
    pts, cls, k = table.points, table.classes, problem.k
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
                return SearchResult(tuple(pts[i] for i in comb), table.spectrum_of(comb),
                                    examined, True)
    raise InputError("empty ground")


def _bound_cap(problem: SearchProblem) -> int:
    """The tightest proved bound: the claim of the norm's best route at k."""
    k, d = problem.k, problem.spec.dim
    return best_route(routes(problem.spec), k, d).claim(k, d)


def _forward_check(cls: list[list[int]], k: int, cands: list, j: int) -> list:
    """The candidates after cands[j] still within k classes once it is chosen;
    each is (index, mask of the classes it would span with the chosen points)."""
    # A loop: a comprehension binding the mask with := is ~20% slower on 3.11.
    p, pmask = cands[j]
    row = cls[p]
    viable = []
    for c, cmask in cands[j + 1:]:
        m = cmask | pmask | 1 << row[c]
        if m.bit_count() <= k:
            viable.append((c, m))
    return viable


def branch_and_bound(problem: SearchProblem,
                     use_bound_pruning: bool = False) -> SearchResult:
    """Forward-checking DFS over sorted candidates, inclusion first.

    A node is pruned, and a child is not expanded, when its chosen points
    plus its viable candidates cannot exceed the incumbent.  The root
    branches only on the lowest layer of a ground closed under the shift
    along axis 0 (see the module docstring).  `nodes` counts the root and
    each chosen set forward-checked.  With use_bound_pruning,
    the search also stops once the incumbent reaches the tightest
    applicable proved bound; keep it off when the bound itself is the
    claim under test.
    """
    table = _pair_classes(problem.spec, problem.ground)
    pts, cls, n = table.points, table.classes, len(table.points)
    # With k >= n(n-1)/2 every subset qualifies: the cap is n, and no bound is formed.
    cap = _bound_cap(problem) if use_bound_pruning and problem.k < n * (n - 1) // 2 else n
    best: list[int] = []
    nodes = 1
    chosen: list[int] = []

    def expand(cands: list[tuple[int, int]], stop: int) -> bool:
        """Branch on cands[:stop], each with the candidates after it."""
        nonlocal nodes, best
        depth = len(chosen)
        if depth > len(best):
            best = list(chosen)
            if depth >= cap:
                return True
        for j in range(stop):
            if depth + len(cands) - j <= len(best):
                return False
            nodes += 1
            viable = _forward_check(cls, problem.k, cands, j)
            if depth + 1 + len(viable) > len(best):
                chosen.append(cands[j][0])
                if expand(viable, len(viable)):
                    return True
                chosen.pop()
        return False

    expand([(i, 0) for i in range(n)], _root_layer(problem.spec, table.ints))
    return SearchResult(tuple(pts[i] for i in best), table.spectrum_of(best), nodes, True)


def enumerate_optimal_subsets(problem: SearchProblem, size: int) -> list[tuple[Vec, ...]]:
    """All subsets of exactly the given size with at most k distance classes,
    in lexicographic order, by the forward-checking DFS of branch_and_bound.

    On a ground closed under the shift by s along axis 0 the root branches
    only on L0, and each subset found is followed by its translates by
    j*s*e0, j = 1, 2, ..., up to the first that leaves the ground: by the
    module docstring this lists every subset exactly once.
    """
    if size < 1:
        raise InputError("enumeration size must be >= 1")
    table = _pair_classes(problem.spec, problem.ground)
    pts, cls, ints = table.points, table.classes, table.ints
    found: list[list[int]] = []
    chosen: list[int] = []

    def expand(cands: list[tuple[int, int]], stop: int) -> None:
        if len(chosen) == size:
            found.append(list(chosen))
            return
        for j in range(min(stop, len(cands) - (size - len(chosen)) + 1)):
            chosen.append(cands[j][0])
            viable = _forward_check(cls, problem.k, cands, j)
            expand(viable, len(viable))
            chosen.pop()

    n = len(pts)
    stop = _root_layer(problem.spec, ints)
    expand([(i, 0) for i in range(n)], stop)
    if stop < n:
        # up[i]: the index of point i + s*e0, None off the ground.  up is
        # increasing, so a shifted index list stays ascending, and the lists
        # come out sorted: the translates are appended by generation, those
        # of generation j start in layer j, and each keeps its base's order.
        s, index = ints[stop][0] - ints[0][0], {p: i for i, p in enumerate(ints)}
        up = [index.get((p[0] + s, *p[1:])) for p in ints]
        for idx in found:  # the translates appended here are shifted in turn
            shifted = [up[i] for i in idx]
            if None not in shifted:
                found.append(shifted)
    return [tuple(pts[i] for i in idx) for idx in found]


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
    if not pts:
        return False
    axes = [sorted({p[i] for p in pts}) for i in range(len(pts[0]))]
    steps = {b - a for vals in axes for a, b in zip(vals, vals[1:])}
    return (all(len(vals) == k + 1 for vals in axes) and len(steps) == 1
            and set(pts) == set(product(*axes)) and len(pts) == (k + 1) ** len(axes))


def verify_extremal_uniqueness(d: int, k: int, m: int) -> list[tuple[Vec, ...]]:
    """The subsets of size (k+1)^d of the lattice {0..m}^d with at most k
    distances, each checked to be a grid homothet.

    Desk scale only (d = 2, k <= 2, m <= 4).  Any other such subset raises
    FalsificationError, one with fewer than k distances as well: it would
    contradict the proved bound for its own number of distances.
    """
    if d != 2 or k > 2 or m > 4 or k < 1 or m < k:
        raise InputError("uniqueness check is desk-scale: d=2, 1<=k<=2, k<=m<=4")
    ground = PointSet(d, tuple(vec(*c) for c in product(range(m + 1), repeat=d)))
    problem = SearchProblem(linf(d), ground, k)
    optima = enumerate_optimal_subsets(problem, (k + 1) ** d)
    bad = [s for s in optima if not is_grid_homothet(s, k)]
    if bad:
        raise FalsificationError(
            f"non-grid maximum k-distance set found at desk scale: {bad[0]}")
    return optima
