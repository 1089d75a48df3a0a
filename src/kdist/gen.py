"""Seeded instance generators.

The acceptance criteria (`kdist.criteria`, run at full scale by the test
suite and at small scale by `kdist selftest`), the unit tests and the
benchmark draw their random point sets and polygons from here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .errors import GeometryError
from .norms import Vec, convex_hull, vec
from .spectrum import PointSet


def random_symmetric_polygon(rng: random.Random, nmin: int = 6,
                             nmax: int = 12) -> list[Vec]:
    """Centrally symmetric strictly convex polygon with rational vertices."""
    while True:
        raw = [vec(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4))),
                   Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4))))
               for _ in range(rng.randint(8, 16))]
        pts = [p for p in raw if p != (0, 0)]
        sym = pts + [tuple(-a for a in p) for p in pts]
        try:
            hull = convex_hull(sym)
        except GeometryError:
            continue
        if nmin <= len(hull) <= nmax:
            return hull


def random_lattice_subset(rng: random.Random, d: int, side: int,
                          size: int) -> PointSet:
    """Random subset of the lattice cube {0..side}^d with the given size."""
    cells = list(product(range(side + 1), repeat=d))
    chosen = rng.sample(cells, k=min(size, len(cells)))
    return PointSet(d, tuple(vec(*c) for c in chosen))


SPREAD = 1000          # the clusters' spacing along axis 0 in clustered_lattice_set


def clustered_lattice_set(rng: random.Random, d: int) -> PointSet:
    """Translated lattice clusters with a huge distance ratio.

    Clusters are copies of a small pattern orthogonal to axis 0, translated
    along axis 0 by multiples of SPREAD; under l-infinity all
    cross-cluster distances are exact multiples of SPREAD, so the total
    distance count stays small while rho_k / rho_1 is large.
    """
    if d == 1:
        return PointSet(1, tuple(sorted({vec(a + o) for a in (0, 1) for o in (0, SPREAD)})))
    while True:
        pattern = set()
        for _ in range(rng.randint(2, 4)):
            pattern.add(vec(0, *[rng.randint(0, 2) for _ in range(d - 1)]))
        if len(pattern) < 2:
            continue
        positions = sorted(rng.sample((0, 1, 2, 3, 5), k=rng.randint(2, 3)))
        pts = {tuple((p[0] + pos * SPREAD,) + p[1:]) for p in pattern
               for pos in positions}
        return PointSet(d, tuple(sorted(pts)))


def half_open_grid_set(n: int, d: int = 2) -> PointSet:
    """An n-point set strictly between {0..c-2}^d and {0..c-1}^d, c = ceil(n^{1/d}).

    Attains equality in the distinct-distance witness bound: exactly c - 1
    distinct l-infinity distances.
    """
    c = integer_ceil_root(n, d)
    inner = [vec(*p) for p in product(range(c - 1), repeat=d)]
    shell = sorted(vec(*p) for p in product(range(c), repeat=d)
                   if max(p) == c - 1)
    need = n - len(inner)
    if need < 1 or need > len(shell):
        raise GeometryError(f"no half-open grid set with n={n}, d={d}")
    return PointSet(d, tuple(inner + shell[:need]))


def integer_ceil_root(n: int, d: int) -> int:
    """ceil(n^{1/d}) in exact integer arithmetic."""
    c = 1
    while c ** d < n:
        c += 1
    return c
