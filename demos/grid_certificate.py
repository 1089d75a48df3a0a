"""Walkthrough: the (k+1)^d bound for k-distance sets under parallelotope norms.

The grid {0, ..., k}^d realizes exactly k distances under l-infinity, and
the chain-height certificate shows no k-distance set can be larger: each
point gets a vector of longest-chain heights in the d cones
{v : max_j |v_j| = v_i}, the map is injective, and every height is at most
k.  Any parallelotope norm ||x|| = ||A x||_inf gets the same certificate
from the same cones pulled back by A: a skewed cube is certified next to
the cube.
"""

from itertools import product

from kdist import (PairTable, PointSet, SearchProblem, branch_and_bound,
                   chain_certificate, distance_spectrum, linf,
                   linf_cone_family, parallelotope_cones, polytopal, vec)
from kdist.search import extremal_grid

k, d = 2, 2
grid = extremal_grid(k, d)
spec = linf(d)

sp = distance_spectrum(spec, grid)
print(f"grid {{0..{k}}}^{d}: {len(grid)} points, "
      f"distances {[str(x) for x in sp.distances]}")

cert = chain_certificate(PairTable(spec, grid), linf_cone_family(d))
print(f"chain certificate: h = {cert.h}, bound (h+1)^{d} = {cert.bound}, "
      f"injective = {cert.injective}")

# Exhaustive search over a strictly larger lattice confirms the grid is
# a maximum 2-distance set.
ground = PointSet.of([vec(x, y) for x in range(k + 2) for y in range(k + 2)])
result = branch_and_bound(SearchProblem(spec, ground, k))
print(f"search over {{0..{k + 1}}}^2: optimum size {result.size} "
      f"= (k+1)^d = {(k + 1) ** d}")
print(f"an optimum: {[tuple(int(a) for a in p) for p in result.points]}")

# The cube and a skewed cube in d = 3.  The skewed norm
# max(|x1 + x2|, |x2|, |x3|) is ||A x||_inf for A with rows (1, 1, 0),
# (0, 1, 0), (0, 0, 1), and A^-1 {0, 1, 2}^3 is its 27-point 2-distance set.
cube = extremal_grid(k, 3)
skewed = polytopal([(1, 1, 0), (0, 1, 0), (0, 0, 1)])
skewed_grid = PointSet.of([vec(a - b, b, c) for a, b, c in product(range(k + 1), repeat=3)])
for name, norm, pts in (("cube", linf(3), cube), ("skewed cube", skewed, skewed_grid)):
    cert = chain_certificate(PairTable(norm, pts), parallelotope_cones(norm))
    print(f"{name}: {len(pts)} points, k = {distance_spectrum(norm, pts).k}, "
          f"h = {cert.h}, bound (h+1)^3 = {cert.bound}, injective = {cert.injective}")
