"""Walkthrough: the volume bound and the 2^{kd} cluster recursion.

When the distance ratio rho_k/rho_1 is small, disjoint balls of radius
rho_1/2 around the points pack into a ball of radius (rho_1 + rho_k)/2,
so m <= (1 + rho_k/rho_1)^d.  When the ratio is large, some threshold
distance splits the set into well-separated clusters and recursion gives
m <= 2^{kd}.  A Monte Carlo Brunn-Minkowski check validates the volume
reasoning numerically.
"""

from kdist import (PairTable, PointSet, brunn_minkowski_mc_check,
                   decompose_recursive_bound, distance_spectrum,
                   exact_box_union_area, find_equivalence_threshold, linf,
                   vec, volume_ratio_bound)

spec = linf(2)

# Small-ratio regime: the 3x3 grid.
grid = PointSet.of([vec(x, y) for x in range(3) for y in range(3)])
sp = distance_spectrum(spec, grid)
print(f"grid: k = {sp.k}, ratio = {sp.ratio}, "
      f"volume bound = {volume_ratio_bound(sp, 2)} >= {len(grid)}")

area = exact_box_union_area(grid.points, sp.distances[0] / 2)
print(f"exact area of the union of radius-1/2 boxes: {area} "
      f"(= m * rho_1^2 = {len(grid)})")

mc = brunn_minkowski_mc_check(spec, grid, trials=200_000, seed=0)
print(f"Monte Carlo: vol(V) ~ {mc.vol_v:.3f} (formula {mc.vol_v_formula:.3f}), "
      f"vol(V-V) ~ {mc.vol_vv:.3f} <= {mc.vol_vv_upper:.3f}, ok = {mc.ok}")

# Large-ratio regime: two distant clusters on a line.
far = PointSet.of([vec(0), vec(1), vec(100), vec(101)])
sp = distance_spectrum(linf(1), far)
i = find_equivalence_threshold(far, linf(1))
print(f"\nclustered line set: k = {sp.k}, ratio = {sp.ratio}, "
      f"equivalence threshold level i = {i}")

node = decompose_recursive_bound(PairTable(linf(1), far))
print(f"recursive bound: {node.kind} node, |S| = {node.size} <= "
      f"{node.bound} <= 2^k = {node.claim}")
