"""Walkthrough: the dimension-generic bound min(2^{kd}, (k+1)^{(11^d-9^d)/2}).

A maximal 1/5-separated set of unit vectors has at most (11^d - 9^d)/2
elements by a packing argument.  The neighborhoods of the chosen centers
cover the unit sphere, and each generates an acute cone of half-width
below 1/2, so the chain-height machinery applies with that many cones.
"""

from kdist import (cone_halfwidth_check, cover_assignment, general_bound,
                   generated_cones, greedy_separated_set, hexagon_gauge,
                   packing_bound_check, separated_set_capacity, sphere_samples)

spec = hexagon_gauge()
samples = sphere_samples(spec, 10_000, seed=0)
sep = greedy_separated_set(spec, samples)
packing_bound_check(sep, spec)
print(f"greedy separated set: {len(sep.centers)} centers "
      f"(capacity {separated_set_capacity(2)})")

fresh = sphere_samples(spec, 1_000, seed=1)
report = cover_assignment(sep, spec, fresh)
print(f"fresh sphere samples unassigned: {len(report.unassigned)} of {len(fresh)}")

worst = 0.0
for cone in generated_cones(sep, spec, samples):
    hw = cone_halfwidth_check(cone, spec)
    assert hw.ok
    worst = max(worst, float(hw.max_distance))
print(f"largest proved cone half-width: {worst:.4f} (must stay below 0.5)")

for k in (1, 2, 3):
    for d in (2, 3, 4):
        print(f"general bound k={k} d={d}: {general_bound(k, d)}")
