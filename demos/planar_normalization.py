"""Walkthrough: the (k+1)^2 bound for any planar norm.

A linear change of coordinates squeezes any symmetric convex polygon
between the cross-polytope and the square, with every boundary segment
inside one quadrant.  The first and second quadrants (minus some open
axis rays when the boundary has axis-parallel segments) then form a
two-cone family, and the chain-height argument gives (k+1)^2.

The hexagonal gauge is the interesting case: its equilateral sets have
at most 3 points, strictly below the bound 4 attained by parallelogram
norms.
"""

from kdist import (PointSet, SearchProblem, best_route, branch_and_bound, hexagon_gauge,
                   max_area_normalization, planar_bound_certificate,
                   polygon_vertices_2d, quadrant_cones, routes, vec)
from kdist.planar import removed_rays

hexa = hexagon_gauge()
verts = polygon_vertices_2d(hexa)
print("hexagon unit ball vertices:",
      [tuple(int(a) for a in v) for v in verts])

nrm = max_area_normalization(verts)
print(f"normalization: x0 = {tuple(int(a) for a in nrm.x0)}, "
      f"y0 = {tuple(int(a) for a in nrm.y0)}")
print("normalized vertices:", [tuple(str(a) for a in v) for v in nrm.vertices])

qc = quadrant_cones(nrm.vertices)
print("removed boundary rays:",
      [(c, tuple(int(a) for a in r)) for c, r in removed_rays((qc.p1, qc.p2))])
print("cone conditions hold:", qc.condition_report.ok)

# Search for a maximum equilateral set among the vertices and the center.
ground = PointSet(2, tuple(verts) + (vec(0, 0),))
best = branch_and_bound(SearchProblem(hexa, ground, 1))
print(f"maximum equilateral subset: {best.size} points (bound is 4)")

# The route table picks the planar route for the hexagon; its claim is (k+1)^2.
cert = planar_bound_certificate(hexa, PointSet(2, best.points))
route = best_route(routes(hexa), cert.k, 2)
print(f"certificate: h = {cert.h} <= k = {cert.k}, "
      f"bound {cert.bound} <= {route.claim(cert.k, 2)} ({route.name}), ok = {cert.ok}")
