"""Bounds and certificates for k-distance sets in Minkowski spaces.

Every chain route runs through ``chain_certificate``, whose
``HeightCertificate`` carries k and the one verdict ``ok``.  The names
below are the ones the demos, the tests and the README import; everything
else is reached through its module (``kdist.cover`` and so on).
"""

__version__ = "0.1.0"

from .chains import (PolyhedralCone, chain_certificate, check_cone_conditions,
                     linf_cone_family, parallelotope_cones)
from .cover import (cone_halfwidth_check, cover_assignment, general_bound,
                    generated_cones, greedy_separated_set,
                    packing_bound_check, separated_set_capacity,
                    sphere_samples)
from .decompose import (DecompositionNode, brunn_minkowski_mc_check,
                        clusters_at, decompose_recursive_bound,
                        exact_box_union_area, find_equivalence_threshold,
                        unit_ball_volume, volume_ratio_bound)
from .errors import CertificateError, GeometryError, InputError
from .norms import (hexagon_gauge, l1, linf, lp, norm_eval,
                    polygon_vertices_2d, polytopal, vec)
from .planar import (Route, best_route, max_area_normalization, planar_bound_certificate,
                     polygon_gauge, quadrant_cones, routes)
from .search import (SearchProblem, branch_and_bound, brute_force_oracle,
                     enumerate_optimal_subsets, extremal_grid,
                     is_grid_homothet, verify_extremal_uniqueness)
from .spectrum import PairTable, PointSet, best_distinct_witness, distance_spectrum
