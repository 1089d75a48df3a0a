"""Bounds and certificates for k-distance sets in Minkowski spaces."""

__version__ = "0.1.0"

from .chains import (ConeConditionReport, HeightCertificate, LInfCone,
                     PolyhedralCone, chain_certificate,
                     chain_distinct_distances, check_cone_conditions,
                     cone_heights, linf_cone_family)
from .cover import (CoverReport, GeneratedCone, SeparatedSet,
                    cone_halfwidth_check, cover_assignment, general_bound,
                    generated_cones, greedy_separated_set,
                    packing_bound_check, separated_set_capacity,
                    sphere_samples)
from .decompose import (DecompositionNode, MCVolumeReport,
                        brunn_minkowski_mc_check, clusters_at,
                        decompose_recursive_bound, exact_box_union_area,
                        find_equivalence_threshold, unit_ball_volume,
                        volume_ratio_bound)
from .errors import (CertificateError, FalsificationError, GeometryError,
                     InputError, KdistError)
from .norms import (NormSpec, Vec, hexagon_gauge, l1, linf, lp, norm_eval,
                    norm_from_json, norm_to_json, polygon_vertices_2d,
                    polytopal, validate_norm, vec)
from .planar import (Normalization2D, PlanarCertificate, QuadrantCones,
                     apply_matrix, max_area_normalization,
                     planar_bound_certificate, polygon_gauge, quadrant_cones)
from .search import (SearchProblem, SearchResult, UniquenessReport,
                     branch_and_bound, brute_force_oracle,
                     enumerate_optimal_subsets, extremal_grid,
                     is_grid_homothet, verify_extremal_uniqueness)
from .spectrum import (DistanceSpectrum, PointSet, best_distinct_witness,
                       distance_spectrum, is_k_distance_set,
                       pointset_from_json, pointset_to_json)
