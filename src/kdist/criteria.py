"""The ten acceptance criteria, each defined once.

``tests/test_acceptance.py`` runs every criterion at full scale
(``full=True``); ``kdist selftest`` runs the same ten, numbered the same,
at small scale (``full=False``).  Both scales draw from the same seeds;
the small one uses fewer sets, samples and trials.  A criterion returns a
one-line detail on success and raises AssertionError (through ``check``,
so the checks survive ``python -O``) or a KdistError on failure.
Criteria 6 and 7 re-verify their bounds on every point set that criteria
1 through 4 produce.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product

from .chains import chain_certificate, linf_cone_family
from .cover import (cone_halfwidth_check, cover_assignment, general_bound,
                    generated_cones, greedy_separated_set, packing_bound_check,
                    sphere_samples)
from .decompose import (brunn_minkowski_mc_check, decompose_recursive_bound,
                        exact_box_union_area, find_equivalence_threshold,
                        volume_ratio_bound)
from .errors import KdistError
from .gen import (clustered_lattice_set, half_open_grid_set, integer_ceil_root,
                  random_lattice_subset, random_symmetric_polygon)
from .norms import hexagon_gauge, l1, linf, lp, polygon_vertices_2d, vec
from .planar import max_area_normalization, planar_bound_certificate
from .search import (SearchProblem, branch_and_bound, brute_force_oracle,
                     extremal_grid, is_grid_homothet,
                     verify_extremal_uniqueness)
from .spectrum import PairTable, PointSet, best_distinct_witness, distance_spectrum

PLANAR_GAUGES = (linf(2), l1(2), hexagon_gauge())


def check(ok, detail: str) -> None:
    """Raise AssertionError(detail) unless ok; unlike ``assert``, never stripped."""
    if not ok:
        raise AssertionError(detail)


# ---------------------------------------------------------------------------
# point sets of criteria 1-4 and the clustered sets, shared with criteria 6-7

def _optimum(spec, ground: PointSet, k: int) -> PointSet:
    return PointSet(ground.dim, branch_and_bound(SearchProblem(spec, ground, k)).points)


@cache
def _random_subsets(seed: int, count: int, sides: tuple, max_size: int) -> tuple:
    """``count`` seeded pairs (d, random subset of {0..sides[d-1]}^d), d in 1..3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice((1, 2, 3))
        out.append((d, random_lattice_subset(rng, d, sides[d - 1], rng.randint(2, max_size))))
    return tuple(out)


@cache
def _grid_optima() -> tuple:
    """(d, k, linf optimum on {0..k+1}^d) for the cases of criterion 1."""
    cases = [(1, k) for k in range(1, 5)] + [(2, 1), (2, 2), (3, 1)]
    return tuple((d, k, _optimum(linf(d), extremal_grid(k + 1, d), k))
                 for d, k in cases)


def _height_sets(full: bool) -> tuple:
    return _random_subsets(202, 200 if full else 20, (5, 5, 5), 25)


def _witness_sets(full: bool) -> tuple:
    return _random_subsets(303, 200 if full else 15, (80, 8, 4), 64)


@cache
def _planar_optima() -> tuple:
    """(gauge, k, optimum) on {0..k+1}^2 per planar gauge, then the hexagon's vertices."""
    out = [(spec, k, _optimum(spec, extremal_grid(k + 1, 2), k))
           for spec in PLANAR_GAUGES for k in (1, 2)]
    hexa = hexagon_gauge()
    ground = PointSet(2, tuple(polygon_vertices_2d(hexa)) + (vec(0, 0),))
    return tuple(out) + ((hexa, 1, _optimum(hexa, ground, 1)),)


def _suite_sets(full: bool) -> list:
    """(norm, point set) for every set that criteria 1-4 produce, in order."""
    return ([(linf(d), r) for d, _, r in _grid_optima()]
            + [(linf(d), ps) for d, ps in _height_sets(full)]
            + [(linf(d), ps) for d, ps in _witness_sets(full)]
            + [(spec, ps) for spec, _, ps in _planar_optima()])


@cache
def _clustered_sets(full: bool) -> tuple:
    """(d, ps, spectrum) for clustered linf sets with 2 <= k <= 4 and a large ratio."""
    rng = random.Random(606)
    sets = []
    while len(sets) < (100 if full else 10):
        d = rng.choice((1, 2, 3))
        ps = clustered_lattice_set(rng, d)
        sp = distance_spectrum(linf(d), ps)
        if 2 <= sp.k <= 4 and sp.ratio > 2 ** (sp.k - 1):
            sets.append((d, ps, sp))
    return tuple(sets)


# ---------------------------------------------------------------------------
# criteria

def grid_extremality(full: bool) -> str:
    optima = _grid_optima()
    for d, k, ps in optima:
        check(len(ps) == (k + 1) ** d, f"d={d}, k={k}: optimum has {len(ps)} points")
        check(is_grid_homothet(ps.points, k), f"d={d}, k={k}: optimum is not a grid")
    return f"{len(optima)} (d, k) cases, optimum (k+1)^d each"


def height_certificates(full: bool) -> str:
    sets = _height_sets(full)
    for d, ps in sets:
        cert = chain_certificate(PairTable(linf(d), ps), linf_cone_family(d))
        where = f"d={d}, {len(ps)} points, k={cert.k}, h={cert.h}"
        check(cert.ok, f"{where}: height certificate fails")
    return f"{len(sets)} random lattice subsets, injective with h <= k"


def distinct_distance_witness(full: bool) -> str:
    sets = _witness_sets(full)
    for d, ps in sets:
        _, count = best_distinct_witness(linf(d), ps)
        need = integer_ceil_root(len(ps), d) - 1
        check(count >= need, f"d={d}, {len(ps)} points: witness sees {count} < {need}")
    for n in range(5, 17):
        _, count = best_distinct_witness(linf(2), half_open_grid_set(n, 2))
        need = integer_ceil_root(n, 2) - 1
        check(count == need, f"half-open grid, n={n}: witness sees {count}, not {need}")
    return f"{len(sets)} random sets above the bound; equality on half-open grids"


def planar_bound(full: bool) -> str:
    optima = _planar_optima()
    for spec, k, ps in optima:
        where = f"{spec.kind} gauge, k={k}"
        check(len(ps) <= (k + 1) ** 2, f"{where}: optimum has {len(ps)} points")
        check(planar_bound_certificate(spec, ps).ok, f"{where}: planar certificate fails")
    _, k, ps = optima[-1]
    check(k == 1 and len(ps) == 3 < 4, f"hexagon optimum has {len(ps)} points, not 3")
    return "3 gauges x k in {1,2}; hexagon optimum 3 < 4"


def normalization(full: bool) -> str:
    rng = random.Random(505)
    count = 50 if full else 10
    for i in range(count):
        nrm = max_area_normalization(random_symmetric_polygon(rng))  # raises on invariant failure
        check(all(abs(a) <= 1 for v in nrm.vertices for a in v),
              f"normalized polygon {i} leaves the square")
    return f"{count} random symmetric polygons normalized exactly"


def cluster_equivalence(full: bool) -> str:
    clustered, suite = _clustered_sets(full), _suite_sets(full)
    for i, (d, ps, sp) in enumerate(clustered):
        check(find_equivalence_threshold(ps, linf(d)) is not None,
              f"clustered set {i}: no equivalence threshold")
        node = decompose_recursive_bound(PairTable(linf(d), ps))
        check(len(ps) <= node.bound <= 2 ** (sp.k * d),
              f"clustered set {i}: bound {node.bound} outside [m, 2^kd]")
    for i, (spec, ps) in enumerate(suite):
        node = decompose_recursive_bound(PairTable(spec, ps))
        check(len(ps) <= node.bound, f"suite set {i}: bound {node.bound} < m = {len(ps)}")
        check(node.k < 1 or node.bound <= 2 ** (node.k * spec.dim),
              f"suite set {i}: bound {node.bound} > 2^kd, k = {node.k}")
    return f"{len(clustered)} clustered sets + {len(suite)} suite sets within 2^kd"


def volume_bound(full: bool) -> str:
    suite = [(linf(d), ps) for d, ps, _ in _clustered_sets(full)] + _suite_sets(full)
    checked_exact = 0
    for i, (spec, ps) in enumerate(suite):
        sp = distance_spectrum(spec, ps)
        if sp.k < 1:
            continue
        check(len(ps) <= volume_ratio_bound(sp, spec.dim), f"set {i}: volume bound fails")
        if spec.kind == "linf" and spec.dim == 2:
            rho1 = sp.distances[0]
            area = exact_box_union_area(ps.points, rho1 / 2)
            check(area == len(ps) * rho1 ** 2,  # disjoint interiors
                  f"set {i}: box union has area {area}, not m rho_1^2")
            checked_exact += 1
    mc_cases = [PointSet.of([vec(x, y) for x in range(3) for y in range(3)]),
                PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1), vec(3, 3)])]
    for ps in mc_cases:
        sp = distance_spectrum(linf(2), ps)
        exact = float(exact_box_union_area(ps.points, sp.distances[0] / 2))
        report = brunn_minkowski_mc_check(linf(2), ps, trials=1_000_000 if full else 20_000,
                                          seed=7)
        check(report.ok, f"Monte Carlo volume check fails on {len(ps)} points")
        check(abs(report.vol_v - exact) <= 0.02 * exact,
              f"Monte Carlo area {report.vol_v} is not within 2% of {exact}")
    return (f"volume bound on {len(suite)} sets; "
            f"{checked_exact} exact box unions; MC within 2%")


def cone_cover(full: bool) -> str:
    samples_n, fresh_n = (10_000, 1_000) if full else (1_000, 100)
    for spec in PLANAR_GAUGES:
        samples = sphere_samples(spec, samples_n, seed=8)
        sep = greedy_separated_set(spec, samples)
        check(packing_bound_check(sep, spec), f"{spec.kind}: packing check fails")
        check(len(sep.centers) <= 20, f"{spec.kind}: {len(sep.centers)} centers > 20")
        check(cover_assignment(sep, spec, sphere_samples(spec, fresh_n, seed=9)).ok,
              f"{spec.kind}: fresh unit vectors left uncovered")
        for cone in generated_cones(sep, spec, samples):
            report = cone_halfwidth_check(cone, spec)
            check(report.ok and report.max_distance < Fraction(1, 2),
                  f"{spec.kind}: cone half-width {report.max_distance} not below 1/2")
    for k, d in product(range(1, 5), repeat=2):
        independent = min(2 ** (k * d), (k + 1) ** ((11 ** d - 9 ** d) // 2))
        got = general_bound(k, d)
        check(got == independent, f"general_bound({k}, {d}) = {got}, expected {independent}")
    return "3 gauges covered with m <= 20 and half-width < 1/2"


def oracle_equivalence(full: bool) -> str:
    rng = random.Random(909)
    specs = [linf(1), linf(2), linf(3), l1(2), hexagon_gauge(), lp(2, 2.0)]
    count = 100 if full else 6
    for _ in range(count):
        spec = rng.choice(specs)
        d = spec.dim
        ps = random_lattice_subset(rng, d, 4, rng.randint(3, 18))
        if not spec.exact:
            ps = PointSet(d, tuple(tuple(float(a) for a in p) for p in ps.points))
        problem = SearchProblem(spec, ps, rng.randint(1, 3))
        found = branch_and_bound(problem).size
        oracle = brute_force_oracle(problem).size
        check(found == oracle, f"{spec.kind} in d={d}, k={problem.k}, "
                               f"{len(ps)} points: search {found}, oracle {oracle}")
    return f"{count} mixed-norm instances, search equals oracle"


def extremal_uniqueness(full: bool) -> str:
    total = 0
    for k in (1, 2):
        for m in range(k, 5):
            optima = verify_extremal_uniqueness(2, k, m)   # a non-grid optimum raises
            check(optima, f"k={k}, m={m}: no optimum")
            total += len(optima)
    return f"{total} desk-scale optima, all grid homothets"


#: The criteria in acceptance order: criterion n is CRITERIA[n - 1].
CRITERIA = (grid_extremality, height_certificates, distinct_distance_witness,
            planar_bound, normalization, cluster_equivalence, volume_bound,
            cone_cover, oracle_equivalence, extremal_uniqueness)


def run_selftest() -> int:
    """Run every criterion at small scale; exit status 0 if all pass, else 2."""
    failures = 0
    for number, criterion in enumerate(CRITERIA, 1):
        try:
            status, detail = "PASS", criterion(full=False)
        except (AssertionError, KdistError) as exc:
            status, detail = "FAIL", str(exc) or type(exc).__name__
            failures += 1
        print(f"{status}  {number:2d} {criterion.__name__:26s} {detail}")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 2 if failures else 0
