import random
from fractions import Fraction

import pytest

from kdist import (DecompositionNode, InputError, PointSet,
                   brunn_minkowski_mc_check, clusters_at,
                   decompose_recursive_bound, exact_box_union_area,
                   find_equivalence_threshold, hexagon_gauge, l1, linf, lp,
                   unit_ball_volume, vec, volume_ratio_bound)
from kdist.gen import clustered_lattice_set
from kdist.spectrum import distance_spectrum


def _two_cluster_line():
    # {0, 1} and {100, 101}: distances 1, 99, 100, 101.
    return PointSet.of([vec(0), vec(1), vec(100), vec(101)])


def test_clusters_at_threshold_one():
    ps = _two_cluster_line()
    clusters = clusters_at(linf(1), ps, 1)
    assert clusters == [[vec(0), vec(1)], [vec(100), vec(101)]]


def test_clusters_at_non_equivalence():
    # Path 0 - 1 - 2 at threshold 1 is connected but not a clique.
    ps = PointSet.of([vec(0), vec(1), vec(2)])
    assert clusters_at(linf(1), ps, 1) is None
    assert clusters_at(linf(1), ps, 2) == [[vec(0), vec(1), vec(2)]]


def test_find_equivalence_threshold_line():
    ps = _two_cluster_line()
    sp = distance_spectrum(linf(1), ps)
    assert sp.k == 4
    assert find_equivalence_threshold(sp, ps, linf(1)) == 1


def test_find_equivalence_threshold_requires_k_at_least_2():
    ps = PointSet.of([vec(0), vec(1)])
    sp = distance_spectrum(linf(1), ps)
    with pytest.raises(InputError):
        find_equivalence_threshold(sp, ps, linf(1))


def test_threshold_none_when_no_transitive_level():
    # {0, 1, 2, 4}: every threshold level below the diameter gives a
    # connected component that is not a clique.
    ps = PointSet.of([vec(0), vec(1), vec(2), vec(4)])
    sp = distance_spectrum(linf(1), ps)
    assert sp.k == 4
    assert find_equivalence_threshold(sp, ps, linf(1)) is None


def test_threshold_exists_when_ratio_large():
    rng = random.Random(8)
    for _ in range(25):
        d = rng.choice((1, 2, 3))
        ps = clustered_lattice_set(rng, d)
        sp = distance_spectrum(linf(d), ps)
        if sp.k < 2 or sp.ratio <= 2 ** (sp.k - 1):
            continue
        assert find_equivalence_threshold(sp, ps, linf(d)) is not None


def test_volume_ratio_bound_values():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(2, 0)])
    sp = distance_spectrum(linf(2), ps)
    assert sp.ratio == 2
    assert volume_ratio_bound(sp, 2) == 9


def test_decompose_volume_branch():
    grid = PointSet.of([vec(x, y) for x in range(3) for y in range(3)])
    node = decompose_recursive_bound(grid, linf(2))
    assert node.kind == "volume"
    assert 9 <= node.bound <= node.claim == 16


def test_decompose_split_branch():
    ps = _two_cluster_line()
    node = decompose_recursive_bound(ps, linf(1))
    assert node.kind == "split" and node.threshold == 1
    assert len(node.children) == 2
    assert 4 <= node.bound <= node.claim == 16
    trace = node.to_json()
    assert trace["kind"] == "split" and len(trace["clusters"]) == 2


def test_decompose_clustered_sets():
    rng = random.Random(21)
    done = 0
    while done < 20:
        d = rng.choice((1, 2, 3))
        ps = clustered_lattice_set(rng, d)
        sp = distance_spectrum(linf(d), ps)
        if sp.k < 1:
            continue
        node = decompose_recursive_bound(ps, linf(d))
        assert len(ps) <= node.bound <= 2 ** (sp.k * d)
        done += 1


def test_unit_ball_volumes():
    assert unit_ball_volume(linf(2)) == 4
    assert unit_ball_volume(linf(3)) == 8
    assert unit_ball_volume(l1(2)) == 2
    assert unit_ball_volume(l1(3)) == Fraction(4, 3)
    assert unit_ball_volume(hexagon_gauge()) == 3
    assert unit_ball_volume(lp(2, 2.0)) == pytest.approx(3.14159265, rel=1e-6)


def test_exact_box_union_area():
    # Two unit squares overlapping by half.
    area = exact_box_union_area([vec(0, 0), vec(Fraction(1, 2), 0)],
                                Fraction(1, 2))
    assert area == Fraction(3, 2)
    # Disjoint squares add up.
    assert exact_box_union_area([vec(0, 0), vec(5, 5)], Fraction(1, 2)) == 2
    # Identical squares do not double count.
    assert exact_box_union_area([vec(0, 0), vec(0, 0)], 1) == 4


def test_mc_matches_exact_box_union():
    ps = PointSet.of([vec(0, 0), vec(1, 0), vec(0, 1)])
    sp = distance_spectrum(linf(2), ps)
    exact = float(exact_box_union_area(ps.points, sp.distances[0] / 2))
    report = brunn_minkowski_mc_check(linf(2), ps, trials=200_000, seed=1)
    assert report.ok
    assert report.vol_v == pytest.approx(exact, abs=4 * report.vol_v_halfwidth)


@pytest.mark.parametrize("spec,pts", [
    (linf(2), [(0, 0), (1, 0), (0, 1), (1, 1)]),
    (l1(2), [(0, 0), (2, 0), (0, 2)]),
    (hexagon_gauge(), [(0, 0), (1, 0), (1, 1)]),
    (linf(3), [(0, 0, 0), (1, 0, 0), (0, 1, 1)]),
])
def test_brunn_minkowski_mc(spec, pts):
    ps = PointSet.of([vec(*p) for p in pts])
    report = brunn_minkowski_mc_check(spec, ps, trials=150_000, seed=2)
    assert report.ok


def test_mc_rejects_high_dimension():
    with pytest.raises(InputError):
        brunn_minkowski_mc_check(linf(4), PointSet.of([vec(0, 0, 0, 0)]))


def test_bound_json_is_float_in_range_and_exact_floor_past_it():
    small = DecompositionNode("volume", 2, 1, Fraction(9, 4), 4)
    assert small.to_json()["bound"] == 2.25
    huge = Fraction(3 ** 700, 2)                 # about 1.3e334
    assert DecompositionNode("volume", 2, 1, huge, 4).to_json()["bound"] == 3 ** 700 // 2
