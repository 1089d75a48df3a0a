import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdist import (InputError, PointSet, SearchProblem, branch_and_bound,
                   brute_force_oracle, enumerate_optimal_subsets,
                   extremal_grid, general_bound, hexagon_gauge, is_grid_homothet,
                   l1, linf, lp, polygon_gauge, polytopal, vec,
                   verify_extremal_uniqueness)
from kdist.errors import FalsificationError
from kdist.gen import random_lattice_subset, random_symmetric_polygon
from kdist.norms import polygon_vertices_2d
from kdist import search
from kdist.search import _bound_cap, _pair_classes, _root_layer
from kdist.spectrum import distance_spectrum


def test_grid_is_optimal_on_small_lattice():
    ground = PointSet.of([vec(x, y) for x in range(4) for y in range(4)])
    result = branch_and_bound(SearchProblem(linf(2), ground, 2))
    assert result.size == 9
    assert is_grid_homothet(result.points, 2)


def test_branch_and_bound_line():
    ground = PointSet.of([vec(i) for i in range(10)])
    for k in range(1, 5):
        result = branch_and_bound(SearchProblem(linf(1), ground, k))
        assert result.size == k + 1
        assert result.points == tuple(vec(i) for i in range(k + 1))


def test_branch_and_bound_reports_lex_smallest():
    ground = PointSet.of([vec(0), vec(1), vec(5), vec(6)])
    result = branch_and_bound(SearchProblem(linf(1), ground, 1))
    assert result.points == (vec(0), vec(1))


def test_oracle_matches_branch_and_bound():
    rng = random.Random(101)
    for _ in range(25):
        d = rng.choice((1, 2))
        ps = random_lattice_subset(rng, d, 4, rng.randint(3, 12))
        k = rng.randint(1, 3)
        problem = SearchProblem(linf(d), ps, k)
        a = brute_force_oracle(problem)
        b = branch_and_bound(problem)
        assert a.size == b.size
        assert a.points == b.points  # both lex-smallest by construction


def test_oracle_refuses_large_ground():
    ground = PointSet.of([vec(i) for i in range(21)])
    with pytest.raises(InputError):
        brute_force_oracle(SearchProblem(linf(1), ground, 1))


def test_bound_pruning_gives_same_size():
    ground = PointSet.of([vec(x, y) for x in range(3) for y in range(3)])
    problem = SearchProblem(linf(2), ground, 1)
    plain = branch_and_bound(problem)
    pruned = branch_and_bound(problem, use_bound_pruning=True)
    assert plain.size == pruned.size == 4
    assert pruned.nodes <= plain.nodes


@pytest.mark.parametrize("spec, cap", [
    (linf(3), 27), (l1(2), 9), (hexagon_gauge(), 9),
    (polytopal([(1, 1, 0), (0, 1, 0), (0, 0, 1)]), 27),    # a skewed cube
    (l1(3), general_bound(2, 3)), (lp(3, 3.0), general_bound(2, 3)),
])
def test_bound_cap_is_the_tightest_proved_bound(spec, cap):
    ground = PointSet.of([vec(*[0] * spec.dim)])
    assert _bound_cap(SearchProblem(spec, ground, 2)) == cap


def _ref_homothet(pts, k):
    # a + lambda {0..k}^d with a the coordinatewise minimum and lambda read off axis 0.
    d = len(pts[0])
    a = [min(p[i] for p in pts) for i in range(d)]
    lam = Fraction(max(p[0] for p in pts) - a[0], k)
    grid = {tuple(a[i] + lam * c[i] for i in range(d)) for c in product(range(k + 1), repeat=d)}
    return lam > 0 and len(pts) == len(grid) and set(pts) == grid


def test_is_grid_homothet_matches_the_definition():
    rng = random.Random(12)
    for _ in range(3000):
        d, k = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.5:
            steps = [Fraction(rng.randint(1, 3), rng.randint(1, 2))] * d
            if rng.random() < 0.3:
                steps[-1] += 1
            pts = [tuple(steps[i] * c[i] - 1 for i in range(d))
                   for c in product(range(k + 1), repeat=d)]
            if rng.random() < 0.4:
                pts[rng.randrange(len(pts))] = tuple(Fraction(rng.randint(-2, 6)) for _ in range(d))
        else:
            pts = [tuple(Fraction(rng.randint(0, 3)) for _ in range(d))
                   for _ in range(rng.randint(1, 12))]
        pts = list(dict.fromkeys(pts))
        assert is_grid_homothet(pts, k) == _ref_homothet(pts, k), (pts, k)


def test_hexagon_equilateral_optimum_is_three():
    hexa = hexagon_gauge()
    ground = PointSet(2, tuple(polygon_vertices_2d(hexa)) + (vec(0, 0),))
    result = branch_and_bound(SearchProblem(hexa, ground, 1))
    assert result.size == 3


def test_search_with_float_norm():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844386)]
    ground = PointSet.of(pts + [(5.0, 5.0)])
    result = branch_and_bound(SearchProblem(lp(2, 2.0), ground, 1))
    assert result.size == 3
    assert set(result.points) == set(PointSet.of(pts).points)


def test_enumerate_optimal_subsets_counts():
    ground = PointSet.of([vec(x, y) for x in range(3) for y in range(3)])
    problem = SearchProblem(linf(2), ground, 1)
    subs = enumerate_optimal_subsets(problem, 4)
    # The four axis-aligned unit squares of {0,1,2}^2 plus the doubled
    # square {0,2}^2 are the only 1-class 4-subsets.
    assert len(subs) == 5
    assert all(distance_spectrum(linf(2), PointSet(2, s)).k == 1 for s in subs)


def test_extremal_grid_and_homothets():
    grid = extremal_grid(2, 2, offset=(3, -1), scale=Fraction(1, 2))
    assert len(grid) == 9
    assert is_grid_homothet(grid.points, 2)
    assert not is_grid_homothet(grid.points[:-1] + (vec(100, 100),), 2)
    sheared = [(p[0] + p[1], p[1]) for p in extremal_grid(1, 2).points]
    assert not is_grid_homothet(sheared, 1)


def test_verify_extremal_uniqueness_small():
    optima = verify_extremal_uniqueness(2, 1, 2)
    assert all(is_grid_homothet(s, 1) for s in optima)
    # 4 unit squares + the doubled square on {0,1,2}^2.
    assert len(optima) == 5


def test_verify_extremal_uniqueness_raises_on_any_other_optimum(monkeypatch):
    # Four points with two distances, neither a 1-distance set nor a grid:
    # any enumerated (k+1)^d-point set that is not a grid raises, whatever
    # its number of distances.
    odd = (vec(0, 0), vec(0, 1), vec(1, 0), vec(2, 0))
    monkeypatch.setattr(search, "enumerate_optimal_subsets", lambda problem, size: [odd])
    with pytest.raises(FalsificationError, match="non-grid"):
        verify_extremal_uniqueness(2, 1, 2)


def test_is_grid_homothet_of_no_points_is_false():
    assert not is_grid_homothet([], 1)
    assert not is_grid_homothet((), 2)


def test_verify_extremal_uniqueness_rejects_large():
    with pytest.raises(InputError):
        verify_extremal_uniqueness(3, 1, 2)


def test_empty_ground_is_rejected():
    with pytest.raises(InputError, match="empty ground"):
        SearchProblem(linf(1), PointSet(1, ()), 1)


def test_enumeration_rejects_size_below_one():
    problem = SearchProblem(linf(1), PointSet.of([vec(0), vec(1)]), 1)
    for size in (0, -1):
        with pytest.raises(InputError):
            enumerate_optimal_subsets(problem, size)


# ---------------------------------------------------------------------------
# the forward-checking search against the oracle and a combinations filter

#: Lattice side per dimension, so that 14 distinct points fit.
SIDE = {1: 15, 2: 5, 3: 3}


@st.composite
def search_problems(draw):
    """Up to 14 lattice points under a drawn gauge (float points for lp)."""
    kind = draw(st.sampled_from(["linf1", "linf2", "linf3", "l1-2", "l1-3",
                                 "hexagon", "octagon", "lp2"]))
    if kind == "octagon":
        rng = draw(st.randoms(use_true_random=False))
        spec = polygon_gauge(random_symmetric_polygon(rng, 8, 8))
    else:
        spec = {"linf1": linf(1), "linf2": linf(2), "linf3": linf(3),
                "l1-2": l1(2), "l1-3": l1(3), "hexagon": hexagon_gauge(),
                "lp2": lp(2, 2.0)}[kind]
    d = spec.dim
    n = draw(st.integers(1, 14))
    cells = draw(st.lists(st.tuples(*[st.integers(0, SIDE[d])] * d),
                          min_size=n, max_size=n, unique=True))
    pts = [tuple(float(c) for c in cell) if kind == "lp2" else vec(*cell)
           for cell in cells]
    return SearchProblem(spec, PointSet(d, tuple(pts)), draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(problem=search_problems())
def test_branch_and_bound_matches_oracle(problem):
    want = brute_force_oracle(problem)
    for use_bound_pruning in (False, True):
        got = branch_and_bound(problem, use_bound_pruning=use_bound_pruning)
        assert got.points == want.points


def _combinations_filter(problem, size):
    """The subsets of the given size with at most k classes, by combinations of the sorted points."""
    pts = sorted(problem.ground.points)
    cls = _pair_classes(problem.spec, PointSet(problem.ground.dim, tuple(pts))).classes
    return [tuple(pts[i] for i in comb)
            for comb in combinations(range(len(pts)), size)
            if len({cls[a][b] for a, b in combinations(comb, 2)}) <= problem.k]


@settings(max_examples=100, deadline=None)
@given(problem=search_problems(), data=st.data())
def test_enumeration_matches_combinations_filter(problem, data):
    size = data.draw(st.integers(1, len(problem.ground)))
    assert enumerate_optimal_subsets(problem, size) == _combinations_filter(problem, size)


# ---------------------------------------------------------------------------
# finite-ground evidence for the equality clause of the conjecture: the
# maximum k-distance subset of these grounds stays below (k+1)^d unless the
# unit ball is a parallelotope.  These are exhaustive searches of one finite
# ground each, not a proof for the whole space.

def _lattice(d: int, m: int) -> PointSet:
    return PointSet(d, tuple(vec(*c) for c in product(range(m + 1), repeat=d)))


def test_hexagon_on_9x9_grid_stays_below_16():
    result = branch_and_bound(SearchProblem(hexagon_gauge(), _lattice(2, 8), 3))
    assert result.size == 12 < 4 ** 2
    # The README example: the root branches on the 9 points of x = 0 only
    # (80,834 nodes on all 81).  The count pins the walk's visiting order.
    assert result.nodes == 27_564


def test_enumeration_on_8x8_grid_lists_the_readme_optima():
    optima = enumerate_optimal_subsets(SearchProblem(linf(2), _lattice(2, 7), 2), 9)
    assert len(optima) == 56 and optima == sorted(optima)
    assert all(is_grid_homothet(s, 2) for s in optima)


def test_extremal_grid_deeper_than_the_recursion_limit():
    # The paper's tight case at (k+1)^2 = 1,024 points, one walk level per point.
    grid = extremal_grid(31, 2)
    result = branch_and_bound(SearchProblem(linf(2), grid, 31), use_bound_pruning=True)
    assert result.size == 1024 == len(grid) and is_grid_homothet(result.points, 31)


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_searches_do_not_recurse_per_point():
    # A limit just above this test's own depth: any recursion per chosen
    # point on the 300-point line fails at once, whatever the default limit.
    problem = SearchProblem(linf(1), PointSet(1, tuple(vec(i) for i in range(300))), 299)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        result = branch_and_bound(problem)
        optima = enumerate_optimal_subsets(problem, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert result.size == 300 and optima == [result.points]


@pytest.mark.parametrize("k, size", [(1, 6), (2, 16)])
def test_l1_on_4x4x4_grid_stays_below_grid_bound(k, size):
    result = branch_and_bound(SearchProblem(l1(3), _lattice(3, 3), k))
    assert result.size == size < (k + 1) ** 3


def test_linf_on_4x4x4_grid_attains_grid_bound_with_a_homothet():
    result = branch_and_bound(SearchProblem(linf(3), _lattice(3, 3), 1))
    assert result.size == 2 ** 3
    assert is_grid_homothet(result.points, 1)


# ---------------------------------------------------------------------------
# the root cut: on an exact ground closed under the shift along axis 0, the
# root branches only on the lowest layer L0 of axis 0

#: A sheared square: a polytopal gauge that is no product of intervals.
SKEWED = polytopal([(1, 1), (0, 1)])
CUT_SPECS = {1: [linf(1)], 2: [linf(2), l1(2), hexagon_gauge(), SKEWED, lp(2, 2.0)],
             3: [linf(3), l1(3)]}


@st.composite
def shift_closed_grounds(draw, max_points=20):
    """(problem, kind): columns x0 + i*s0 (i < m) of axis 0 over the cells of
    the other axes, column i holding the cells of height above i, so that the
    ground is closed under the shift by s0 along axis 0.  A "box" gives every
    cell of a product of ranges the height m, a "staircase" draws the cells
    and their heights, and "short" drops, from a column of at least two
    cells, one point whose upward shift is in the ground: L0 and s0 stay as
    they were, and the ground is one point short of closed.  Offsets and
    steps are rational; lp gets the points as floats."""
    kind = draw(st.sampled_from(["box", "staircase", "short"]))
    d = draw(st.integers(2 if kind == "short" else 1, 3))
    m = draw(st.integers(2, 8 if d == 1 else 4))
    room = max_points // m
    if kind == "box":
        counts = [draw(st.integers(1, 6)) for _ in range(d - 1)]
        while prod(counts) > room:
            counts[counts.index(max(counts))] -= 1
        height = dict.fromkeys(product(*map(range, counts)), m)
    else:
        size = 1 if d == 1 else draw(st.integers(2 if kind == "short" else 1, room))
        cells = draw(st.lists(st.tuples(*[st.integers(0, 5)] * (d - 1)), unique=True,
                              min_size=size, max_size=size))
        height = {c: draw(st.integers(1, m)) for c in cells}
        if kind == "short":
            height[cells[0]] = max(height[cells[0]], 2)
    pts = {(i, *c) for c, h in height.items() for i in range(h)}
    if kind == "short":
        column = {i: sum(h > i for h in height.values()) for i in range(m)}
        i, c = draw(st.sampled_from(sorted((i, c) for c, h in height.items()
                                           for i in range(h - 1) if column[i] >= 2)))
        pts.remove((i, *c))
    rational = st.fractions(-3, 3, max_denominator=4)
    offset = [draw(rational) for _ in range(d)]
    step = [draw(st.fractions(Fraction(1, 4), 3, max_denominator=4)) for _ in range(d)]
    spec = draw(st.sampled_from(CUT_SPECS[d]))
    ground = [tuple(o + t * a for o, t, a in zip(offset, step, p)) for p in pts]
    if not spec.exact:
        ground = [tuple(map(float, p)) for p in ground]
    return SearchProblem(spec, PointSet(d, tuple(ground)), draw(st.integers(1, 3))), kind


@settings(max_examples=40, deadline=None)
@given(case=shift_closed_grounds())
def test_root_cut_matches_oracle(case):
    problem, kind = case
    pts = sorted(problem.ground.points)
    layer, n = sum(p[0] == pts[0][0] for p in pts), len(pts)
    cut = problem.spec.exact and kind != "short"
    table = _pair_classes(problem.spec, PointSet(problem.ground.dim, tuple(pts)))
    assert _root_layer(problem.spec, table.ints) == (layer if cut else n)
    want = brute_force_oracle(problem)
    for use_bound_pruning in (False, True):
        got = branch_and_bound(problem, use_bound_pruning=use_bound_pruning)
        assert got.points == want.points


@settings(max_examples=15, deadline=None)
@given(case=shift_closed_grounds(max_points=36))
def test_root_cut_matches_enumeration_beyond_the_oracle(case):
    problem, _ = case
    got = branch_and_bound(problem)
    assert enumerate_optimal_subsets(problem, got.size)[0] == got.points
    assert not enumerate_optimal_subsets(problem, got.size + 1)


def _uncut_enumeration(problem, size):
    """enumerate_optimal_subsets with its root on every point and no translates."""
    with mock.patch.object(search, "_root_layer", lambda spec, ints: len(ints)):
        return enumerate_optimal_subsets(problem, size)


@settings(max_examples=60, deadline=None)
@given(case=shift_closed_grounds(max_points=20))
def test_enumeration_cut_matches_the_uncut_enumeration(case):
    problem, _ = case
    best = branch_and_bound(problem).size
    for size in range(1, best + 2):
        assert enumerate_optimal_subsets(problem, size) == _uncut_enumeration(problem, size)


@settings(max_examples=60, deadline=None)
@given(case=shift_closed_grounds(max_points=14), data=st.data())
def test_enumeration_cut_matches_combinations_filter(case, data):
    problem, _ = case
    size = data.draw(st.integers(1, len(problem.ground)))
    assert enumerate_optimal_subsets(problem, size) == _combinations_filter(problem, size)


def _root_branches(monkeypatch, run, *args) -> int:
    """The number of root candidates the search run(*args) forward-checks."""
    calls, check = [], search._forward_check
    with monkeypatch.context() as patch:
        patch.setattr(search, "_forward_check",
                      lambda cls, k, cands, j: calls.append(cands) or check(cls, k, cands, j))
        run(*args)
    return sum(cands is calls[0] for cands in calls)


@pytest.mark.parametrize("spec", [linf(2), l1(2), hexagon_gauge(), SKEWED, linf(3), l1(3),
                                  polytopal([(1, 0, 0), (0, 1, 0), (1, 1, 1)])])
def test_root_branches_on_the_lowest_layer_of_a_closed_grid(spec, monkeypatch):
    side = 4 if spec.dim == 2 else 2
    problem = SearchProblem(spec, _lattice(spec.dim, side), 1)
    layer = (side + 1) ** (spec.dim - 1)
    assert _root_branches(monkeypatch, branch_and_bound, problem) == layer
    # The enumeration as well, at sizes that leave more than L0 to the root.
    for size in (2, 4):
        assert _root_branches(monkeypatch, enumerate_optimal_subsets, problem, size) == layer


def test_root_branches_on_every_point_without_the_cut(monkeypatch):
    # lp, and an exact grid with one point missing: (2, 2) - e0 is not there.
    holed = PointSet(2, tuple(p for p in _lattice(2, 4).points if p != vec(1, 2)))
    floats = PointSet(2, tuple(tuple(map(float, p)) for p in _lattice(2, 4).points))
    for problem in (SearchProblem(lp(2, 2.0), floats, 1), SearchProblem(linf(2), holed, 1)):
        pts = sorted(problem.ground.points)
        table = _pair_classes(problem.spec, PointSet(problem.ground.dim, tuple(pts)))
        assert _root_layer(problem.spec, table.ints) == len(pts)
        # The root stops only where the points left cannot beat the incumbent,
        # and the enumeration's where too few points are left to fill the size.
        size = branch_and_bound(problem).size
        assert _root_branches(monkeypatch, branch_and_bound, problem) == len(pts) - size
        assert (_root_branches(monkeypatch, enumerate_optimal_subsets, problem, size)
                == len(pts) - size + 1)
