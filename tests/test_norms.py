import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kdist import norms
from kdist import (GeometryError, InputError, hexagon_gauge, l1, linf, lp,
                   norm_eval, polygon_gauge, polygon_vertices_2d, polytopal, vec)
from kdist.gen import random_symmetric_polygon
from kdist.norms import (MAX_JSON_DIM, IntGauge, LpGauge, clear_denominators, convex_hull,
                         cross2, gauge, image_array, is_zero, norm_from_json, norm_to_json,
                         vadd, vneg, vsub)


def dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def vscale(q, v):
    return tuple(q * a for a in v)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)


def rvec(dim):
    return st.tuples(*([rationals] * dim))


def test_norm_eval_examples():
    assert norm_eval(linf(2), vec(3, -4)) == 4
    assert norm_eval(l1(2), vec(3, -4)) == 7
    assert norm_eval(hexagon_gauge(), vec(2, -1)) == 3


def test_norm_eval_lp():
    assert norm_eval(lp(2, 2.0), (3.0, 4.0)) == pytest.approx(5.0)


def test_dimension_mismatch():
    with pytest.raises(InputError):
        norm_eval(linf(2), vec(1, 2, 3))


def test_norm_eval_exact_triangle_equality():
    # ||u + v|| = ||u|| + ||v|| = 183/56 exactly; the float 183/56 rounds down.
    u, v = vec("-15/7", "-7/9"), vec("-9/8", "5/7")
    assert norm_eval(linf(2), vadd(u, v)) == norm_eval(linf(2), u) + norm_eval(linf(2), v)


def test_polygon_vertices_square():
    assert polygon_vertices_2d(linf(2)) == [
        vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]


def test_polygon_vertices_diamond():
    assert polygon_vertices_2d(l1(2)) == [
        vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)]


def test_polygon_vertices_hexagon():
    assert polygon_vertices_2d(hexagon_gauge()) == [
        vec(1, 0), vec(1, 1), vec(0, 1), vec(-1, 0), vec(-1, -1), vec(0, -1)]


def test_polygon_vertices_unbounded():
    with pytest.raises(GeometryError):
        polygon_vertices_2d(polytopal([(1, 0), (2, 0)]))


def _all_pairs_vertices(funcs):
    """The unit polygon of the functionals by intersecting every pair of lines
    +-a.x = 1 and keeping the feasible points: the reference construction.
    A zero functional constrains nothing, so it is skipped."""
    funcs = [a for a in funcs if not is_zero(a)]
    if not funcs or all(cross2(funcs[0], a) == 0 for a in funcs):
        raise GeometryError("functionals do not span the plane; unit ball unbounded")
    lines = list(funcs) + [vneg(a) for a in funcs]
    verts = set()
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            det = cross2(a, b)
            if det != 0:
                p = ((b[1] - a[1]) / det, (a[0] - b[0]) / det)
                if all(abs(dot(c, p)) <= 1 for c in funcs):
                    verts.add(p)
    hull = convex_hull(list(verts))
    upper = [(y, x) > (0, 0) for x, y in hull]
    start = next(i for i, up in enumerate(upper) if up and not upper[i - 1])
    return hull[start:] + hull[:start]


@st.composite
def functional_lists(draw):
    """Random rational functionals, then repeats, negations, scaled copies and
    dominated extras (convex combinations of +-a), shuffled."""
    rat = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    funcs = draw(st.lists(st.tuples(rat, rat).map(lambda a: vec(*a)), min_size=2, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.sampled_from(funcs)), draw(st.sampled_from(funcs))
        s = draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))
        t = draw(st.fractions(min_value=0, max_value=1, max_denominator=5))
        extras = {"repeat": a, "negate": vneg(a), "scale": vscale(s, a),
                  "dominated": vadd(vscale(t, a), vscale(t - 1, b))}    # between a and -b
        funcs.append(extras[draw(st.sampled_from(sorted(extras)))])
    return draw(st.permutations(funcs))


def _vertices_or_error(f, funcs):
    try:
        return f(funcs)
    except GeometryError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(funcs=functional_lists())
@example(funcs=[vec(1, 0), vec(0, 0), vec(0, 1)])              # a zero functional
@example(funcs=[vec(1, 2), vec(-2, -4), vec(Fraction(1, 2), 1)])  # not spanning
def test_polar_hull_vertices_match_all_pairs_intersection(funcs):
    got = _vertices_or_error(lambda fs: polygon_vertices_2d(polytopal(fs)), funcs)
    assert got == _vertices_or_error(_all_pairs_vertices, funcs)


@pytest.mark.parametrize("spec", [linf(2), l1(2), hexagon_gauge()])
def test_polygon_vertices_on_sphere(spec):
    verts = polygon_vertices_2d(spec)
    assert all(norm_eval(spec, v) == 1 for v in verts)
    assert set(verts) == {tuple(-a for a in v) for v in verts}
    n = len(verts)
    for i in range(n):
        mid = vscale(Fraction(1, 2), vadd(verts[i], verts[(i + 1) % n]))
        assert norm_eval(spec, mid) <= 1


@pytest.mark.parametrize("spec", [linf(3), l1(3), hexagon_gauge()])
@settings(max_examples=60)
@given(data=st.data())
def test_norm_axioms(spec, data):
    u = data.draw(rvec(spec.dim))
    v = data.draw(rvec(spec.dim))
    q = data.draw(rationals)
    assert norm_eval(spec, tuple(-a for a in u)) == norm_eval(spec, u)
    assert norm_eval(spec, vscale(q, u)) == abs(q) * norm_eval(spec, u)
    assert norm_eval(spec, vadd(u, v)) <= norm_eval(spec, u) + norm_eval(spec, v)
    if any(a != 0 for a in u):
        assert norm_eval(spec, u) > 0


@pytest.mark.parametrize("spec", [linf(2), l1(3), hexagon_gauge(), lp(2, 2.5)])
def test_norm_json_round_trip(spec):
    assert norm_from_json(norm_to_json(spec)) == spec


@pytest.mark.parametrize("kind", ["linf", "l1", "lp"])
def test_norm_json_dim_is_capped(kind):
    obj = {"kind": kind, "p": 2.0}
    assert norm_from_json({**obj, "dim": MAX_JSON_DIM}).dim == MAX_JSON_DIM
    for dim in (MAX_JSON_DIM + 1, 10 ** 30):
        with pytest.raises(InputError, match=f"norm dim {dim} exceeds"):
            norm_from_json({**obj, "dim": dim})


# ---------------------------------------------------------------------------
# the integer gauge against the Fraction reference

@st.composite
def exact_gauges(draw):
    """linf, l1, random octagons and random polytopal gauges in d = 2, 3."""
    kind = draw(st.sampled_from(("linf", "l1", "octagon", "polytopal")))
    if kind == "octagon":
        rng = draw(st.randoms(use_true_random=False))
        return polygon_gauge(random_symmetric_polygon(rng, 8, 8))
    dim = draw(st.integers(2, 3))
    if kind == "polytopal":
        funcs = draw(st.lists(rvec(dim), min_size=1, max_size=5))
        return polytopal(funcs)
    return linf(dim) if kind == "linf" else l1(dim)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_int_gauge_matches_norm_eval(data):
    spec = data.draw(exact_gauges())
    u = data.draw(rvec(spec.dim))
    v = data.draw(rvec(spec.dim))
    gauge = IntGauge(spec)
    ((xu,), qu), ((xv,), qv) = clear_denominators([u]), clear_denominators([v])
    yu, yv = image_array(gauge, [xu, xv]).tolist()
    assert Fraction(int(gauge.reduce(np.array([yu]))[0]), qu * gauge.scale) == norm_eval(spec, u)
    # Images are linear: a pair's distance comes from the two images.
    diff = [qv * a - qu * b for a, b in zip(yu, yv)]
    assert (Fraction(int(gauge.reduce(np.array([diff], object))[0]), qu * qv * gauge.scale)
            == norm_eval(spec, vsub(u, v)))


def test_int_gauge_clears_functional_denominators():
    spec = polytopal([("1/2", "1/3"), ("-3/4", 1)])
    gauge = IntGauge(spec)
    assert gauge.scale == 12
    (x,), q = clear_denominators([vec("1/5", 2)])
    assert q == 5 and image_array(gauge, [x]).tolist() == [[46, 111]]
    assert Fraction(111, 5 * 12) == norm_eval(spec, vec("1/5", 2))


@pytest.mark.parametrize("build", [hexagon_gauge, lambda: l1(3), lambda: lp(2, 3.0)])
def test_gauge_is_built_once_per_norm(build):
    # Equal specs built apart share one evaluator.
    assert gauge(build()) is gauge(build())


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_equal_norms_hash_equal_and_share_one_gauge(d, data):
    kind = data.draw(st.sampled_from(["linf", "l1", "polytopal", "lp"]))
    obj = {"dim": d, "kind": kind}
    if kind == "polytopal":
        funcs = data.draw(st.lists(rvec(d), min_size=1, max_size=4))
        obj["functionals"] = [[[q.numerator, q.denominator] for q in a] for a in funcs]
    if kind == "lp":
        obj["p"] = data.draw(st.sampled_from([1.5, 2, 3.0]))
    # A second spelling of the same norm: every pair scaled by 3 over 3.
    twin = json.loads(json.dumps(obj))
    for a in twin.get("functionals", []):
        a[:] = [[3 * n, 3 * m] for n, m in a]
    spec, other = norm_from_json(obj), norm_from_json(twin)
    assert spec == other and spec is not other
    assert hash(spec) == hash(other) == hash(copy.deepcopy(spec))
    assert gauge(spec) is gauge(other)


def test_norm_hash_is_the_same_under_any_hash_seed():
    obj = {"dim": 2, "kind": "polytopal", "functionals": [[1, [1, 2]], [[-3, 4], 2]]}
    specs = [norm_from_json(obj), lp(3, 2.5)]
    for spec in specs:
        hash(spec)                              # so the pickle carries the hash
    blob = pickle.dumps(specs)
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import json, pickle, sys; from kdist.norms import lp, norm_from_json; "
              "fresh = [norm_from_json(json.loads(sys.argv[1])), lp(3, 2.5)]; "
              "loaded = pickle.loads(bytes.fromhex(sys.argv[2])); "
              "print(json.dumps([list(map(hash, fresh)), list(map(hash, loaded))]))")
    outs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(obj), blob.hex()],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        fresh, loaded = json.loads(proc.stdout)
        assert fresh == loaded
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_int_gauge_rank():
    assert IntGauge(linf(3)).rank() == 3 and IntGauge(l1(2)).rank() == 2
    assert IntGauge(hexagon_gauge()).rank() == 2
    assert IntGauge(polytopal([["1/2", 0, 0], [0, "1/3", 0], [0, 0, "2/7"]])).rank() == 3
    assert IntGauge(polytopal([[1, 0, 0], [0, 1, 0]])).rank() == 2
    assert IntGauge(polytopal([[1, 1, 0], [2, 2, 0], [0, 0, 1]])).rank() == 2
    assert IntGauge(polytopal([[0, 0, 0], [0, 0, 3], [0, 0, 1]])).rank() == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=6)))
def test_int_gauge_rank_matches_numpy(rows):
    expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert IntGauge(polytopal(rows)).rank() == expected


def test_int_gauge_rejects_lp_and_dimension_mismatch():
    with pytest.raises(InputError):
        IntGauge(lp(2, 2.0))
    for spec in (linf(2), hexagon_gauge(), lp(2, 2.0)):
        with pytest.raises(InputError, match="^vector has dimension 3, expected 2$"):
            norm_eval(spec, vec(1, 2, 3))


# ---------------------------------------------------------------------------
# one gauge object per norm kind

@st.composite
def any_gauges(draw):
    """An exact gauge of exact_gauges() that is a norm, or an lp gauge."""
    if draw(st.booleans()):
        return lp(draw(st.integers(1, 3)), draw(st.floats(1.1, 8.0)))
    spec = draw(exact_gauges())
    assume(IntGauge(spec).rank() == spec.dim)
    return spec


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_values_match_value(data):
    spec = data.draw(any_gauges())
    rows = data.draw(st.lists(rvec(spec.dim), min_size=1, max_size=6))
    g = gauge(spec)
    batched = g.values(np.array([[float(a) for a in r] for r in rows]))
    assert batched.shape == (len(rows),)
    for row, got in zip(rows, batched):
        assert got == pytest.approx(float(norm_eval(spec, row)), rel=1e-12)


def _row_reduced_values(spec, array):
    """Gauge values by numpy reductions along each row: the reference."""
    if spec.kind == "lp":
        return np.sum(np.abs(array) ** spec.p, axis=1) ** (1.0 / spec.p)
    if spec.kind == "polytopal":
        funcs = np.array([[float(a) for a in f] for f in spec.functionals])
        return np.max(np.abs(array @ funcs.T), axis=1)
    return (np.sum if spec.kind == "l1" else np.max)(np.abs(array), axis=1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_reduced_values_equal_row_reductions(data):
    # Bit for bit, not approximately: the Monte Carlo volume report must not move.
    spec = data.draw(any_gauges())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    array = rng.uniform(-50, 50, size=(data.draw(st.integers(1, 40)), spec.dim))
    assert np.array_equal(gauge(spec).values(array), _row_reduced_values(spec, array))


def test_lp_reduce_is_value_bit_for_bit_and_overflow_is_a_geometry_error():
    g = gauge(lp(2, 3.0))
    rows = [(Fraction(1, 3), Fraction(-2, 7)), (0.1, -2.5), (5, Fraction(1, 9))]
    got = g.reduce(np.array(rows, object))
    assert got.dtype == float and got.tolist() == [g.value(r) for r in rows]
    # The first row that overflows is named, as value names it.
    for p, row in ((2000.0, (4,)), (2.0, (Fraction(10 ** 400, 3),))):
        g = gauge(lp(1, p))
        with pytest.raises(GeometryError, match="overflows a float") as exc:
            g.reduce(np.array([(0,), row, row], object))
        assert str(exc.value) == f"lp norm of {row} overflows a float"


def test_gauge_kinds_and_tolerances():
    assert isinstance(gauge(hexagon_gauge()), IntGauge) and IntGauge.tol == 0
    g = gauge(lp(2, 2.0))
    assert isinstance(g, LpGauge) and g.tol == 1e-9 and g.scale == 1
    assert image_array(g, [(3.0, 4.0)]).tolist() == [[3.0, 4.0]]
    assert g.value((3.0, 4.0)) == pytest.approx(5.0) and g.rank() == 2
    assert norm_eval(lp(2, 2.0), (3.0, 4.0)) == g.value((3.0, 4.0))
    with pytest.raises(InputError):
        norm_eval(lp(2, 2.0), (1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# image arrays formed at once against the per-vector images

def _image(g, x):
    """One row's image: the row itself (lp too), or its cleared functional values."""
    rows = getattr(g, "_rows", None)
    return tuple(x) if rows is None else tuple(sum(map(mul, a, x)) for a in rows)


def _reference_image_array(g, rows):
    """One image per row, and the dtype rule decided on those images."""
    images = [_image(g, x) for x in rows]
    width, top = len(_image(g, [0] * g.dim)), max(map(abs, chain.from_iterable(images)), default=0)
    fits = isinstance(g, IntGauge) and 2 * width * top < norms.INT64_LIMIT
    return np.array(images, np.int64 if fits else object).reshape(len(images), width)


def _assert_same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tolist() == want.tolist()
    assert [type(v) for v in got.flat] == [type(v) for v in want.flat]


#: Functional entries with denominators: the cleared functionals are not the given ones.
FRACTIONAL = polytopal([("1/2", "1/3"), ("-3/4", 1), ("2/5", "-7/6")])
magnitudes = st.sampled_from([2 ** 4, 2 ** 30, 2 ** 58, 2 ** 61, 2 ** 62, 2 ** 70])


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from([linf(2), l1(3), hexagon_gauge(), FRACTIONAL]),
       data=st.data())
def test_image_array_equals_per_vector_images(spec, data):
    big = data.draw(magnitudes)
    rows = data.draw(st.lists(st.lists(st.integers(-big, big), min_size=spec.dim,
                                       max_size=spec.dim), max_size=6))
    g = gauge(spec)
    _assert_same_array(image_array(g, rows), _reference_image_array(g, rows))


@pytest.mark.parametrize("points", [[(3.0, -4.5), (0.1, 2.0)],
                                    [(Fraction(1, 3), Fraction(-2, 7)), (5, Fraction(1, 9))]])
def test_lp_image_array_is_the_points(points):
    g = gauge(lp(2, 3.0))
    _assert_same_array(image_array(g, points), _reference_image_array(g, points))


def test_image_array_takes_python_ints_where_int64_products_overflow():
    # Both entries fit int64, but x - y = 2^63 does not.
    g, row = gauge(hexagon_gauge()), [2 ** 62, -2 ** 62]
    got = image_array(g, [row])
    assert got.dtype == object and got.tolist() == [[2 ** 62, -2 ** 62, 2 ** 63]]
    _assert_same_array(got, _reference_image_array(g, [row]))
    # A zero functional maps a row beyond int64 to 0, which fits.
    g, row = gauge(polytopal([[0, 0]])), [2 ** 70, 1]
    _assert_same_array(image_array(g, [row]), _reference_image_array(g, [row]))


@pytest.mark.parametrize("spec", [linf(2), hexagon_gauge(), FRACTIONAL])
def test_image_array_reads_the_limit_when_called(spec, monkeypatch):
    g, rows = gauge(spec), [[1, -2], [3, 4]]
    assert image_array(g, rows).dtype == np.int64
    monkeypatch.setattr(norms, "INT64_LIMIT", 0)
    _assert_same_array(image_array(g, rows), _reference_image_array(g, rows))
    assert image_array(g, rows).dtype == object
