"""Minkowski norms with exact rational evaluation.

Supported gauges: l-infinity, l1, polytopal gauges given by facet
functionals (evaluated as ``max_i |a_i . x|``), and a float lp fallback.
Each kind has one evaluator, :func:`gauge`: an :class:`IntGauge` for the
exact kinds, on plain ints, so equality of distances is decidable, or an
:class:`LpGauge` for lp, the only inexact kind, quarantined behind the
relative tolerance ``FLOAT_EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce as fold
from itertools import chain
from math import gcd, inf, lcm
from operator import itemgetter, mul, truediv

import numpy as np

from .errors import GeometryError, InputError

Vec = tuple[Fraction, ...]

#: Relative tolerance for the float lp path (distance grouping, unit checks).
FLOAT_EPS = 1e-9

#: The largest norm dimension a JSON norm may declare: samplers and searches
#: build dim coordinates per vector, and every bound here is tested at d <= 4.
MAX_JSON_DIM = 64

#: The largest pair table a point set may ask for, by its estimated peak
#: n^2 (2d + 2) 8 bytes: the n x n x d difference array, its absolute value,
#: the values and their list (726 MB measured at n = 3,375, d = 3).
MAX_TABLE_BYTES = 2 ** 30

EXACT_KINDS = ("linf", "l1", "polytopal")
KINDS = EXACT_KINDS + ("lp",)


# ---------------------------------------------------------------------------
# rational vectors

def vec(*coords) -> Vec:
    """Build an exact rational vector from ints, Fractions or strings."""
    return tuple(Fraction(c) for c in coords)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def cross2(u: Vec, v: Vec):
    return u[0] * v[1] - u[1] * v[0]


def is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def clear_denominators(vectors) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A sequence of vectors of one length times their least common denominator
    D > 0, as int tuples, and D: one flat pass of ``as_integer_ratio()``, exact
    for ints, Fractions and floats alike, multiplied only when D != 1."""
    ratios = [a.as_integer_ratio() for v in vectors for a in v]
    if not ratios:                              # no coordinates: every vector is ()
        return ((),) * len(vectors), 1
    den = lcm(*set(map(itemgetter(1), ratios)))
    nums = iter(map(itemgetter(0), ratios) if den == 1 else [p * (den // q) for p, q in ratios])
    return tuple(zip(*[nums] * len(vectors[0]))), den


def rat_to_pair(q: Fraction) -> list[int]:
    # A Fraction or an int is in lowest terms already; anything else is made
    # one, and its terms made plain ints (a Fraction keeps a numpy numerator).
    if type(q) in (Fraction, int):
        return list(q.as_integer_ratio())
    return list(map(int, Fraction(q).as_integer_ratio()))


def row_pairs(row, den: int) -> list[list[int]]:
    """The coordinates of row / den, for int row and den > 0, as [num, den]
    pairs in lowest terms."""
    return [[a // g, den // g] for a in row for g in [gcd(a, den)]]


def int_from_json(obj, what: str) -> int:
    """A JSON integer; floats, strings and booleans are rejected, not coerced."""
    if type(obj) is not int:        # JSON true/false arrive as bool, a subclass of int
        raise InputError(f"{what} must be an integer, got {obj!r}")
    return obj


def ratio_from_json(obj) -> tuple[int, int]:
    """A JSON rational, an int or an int [num, den] pair, as (num, den) in
    lowest terms with den > 0."""
    # json.load yields exactly int and list: a bool, float or string is refused.
    if type(obj) is int:
        return obj, 1
    if type(obj) in (list, tuple) and len(obj) == 2:
        num, den = obj
        if type(num) is int and type(den) is int and den:
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            return num // g, den // g
    raise InputError(f"not a rational [num, den] pair: {obj!r}")


def rat_from_pair(obj) -> Fraction:
    return Fraction(*ratio_from_json(obj))


def vec_to_json(v: Vec) -> list[list[int]]:
    return [rat_to_pair(a) for a in v]


def vec_from_json(obj, read=rat_from_pair) -> tuple:
    """A JSON vector, each entry read by ``read``: a Fraction, or a ratio."""
    if not isinstance(obj, (list, tuple)):
        raise InputError(f"not a vector: {obj!r}")
    return tuple(map(read, obj))


# ---------------------------------------------------------------------------
# norm specifications

@dataclass(frozen=True)
class NormSpec:
    """A symmetric gauge on R^dim.

    kind is one of "linf", "l1", "polytopal", "lp".  Polytopal gauges carry
    facet functionals a_i and evaluate as max_i |a_i . x|; "lp" carries the
    exponent 1 < p < inf and is the only inexact kind.
    """

    dim: int
    kind: str
    functionals: tuple[Vec, ...] = ()
    p: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dimension must be >= 1, got {self.dim}")
        if self.kind not in KINDS:
            raise InputError(f"unknown norm kind {self.kind!r}")
        if self.kind == "polytopal":
            if not self.functionals:
                raise InputError("polytopal gauge needs at least one functional")
            for a in self.functionals:
                if len(a) != self.dim:
                    raise InputError("functional length does not match dimension")
        if self.kind == "lp" and not 1 < self.p < inf:
            raise InputError(f"lp exponent must be finite and > 1, got {self.p}")

    @property
    def exact(self) -> bool:
        return self.kind != "lp"

    def __hash__(self) -> int:
        # Hashed once, as every cache keyed by a norm looks it up.  Numbers only,
        # kind by its index, so a pickled spec hashes the same in any process.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(
                (self.dim, KINDS.index(self.kind), self.functionals, self.p))
        return h


def linf(dim: int) -> NormSpec:
    return NormSpec(dim, "linf")


def l1(dim: int) -> NormSpec:
    return NormSpec(dim, "l1")


def polytopal(functionals) -> NormSpec:
    funcs = tuple(vec(*a) for a in functionals)
    if not funcs:
        raise InputError("polytopal gauge needs at least one functional")
    return NormSpec(len(funcs[0]), "polytopal", funcs)


def lp(dim: int, p: float) -> NormSpec:
    return NormSpec(dim, "lp", p=float(p))


def hexagon_gauge() -> NormSpec:
    """The planar gauge max(|x|, |y|, |x - y|); a regular-hexagon unit ball."""
    return polytopal([(1, 0), (0, 1), (1, -1)])


def norm_eval(spec: NormSpec, v: Vec):
    """Evaluate the gauge on one vector, the reference the image arrays are
    held to: a Fraction for exact kinds, in plain ints, or lp's float."""
    g = gauge(spec)
    if len(v) != g.dim:
        raise InputError(f"vector has dimension {len(v)}, expected {g.dim}")
    if g.tol:
        return g.value(v)
    (x,), q = clear_denominators([v])
    image = x if g._rows is None else [sum(map(mul, a, x)) for a in g._rows]
    return Fraction((sum if spec.kind == "l1" else max)(map(abs, image)), q * g.scale)


class IntGauge:
    """An exact gauge evaluated on plain ints, on arrays of images only.

    Each exact gauge is a reduction of the absolute values of a linear
    image of the vector: the max of the coordinates for linf, their sum
    for l1, the max over the facet functionals for polytopal.  Polytopal
    functionals are cleared of denominators by their lcm, ``scale``
    (1 for linf and l1).  A rational vector v is carried as ``(Y, q)``: q
    the lcm of its denominators, Y the image of q * v, a row of an
    :func:`image_array` whose :meth:`reduce` is value(Y) = ||v|| * q * scale.
    Images are linear, so an integer combination of vectors is the same
    combination of their images: a threshold such as ``||c - x|| <= 1/5``
    becomes ``5 * value(q_x * Y_c - q_c * Y_x) <= q_c * q_x * scale``.
    """

    tol = 0                                     # values are exact
    quotient = Fraction                         # the distance a value stands for at a scale

    def __init__(self, spec: NormSpec):
        if not spec.exact:
            raise InputError("the integer gauge needs an exact norm kind")
        self.dim = spec.dim
        self._reduce_rows = np.add if spec.kind == "l1" else np.maximum
        self._rows, self.scale = (clear_denominators(spec.functionals)
                                  if spec.kind == "polytopal" else (None, 1))

    @cached_property
    def _funcs(self) -> np.ndarray:
        """The polytopal functionals as float columns, built on the first ``values``."""
        # int / int rounds correctly: each entry is float(a_i), exactly.
        return np.array([[a / self.scale for a in r] for r in self._rows]).T

    def reduce(self, images: np.ndarray) -> np.ndarray:
        """The value of each row of an image array, column by column, in its own dtype."""
        return fold(self._reduce_rows, np.abs(images).T)

    def values(self, array: np.ndarray) -> np.ndarray:
        """The gauge of each row of a float array, in floats, reduced column by column."""
        if self._rows is not None:
            array = array @ self._funcs
        return self.reduce(array)

    @staticmethod
    def at_most(rho, scale: int) -> int:
        """The largest value v with v <= rho * scale, exactly."""
        num, den = rho.as_integer_ratio()
        return num * scale // den

    def rank(self) -> int:
        """Rank of the image (exact elimination); below ``dim`` iff a seminorm."""
        return self._rank

    @cached_property
    def _rank(self) -> int:
        if self._rows is None:
            return self.dim
        rows, rank = [list(r) for r in self._rows], 0
        for col in range(self.dim):
            pivot = next((r for r in rows if r[col]), None)
            if pivot is not None:
                rows.remove(pivot)
                rows = [[pivot[col] * a - r[col] * b for a, b in zip(r, pivot)] for r in rows]
                rank += 1
        return rank


class LpGauge:
    """The lp gauge in floats, with the shape of :class:`IntGauge`.

    Images are the vectors themselves and q = scale = 1, so the integer
    gauge's threshold tests run unchanged in floats.  ``value`` is the lp
    formula on one vector, converting to float last: a difference of images
    is taken in the points' own arithmetic.  Values agree only up to the
    relative tolerance ``tol``.
    """

    tol, scale = FLOAT_EPS, 1
    quotient = staticmethod(truediv)
    at_most = staticmethod(mul)                 # rho * scale: floats need no rounding

    def __init__(self, spec: NormSpec):
        self.dim, self.p = spec.dim, spec.p

    def value(self, image) -> float:
        image = tuple(image)
        try:
            return sum(abs(float(a)) ** self.p for a in image) ** (1.0 / self.p)
        except OverflowError as exc:
            raise GeometryError(f"lp norm of {image} overflows a float") from exc

    def reduce(self, images: np.ndarray) -> np.ndarray:
        """As :meth:`IntGauge.reduce`, in float64: bit for bit ``value`` on object arrays."""
        try:
            return np.asarray(fold(np.add, (np.abs(images) ** self.p).T) ** (1.0 / self.p), float)
        except OverflowError:               # value's GeometryError, naming the first such image
            for image in images.reshape(-1, images.shape[-1]):
                self.value(image)
            raise

    values = reduce

    def rank(self) -> int:
        return self.dim


Gauge = IntGauge | LpGauge


@cache       # once per norm: a gauge holds no state but its cached float functionals
def gauge(spec: NormSpec) -> Gauge:
    """The evaluator of the norm: exact on ints, or lp in floats."""
    return IntGauge(spec) if spec.exact else LpGauge(spec)


#: Image arrays hold int64 while every number computed on them stays below this.
INT64_LIMIT = 2 ** 62


def image_array(g: Gauge, rows: list) -> np.ndarray:
    """The images of cleared rows (integer vectors, or lp's points) as one array,
    formed at once: the rows themselves for linf, l1 and lp, and for polytopal
    the product ``X @ A.T`` with the cleared functionals, taken in Python ints
    when a partial sum could reach INT64_LIMIT.  The array is int64 on an exact
    gauge while 2 * width * top < INT64_LIMIT, top the largest |entry|, so the
    value of a difference of two images fits; else ``object``: Python ints, or
    lp's own numbers, whose powers are then Python's (numpy's float64 ``pow``
    can differ in the last bit)."""
    shape = (len(rows), g.dim)
    if not isinstance(g, IntGauge):
        return np.array(rows, object).reshape(shape)
    top, images = max(map(abs, chain.from_iterable(rows)), default=0), rows
    if g._rows is not None:
        # The entries of X and A, and each |a_i . x| with its partial sums, are
        # at most max(1, max_i sum_j |a_ij|) * max(1, top).
        weight = max(sum(map(abs, a)) for a in g._rows)
        wide = max(weight, 1) * max(top, 1) >= INT64_LIMIT
        dtype = object if wide else np.int64
        images = np.array(rows, dtype).reshape(shape) @ np.array(g._rows, dtype).T
        shape, top = images.shape, int(np.abs(images).max(initial=0))
    fits = 2 * shape[1] * top < INT64_LIMIT
    return np.asarray(images, np.int64 if fits else object).reshape(shape)


# ---------------------------------------------------------------------------
# unit-ball polygon (d = 2, exact kinds only)

def _gauge_functionals_2d(spec: NormSpec) -> tuple[Vec, ...]:
    if spec.kind == "linf":
        return (vec(1, 0), vec(0, 1))
    if spec.kind == "l1":
        return (vec(1, 1), vec(1, -1))
    return spec.functionals


def convex_hull(points: list[Vec]) -> list[Vec]:
    """Exact monotone-chain convex hull, counterclockwise, collinear dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise GeometryError("hull needs at least three distinct points")

    def build(seq):
        out: list[Vec] = []
        for p in seq:
            while len(out) >= 2 and cross2(vsub(out[-1], out[-2]),
                                           vsub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def polygon_vertices_2d(spec: NormSpec) -> list[Vec]:
    """Vertices of the unit ball of a 2D exact gauge, counterclockwise.

    The list is centrally symmetric and starts at the smallest nonnegative
    angle from the positive x-axis.
    """
    if spec.dim != 2:
        raise InputError("polygon_vertices_2d requires dimension 2")
    if not spec.exact:
        raise InputError("polygon_vertices_2d requires an exact norm kind")
    funcs = [a for a in _gauge_functionals_2d(spec) if not is_zero(a)]    # 0 constrains nothing
    if not funcs or all(cross2(funcs[0], a) == 0 for a in funcs):
        raise GeometryError("functionals do not span the plane; unit ball unbounded")

    # {x : |a.x| <= 1} is the polar of conv(+-a): each counterclockwise hull
    # edge a, b (cross(a, b) > 0) gives the vertex x with a.x = b.x = 1.
    hull = convex_hull(list(funcs) + [vneg(a) for a in funcs])
    verts = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        det = cross2(a, b)
        verts.append(((b[1] - a[1]) / det, (a[0] - b[0]) / det))
    # The angle grows along the list: start where it passes from [pi, 2 pi) into [0, pi).
    upper = [(y, x) > (0, 0) for x, y in verts]
    start = next(i for i, up in enumerate(upper) if up and not upper[i - 1])
    return verts[start:] + verts[:start]


# ---------------------------------------------------------------------------
# JSON schema

def norm_to_json(spec: NormSpec) -> dict:
    obj: dict = {"dim": spec.dim, "kind": spec.kind}
    if spec.kind == "polytopal":
        obj["functionals"] = [vec_to_json(a) for a in spec.functionals]
    if spec.kind == "lp":
        obj["p"] = spec.p
    return obj


def norm_from_json(obj) -> NormSpec:
    if not isinstance(obj, dict):
        raise InputError("norm spec must be a JSON object")
    try:
        dim = obj["dim"]
        kind = obj["kind"]
    except KeyError as exc:
        raise InputError(f"norm spec missing dim/kind: {exc}") from exc
    dim = int_from_json(dim, "norm dim")
    if dim > MAX_JSON_DIM:
        raise InputError(f"norm dim {dim} exceeds the limit {MAX_JSON_DIM}")
    if kind == "polytopal":
        funcs = obj.get("functionals", [])
        if not isinstance(funcs, list):
            raise InputError(f"functionals must be a list, got {funcs!r}")
        return NormSpec(dim, "polytopal", tuple(vec_from_json(a) for a in funcs))
    if kind == "lp":
        p = obj.get("p", 0.0)
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise InputError(f"lp exponent must be a number, got {p!r}")
        return NormSpec(dim, "lp", p=float(p))
    return NormSpec(dim, kind)
