"""Metamorphic properties: inputs that describe the same metric space give the
same answers.

- Reordering a point set changes nothing but the digest of the file as given.
- For a rational invertible T, the polytopal norm with functionals a_i T^-1
  on T(S) is the norm with functionals a_i on S: every distance, so k, the
  search's optimum size and the least route's claim stay, though the route
  names (the norm's kind changes) and the search's node counts may not.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from kdist import (PointSet, SearchProblem, best_route, branch_and_bound, distance_spectrum,
                   hexagon_gauge, l1, linf, polygon_gauge, polytopal, routes)
from kdist.cli import run_command
from kdist.gen import random_lattice_subset, random_symmetric_polygon
from kdist.norms import norm_to_json
from kdist.spectrum import pointset_to_json

_POLYGON = polygon_gauge(random_symmetric_polygon(random.Random(5), 6, 8))

#: (id, norm, its facet functionals a_i), the norm written by its own kind.
_NORMS = [
    ("l1-2", l1(2), [(1, 1), (1, -1)]),
    ("linf-2", linf(2), [(1, 0), (0, 1)]),
    ("hexagon", hexagon_gauge(), hexagon_gauge().functionals),
    ("polygon", _POLYGON, _POLYGON.functionals),
    ("l1-3", l1(3), [(1, s, t) for s in (1, -1) for t in (1, -1)]),
    ("linf-3", linf(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
]


def _bound(tmp_path, capsys, spec, ps: PointSet) -> dict:
    norm, pts = tmp_path / "norm.json", tmp_path / "pts.json"
    norm.write_text(json.dumps(norm_to_json(spec)))
    pts.write_text(json.dumps(pointset_to_json(ps)))
    assert run_command(["bound", "--norm", str(norm), "--points", str(pts)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name, spec, _", _NORMS, ids=[n for n, *_ in _NORMS])
def test_reordering_the_points_changes_nothing_but_the_digest(tmp_path, capsys, name, spec, _):
    rng = random.Random(name)
    ps = random_lattice_subset(rng, spec.dim, 4, 7 if spec.dim == 2 else 9)
    shuffled = list(ps.points)
    rng.shuffle(shuffled)
    assert shuffled != list(ps.points)
    answers, digests = [], []
    for points in (ps.points, shuffled):
        again = PointSet(spec.dim, tuple(points))
        doc = _bound(tmp_path, capsys, spec, again)
        digests.append(doc.pop("inputs_digest"))
        answers.append((distance_spectrum(spec, again),
                        branch_and_bound(SearchProblem(spec, again, 2)).size, doc))
    assert answers[0] == answers[1]
    assert digests[0] != digests[1]     # it hashes the file as given


def _invertible(rng: random.Random, d: int) -> list[list[Fraction]]:
    while True:
        T = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
             for _ in range(d)]
        if _det(T):
            return T


def _det(M) -> Fraction:
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def _inverse(T) -> list[list[Fraction]]:
    """T^-1 by its adjugate: the cofactor of T[j][i] over det T."""
    d, det = len(T), _det(T)
    minor = lambda i, j: [row[:j] + row[j + 1:] for r, row in enumerate(T) if r != i]
    return [[(-1) ** (i + j) * _det(minor(j, i)) / det for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("name, spec, functionals", _NORMS, ids=[n for n, *_ in _NORMS])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_linear_map_and_the_norms_image_keep_every_answer(name, spec, functionals, seed):
    d = spec.dim
    rng = random.Random(f"{name}-{seed}")
    T = _invertible(rng, d)
    Tinv = _inverse(T)
    assert all(sum(T[i][m] * Tinv[m][j] for m in range(d)) == (i == j)
               for i in range(d) for j in range(d))
    image = polytopal([[sum(Fraction(a[m]) * Tinv[m][j] for m in range(d)) for j in range(d)]
                       for a in functionals])
    ground = PointSet(d, tuple(product(range(4 if d == 2 else 3), repeat=d)))
    mapped = PointSet(d, tuple(tuple(sum(T[i][j] * p[j] for j in range(d)) for i in range(d))
                               for p in ground.points))
    spectrum = distance_spectrum(spec, ground)
    assert distance_spectrum(image, mapped) == spectrum
    k = spectrum.k
    assert (best_route(routes(image), k, d).claim(k, d)
            == best_route(routes(spec), k, d).claim(k, d))
    size = branch_and_bound(SearchProblem(spec, ground, 2)).size
    assert branch_and_bound(SearchProblem(image, mapped, 2)).size == size
