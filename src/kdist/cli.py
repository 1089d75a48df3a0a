"""Command-line interface: JSON in, JSON certificates out.

Subcommands: spectrum, chains, normalize2d, conecover, decompose, search,
bound, selftest.  Exit status: 0 on success/pass (and --help), 1 on input
errors (usage errors included) and other rejected input, 2 on a
falsification alarm (a verified computation contradicting a bound).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .chains import chain_certificate, parallelotope_cones
from .cover import (cone_halfwidth_check, cover_assignment, generated_cones,
                    greedy_separated_set, packing_bound_check, separated_set_capacity,
                    sphere_samples)
from .decompose import decompose_recursive_bound
from .errors import CertificateError, FalsificationError, InputError, KdistError
from .norms import NormSpec, norm_from_json, norm_to_json, rat_to_pair, vec_to_json
from .planar import apply_matrix, best_route, planar_conditions, planar_normalization, routes
from .search import SearchProblem, branch_and_bound, enumerate_optimal_subsets
from .spectrum import (PairTable, PointSet, distance_spectrum, pointset_from_json,
                       pointset_to_json, spectrum_to_json)


def _load_json(path: str):
    # ValueError: bad JSON, non-UTF-8 text or too many digits; RecursionError: deep nesting.
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_norm(path: str) -> NormSpec:
    return norm_from_json(_load_json(path))


def _load_points(path: str) -> PointSet:
    return pointset_from_json(_load_json(path))


def _digest(*objs) -> str:
    blob = json.dumps(objs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, default=str) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_spectrum(args) -> int:
    spec = _load_norm(args.norm)
    ps = _load_points(args.points)
    sp = distance_spectrum(spec, ps)
    _emit(spectrum_to_json(spec, sp))
    return 0


def _cmd_chains(args) -> int:
    spec = _load_norm(args.norm)
    family = parallelotope_cones(spec)
    if family is None:
        raise InputError("chains needs a parallelotope gauge: linf, or d polytopal "
                         "functionals of rank d")
    ps = _load_points(args.points)
    cert = chain_certificate(PairTable(spec, ps), family)
    _emit({**cert.to_json(), "k": cert.k, "observed": len(ps)})
    if not cert.ok:
        raise FalsificationError("chain certificate failed on a k-distance set")
    return 0


def _cmd_normalize2d(args) -> int:
    spec = _load_norm(args.norm)
    # Checked on the input polygon's differences, reported in the frame of C' by T.
    nrm, report = planar_normalization(spec), planar_conditions(spec)
    _emit({
        "x0": vec_to_json(nrm.x0),
        "y0": vec_to_json(nrm.y0),
        "matrix": [[rat_to_pair(a) for a in row] for row in nrm.matrix],
        "vertices": [vec_to_json(v) for v in nrm.vertices],
        "removed_rays": [{"cone": c, "ray": vec_to_json(apply_matrix(nrm.matrix, r))}
                         for c, r in nrm.removed],
        "conditions_ok": report.ok,
        "uncovered": [vec_to_json(apply_matrix(nrm.matrix, v)) for v in report.uncovered],
        "equal_norm_violations": len(report.equal_norm_violations),
    })
    if not report.ok:
        raise FalsificationError("quadrant cone conditions fail on the normalized polygon")
    return 0


def _cmd_conecover(args) -> int:
    spec = _load_norm(args.norm)
    samples = sphere_samples(spec, args.samples, seed=args.seed)
    sep = greedy_separated_set(spec, samples)
    packing_bound_check(sep, spec)
    fresh = sphere_samples(spec, max(args.samples // 10, 10), seed=args.seed + 1)
    report = cover_assignment(sep, spec, fresh)
    cones = generated_cones(sep, spec, samples)
    halfwidths = [cone_halfwidth_check(c, spec) for c in cones]
    _emit({
        "centers": [vec_to_json(c) if spec.exact else list(c)
                    for c in sep.centers],
        "m": len(sep.centers),
        "capacity": separated_set_capacity(spec.dim),
        "fresh_tested": len(fresh),
        "unassigned": len(report.unassigned),
        "halfwidth_ok": all(h.ok for h in halfwidths),
        "max_halfwidth": max((float(h.max_distance) for h in halfwidths),
                             default=0.0),
    })
    if not all(h.ok for h in halfwidths):
        raise FalsificationError("cone cover construction check failed")
    if report.unassigned:
        # The greedy set is maximal only on its samples: inconclusive, not a
        # contradiction of a proved bound.
        raise InputError(f"{len(report.unassigned)} of {len(fresh)} fresh "
                         "directions unassigned; raise --samples")
    return 0


def _cmd_decompose(args) -> int:
    spec = _load_norm(args.norm)
    ps = _load_points(args.points)
    node = decompose_recursive_bound(PairTable(spec, ps))
    _emit(node.to_json())
    return 0


def _cmd_search(args) -> int:
    spec = _load_norm(args.norm)
    ground = _load_points(args.ground)
    problem = SearchProblem(spec, ground, args.k)
    result = branch_and_bound(problem, use_bound_pruning=args.use_bound_pruning)
    out = {
        "size": result.size,
        "points": [vec_to_json(p) for p in result.points],
        "spectrum": spectrum_to_json(spec, result.spectrum),
        "nodes": result.nodes,
        "optimal": result.optimal,
    }
    if args.enumerate_optima:
        optima = enumerate_optimal_subsets(problem, result.size)
        out["optima"] = [[vec_to_json(p) for p in s] for s in optima]
    _emit(out)
    return 0


def _cmd_bound(args) -> int:
    spec = _load_norm(args.norm)
    ps = _load_points(args.points)
    found = routes(spec)            # before the table: a planar seminorm fails here
    table = PairTable(spec, ps)
    d, k, observed = spec.dim, table.spectrum.k, len(ps)
    if k == 0:
        name, claimed, witnesses = "single-point", 1, {}
    else:
        route = best_route(found, k, d)
        name, claimed = route.name, route.claim(k, d)
        if route.family is None:
            witnesses = {"decomposition": decompose_recursive_bound(table).to_json()}
        else:
            cert = chain_certificate(table, route.family)
            witnesses = {"chain": cert.to_json()}
            if name == "planar-two-cones":  # the rays the cones exclude, in the input's frame
                witnesses["removed_rays"] = [{"cone": c, "ray": vec_to_json(r)}
                                             for c, cone in zip(("p1", "p2"), route.family)
                                             for r in cone.excluded_rays]
            if not cert.ok:
                raise FalsificationError(f"chain certificate failed on the {name} route")
    passed = observed <= claimed
    _emit({
        "bound": name,
        "version": __version__,
        "inputs_digest": _digest(norm_to_json(spec), pointset_to_json(ps)),
        "k": k,
        "dim": d,
        "claimed": claimed,
        "observed": observed,
        "pass": passed,
        "witnesses": witnesses,
    })
    if not passed:
        raise FalsificationError(
            f"observed cardinality {observed} exceeds the proved bound {claimed}")
    return 0


def _cmd_selftest(args) -> int:
    from .criteria import run_selftest
    return run_selftest()


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise InputError (exit 1), not SystemExit(2)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The kdist parser, and each command's own parser by name."""
    parser = _Parser(
        prog="kdist",
        description="Bounds and certificates for k-distance sets in Minkowski spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="distance spectrum of a point set")
    p.add_argument("--norm", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("chains", help="(k+1)^d chain-height certificate for every "
                       "parallelotope gauge")
    p.add_argument("--norm", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("normalize2d", help="planar max-area normalization")
    p.add_argument("--norm", required=True)
    p.set_defaults(func=_cmd_normalize2d)

    p = sub.add_parser("conecover", help="greedy separated set and cone cover")
    p.add_argument("--norm", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_conecover)

    p = sub.add_parser("decompose", help="cluster decomposition bound trace")
    p.add_argument("--norm", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("search", help="maximum k-distance subset search")
    p.add_argument("--norm", required=True)
    p.add_argument("--ground", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--use-bound-pruning", action="store_true")
    p.add_argument("--enumerate-optima", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bound", help="tightest applicable cardinality certificate")
    p.add_argument("--norm", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("selftest", help="run the ten acceptance criteria at small scale")
    p.set_defaults(func=_cmd_selftest)
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """One argparse pass: a named command's own parser reads the rest of argv,
    as the kdist parser would hand it on; the kdist parser takes everything
    else (no command, -h, an unknown command) and reports leftovers."""
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run_command(argv: list[str]) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:   # --help; usage errors raise InputError
            return exc.code
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (FalsificationError, CertificateError) as exc:
        print(f"falsification alarm: {exc}", file=sys.stderr)
        return 2
    except KdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        status = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Stdout was closed: devnull keeps the interpreter's last flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
