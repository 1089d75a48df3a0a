"""Command-line interface: JSON in, JSON certificates out.

Subcommands: spectrum, chains, normalize2d, conecover, decompose, search, bound, selftest,
parsed off one table (argparse only renders --help).  Exit status: 0 on success/pass (and
--help), 1 on input errors (usage errors included) and other rejected input, 2 on a
falsification alarm (a verified computation contradicting a bound).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .chains import chain_certificate, parallelotope_cones
from .cover import (cone_halfwidth_check, cover_assignment, generated_cones,
                    greedy_separated_set, packing_bound_check, separated_set_capacity,
                    sphere_samples)
from .decompose import decompose_recursive_bound
from .errors import CertificateError, FalsificationError, InputError, KdistError
from .norms import NormSpec, norm_from_json, norm_to_json, rat_to_pair, vec_to_json
from .planar import (apply_matrix, best_route, planar_conditions, planar_normalization,
                     removed_rays, routes)
from .search import SearchProblem, _pair_classes, branch_and_bound, enumerate_optimal_subsets
from .spectrum import (PairTable, PointSet, distance_spectrum, pointset_from_json,
                       pointset_to_json, spectrum_to_json)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


# One decoder for every file: json.load given a hook builds a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_json(path: str):
    # The bytes are read as UTF-8, JSON's encoding, whatever the locale.  ValueError:
    # bad JSON, text that is not UTF-8, too many digits or a repeated key;
    # RecursionError: deep nesting.
    try:
        with io.FileIO(path) as fh:    # unbuffered: one read to the end
            return _DECODER.decode(fh.readall().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_points(path: str) -> PointSet:
    return pointset_from_json(_load_json(path))


def _digest(*objs) -> str:
    blob = json.dumps(objs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(obj) -> None:
    # One line: without indent, json.dumps runs CPython's C encoder.
    sys.stdout.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_spectrum(spec: NormSpec, args) -> int:
    ps = _load_points(args.points)
    sp = distance_spectrum(spec, ps)
    _emit(spectrum_to_json(spec, sp))
    return 0


def _cmd_chains(spec: NormSpec, args) -> int:
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


def _cmd_normalize2d(spec: NormSpec, args) -> int:
    # Checked on the input polygon's differences, reported in the frame of C' by T.
    nrm, report = planar_normalization(spec), planar_conditions(spec)
    _emit({
        "x0": vec_to_json(nrm.x0),
        "y0": vec_to_json(nrm.y0),
        "matrix": [[rat_to_pair(a) for a in row] for row in nrm.matrix],
        "vertices": [vec_to_json(v) for v in nrm.vertices],
        "removed_rays": [{"cone": c, "ray": vec_to_json(apply_matrix(nrm.matrix, r))}
                         for c, r in removed_rays(nrm.cones)],
        "conditions_ok": report.ok,
        "uncovered": [vec_to_json(apply_matrix(nrm.matrix, v)) for v in report.uncovered],
        "equal_norm_violations": len(report.equal_norm_violations),
    })
    if not report.ok:
        raise FalsificationError("quadrant cone conditions fail on the normalized polygon")
    return 0


def _cmd_conecover(spec: NormSpec, args) -> int:
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


def _cmd_decompose(spec: NormSpec, args) -> int:
    ps = _load_points(args.points)
    node = decompose_recursive_bound(PairTable(spec, ps))
    _emit(node.to_json())
    return 0


def _cmd_search(spec: NormSpec, args) -> int:
    ground = _load_points(args.ground)
    problem = SearchProblem(spec, ground, args.k)
    table = _pair_classes(spec, ground)         # one table for both searches
    result = branch_and_bound(problem, use_bound_pruning=args.use_bound_pruning, table=table)
    out = {
        "size": result.size,
        "points": [vec_to_json(p) for p in result.points],
        "spectrum": spectrum_to_json(spec, result.spectrum),
        "nodes": result.nodes,
        "optimal": result.optimal,
    }
    if args.enumerate_optima:
        optima = enumerate_optimal_subsets(problem, result.size, table=table)
        out["optima"] = [[vec_to_json(p) for p in s] for s in optima]
    _emit(out)
    return 0


def _cmd_bound(spec: NormSpec, args) -> int:
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
                                             for c, r in removed_rays(route.family)]
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
        "tight": observed == claimed,
        "witnesses": witnesses,
    })
    if not passed:
        raise FalsificationError(
            f"observed cardinality {observed} exceeds the proved bound {claimed}")
    # The planar theorem's equality clause: only a parallelogram reaches (k+1)^2.
    if name == "planar-two-cones" and observed == claimed:
        sides = len(planar_normalization(spec).polygon)
        if sides > 4:
            raise FalsificationError(f"{observed} points reach (k+1)^2 under a norm whose "
                                     f"unit polygon has {sides} vertices, not 4")
    return 0


def _cmd_selftest(spec: None, args) -> int:
    from .criteria import run_selftest
    return run_selftest()


# ---------------------------------------------------------------------------
# parser

#: Each command once, by name: its help, its handler and its options' argparse
#: keywords by flag.  run_command reads --norm, where given, for the handler.
_NORM = {"--norm": {"required": True}}
_POINTS = {**_NORM, "--points": {"required": True}}
_COMMANDS = {
    "spectrum": ("distance spectrum of a point set", _cmd_spectrum, _POINTS),
    "chains": ("(k+1)^d chain-height certificate for every parallelotope gauge",
               _cmd_chains, _POINTS),
    "normalize2d": ("planar max-area normalization", _cmd_normalize2d, _NORM),
    "conecover": ("greedy separated set and cone cover", _cmd_conecover,
                  {**_NORM, "--samples": {"type": int, "default": 10_000},
                   "--seed": {"type": int, "default": 0}}),
    "decompose": ("cluster decomposition bound trace", _cmd_decompose, _POINTS),
    "search": ("maximum k-distance subset search", _cmd_search, {
        **_NORM, "--ground": {"required": True}, "--k": {"type": int, "required": True},
        "--use-bound-pruning": {"action": "store_true", "default": False},
        "--enumerate-optima": {"action": "store_true", "default": False}}),
    "bound": ("tightest applicable cardinality certificate", _cmd_bound, _POINTS),
    "selftest": ("run the ten acceptance criteria at small scale", _cmd_selftest, {}),
}


@functools.cache
def _parser():
    """argparse's kdist parser and command parsers, by name: they render the help."""
    import argparse
    parser = argparse.ArgumentParser(prog="kdist", description="Bounds and certificates "
                                     "for k-distance sets in Minkowski spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser, sub.choices


def _help(spec: None, args) -> int:
    parser, commands = _parser()
    return commands.get(args.command, parser).print_help() or 0


def _is_option(token: str, flags: dict) -> bool:
    """True iff argparse reads token as an option, not as a value."""
    return (token.partition("=")[0] in flags or token[:1] == "-" and len(token) > 1 and
            not re.match(r"^-\d+$|^-\d*\.\d+$", token) and " " not in token)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read off the command table as argparse reads it, less unique prefixes.
    A usage error raises InputError with argparse's text, in argparse's order."""
    name, prog, flags, given, extras, words = None, "kdist", {}, {}, [], iter(argv)
    for token in words:
        flag, eq, value = token.partition("=")
        kw = flags.get(flag)
        if name is None and (token == "--" or not _is_option(token, flags)):
            if token == "--" and next(words, None) is None:
                break                       # a command is still missing
            if token not in _COMMANDS:
                raise InputError(f"kdist: argument command: invalid choice: {token!r} "
                                 f"(choose from {', '.join(map(repr, _COMMANDS))})")
            name, prog, flags = token, f"kdist {token}", _COMMANDS[token][2]
        elif flag in ("-h", "--help") or kw and "action" in kw:    # no value
            if eq:
                raise InputError(f"{prog}: argument {flag if kw else '-h/--help'}: "
                                 f"ignored explicit argument {value!r}")
            if kw is None:
                return SimpleNamespace(func=_help, norm=None, command=name)   # -h, --help
            given[flag] = True
        elif kw is None:    # a stray word or an unknown option; "--" takes the rest along
            extras += [token, *words] if token == "--" else [token]
        else:
            # The next word; taking an option, "--" or the end is harmless: it is refused.
            if not eq and _is_option(value := next(words, "--"), flags):
                raise InputError(f"{prog}: argument {flag}: expected one argument")
            try:
                given[flag] = kw.get("type", str)(value)
            except ValueError:
                raise InputError(f"{prog}: argument {flag}: invalid int value: {value!r}") from None
    if name is None:
        raise InputError("kdist: the following arguments are required: command")
    if missing := [f for f, kw in flags.items() if kw.get("required") and f not in given]:
        raise InputError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extras:
        raise InputError(f"kdist: unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(func=_COMMANDS[name][1], **{"norm": None, **{
        f[2:].replace("-", "_"): given.get(f, kw.get("default")) for f, kw in flags.items()}})


def run_command(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
        spec = None if args.norm is None else norm_from_json(_load_json(args.norm))
        return args.func(spec, args)
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
