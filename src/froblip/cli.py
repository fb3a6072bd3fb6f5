"""Command-line interface: JSON in, CSV/JSON out, deterministic.

Exit codes: 0 success (and EQUIVALENT verdicts), 2 parse error, 3 resource
limit, 4 domain error, 10 NOT_EQUIVALENT, 11 UNDECIDED.  Errors go to
stderr only.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import serialize
from .cones import cone_member
from .equivalence import EQUIVALENT, NOT_EQUIVALENT, decide
from .errors import FroblipError, ParseError, ResourceLimit
from .frobenius import _check_radii, _unit
from .frobenius import (
    build_multiplicity,
    estimate_gamma,
    frobenius_number_1d,
    gamma_table_bound,
    make_defining_data,
)
from .growth import gamma
from .lattice import parse_rational, read_fraction
from .selfsimilar import ExpThreshold, cut_set, matchable, matchable_search

EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_DOMAIN = 4
EXIT_NOT_EQUIVALENT = 10
EXIT_UNDECIDED = 11
SWEEP_CANDIDATES = 100_000  # directions a 2-D sweep builds, grid points a 3-D one tests


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(doc, out: Optional[str]):
    _emit(json.dumps(doc, indent=2, sort_keys=True), out)


def _sweep_directions(data, n: int):
    """At most n directions inside the cone of the step vectors.

    Dimension 1: the single ray; dimension 2: n evenly spaced angles on
    the arc spanned by the vectors, n at most SWEEP_CANDIDATES; dimension
    3: the first n points of a 40 n-point Fibonacci sphere that lie in the
    cone, trying at most SWEEP_CANDIDATES points.  Higher dimensions need
    ``--theta``.
    """
    if n < 1:
        raise FroblipError(f"--dirs must be >= 1, got {n}")
    s = data.dim
    if s == 1:
        return [(1.0,)]
    if s == 2:
        if n > SWEEP_CANDIDATES:
            raise ResourceLimit(f"--dirs {n} exceeds SWEEP_CANDIDATES = "
                                f"{SWEEP_CANDIDATES} directions of a 2-D sweep")
        angles = sorted(math.atan2(v[1], v[0]) for v in data.vectors)
        lo, hi = angles[0], angles[-1]
        pad = (hi - lo) / (2 * n) if hi > lo else 0.0
        out = []
        for i in range(n):
            a = lo + pad + (hi - lo - 2 * pad) * (i / max(n - 1, 1))
            out.append((math.cos(a), math.sin(a)))
        return out
    if s > 3:
        raise FroblipError(f"gamma sweeps cover dimensions 1 to 3; give "
                           f"directions of this {s}-dimensional system with --theta")
    golden = (1 + 5 ** 0.5) / 2
    grid = 40 * n
    out = []
    for i in range(min(grid, SWEEP_CANDIDATES)):
        z = 1 - 2 * (i + 0.5) / grid
        r = math.sqrt(max(1 - z * z, 0.0))
        phi = 2 * math.pi * i / golden
        v = (r * math.cos(phi), r * math.sin(phi), z)
        if cone_member(v, data.cone):
            out.append(v)
            if len(out) == n:
                break
    if not out:
        raise FroblipError("no sweep directions found inside the cone")
    return out


def cmd_build(args) -> int:
    system = serialize.load_system(args.input)
    _emit_json(serialize.system_to_json(system), args.out)
    return 0


def cmd_gamma(args) -> int:
    system = serialize.load_system(args.system)
    data = make_defining_data(system.exponents, system.alpha)
    want_analytic = args.mode in ("analytic", "both")
    want_empirical = args.mode in ("empirical", "both")
    if args.theta:
        thetas = [tuple(read_fraction(t, "--theta")
                        for t in args.theta.split(","))]
        if len(thetas[0]) != system.dim:
            raise FroblipError(f"--theta has {len(thetas[0])} components, but "
                               f"the system has dimension {system.dim}")
    else:
        thetas = _sweep_directions(data, args.dirs)
    table = None
    if want_empirical:  # one table, deep enough for every direction
        _check_radii(args.k_max, args.k_count)
        table = build_multiplicity(data, max(
            gamma_table_bound(data, th, args.k_max) for th in thetas))
    rows = []
    for theta in thetas:
        row = {"theta": _unit(theta), "gamma_analytic": None,
               "gamma_empirical": None, "stderr": None}
        if want_analytic:
            row["gamma_analytic"] = gamma(data, theta)
        if want_empirical:
            est = estimate_gamma(data, theta, k_max=args.k_max,
                                 k_count=args.k_count, table=table)
            row["gamma_empirical"] = est.gamma_hat
            row["stderr"] = est.stderr
        rows.append(row)
    _emit("\n".join(serialize.sweep_csv_lines(rows, system.dim)), args.out)
    return 0


def cmd_decide(args) -> int:
    a = serialize.load_system(args.a)
    b = serialize.load_system(args.b)
    verdict = decide(a, b, diagnostics=args.diagnostics)
    _emit_json(serialize.verdict_to_json(verdict), args.out)
    if verdict.result == EQUIVALENT:
        return 0
    if verdict.result == NOT_EQUIVALENT:
        return EXIT_NOT_EQUIVALENT
    return EXIT_UNDECIDED


def cmd_multiplicity(args) -> int:
    system = serialize.load_system(args.system)
    data = make_defining_data(system.exponents, system.alpha)
    table = build_multiplicity(data, read_fraction(args.bound, "--bound"))
    _emit("\n".join(serialize.table_csv_lines(table)), args.out)
    return 0


def _threshold(args):
    """The cut threshold of ``--t`` or ``--exp-k``; exactly one is given."""
    if (args.t is None) == (args.exp_k is None):
        raise ParseError(f"{args.command} needs exactly one of --t and --exp-k")
    if args.t is not None:
        try:
            return parse_rational(args.t)
        except ParseError as exc:
            raise ParseError(f"--t: {exc}") from None
    return ExpThreshold(read_fraction(args.exp_k, "--exp-k"))


def cmd_cutset(args) -> int:
    system = serialize.load_system(args.system)
    cs = cut_set(system, _threshold(args))
    _emit_json(serialize.cutset_to_json(cs), args.out)
    return 0


def cmd_matchable(args) -> int:
    a = serialize.load_system(args.a)
    b = serialize.load_system(args.b)
    t = _threshold(args)
    if args.search:
        report = matchable_search(a, b, t, m0_limit=args.m0_limit)
    else:
        report = matchable(a, b, t, args.m0)
    _emit_json(serialize.match_report_to_json(report), args.out)
    return 0


def cmd_frobenius1d(args) -> int:
    g = frobenius_number_1d(args.values)
    _emit(str(g), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="froblip",
        description="Exact growth invariants and Lipschitz-equivalence "
                    "decisions for dust-like self-similar sets.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="parse ratios, emit the built system")
    b.add_argument("input")
    b.add_argument("-o", "--out")
    b.set_defaults(func=cmd_build)

    g = sub.add_parser("gamma", help="directional growth sweep as CSV")
    g.add_argument("system")
    g.add_argument("--dirs", type=int, default=9,
                   help="directions in a sweep without --theta; a 3-D sweep "
                        "prints at most this many, the points of a 40*DIRS "
                        "Fibonacci-sphere grid that lie in the cone")
    g.add_argument("--theta", help="comma-separated direction components, "
                                   "read exactly: decimals or p/q")
    g.add_argument("--analytic", dest="mode", action="store_const",
                   const="analytic", default="both")
    g.add_argument("--empirical", dest="mode", action="store_const",
                   const="empirical")
    g.add_argument("--both", dest="mode", action="store_const", const="both")
    g.add_argument("--k-max", type=float, default=120.0)
    g.add_argument("--k-count", type=int, default=12)
    g.add_argument("-o", "--out")
    g.set_defaults(func=cmd_gamma)

    d = sub.add_parser("decide", help="equivalence verdict as JSON")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--diagnostics", action="store_true")
    d.add_argument("-o", "--out")
    d.set_defaults(func=cmd_decide)

    m = sub.add_parser("multiplicity", help="exact count table as CSV")
    m.add_argument("system")
    m.add_argument("--bound", required=True)
    m.add_argument("-o", "--out")
    m.set_defaults(func=cmd_multiplicity)

    c = sub.add_parser("cutset", help="threshold cut-set as JSON")
    c.add_argument("system")
    c.add_argument("--t")
    c.add_argument("--exp-k", dest="exp_k")
    c.add_argument("-o", "--out")
    c.set_defaults(func=cmd_cutset)

    mt = sub.add_parser("matchable", help="cut-set matchability as JSON")
    mt.add_argument("a")
    mt.add_argument("b")
    mt.add_argument("--t")
    mt.add_argument("--exp-k", dest="exp_k")
    mt.add_argument("--m0", type=int, default=8)
    mt.add_argument("--search", action="store_true")
    mt.add_argument("--m0-limit", dest="m0_limit", type=int, default=64)
    mt.add_argument("-o", "--out")
    mt.set_defaults(func=cmd_matchable)

    fr = sub.add_parser("frobenius1d", help="classical Frobenius number")
    fr.add_argument("values", type=int, nargs="+")
    fr.add_argument("-o", "--out")
    fr.set_defaults(func=cmd_frobenius1d)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FroblipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
