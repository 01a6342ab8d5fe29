"""Command-line front end: bounds, solves, extremal profiles, sweeps.

Reports are JSON with a versioned schema and deterministic float
formatting (17 significant digits); function dumps go to CSV next to
the report.  Exit codes: 2 for unparsable, missing or out-of-domain
arguments and for output that cannot be written, 3 for solver failures
and for running out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__, sharpness, spectral, transform
from .weights import TWO_PI, PeriodicWeight, sine_family
from .spectral import SolverError

SCHEMA_VERSION = 1


class WeightParseError(ValueError):
    """A weight spec string could not be parsed."""


def parse_angle(token):
    """Parse an angle literal; a trailing 'pi' multiplies by pi."""
    tok = token.strip()
    try:
        if tok.endswith("pi"):
            head = tok[:-2]
            return (float(head) if head else 1.0) * math.pi
        return float(tok)
    except ValueError:
        raise WeightParseError(f"bad angle literal {token!r}") from None


def parse_weight(spec):
    """Parse the weight mini-language.

    Base forms: ``const:v``, ``sine:M``, ``bar-a:L``, ``bar-gamma:M,p,q``,
    ``pwc:theta1=v1,theta2=v2,...``.  Modifiers ``inv:`` (reciprocal) and
    ``pow:r:`` (pointwise power) may be prefixed.
    """
    if spec.startswith("inv:"):
        return parse_weight(spec[4:]).power(-1.0)
    if spec.startswith("pow:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise WeightParseError(f"pow modifier needs 'pow:r:spec', got {spec!r}")
        try:
            r = float(parts[1])
        except ValueError:
            raise WeightParseError(f"bad power exponent {parts[1]!r}") from None
        return parse_weight(parts[2]).power(r)

    kind, sep, arg = spec.partition(":")
    if not sep:
        raise WeightParseError(f"weight spec {spec!r} has no ':'")
    try:
        if kind == "const":
            return PeriodicWeight.constant(float(arg))
        if kind == "sine":
            return sine_family(float(arg))
        if kind == "bar-a":
            return sharpness.extremal_weight_pq(float(arg), 1.0, 1.0)
        if kind == "bar-gamma":
            m_str, p_str, q_str = arg.split(",")
            return sharpness.extremal_weight_pq(
                float(m_str), float(p_str), float(q_str))
        if kind == "pwc":
            breakpoints, values = [], []
            for pair in arg.split(","):
                theta_str, eq, v_str = pair.partition("=")
                if not eq:
                    raise WeightParseError(f"bad pwc entry {pair!r}")
                breakpoints.append(parse_angle(theta_str))
                values.append(float(v_str))
            return PeriodicWeight.piecewise(breakpoints, values)
    except WeightParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise WeightParseError(f"bad weight spec {spec!r}: {exc}") from None
    raise WeightParseError(f"unknown weight family {kind!r}")


# -- deterministic JSON -----------------------------------------------------


def _json(obj):
    # floats first: the extremal CSV formats three per sample
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(report, args):
    if args.format == "csv":
        text = _report_csv(report)
    else:
        text = _json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(fh, header, table):
    """A header line, then one line per row of cells, RFC 4180 quoted."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(table)


def _report_csv(report):
    """Rows, or else key/value lines, of cells in JSON text (keys bare)."""
    rows = report["results"].get("rows")
    if rows:
        # rows may differ in their keys (a sweep row can hold "error")
        header = list(dict.fromkeys(k for row in rows for k in row))
        table = [[_json(row.get(k)) for k in header] for row in rows]
    else:
        header = ["key", "value"]
        table = [[k, _json(v)] for k, v in report["results"].items()]
    out = io.StringIO()
    _write_csv(out, header, table)
    return out.getvalue()


def _require_numbers(args, *names):
    """Reject a non-finite number, or a list option given empty."""
    for name in names:
        values = getattr(args, name)
        flag = "--" + name.replace("_", "-")
        if values == []:
            raise ValueError(f"{flag} needs at least one number")
        numbers = [values] if isinstance(values, float) else values or []
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"{flag} must be finite, got {values}")


# -- command handlers --------------------------------------------------------


def _cmd_bound(args):
    _require_numbers(args, "p", "q")
    if args.gamma is not None:
        if args.p is None or args.q is None:
            raise ValueError("bound --gamma needs both --p and --q")
        pair = sharpness.PowerWeightPair.create(parse_weight(args.gamma),
                                                args.p, args.q)
        return {"bound": sharpness.bound_power(pair), "formula": "power",
                "M": pair.M, "p": pair.p, "q": pair.q}
    if args.a is None or args.b is None:
        raise ValueError("bound needs either --gamma/--p/--q or --a and --b")
    a = parse_weight(args.a)
    b = parse_weight(args.b)
    return {"bound": sharpness.bound_general(a, b), "formula": "general"}


def _cmd_solve(args):
    _require_numbers(args, "n_list")
    a = parse_weight(args.a)
    b = parse_weight(args.b)
    if args.n_list:
        res = spectral.converge(a, b, args.n_list)
        return {"constant": res.constant, "lambda1": res.lambda1,
                "estimated_order": res.estimated_order,
                "constraint_residual": res.residual,
                "convergence_table": res.history}
    res = spectral.best_constant(a, b, args.n)
    return {"constant": res.constant, "lambda1": res.lambda1,
            "nodes": res.n, "constraint_residual": res.residual}


def _cmd_extremal(args):
    _require_numbers(args, "p", "q")
    if args.samples < 1:
        raise ValueError(
            f"extremal --samples must be >= 1, got {args.samples}")
    # ps is the p = q = 1 square wave, with --L as its M
    M, p, q = ((args.L, 1.0, 1.0) if args.family == "ps"
               else (args.M, args.p, args.q))
    profile = sharpness.extremal_fn_pq(M, p, q, mu_mode=args.mu_mode)
    theta = np.arange(args.samples) * (TWO_PI / args.samples)
    csv_path = (args.out or "extremal") + ".fn.csv"
    columns = (theta, profile.weight.eval(theta), profile.fn(theta))
    with open(csv_path, "w") as fh:
        _write_csv(fh, ["theta", "weight", "extremal_fn"],
                   (map(_json, row) for row in zip(*columns)))
    return {"family": args.family,
            "constants": profile.constants,
            "samples": args.samples, "csv": csv_path}


def _verify_row(gamma, p, q, n):
    """(gamma^p, gamma^q), its report at n, and its verify/sweep row cells."""
    pair = sharpness.PowerWeightPair.create(gamma, p, q)
    report = sharpness.verify_sharpness(pair, n=n)
    return pair, report, {k: getattr(report, k) for k in
                          ("bound", "computed", "relative_gap", "sharp")}


def _cmd_verify(args):
    _require_numbers(args, "p", "q")
    pair, report, results = _verify_row(parse_weight(args.gamma), args.p,
                                        args.q, args.n)
    is_sharp, phase, residual = sharpness.sharpness_characterization(
        pair.a, pair.b)
    results.update(estimated_order=report.estimated_order,
                   characterization={"is_sharp": is_sharp, "phase": phase,
                                     "residual": residual})
    if pair.p + pair.q > 0:
        results["c_pq"] = transform.c_pq(pair.M, pair.p, pair.q)
        results["mu"] = sharpness.mu_constant(pair.M, pair.p, pair.q,
                                              args.mu_mode)
    return results


def _cmd_sweep(args):
    _require_numbers(args, "L_list", "M_list", "p_list", "q_list")
    # an (M, p, q) row needs all three lists, and some row must be asked for
    grid = [args.M_list, args.p_list, args.q_list]
    if grid.count(None) in (1, 2) or args.L_list is None and None in grid:
        raise ValueError("sweep needs --L-list, or all of --M-list, "
                         "--p-list and --q-list, or both")

    def family(M, p, q):
        if args.gamma_family == "sine":
            return sine_family(M)
        return sharpness.extremal_weight_pq(M, p, q)
    # (row label, gamma's builder, M, p, q); an L row is the p = q = 1
    # square wave whatever the --gamma-family
    cases = [({"L": L}, sharpness.extremal_weight_pq, L, 1.0, 1.0)
             for L in args.L_list or []]
    cases += [({"M": M, "p": p, "q": q}, family, M, p, q)
              for M, p, q in itertools.product(*(g or [] for g in grid))]
    rows = []
    for label, gamma, M, p, q in cases:
        row = dict(label)
        try:
            row.update(_verify_row(gamma(M, p, q), p, q, args.n)[2])
        except (ValueError, SolverError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return {"rows": rows}


def _cmd_transform_check(args):
    a = parse_weight(args.a)
    b = parse_weight(args.b)
    cov = transform.build_cov(a, b)
    residuals = transform.substitution_check(cov, np.sin, np.cos)

    probes = np.random.default_rng(args.seed).uniform(-TWO_PI, 2 * TWO_PI,
                                                      size=1000)
    inv_err = float(np.max(np.abs(cov.inverse(cov.forward(probes)) - probes)))
    return {"c": cov.c,
            "substitution_residuals": list(residuals),
            "cov_roundtrip_error": inv_err}


# -- argument parsing ---------------------------------------------------------


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wirtinger",
        description="Best constants in weighted Wirtinger inequalities: "
                    "sharp bounds, spectral solves, extremal profiles.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for transform-check's random probes; "
                             "the other commands ignore it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="evaluate a closed-form bound")
    p_bound.add_argument("--a")
    p_bound.add_argument("--b")
    p_bound.add_argument("--gamma")
    p_bound.add_argument("--p", type=float)
    p_bound.add_argument("--q", type=float)

    p_solve = sub.add_parser("solve", parents=[common], help="spectral best constant")
    p_solve.add_argument("--a", required=True)
    p_solve.add_argument("--b", required=True)
    p_solve.add_argument("--n", type=int, default=2048)
    p_solve.add_argument("--n-list", type=_int_list, default=None)

    p_ext = sub.add_parser("extremal", parents=[common], help="dump an extremal profile")
    p_ext.add_argument("--family", choices=["ps", "pq"], required=True)
    p_ext.add_argument("--L", type=float, default=4.0)
    p_ext.add_argument("--M", type=float, default=4.0)
    p_ext.add_argument("--p", type=float, default=1.0)
    p_ext.add_argument("--q", type=float, default=1.0)
    p_ext.add_argument("--mu-mode", default="continuity_corrected",
                       choices=["continuity_corrected", "paper_literal"])
    p_ext.add_argument("--samples", type=int, default=2048)

    p_ver = sub.add_parser("verify", parents=[common], help="verify sharpness of the bound")
    p_ver.add_argument("--gamma", required=True)
    p_ver.add_argument("--p", type=float, required=True)
    p_ver.add_argument("--q", type=float, required=True)
    p_ver.add_argument("--n", type=int, default=2048)
    p_ver.add_argument("--mu-mode", default="continuity_corrected",
                       choices=["continuity_corrected", "paper_literal"])

    p_sweep = sub.add_parser("sweep", parents=[common], help="Cartesian parameter sweep")
    p_sweep.add_argument("--M-list", type=_float_list, default=None)
    p_sweep.add_argument("--p-list", type=_float_list, default=None)
    p_sweep.add_argument("--q-list", type=_float_list, default=None)
    p_sweep.add_argument("--L-list", type=_float_list, default=None)
    p_sweep.add_argument("--gamma-family", choices=["bar", "sine"],
                         default="bar")
    p_sweep.add_argument("--n", type=int, default=2048)

    p_tc = sub.add_parser("transform-check", parents=[common],
                          help="substitution identities and map round trip")
    p_tc.add_argument("--a", required=True)
    p_tc.add_argument("--b", required=True)

    return parser


_HANDLERS = {
    "bound": _cmd_bound,
    "solve": _cmd_solve,
    "extremal": _cmd_extremal,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "transform-check": _cmd_transform_check,
}


def run(args):
    """Dispatch a parsed config to its handler and wrap the report."""
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("out", "format") and v is not None}
    start = time.perf_counter()
    results = _HANDLERS[args.command](args)
    elapsed = time.perf_counter() - start
    # wall time goes to stderr so reports stay byte-identical across runs
    print(f"wall-time: {elapsed:.3f}s", file=sys.stderr)
    return {"schema": SCHEMA_VERSION, "version": __version__,
            "command": args.command, "params": params, "results": results}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _emit(run(args), args)
    except ValueError as exc:  # WeightParseError or an out-of-domain number
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out, or extremal's CSV, cannot be written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an n or --samples too large to allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
