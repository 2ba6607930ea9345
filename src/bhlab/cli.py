"""Batch experiment runner.

Subcommands cover the exact-identity suite, the sieve sandwich grid,
single-polynomial sums, the family second moment (CSV/JSON emission), and
progression-error averages.  Every run echoes its resolved configuration
into the output header; numeric output carries 15 significant digits.

Exit codes: 0 success, 1 failed checks, 2 usage errors, 3 budget refusals.
"""

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from . import budgets, eulerprod, identities, moments, sieve
from .poly import FamilySpec, IntPolynomial

SQUAREFREE_30 = [k for k in range(1, 31)
                 if all(k % (p * p) for p in (2, 3, 5))]


def fmt(value):
    return f"{value:.15g}"


def _parse_poly(text):
    try:
        coeffs = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise SystemExit(2)
    return IntPolynomial(coeffs)


def _load_config(path):
    config = {}
    if path is None:
        return config
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _resolve(args, config, key, builtin, cast):
    """Flag > config file > builtin default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return cast(config[key])
    return builtin


def _echo_header(out, pairs):
    for key, value in pairs:
        print(f"# {key} = {value}", file=out)


def cmd_identities(args, config):
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += not ok

    for ell in (2, 3, 5, 7):
        for d in (1, 2, 3):
            for j in (1, 2):
                mom = identities.omega_moment(ell, d, j)
                report(f"root-count moment l={ell} d={d} j={j}: "
                       f"{mom.enumerated} == {mom.closed_form}",
                       mom.enumerated == mom.closed_form)
    for k in SQUAREFREE_30:
        pair = identities.squared_factor_sum(k, 2)
        report(f"squared-factor sum k={k}: {pair.enumerated} == "
               f"{pair.closed_form}", pair.enumerated == pair.closed_form)
    local_factors = {
        "w/l": lambda c, ell: Fraction(identities.residue_root_count(c, ell), ell),
        "1-w/l": lambda c, ell: 1 - Fraction(
            identities.residue_root_count(c, ell), ell),
        "(1-w/l)^2": lambda c, ell: (1 - Fraction(
            identities.residue_root_count(c, ell), ell)) ** 2,
    }
    for label, g in local_factors.items():
        for d in (1, 2):
            bad = [k for k in SQUAREFREE_30
                   if (pair := identities.multiplicative_average(g, k, d))
                   .direct != pair.product]
            report(f"multiplicative average g={label} d={d}, "
                   f"all squarefree k <= 30" + (f" (bad: {bad})" if bad else ""),
                   not bad)
    print(f"{failures} failures")
    return 1 if failures else 0


def cmd_sieve_check(args, config):
    n_max = _resolve(args, config, "n_max", 10**5, int)
    w_grid = [float(w) for w in
              _resolve(args, config, "w_grid", "6,12,20", str).split(",")]
    y_grid = [float(y) for y in
              _resolve(args, config, "y_grid", "50,1e3,1e5", str).split(",")]
    _echo_header(sys.stdout, [("n_max", n_max), ("w_grid", w_grid),
                              ("y_grid", y_grid)])
    failures = 0
    for w in w_grid:
        for y in y_grid:
            lower = sieve.build_brun_weights(w, y, "lower")
            upper = sieve.build_brun_weights(w, y, "upper")
            rep = sieve.sandwich_check(lower, upper, n_max)
            ok = rep.violations == 0
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  sandwich w={w} y={y} "
                  f"n<={n_max}: {rep.violations} violations"
                  + ("" if ok else f" (first at n={rep.first_violation})"))
        # telescoping with the truncation inactive
        y_big = max(w, 2.0) ** 26
        upper = sieve.build_brun_weights(w, y_big, "upper")
        for label, h in (("1/l", lambda l: 1 / l),
                         ("(l-1)/l^2", lambda l: (l - 1) / l**2),
                         ("(2l^2-2l+1)/l^3", lambda l: (2*l*l - 2*l + 1) / l**3)):
            got = sieve.sieve_sum(upper, h)
            want = sieve.density_product(w, h)
            ok = abs(got - want) <= 1e-12 * abs(want)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  telescoping w={w} h={label}: "
                  f"{fmt(got)} vs {fmt(want)}")
    print(f"{failures} failures")
    return 1 if failures else 0


def cmd_singular_series(args, config):
    P = _parse_poly(_resolve(args, config, "poly", None, str))
    z = _resolve(args, config, "z", None, float)
    if z is None:
        print("singular-series requires --z", file=sys.stderr)
        return 2
    _echo_header(sys.stdout, [("poly", P.coeffs), ("z", z)])
    print(f"value = {fmt(eulerprod.truncated_bh_constant(P, z))}")
    return 0


def cmd_psi(args, config):
    P = _parse_poly(_resolve(args, config, "poly", None, str))
    x = _resolve(args, config, "x", None, int)
    if x is None:
        print("psi requires --x", file=sys.stderr)
        return 2
    if args.theta:
        kind, value = "theta", moments.theta(P, x)
    elif args.neg:
        kind, value = "negative_part", moments.negative_part(P, x)
    elif args.abs:
        kind = "psi_abs_from_one" if args.from_one else "psi_abs"
        value = moments.psi_abs(P, x, from_one=args.from_one)
    else:
        kind, value = "psi", moments.psi(P, x)
    _echo_header(sys.stdout, [("poly", P.coeffs), ("x", x), ("kind", kind)])
    print(f"value = {fmt(value)}")
    return 0


class UsageError(Exception):
    """Bad command-line input, reported in one line with exit code 2."""


def _moment_rows(args, config):
    d = _resolve(args, config, "d", 2, int)
    H = _resolve(args, config, "H", None, int)
    gamma = _resolve(args, config, "gamma", 1.0, float)
    mode = _resolve(args, config, "mode", "exhaustive", str)
    samples = _resolve(args, config, "samples", 10**5, int)
    seed = _resolve(args, config, "seed", 0, int)
    center = _resolve(args, config, "center", "bh", str)
    threads = _resolve(args, config, "threads", 1, int)
    x_raw = _resolve(args, config, "x", None, str)
    z_raw = _resolve(args, config, "z", None, str)
    if H is None:
        raise UsageError("moment requires --H")
    if x_raw is None:
        raise UsageError("moment requires --x")
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    mode = {"mc": "montecarlo"}.get(mode, mode)
    try:
        xs = [int(v) for v in str(x_raw).split(",")]
        zs = None if z_raw is None else [float(v) for v in
                                         str(z_raw).split(",")]
        if mode == "montecarlo":
            spec = FamilySpec(d=d, H=H, mode=mode, sample_count=samples,
                              seed=seed)
        else:
            spec = FamilySpec(d=d, H=H)
    except ValueError as exc:
        raise UsageError(exc) from None
    header = [("d", d), ("H", H), ("x", xs),
              ("z", zs if zs is not None else f"x^gamma (gamma={gamma})"),
              ("gamma", gamma), ("mode", mode), ("center", center),
              ("psi_variant",
               moments._psi_kind(args.abs, args.abs_from_one)),
              ("samples", samples if mode == "montecarlo" else None),
              ("seed", seed if mode == "montecarlo" else None),
              ("threads", threads)]
    points = [(x, z) for x in xs
              for z in (zs if zs is not None else [max(float(x), 2.0) ** gamma])]
    for x, z in points:  # refused before any grid point runs
        if x < 0:
            raise UsageError(f"x must be >= 0, got {x}")
        if not z > 1:
            raise UsageError(f"z must exceed 1, got {z}")
    rows = []
    for x, z in points:
        rep = moments.second_moment(
            spec, x, z, center=center, use_abs=args.abs,
            abs_from_one=args.abs_from_one, threads=threads)
        rows.append(rep.to_dict())
    return header, rows


def cmd_moment(args, config):
    header, rows = _moment_rows(args, config)
    fmt_name = _resolve(args, config, "format", "csv", str)
    out_path = _resolve(args, config, "out", None, str)
    out = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        if fmt_name == "json":
            payload = {"config": {k: v for k, v in header}, "rows": rows}
            json.dump(payload, out, indent=2, default=str)
            out.write("\n")
        else:
            _echo_header(out, header)
            writer = csv.DictWriter(out, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: fmt(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
    finally:
        if out_path:
            out.close()
    return 0


def cmd_bv(args, config):
    X = _resolve(args, config, "X", None, int)
    Q = _resolve(args, config, "Q", None, int)
    if X is None or Q is None:
        print("bv requires --X and --Q", file=sys.stderr)
        return 2
    value = moments.bv_average(X, Q)
    _echo_header(sys.stdout, [("X", X), ("Q", Q)])
    print(f"value = {fmt(value)}")
    # trend metric only; no hard threshold
    A = 10
    scale = X / math.log(X) ** (A - 5)
    print(f"ratio_to_X_over_logX_pow_{A - 5} = {fmt(value / scale)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bhlab",
        description="Desk-scale experiments on averaged prime-counting sums "
                    "over polynomial families.")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("identities", help="exact residue-family identity suite")

    p = sub.add_parser("sieve-check", help="sandwich and telescoping grid")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--w-grid", dest="w_grid")
    p.add_argument("--y-grid", dest="y_grid")

    p = sub.add_parser("singular-series", help="truncated singular series")
    p.add_argument("--poly", help="comma-separated c0,c1,...,cd")
    p.add_argument("--z", type=float)

    p = sub.add_parser("psi", help="prime-counting sums for one polynomial")
    p.add_argument("--poly", help="comma-separated c0,c1,...,cd")
    p.add_argument("--x", type=int)
    p.add_argument("--abs", action="store_true")
    p.add_argument("--from-one", action="store_true", dest="from_one")
    p.add_argument("--theta", action="store_true")
    p.add_argument("--neg", action="store_true")

    p = sub.add_parser("moment", help="family second-moment experiment")
    p.add_argument("--d", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--x", help="value or comma-separated grid")
    p.add_argument("--z", help="value or comma-separated grid")
    p.add_argument("--gamma", type=float)
    p.add_argument("--mode", choices=["exhaustive", "mc", "montecarlo"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--center", choices=["bh", "none"])
    p.add_argument("--abs", action="store_true")
    p.add_argument("--abs-from-one", action="store_true", dest="abs_from_one")
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("bv", help="progression error average")
    p.add_argument("--X", type=int)
    p.add_argument("--Q", type=int)
    return parser


COMMANDS = {
    "identities": cmd_identities,
    "sieve-check": cmd_sieve_check,
    "singular-series": cmd_singular_series,
    "psi": cmd_psi,
    "moment": cmd_moment,
    "bv": cmd_bv,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    try:
        return COMMANDS[args.command](args, config)
    except budgets.BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
