"""Batch experiment runner.

Subcommands cover the exact-identity suite, the sieve sandwich grid,
single-polynomial sums, the family second moment (CSV/JSON emission), and
progression-error averages.  Every run echoes its resolved configuration
into the output header; numeric output carries 15 significant digits.

Each value flag declares its type and builtin default once, in
build_parser.  A --config file of key = value lines sets defaults for the
subcommand's value flags; argparse runs them through the flags' own types,
so a flag beats the config file, which beats the builtin default.

Exit codes: 0 success, 1 failed checks, 2 usage errors, 3 budget refusals.
Every subcommand refuses bad input with one `usage error: ...` line and a
budget overrun with one `budget refusal: ...` line on stderr.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import budgets, eulerprod, identities, moments, sieve
from .poly import FamilySpec, IntPolynomial

SQUAREFREE_30 = [k for k in range(1, 31)
                 if all(k % (p * p) for p in (2, 3, 5))]


def fmt(value):
    return f"{value:.15g}"


def int_list(text):
    return [int(v) for v in text.split(",")]


def float_list(text):
    return [float(v) for v in text.split(",")]


def polynomial(text):
    """IntPolynomial from comma-separated c0,c1,...,cd."""
    return IntPolynomial(tuple(int_list(text)))


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are one `usage error: ...` line with exit 2."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")

    def set_config(self, command, config):
        """Make config strings the defaults of `command`'s value flags.

        argparse runs a string default through the flag's type, and a flag
        given on the command line still wins.  It does not check a default
        against the flag's choices, so a value outside them is refused
        here.  Switches (store_true flags) and keys `command` does not take
        are ignored.
        """
        (commands,) = [a.choices for a in self._actions if a.dest == "command"]
        sub = commands[command]
        values = {a.dest: config[a.dest] for a in sub._actions
                  if a.nargs is None and a.dest in config}
        for a in sub._actions:
            if a.choices is not None and a.dest in values \
                    and values[a.dest] not in a.choices:
                self.error(f"config {a.dest}: invalid choice: "
                           f"{values[a.dest]!r} (choose from "
                           f"{', '.join(map(repr, a.choices))})")
        sub.set_defaults(**values)


def _read_config(path):
    config = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _require(args, *names):
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.command} requires {' and '.join(missing)}")


def _echo_header(out, pairs):
    for key, value in pairs:
        print(f"# {key} = {value}", file=out)


def cmd_identities(args):
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
        "w/l": lambda w, ell: Fraction(w, ell),
        "1-w/l": lambda w, ell: 1 - Fraction(w, ell),
        "(1-w/l)^2": lambda w, ell: (1 - Fraction(w, ell)) ** 2,
    }
    for label, f in local_factors.items():
        g = identities.by_root_count(f)
        for d in (1, 2):
            bad = [k for k in SQUAREFREE_30
                   if (pair := identities.multiplicative_average(g, k, d))
                   .direct != pair.product]
            report(f"multiplicative average g={label} d={d}, "
                   f"all squarefree k <= 30" + (f" (bad: {bad})" if bad else ""),
                   not bad)
    print(f"{failures} failures")
    return 1 if failures else 0


def cmd_sieve_check(args):
    n_max, w_grid, y_grid = args.n_max, args.w_grid, args.y_grid
    # the whole grid is built and checked first, so bad input is refused
    # before any output
    weights = {(w, y): [sieve.build_brun_weights(w, y, parity)
                        for parity in ("lower", "upper")]
               for w in w_grid for y in y_grid}
    # telescoping with the truncation inactive
    telescoping = {w: sieve.build_brun_weights(w, max(w, 2.0) ** 26, "upper")
                   for w in w_grid}
    reports = {point: sieve.sandwich_check(*pair, n_max)
               for point, pair in weights.items()}
    _echo_header(sys.stdout, [("n_max", n_max), ("w_grid", w_grid),
                              ("y_grid", y_grid)])
    failures = 0
    for w in w_grid:
        for y in y_grid:
            rep = reports[w, y]
            ok = rep.violations == 0
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  sandwich w={w} y={y} "
                  f"n<={n_max}: {rep.violations} violations"
                  + ("" if ok else f" (first at n={rep.first_violation})"))
        for label, h in (("1/l", lambda l: 1 / l),
                         ("(l-1)/l^2", lambda l: (l - 1) / l**2),
                         ("(2l^2-2l+1)/l^3", lambda l: (2*l*l - 2*l + 1) / l**3)):
            got = sieve.sieve_sum(telescoping[w], h)
            want = sieve.density_product(w, h)
            ok = abs(got - want) <= 1e-12 * abs(want)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  telescoping w={w} h={label}: "
                  f"{fmt(got)} vs {fmt(want)}")
    print(f"{failures} failures")
    return 1 if failures else 0


def cmd_singular_series(args):
    _require(args, "poly", "z")
    value = eulerprod.truncated_bh_constant(args.poly, args.z)
    _echo_header(sys.stdout, [("poly", args.poly.coeffs), ("z", args.z)])
    print(f"value = {fmt(value)}")
    return 0


def cmd_psi(args):
    _require(args, "poly", "x")
    if args.from_one and not args.abs:
        raise ValueError("--from-one requires --abs")
    P, x = args.poly, args.x
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


def _power_cutoff(x, gamma):
    """z = max(x, 2)**gamma, inf where that overflows a float."""
    try:
        return max(float(x), 2.0) ** gamma
    except OverflowError:
        return math.inf


def _moment_rows(args):
    _require(args, "H", "x")
    moments.psi_variant(args.abs, args.abs_from_one)  # before any limit
    d, H, xs, zs, gamma = args.d, args.H, args.x, args.z, args.gamma
    mode = {"mc": "montecarlo"}.get(args.mode, args.mode)
    # exhaustive traversal ignores samples and seed
    spec = FamilySpec(d=d, H=H, mode=mode, sample_count=args.samples,
                      seed=args.seed)
    points = [(x, z) for x in xs
              for z in (zs if zs is not None else [_power_cutoff(x, gamma)])]
    for x, z in points:  # refused before any grid point runs
        moments.check_moment_point(spec, x, z, args.center)
    if args.out:  # refused before any point runs; a file made here goes
        created = not os.path.lexists(args.out)
        # open() refuses a directory up front; a FIFO would block
        if created or os.path.isfile(args.out) or os.path.isdir(args.out):
            open(args.out, "a").close()
        if created:
            os.remove(args.out)
    rows = []
    for x, z in points:
        rep = moments.second_moment(
            spec, x, z, center=args.center, use_abs=args.abs,
            abs_from_one=args.abs_from_one, threads=args.threads)
        rows.append(rep.to_dict())
    header = [("d", d), ("H", H), ("x", xs),
              ("z", zs if zs is not None else f"x^gamma (gamma={gamma})"),
              ("gamma", gamma), ("mode", mode), ("center", args.center),
              ("psi_variant", rows[0]["psi_variant"]),
              ("samples", args.samples if mode == "montecarlo" else None),
              ("seed", args.seed if mode == "montecarlo" else None),
              ("threads", args.threads)]
    return header, rows


def cmd_moment(args):
    header, rows = _moment_rows(args)
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
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
    return 0


def cmd_bv(args):
    _require(args, "X", "Q")
    X, Q = args.X, args.Q
    if X < 2:  # the trend ratio below divides by log X
        raise ValueError(f"bv requires X >= 2, got {X}")
    value = moments.bv_average(X, Q)
    _echo_header(sys.stdout, [("X", X), ("Q", Q)])
    print(f"value = {fmt(value)}")
    # trend metric only; no hard threshold
    A = 10
    scale = X / math.log(X) ** (A - 5)
    print(f"ratio_to_X_over_logX_pow_{A - 5} = {fmt(value / scale)}")
    return 0


def build_parser():
    parser = _Parser(
        prog="bhlab",
        description="Desk-scale experiments on averaged prime-counting sums "
                    "over polynomial families.")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("identities", help="exact residue-family identity suite")

    p = sub.add_parser("sieve-check", help="sandwich and telescoping grid")
    p.add_argument("--n-max", type=int, default=10**5)
    p.add_argument("--w-grid", type=float_list, default="6,12,20")
    p.add_argument("--y-grid", type=float_list, default="50,1e3,1e5")

    p = sub.add_parser("singular-series", help="truncated singular series")
    p.add_argument("--poly", type=polynomial,
                   help="comma-separated c0,c1,...,cd")
    p.add_argument("--z", type=float)

    p = sub.add_parser("psi", help="prime-counting sums for one polynomial")
    p.add_argument("--poly", type=polynomial,
                   help="comma-separated c0,c1,...,cd")
    p.add_argument("--x", type=int)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--abs", action="store_true")
    kind.add_argument("--theta", action="store_true")
    kind.add_argument("--neg", action="store_true")
    p.add_argument("--from-one", action="store_true", dest="from_one")

    p = sub.add_parser("moment", help="family second-moment experiment")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--H", type=int)
    p.add_argument("--x", type=int_list, help="value or comma-separated grid")
    p.add_argument("--z", type=float_list,
                   help="value or comma-separated grid")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--mode", choices=["exhaustive", "mc", "montecarlo"],
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--center", choices=["bh", "none"], default="bh")
    p.add_argument("--abs", action="store_true")
    p.add_argument("--abs-from-one", action="store_true", dest="abs_from_one")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

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


def _join_negative_poly(argv):
    """`--poly -3,0,1` as `--poly=-3,0,1`: argparse reads a value that
    starts with "-" as an option unless it is a single number."""
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--poly" and re.match(r"-\d", argv[i]):
            argv[i - 1 : i + 1] = [f"--poly={argv[i]}"]
    return argv


def main(argv=None):
    parser = build_parser()
    argv = _join_negative_poly(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            parser.set_config(args.command, _read_config(args.config))
            args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except budgets.BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
