"""The benchmark's workloads: fixed `bhlab` CLI invocations and their checks.

Each workload is a list of ops, one `bhlab` argv each, run one at a time
(closed loop, one parent process).  Every op has an output check that runs
outside the timed region: exact or recorded values for deterministic ops, an
independent oracle for seeded ones.  `check` returns None when the output is
right and a one-line reason when it is not.
"""

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Tolerances of the repository's own tests: 1e-9 for family moments checked
# against an oracle, 1e-12 for products and scalar sums.
MOMENT_RTOL = 1e-9
SCALAR_RTOL = 1e-12
MOMENT_FIELDS = ("diag", "nondiag", "cross", "ssq", "direct")

# The seeded ops use cubics of height LOCAL_H with leading coefficient
# LOCAL_H, so every draw has the same degree, height and value sizes.
LOCAL_D, LOCAL_H = 3, 10
MC_ORACLE_SAMPLES = 1000


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable[[str], object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int], tuple]   # seed -> (timed ops, untimed check ops)


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def _value_line(stdout, key="value"):
    match = re.search(rf"^{re.escape(key)} = (\S+)$", stdout, re.M)
    if match is None:
        raise ValueError(f"no '{key} = ...' line in the output")
    return float(match.group(1))


def _moment_row(stdout):
    rows = json.loads(stdout)["rows"]
    if len(rows) != 1:
        raise ValueError(f"expected one moment row, got {len(rows)}")
    return rows[0]


def decomposition_residual(row):
    """Relative defect of direct = diag + nondiag - 2x cross + x^2 ssq."""
    x = row["x"]
    combo = (row["raw_diag"] + row["raw_nondiag"] - 2 * x * row["raw_cross"]
             + x * x * row["raw_ssq"])
    return abs(combo - row["raw_direct"]) / max(abs(row["raw_direct"]), 1e-300)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_clean_suite(name):
    """`identities` / `sieve-check`: 0 failures, every recorded check ran."""
    want_pass = EXPECTED[name]["pass_lines"]

    def check(stdout):
        if not stdout.rstrip().endswith("\n0 failures"):
            return "the suite did not print '0 failures'"
        passed = len(re.findall(r"^PASS ", stdout, re.M))
        if passed != want_pass:
            return f"{passed} PASS lines, recorded {want_pass}"
        return None
    return check


def check_recorded_moment(name):
    """Deterministic moment op: raw sums equal the recorded values."""
    want = EXPECTED[name]

    def check(stdout):
        row = _moment_row(stdout)
        if row["visit_count"] != want["visit_count"]:
            return f"visit_count {row['visit_count']} != {want['visit_count']}"
        for key in MOMENT_FIELDS:
            got, expected = row[f"raw_{key}"], want[f"raw_{key}"]
            if not _close(got, expected, MOMENT_RTOL):
                return f"raw_{key} {got!r} != recorded {expected!r}"
        if decomposition_residual(row) > MOMENT_RTOL:
            return f"decomposition residual {decomposition_residual(row):.3g}"
        return None
    return check


def check_recorded_values(name):
    """Deterministic scalar op: every recorded `key = value` line matches."""
    want = EXPECTED[name]

    def check(stdout):
        for key, value in want.items():
            got = _value_line(stdout, key)
            if not _close(got, value, MOMENT_RTOL):
                return f"{key} {got!r} != recorded {value!r}"
        return None
    return check


def check_mc_moment(samples):
    """Full Monte Carlo run: too large for the oracle, so check its shape
    and the decomposition identity; the oracle runs on the small run."""
    def check(stdout):
        row = _moment_row(stdout)
        if row["visit_count"] != samples:
            return f"visit_count {row['visit_count']} != {samples}"
        if not all(math.isfinite(row[f"raw_{k}"]) for k in MOMENT_FIELDS):
            return "non-finite raw sum"
        if not (math.isfinite(row["mc_stderr"]) and row["mc_stderr"] > 0):
            return f"bad mc_stderr {row['mc_stderr']!r}"
        if decomposition_residual(row) > MOMENT_RTOL:
            return f"decomposition residual {decomposition_residual(row):.3g}"
        return None
    return check


def check_mc_oracle(d, H, x, z, samples, seed):
    """Small seeded run against scalar psi / truncated_bh_constant over the
    public iter_family draws of the same spec."""
    def check(stdout):
        from bhlab import FamilySpec, iter_family, lambda_terms
        from bhlab import truncated_bh_constant
        row = _moment_row(stdout)
        spec = FamilySpec(d=d, H=H, mode="montecarlo", sample_count=samples,
                          seed=seed)
        parts = {k: [] for k in MOMENT_FIELDS}
        for P in iter_family(spec):
            terms = lambda_terms(P, x, "positive")
            p = math.fsum(terms)
            diag = math.fsum(t * t for t in terms)
            s = truncated_bh_constant(P, z)
            parts["diag"].append(diag)
            parts["nondiag"].append(p * p - diag)
            parts["cross"].append(p * s)
            parts["ssq"].append(s * s)
            parts["direct"].append((p - x * s) ** 2)
        if row["visit_count"] != samples:
            return f"visit_count {row['visit_count']} != {samples}"
        for key, vals in parts.items():
            want = math.fsum(vals)
            if not _close(row[f"raw_{key}"], want, MOMENT_RTOL):
                return f"raw_{key} {row[f'raw_{key}']!r} != oracle {want!r}"
        if decomposition_residual(row) > MOMENT_RTOL:
            return f"decomposition residual {decomposition_residual(row):.3g}"
        return None
    return check


# ---------------------------------------------------------------------------
# independent oracles for the seeded scalar ops (no bhlab code)
# ---------------------------------------------------------------------------

def primes_below(n):
    """Primes p < n, by a sieve of Eratosthenes."""
    flags = bytearray([1]) * max(n, 0)
    for p in range(2, math.isqrt(max(n - 1, 0)) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(2, n) if flags[p]]


def _polymulmod(a, b, f, ell):
    """a * b mod (monic f, ell); coefficient lists, low degree first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % ell
    n = len(f) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for j in range(n + 1):
                prod[k - n + j] = (prod[k - n + j] - c * f[j]) % ell
    return (prod[:n] + [0] * n)[:n]


def _strip(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _polygcd_degree(a, b, ell):
    a, b = _strip(a), _strip(b)
    while b:
        inv = pow(b[-1], -1, ell)
        while len(a) >= len(b):
            c = a[-1] * inv % ell
            shift = len(a) - len(b)
            a = [(ai - c * b[i - shift]) % ell if i >= shift else ai
                 for i, ai in enumerate(a)]
            a = _strip(a)
        a, b = b, a
    return len(a) - 1


def distinct_roots_mod(coeffs, ell):
    """w_P(ell) = deg gcd(P, t^ell - t) over F_ell (ell when P = 0 mod ell)."""
    f = _strip([c % ell for c in coeffs])
    if not f:
        return ell
    if len(f) == 1:
        return 0
    inv = pow(f[-1], -1, ell)
    f = [c * inv % ell for c in f]
    n = len(f) - 1
    result = [1] + [0] * (n - 1)
    base = ([0, 1] + [0] * n)[:n] if n > 1 else [(-f[0]) % ell]
    e = ell
    while e:
        if e & 1:
            result = _polymulmod(result, base, f, ell)
        base = _polymulmod(base, base, f, ell)
        e >>= 1
    g = list(result) + [0] * 2
    g[1] = (g[1] - 1) % ell
    return _polygcd_degree(f, g, ell)


def singular_series_oracle(coeffs, z):
    """Product over primes l < z of (l - w_P(l)) / (l - 1), exactly."""
    num = den = 1
    for ell in primes_below(math.ceil(z)):
        w = distinct_roots_mod(coeffs, ell)
        num *= ell - w
        den *= ell - 1
    return float(Fraction(num, den))


# Deterministic strong-probable-prime bases for every n < 2^64 (Sinclair).
_SPRP_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SPRP_BASES:
        a %= n
        if a == 0:
            continue
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, k):
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def prime_power_base(n):
    """p when n = p^a for a prime p, else None."""
    if is_prime(n):
        return n
    for q in primes_below(n.bit_length() + 1):
        r = _iroot(n, q)
        if r > 1 and r ** q == n:
            return prime_power_base(r)
    return None


def psi_abs_oracle(coeffs, x):
    """Sum of Lambda(|P(m)|) over 1 < m <= x with P(m) != 0."""
    terms = []
    for m in range(2, x + 1):
        v = abs(sum(c * m ** j for j, c in enumerate(coeffs)))
        p = prime_power_base(v) if v > 1 else None
        if p is not None:
            terms.append(math.log(p))
    return math.fsum(terms)


def check_against(oracle, *args):
    def check(stdout):
        got, want = _value_line(stdout), oracle(*args)
        if not _close(got, want, SCALAR_RTOL):
            return f"value {got!r} != oracle {want!r}"
        return None
    return check


def seeded_cubic(seed):
    """Cubic of height LOCAL_H with leading coefficient LOCAL_H, content 1,
    and no prime l <= d with w_P(l) = l, so no Euler factor vanishes and the
    work does not depend on the draw."""
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-LOCAL_H, LOCAL_H) for _ in range(LOCAL_D)]
        coeffs.append(LOCAL_H)
        if math.gcd(*coeffs) == 1 and all(
                distinct_roots_mod(coeffs, ell) < ell
                for ell in primes_below(LOCAL_D + 1)):
            return coeffs


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------

def _moment_exhaustive(seed):
    short = ("moment", "--d", "2", "--H", "100", "--x", "30", "--z", "30",
             "--format", "json")
    long = ("moment", "--d", "1", "--H", "500", "--x", "300", "--z", "20",
            "--threads", "2", "--format", "json")
    return ([Op(name, argv, check_recorded_moment(name))
             for name, argv in (("moment-short-x", short),
                                ("moment-long-x", long))],
            [])


def _mc_and_scalar(seed):
    d, H, x, z, samples = 3, 10000, 10, 10, 1000000

    def mc_argv(n):
        return ("moment", "--d", str(d), "--H", str(H), "--x", str(x),
                "--z", str(z), "--mode", "mc", "--samples", str(n),
                "--seed", str(seed), "--format", "json")
    coeffs = seeded_cubic(seed)
    poly = "--poly=" + ",".join(map(str, coeffs))
    sieve = ("sieve-check", "--n-max", "3000000", "--w-grid", "6,12,20,30,40",
             "--y-grid", "50,1e3,1e5,1e7")
    return ([Op("moment-mc", mc_argv(samples), check_mc_moment(samples)),
             Op("identities", ("identities",),
                check_clean_suite("identities")),
             Op("singular-series", ("singular-series", poly, "--z", "30000"),
                check_against(singular_series_oracle, coeffs, 30000)),
             Op("sieve-check", sieve, check_clean_suite("sieve-check")),
             Op("psi-abs", ("psi", poly, "--x", "20000", "--abs"),
                check_against(psi_abs_oracle, coeffs, 20000)),
             Op("bv", ("bv", "--X", "1000000", "--Q", "100"),
                check_recorded_values("bv"))],
            [Op("moment-mc-oracle", mc_argv(MC_ORACLE_SAMPLES),
                check_mc_oracle(d, H, x, z, MC_ORACLE_SAMPLES, seed))])


WORKLOADS = {w.name: w for w in (
    Workload("moment-exhaustive",
             "Most of the moments kernel work (Horner, singular series, "
             "decode, mask and reduce, threaded merge) over a Lambda table "
             "under 3 MB: c0-head sharing and bounded threads show here",
             _moment_exhaustive),
    Workload("mc-and-scalar",
             "Monte Carlo moment (Lambda table to 4e7, 364 MB peak, no shared "
             "c0 heads) and the scalar paths the kernel bypasses: identities, "
             "root counts, sieve grid, psi, bv",
             _mc_and_scalar),
)}
