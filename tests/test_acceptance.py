"""Acceptance gate: exact identities, oracle equivalence, trend checks.

Each criterion prints one PASS/FAIL line on the real stdout so the result
survives pytest capture.
"""

import itertools
import math
from fractions import Fraction

import pytest

from bhlab.arith import euler_phi, von_mangoldt_table
from bhlab.eulerprod import (nondiagonal_phi_sum, reference_product,
                             totient_ratio_sums, truncated_bh_constant)
from bhlab.identities import (multiplicative_average, omega_moment,
                              residue_root_count, squared_factor_sum)
from bhlab.moments import (bv_average, diagonal_term, lambda_terms,
                           nondiagonal_term, psi_abs, second_moment)
from bhlab.poly import FamilySpec, IntPolynomial, eval_poly, iter_family
from bhlab.sieve import (build_brun_weights, density_product,
                         neutralised_bounds, sandwich_check, sieve_sum,
                         truncated_density_product)
from conftest import random_polynomial

SQUAREFREE_30 = [k for k in range(1, 31)
                 if all(k % (p * p) for p in (2, 3, 5))]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num, label, ok):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {label}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def exhaustive_reference():
    return second_moment(FamilySpec(d=2, H=50), 10, 10)


@pytest.fixture(scope="module")
def big_lambda_table():
    # shared by the diagonal-trend scan, largest argument 10^7 + 10^6
    return von_mangoldt_table(11 * 10**6)


def test_criterion_01_omega_moments():
    ok = True
    for ell in (2, 3, 5, 7):
        for d in (1, 2, 3):
            ok &= omega_moment(ell, d, 1).enumerated == ell ** (d + 1)
            ok &= omega_moment(ell, d, 2).enumerated == ell**d * (2 * ell - 1)
    report(1, "root-count moments match closed forms", ok)


def test_criterion_02_squared_factor_sums():
    ok = all((p := squared_factor_sum(k, 2)).enumerated == p.closed_form
             for k in SQUAREFREE_30)
    report(2, "squared-factor sums equal in rational arithmetic", ok)


def test_criterion_03_multiplicative_averages():
    def frac(c, ell):
        return Fraction(residue_root_count(c, ell), ell)

    choices = [frac, lambda c, ell: 1 - frac(c, ell),
               lambda c, ell: (1 - frac(c, ell)) ** 2]
    ok = all((p := multiplicative_average(g, k, d)).direct == p.product
             for g in choices for d in (1, 2) for k in SQUAREFREE_30)
    report(3, "multiplicative averages: direct equals product path", ok)


def test_criterion_04_sandwich_grid():
    violations = 0
    for w in (6, 12, 20):
        for y in (50, 1e3, 1e5):
            lower = build_brun_weights(w, y, "lower")
            upper = build_brun_weights(w, y, "upper")
            violations += sandwich_check(lower, upper, 10**5).violations
    report(4, "sieve sandwich holds for all n <= 1e5 on the w/y grid",
           violations == 0)


def test_criterion_05_neutraliser_bracket(rng):
    bad = 0
    weights = {}
    for _ in range(1000):
        P = random_polynomial(rng, 2, 50)
        z = float(rng.choice([3, 5, 8, 12, 20]))
        if z not in weights:
            weights[z] = (build_brun_weights(z, 1e3, "lower"),
                          build_brun_weights(z, 1e3, "upper"))
        lower, upper = weights[z]
        for squared in (True, False):
            got = neutralised_bounds(P, z, lower, upper, squared=squared)
            direct = truncated_density_product(P, z, squared=squared)
            if not (got.lower <= direct + 1e-12
                    and direct <= got.upper + 1e-12):
                bad += 1
    report(5, "neutralised bounds bracket the direct product", bad == 0)


def test_criterion_06_moebius_telescoping():
    densities = [lambda l: 1 / l,
                 lambda l: (l - 1) / l**2,
                 lambda l: (2 * l * l - 2 * l + 1) / l**3]
    ok = True
    for w in (4, 6, 12, 20):
        upper = build_brun_weights(w, float(w) ** 26, "upper")
        for h in densities:
            got = sieve_sum(upper, h)
            want = density_product(w, h)
            ok &= abs(got - want) <= 1e-12 * abs(want)
    report(6, "inactive truncation telescopes to the Euler product", ok)


def test_criterion_07_decomposition_identity(exhaustive_reference):
    residual = exhaustive_reference.decomposition_residual()
    report(7, f"second-moment decomposition residual {residual:.2e} <= 1e-9",
           residual <= 1e-9)


def test_criterion_08_oracle_equivalence(lam_table_1e6):
    ok = True
    # family moment against a plain per-polynomial loop
    spec = FamilySpec(d=2, H=8)
    x, z = 5, 5
    rep = second_moment(spec, x, z)
    sums = dict.fromkeys(rep.FIELDS, 0.0)
    for P in iter_family(spec):
        terms = lambda_terms(P, x, "positive")
        psi_val = math.fsum(terms)
        series = truncated_bh_constant(P, z)
        sums["diag"] += sum(t * t for t in terms)
        sums["nondiag"] += psi_val**2 - sum(t * t for t in terms)
        sums["cross"] += psi_val * series
        sums["ssq"] += series**2
        sums["direct"] += (psi_val - x * series) ** 2
    for key in rep.FIELDS:
        ok &= abs(rep.raw[key] - sums[key]) <= 1e-9 * max(abs(sums[key]), 1.0)

    # off-diagonal double sum against a triple loop
    total = 0.0
    for P in iter_family(spec):
        lams = [float(lam_table_1e6[abs(v)]) if (v := eval_poly(P, m)) else 0.0
                for m in range(1, x + 1)]
        for i in range(x):
            for j in range(x):
                if i != j:
                    total += lams[i] * lams[j]
    got = nondiagonal_term(spec, x)
    ok &= abs(got - total / spec.normalizer) <= 1e-9 * max(abs(total), 1.0)

    # progression average against an O(X Q) scan over every integer Y
    X, Q = 1000, 5
    want = 0.0
    for q in range(1, Q + 1):
        phi_q = euler_phi(q)
        classes = [0] if q == 1 else [b for b in range(1, q)
                                      if math.gcd(b, q) == 1]
        worst = 0.0
        for b in classes:
            s = 0.0
            for Y in range(1, X + 1):
                if Y % q == b % q:
                    s += float(lam_table_1e6[Y])
                worst = max(worst, abs(s - Y / phi_q))
        want += worst
    ok &= abs(bv_average(X, Q) - want) <= 1e-9 * want
    report(8, "moment, off-diagonal, and progression oracles agree", ok)


def test_criterion_09_totient_sums():
    ref = reference_product(10**5)
    x = 10**3
    gap = abs(nondiagonal_phi_sum(x) - (x * x / 2) * ref)
    ok = gap <= 5 * x * math.log(x)
    s1 = totient_ratio_sums(10**6).s1
    ok &= abs(s1 / 10**6 - ref) <= 0.02 * ref
    report(9, "totient-ratio sums track the reference product", ok)


def test_criterion_10_diagonal_trend(big_lambda_table):
    ok = True
    worst = 0.0
    for H in (10**4, 10**5, 10**6):
        for N in (0, H, 10 * H):
            dev = diagonal_term(N, H, table=big_lambda_table).deviation
            worst = max(worst, abs(dev))
            ok &= abs(dev) <= 5
    report(10, f"diagonal term within 5 H loglog H of 2 H log H "
               f"(worst {worst:.2f})", ok)


def test_criterion_11_psi_transition(rng):
    ok = True
    for _ in range(1000):
        P = random_polynomial(rng, 2, 50)
        x = int(rng.integers(1, 51))
        merged = math.fsum(lambda_terms(P, x, "positive")
                           + lambda_terms(P, x, "negative"))
        ok &= psi_abs(P, x, from_one=True) == merged
    report(11, "psi-abs splits exactly into positive and negative parts", ok)


def test_criterion_12_montecarlo_calibration(exhaustive_reference):
    spec = FamilySpec(d=2, H=50, mode="montecarlo",
                      sample_count=10**6, seed=20240817)
    mc = second_moment(spec, 10, 10)
    gap = abs(mc.mean("direct") - exhaustive_reference.mean("direct"))
    report(12, f"Monte Carlo within 3 stderr of exhaustive "
               f"(gap {gap / mc.mc_stderr:.2f} stderr)",
           gap <= 3 * mc.mc_stderr)


def test_criterion_13_moment_grows_linearly_in_log_H():
    # Monte Carlo mean direct term at x = z = 10 over H = 10^3, 10^4, ...:
    # each decade adds the same amount, within 3 combined stderr.  A trend,
    # not the theorem's constant, which the paper's abstract does not give.
    ok = True
    slopes = []
    for d, top in ((1, 6), (2, 6)):
        reps = [second_moment(FamilySpec(d=d, H=10**e, mode="montecarlo",
                                         sample_count=10**5, seed=1), 10, 10)
                for e in range(3, top + 1)]
        steps = [(b.mean("direct") - a.mean("direct"),
                  math.hypot(a.mc_stderr, b.mc_stderr))
                 for a, b in zip(reps, reps[1:])]
        ok &= all(step > 0 for step, _ in steps)
        ok &= all(abs(s - t) <= 3 * math.hypot(e, f)
                  for (s, e), (t, f) in itertools.combinations(steps, 2))
        slopes.append(f"d={d} " + "/".join(f"{s:.1f}" for s, _ in steps))
    report(13, "direct term linear in log H, per-decade steps "
               + ", ".join(slopes), ok)
