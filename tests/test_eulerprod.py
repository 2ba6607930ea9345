import itertools
import math

import numpy as np
import pytest

from bhlab import eulerprod, poly
from bhlab.budgets import BudgetError
from bhlab.eulerprod import (euler_product, full_reference_product,
                             nondiagonal_phi_sum, reference_product,
                             totient_ratio_sums, truncated_bh_constant)
from bhlab.arith import euler_phi, primes_below
from bhlab.poly import (IntPolynomial, local_root_counts,
                        roots_count_mod_prime)
from conftest import bits, random_polynomial, residue_scan


def per_prime_bh_constant(P, z):
    """Reference: the singular-series loop that counts roots prime by
    prime and stops at the first vanishing factor."""
    acc = np.longdouble(1.0)
    for ell in primes_below(z):
        w = residue_scan(P.coeffs, ell)
        if w == ell:
            return 0.0
        acc *= np.longdouble(ell - w) / np.longdouble(ell - 1)
    return float(acc)

# Apery's constant; the full totient product equals zeta(2)zeta(3)/zeta(6).
ZETA3 = 1.2020569031595942854
ZETA_ORACLE = (math.pi**2 / 6) * ZETA3 / (math.pi**6 / 945)


class TestTruncatedConstant:
    def test_examples(self):
        P = IntPolynomial((1, 0, 1))
        assert truncated_bh_constant(P, 2) == 1.0
        assert truncated_bh_constant(P, 3) == 1.0
        assert truncated_bh_constant(P, 6) == pytest.approx(1.125, rel=1e-15)

    def test_zero_when_prime_exhausts_residues(self):
        # identically zero mod 2 forces a vanishing factor
        P = IntPolynomial((6, 4, 2))
        assert truncated_bh_constant(P, 3) == 0.0
        assert truncated_bh_constant(P, 100) == 0.0

    def test_telescoping_refinement(self, rng):
        # appending the factor at prime l multiplies the previous value by
        # exactly that factor
        primes = primes_below(50)
        for _ in range(20):
            P = random_polynomial(rng, 2, 30)
            for ell, nxt in zip(primes, primes[1:]):
                factor = (ell - residue_scan(P.coeffs, ell)) / (ell - 1)
                left = truncated_bh_constant(P, nxt)
                right = truncated_bh_constant(P, ell) * factor
                assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_domain(self):
        with pytest.raises(ValueError):
            truncated_bh_constant(IntPolynomial((1, 1)), 1.0)

    @pytest.mark.parametrize("z", [6, 30, 300])
    def test_equals_per_prime_loop(self, rng, z):
        for i in range(50):
            P = random_polynomial(rng, 1 + i % 3, 30)
            if i % 5 == 0:  # content 6: vanishes identically mod 2 and 3
                P = IntPolynomial(tuple(6 * c for c in P.coeffs))
            assert truncated_bh_constant(P, z) == per_prime_bh_constant(P, z)


class TestReferenceProduct:
    def test_examples(self):
        assert reference_product(2) == 1.0
        assert reference_product(10) == pytest.approx(301 / 160, rel=1e-15)

    def test_full_product_against_zeta_oracle(self):
        # truncation tail is bounded by sum over primes >= z of 1/l^2
        assert full_reference_product() == pytest.approx(ZETA_ORACLE, abs=1e-4)


class TestTotientSums:
    def test_examples(self):
        ts = totient_ratio_sums(1)
        assert (ts.s1, ts.s2) == (1.0, 1.0)
        ts = totient_ratio_sums(5)
        assert ts.s1 == pytest.approx(7.75, rel=1e-15)
        assert ts.s2 == pytest.approx(23.75, rel=1e-15)

    def test_main_terms(self):
        ts = totient_ratio_sums(1000)
        assert ts.s1_main == pytest.approx(1000 * full_reference_product())
        assert ts.s2_main == pytest.approx(500000 * full_reference_product())

    def test_s1_converges(self):
        # slow convergence: 2% already at x = 10^4
        ts = totient_ratio_sums(10**4)
        assert ts.s1 / 10**4 == pytest.approx(full_reference_product(), rel=0.02)


class TestNondiagonalPhiSum:
    def test_examples(self):
        assert nondiagonal_phi_sum(2) == 1.0
        assert nondiagonal_phi_sum(3) == 4.0
        assert nondiagonal_phi_sum(1) == 0.0

    def test_naive_double_loop_oracle(self):
        for x in (2, 10, 50, 200):
            naive = math.fsum(
                (m2 - m1) / euler_phi(m2 - m1)
                for m1 in range(1, x + 1) for m2 in range(m1 + 1, x + 1))
            assert nondiagonal_phi_sum(x) == pytest.approx(naive, rel=1e-12)


def longdouble_reference_loop(z):
    """Reference: reference_product as its own longdouble loop."""
    acc = np.longdouble(1.0)
    for ell in primes_below(z):
        acc *= 1 + np.longdouble(1.0) / (np.longdouble(ell) * (ell - 1))
    return float(acc)


class TestEulerProduct:
    def test_empty_product_is_one(self):
        assert euler_product([]) == 1.0
        assert type(euler_product([])) is float

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="longdouble is no wider than float64 here")
    def test_accumulates_in_extended_precision(self):
        # 1 + 2^-53 is a longdouble but rounds to 1.0 as a float64, so a
        # float64 accumulation would return 1.0
        f = 1 + np.longdouble(2.0) ** -53
        assert euler_product([f, f]) == 1 + 2.0 ** -52

    @pytest.mark.parametrize("z", [2, 6, 30, 1000])
    def test_bh_constant_bits_equal_the_loop(self, rng, z):
        for i in range(50):
            P = random_polynomial(rng, 1 + i % 4, 30)
            assert (bits(truncated_bh_constant(P, z))
                    == bits(per_prime_bh_constant(P, z))), (P, z)

    @pytest.mark.parametrize("z", [2, 6, 30, 1000])
    def test_reference_product_bits_equal_the_loop(self, z):
        assert bits(reference_product(z)) == bits(longdouble_reference_loop(z))


def zero_rule_polynomials():
    """Every P with coefficients in [-4, 4] and degree <= 3, plus a few
    with a fixed prime divisor and some constants."""
    polys = [IntPolynomial(c) for n in range(1, 5)
             for c in itertools.product(range(-4, 5), repeat=n)
             if n == 1 or c[-1] != 0]
    extra = [(0, 1, 1), (0, -1, 0, 1), (6, 4, 2), (0, -1, 0, 0, 0, 1),
             (0,), (1,), (-6,), (30,), (210,), (-7,)]
    return polys + [IntPolynomial(c) for c in extra]


class TestZeroRule:
    @pytest.mark.parametrize("z", [2, 3, 7, 100])
    def test_zero_iff_a_prime_has_every_residue_as_root(self, z):
        for P in zero_rule_polynomials():
            vanishes = any(w == ell for ell, w in
                           zip(primes_below(z), local_root_counts(P, z)))
            assert (truncated_bh_constant(P, z) == 0.0) == vanishes, (P, z)

    def test_no_root_count_for_a_fixed_prime_divisor(self, monkeypatch):
        calls = []
        count = poly._root_counts

        def spy(coeffs, primes):
            calls.extend(primes)
            return count(coeffs, primes)

        monkeypatch.setattr(poly, "_root_counts", spy)
        local_root_counts.cache_clear()
        assert truncated_bh_constant(IntPolynomial((6, 4, 2)), 30000) == 0.0
        assert calls == []
        # the spy does see the counts of a P without a fixed divisor
        truncated_bh_constant(IntPolynomial((1, 0, 1)), 30)
        assert calls == list(primes_below(30))

    def test_fixed_divisor_exit_without_a_sieve(self, monkeypatch):
        # the smallest prime factor of the content comes from factorize
        sieved = []
        monkeypatch.setattr(eulerprod, "primes_below",
                            lambda z: sieved.append(z) or primes_below(z))
        big = 1000000007
        assert truncated_bh_constant(
            IntPolynomial((2 * big, 0, 2 * big)), 1e9) == 0.0
        assert truncated_bh_constant(IntPolynomial((6, 4, 2)), 1e13) == 0.0
        with pytest.raises(BudgetError, match="local root counts"):
            truncated_bh_constant(IntPolynomial((big, 0, big)), 1e8)
        # a prime content past 2^63 is refused by the root-count budget
        huge = 9223372036854775837
        with pytest.raises(BudgetError, match="local root counts"):
            truncated_bh_constant(IntPolynomial((huge, huge, huge)), 1e8)
        assert sieved == []

    def test_content_past_factorize_range(self):
        # g >= 2^63 takes the root counts, where w_P(l) = l for l | g
        q = (2**61 - 1) ** 2
        c = 3 * 2**64
        assert truncated_bh_constant(IntPolynomial((c, 0, c)), 3) == 0.0
        assert truncated_bh_constant(IntPolynomial((q, 0, q)), 30) == (
            truncated_bh_constant(IntPolynomial((1, 0, 1)), 30))
