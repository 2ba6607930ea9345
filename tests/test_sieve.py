import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bhlab.arith import mobius, primes_below, primorial
from bhlab.budgets import (DEFAULT_SUPPORT_BUDGET, MAX_TABLE, BudgetError,
                           LimitError)
from bhlab.poly import IntPolynomial
from bhlab.sieve import (SandwichReport, build_brun_weights, density_product,
                         neutralised_bounds, sandwich_check, sieve_sum,
                         truncated_density_product, truncation_level)
from conftest import bits, random_polynomial, residue_scan


def per_prime_density_product(P, z, squared):
    """Reference: truncated_density_product counting roots per prime."""
    acc = np.longdouble(1.0)
    for ell in primes_below(z):
        f = 1 - residue_scan(P.coeffs, ell) / np.longdouble(ell)
        acc *= f * f if squared else f
    return float(acc)


def per_prime_weighted_sum(weights, density):
    """Reference: the weighted sum over the support written out, one key
    and one prime at a time."""
    terms = []
    for k in weights.support:
        val = 1.0
        for ell in primes_below(weights.w):
            if k % ell == 0:
                val *= density[ell]
        terms.append(weights.table[k] * val)
    return math.fsum(terms)


def per_prime_bounds(P, z, lower, upper, squared):
    """Reference: neutralised_bounds counting roots per prime, with the
    weighted sum over the support written out."""
    fhat = {}
    for ell in primes_below(z):
        share = residue_scan(P.coeffs, ell) / ell
        fhat[ell] = 2 * share - share ** 2 if squared else share
    return (per_prime_weighted_sum(lower, fhat),
            per_prime_weighted_sum(upper, fhat))


DENSITIES = {
    "1/l": lambda l: 1 / l,
    "(l-1)/l^2": lambda l: (l - 1) / l**2,
    "(2l^2-2l+1)/l^3": lambda l: (2 * l * l - 2 * l + 1) / l**3,
}


class TestBuild:
    def test_full_moebius_example(self):
        w = build_brun_weights(4, 100, "upper")
        assert w.table == {1: 1, 2: -1, 3: -1, 6: 1}

    def test_odd_truncation_example(self):
        w = build_brun_weights(4, 100, "lower", level=1)
        assert w.table == {1: 1, 2: -1, 3: -1}
        assert w.weight(6) == 0

    def test_normalization(self):
        for parity in ("upper", "lower"):
            assert build_brun_weights(10, 50, parity).weight(1) == 1

    def test_weight_invariants(self):
        for w_cut in (6, 12, 20):
            for y in (50, 1e3, 1e5):
                for parity in ("upper", "lower"):
                    weights = build_brun_weights(w_cut, y, parity)
                    prim = primorial(w_cut)
                    assert weights.weight(1) == 1
                    for k, lam in weights.table.items():
                        assert abs(lam) <= 1
                        assert k < y
                        assert mobius(k) != 0
                        assert prim % k == 0
                        assert lam == mobius(k)

    def test_level_cap(self):
        # w**m <= y keeps every retained product below y
        assert truncation_level(20, 1e3, "upper") == 2
        assert truncation_level(20, 1e3, "lower") == 1
        assert truncation_level(20, 1e5, "lower") == 3
        # degenerate upper: bare normalization
        assert build_brun_weights(20, 21, "upper").table == {1: 1}
        with pytest.raises(ValueError):
            build_brun_weights(20, 19, "lower")

    def test_validation(self):
        with pytest.raises(ValueError):
            build_brun_weights(1, 100, "upper")
        with pytest.raises(ValueError):
            build_brun_weights(4, 1, "upper")
        with pytest.raises(ValueError):
            build_brun_weights(4, 100, "sideways")
        with pytest.raises(ValueError):
            build_brun_weights(4, 100, "upper", level=3)


class TestSandwich:
    def test_divisor_sums_at_small_n(self):
        upper = build_brun_weights(4, 100, "upper")
        lower = build_brun_weights(4, 100, "lower", level=1)
        assert lower.divisor_sum(1) == upper.divisor_sum(1) == 1
        assert lower.divisor_sum(6) == -1
        assert upper.divisor_sum(6) == 0

    def test_grid_has_no_violations(self):
        for w in (6, 12, 20):
            for y in (50, 1e3, 1e5):
                lower = build_brun_weights(w, y, "lower")
                upper = build_brun_weights(w, y, "upper")
                rep = sandwich_check(lower, upper, 10**4)
                assert rep.violations == 0, (w, y, rep)

    def test_matches_direct_divisor_scan(self):
        lower = build_brun_weights(10, 1e3, "lower")
        upper = build_brun_weights(10, 1e3, "upper")
        rep = sandwich_check(lower, upper, 500)
        primes = primes_below(10)
        for n in range(1, 501):
            ind = int(all(n % p for p in primes))
            assert lower.divisor_sum(n) <= ind <= upper.divisor_sum(n)
        assert rep.violations == 0

    def test_detects_a_broken_table(self):
        lower = build_brun_weights(6, 100, "lower")
        upper = build_brun_weights(6, 100, "upper")
        broken = dict(lower.table)
        broken[2] = 1  # wrong sign
        from dataclasses import replace
        rep = sandwich_check(replace(lower, table=broken), upper, 100)
        assert rep.violations > 0
        assert rep.first_violation == 2

    def test_pair_validation(self):
        lower = build_brun_weights(6, 100, "lower")
        upper = build_brun_weights(6, 200, "upper")
        with pytest.raises(ValueError):
            sandwich_check(lower, upper, 100)
        with pytest.raises(ValueError):
            sandwich_check(build_brun_weights(6, 100, "upper"),
                           build_brun_weights(6, 100, "upper"), 100)

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_nothing_to_check_is_refused(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            sandwich_check(build_brun_weights(6, 100, "lower"),
                           build_brun_weights(6, 100, "upper"), n_max)


class TestSieveSum:
    def test_zero_density(self):
        w = build_brun_weights(12, 1e5, "upper")
        assert sieve_sum(w, lambda l: 0.0) == 1.0

    def test_full_moebius_telescopes(self):
        w = build_brun_weights(4, 100, "upper")
        assert sieve_sum(w, lambda l: 1 / l) == pytest.approx(1 / 3, rel=1e-15)

    def test_inactive_truncation_matches_product(self):
        for w_cut in (6, 12, 20):
            weights = build_brun_weights(w_cut, float(w_cut) ** 26, "upper")
            for h in DENSITIES.values():
                got = sieve_sum(weights, h)
                want = density_product(w_cut, h)
                assert got == pytest.approx(want, rel=1e-12)

    def test_active_truncation_tolerance(self):
        # heuristic error scale exp(-log y / log w)
        w_cut = 20.0
        weights = build_brun_weights(w_cut, w_cut**6, "upper")
        h = DENSITIES["(2l^2-2l+1)/l^3"]
        got = sieve_sum(weights, h)
        want = density_product(w_cut, h)
        assert abs(got - want) <= 0.5 * abs(want)

    def test_density_range_validation(self):
        w = build_brun_weights(6, 100, "upper")
        with pytest.raises(ValueError):
            sieve_sum(w, lambda l: 1.5)


class TestNeutralisedBounds:
    def test_empty_prime_set(self):
        P = IntPolynomial((1, 0, 1))
        lower = build_brun_weights(2, 100, "lower")
        upper = build_brun_weights(2, 100, "upper")
        got = neutralised_bounds(P, 2, lower, upper)
        assert got.lower == got.upper == 1.0

    def test_full_moebius_collapses(self):
        P = IntPolynomial((1, 0, 1))
        lower = build_brun_weights(6, 1e6, "lower")
        upper = build_brun_weights(6, 1e6, "upper")
        got = neutralised_bounds(P, 6, lower, upper)
        assert got.lower == pytest.approx(0.09, rel=1e-12)
        assert got.upper == pytest.approx(0.09, rel=1e-12)

    @pytest.mark.parametrize("squared", [True, False])
    def test_random_brackets(self, rng, squared):
        for _ in range(100):
            P = random_polynomial(rng, 2, 50)
            z = float(rng.choice([3, 5, 8, 12, 20]))
            lower = build_brun_weights(z, 1e3, "lower")
            upper = build_brun_weights(z, 1e3, "upper")
            got = neutralised_bounds(P, z, lower, upper, squared=squared)
            direct = truncated_density_product(P, z, squared=squared)
            slack = 1e-12
            assert got.lower <= direct + slack
            assert direct <= got.upper + slack

    @pytest.mark.parametrize("squared", [True, False])
    def test_every_residue_a_root_at_two(self, squared):
        # t + t^2 = t(t+1) vanishes mod 2 at both residues: w_P(2) = 2 and
        # fhat(2) = 1, outside the [0, 1) range sieve_sum requires
        P = IntPolynomial((0, 1, 1))
        for z in (3, 5, 12, 20):
            lower = build_brun_weights(z, 1e3, "lower")
            upper = build_brun_weights(z, 1e3, "upper")
            got = neutralised_bounds(P, z, lower, upper, squared=squared)
            direct = truncated_density_product(P, z, squared=squared)
            assert direct == 0.0
            assert got.lower <= direct + 1e-12
            assert direct <= got.upper + 1e-12

    # z = 300 has 62 primes below it, past the 24 a weight support allows
    @pytest.mark.parametrize("z", [6, 30, 90])
    @pytest.mark.parametrize("squared", [True, False])
    def test_equals_per_prime_loop(self, rng, z, squared):
        lower = build_brun_weights(z, 1e4, "lower")
        upper = build_brun_weights(z, 1e4, "upper")
        for i in range(50):
            P = random_polynomial(rng, 1 + i % 3, 30)
            if i % 5 == 0:  # content 6: vanishes identically mod 2 and 3
                P = IntPolynomial(tuple(6 * c for c in P.coeffs))
            got = neutralised_bounds(P, z, lower, upper, squared=squared)
            want = per_prime_bounds(P, z, lower, upper, squared)
            assert (got.lower, got.upper) == want

    def test_cutoff_mismatch(self):
        P = IntPolynomial((1, 0, 1))
        lower = build_brun_weights(6, 100, "lower")
        upper = build_brun_weights(6, 100, "upper")
        with pytest.raises(ValueError):
            neutralised_bounds(P, 12, lower, upper)


class TestTruncatedDensityProduct:
    @pytest.mark.parametrize("z", [6, 30, 300])
    @pytest.mark.parametrize("squared", [True, False])
    def test_equals_per_prime_loop(self, rng, z, squared):
        for i in range(50):
            P = random_polynomial(rng, 1 + i % 3, 30)
            if i % 5 == 0:  # content 6: vanishes identically mod 2 and 3
                P = IntPolynomial(tuple(6 * c for c in P.coeffs))
            assert (truncated_density_product(P, z, squared=squared)
                    == per_prime_density_product(P, z, squared))


class TestMertensCondition:
    def test_probe_for_kappa_two_density(self):
        # empirical form of the sieve's density growth condition
        h = DENSITIES["(2l^2-2l+1)/l^3"]
        primes = primes_below(10**4 + 1)
        grid = [2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10**4]
        for i, y1 in enumerate(grid):
            for y2 in grid[i + 1:]:
                prod = 1.0
                for ell in primes:
                    if y1 <= ell < y2:
                        prod *= 1 - h(ell)
                ratio = (1 / prod) / (math.log(y2) / math.log(y1)) ** 2
                assert ratio <= 1 + 10 / math.log(y1), (y1, y2)


def longdouble_density_loop(w, h):
    """Reference: density_product as its own longdouble loop."""
    acc = np.longdouble(1.0)
    for ell in primes_below(w):
        acc *= 1 - np.longdouble(h(ell))
    return float(acc)


def int64_sandwich(lower, upper, n_max):
    """Reference: sandwich_check with int64 sums and indicator."""
    lo = np.zeros(n_max + 1, dtype=np.int64)
    hi = np.zeros(n_max + 1, dtype=np.int64)
    for sums, weights in ((lo, lower), (hi, upper)):
        for k, lam in weights.table.items():
            if k <= n_max:
                sums[k::k] += lam
    ind = np.ones(n_max + 1, dtype=np.int64)
    for p in primes_below(lower.w):
        ind[p::p] = 0
    bad = np.nonzero((lo[1:] > ind[1:]) | (hi[1:] < ind[1:]))[0] + 1
    return SandwichReport(checked=n_max, violations=len(bad),
                          first_violation=int(bad[0]) if len(bad) else None)


class TestEulerProductBits:
    @pytest.mark.parametrize("z", [2, 6, 30, 1000])
    def test_density_product(self, z):
        for h in DENSITIES.values():
            assert bits(density_product(z, h)) == bits(
                longdouble_density_loop(z, h))

    @pytest.mark.parametrize("z", [2, 6, 30, 1000])
    @pytest.mark.parametrize("squared", [True, False])
    def test_truncated_density_product(self, rng, z, squared):
        for i in range(50):
            P = random_polynomial(rng, 1 + i % 4, 30)
            assert bits(truncated_density_product(P, z, squared=squared)) \
                == bits(per_prime_density_product(P, z, squared)), (P, z)


class TestDensityTable:
    @pytest.mark.parametrize("w,y", [(6, 50), (12, 1e5), (40, 40.0**26)])
    def test_h_called_once_per_prime(self, w, y):
        calls = []

        def h(ell):
            calls.append(ell)
            return 1 / ell

        sieve_sum(build_brun_weights(w, y, "upper"), h)
        assert calls == list(primes_below(w))

    def test_range_checked_at_a_prime_outside_the_support(self):
        # level 0: the support is {1}, which no prime divides
        weights = build_brun_weights(12, 50, "upper")
        assert weights.support == [1]
        with pytest.raises(ValueError, match="at prime 11"):
            sieve_sum(weights, lambda ell: 1.5 if ell == 11 else 0.1)


class TestSandwichArrays:
    def test_equals_int64_sums_on_the_benchmark_grid(self):
        for w in (6, 12, 20, 30, 40):
            for y in (50, 1e3, 1e5, 1e7):
                lower = build_brun_weights(w, y, "lower")
                upper = build_brun_weights(w, y, "upper")
                assert sandwich_check(lower, upper, 30000) == int64_sandwich(
                    lower, upper, 30000), (w, y)

    def test_broken_table_report_equals_int64_sums(self):
        from dataclasses import replace
        lower = build_brun_weights(12, 1e3, "lower")
        upper = build_brun_weights(12, 1e3, "upper")
        broken = replace(upper, table={**upper.table, 6: -1})
        assert sandwich_check(lower, broken, 5000) == int64_sandwich(
            lower, broken, 5000)
        assert sandwich_check(lower, broken, 5000).violations > 0

    def test_refused_above_the_fixed_limit_before_allocating(self):
        lower = build_brun_weights(6, 100, "lower")
        upper = build_brun_weights(6, 100, "upper")
        tracemalloc.start()
        try:
            with pytest.raises(LimitError, match="exceeds the fixed limit "
                               f"{MAX_TABLE}"):
                sandwich_check(lower, upper, MAX_TABLE + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def perturbed(weights, rng):
    """weights with about a tenth of the keys set to +-2 and a tenth to 0."""
    table = dict(weights.table)
    for k in table:
        u = rng.random()
        if u < 0.1:
            table[k] = int(rng.choice((-2, 2)))
        elif u < 0.2:
            table[k] = 0
    return replace(weights, table=table)


class TestSandwichKernels:
    @pytest.mark.parametrize("w", [3, 4, 6, 10, 12, 20, 30, 40])
    def test_perturbed_pairs_equal_int64_sums(self, rng, w):
        reports = []
        for n_max in (1, 2, 7, 100, 1000, 30000):
            for y in (50, 1e3, 1e5):
                for _ in range(3):
                    lower, upper = (perturbed(build_brun_weights(w, y, parity),
                                              rng)
                                    for parity in ("lower", "upper"))
                    rep = sandwich_check(lower, upper, n_max)
                    assert rep == int64_sandwich(lower, upper, n_max), \
                        (w, y, n_max)
                    reports.append(rep)
        assert any(rep.violations for rep in reports)

    # 23 and 24 primes below w; 24 is the most a support may have
    @pytest.mark.parametrize("w", [89, 97])
    @pytest.mark.parametrize("n_max", [10**3, 10**5])
    def test_most_primes_equal_int64_sums(self, rng, w, n_max):
        for y in (1e3, 1e7, 1e9):
            pair = [build_brun_weights(w, y, parity)
                    for parity in ("lower", "upper")]
            for lower, upper in (pair, [perturbed(w, rng) for w in pair]):
                assert sandwich_check(lower, upper, n_max) == int64_sandwich(
                    lower, upper, n_max), (w, y, n_max)

    # 4 is not squarefree; 7 and 14 have a prime factor past w = 6
    @pytest.mark.parametrize("key", [4, 7, 14])
    @pytest.mark.parametrize("side", [0, 1])
    def test_key_off_the_kernels_refused(self, key, side):
        pair = [build_brun_weights(6, 100, parity)
                for parity in ("lower", "upper")]
        pair[side] = replace(pair[side], table={**pair[side].table, key: 1})
        with pytest.raises(ValueError) as info:
            sandwich_check(*pair, 100)
        assert str(info.value) == (f"weight key {key} is not a squarefree "
                                   "product of primes below w=6")

    def test_key_past_n_max_ignored(self):
        lower = build_brun_weights(6, 100, "lower")
        upper = build_brun_weights(6, 100, "upper")
        stray = replace(upper, table={**upper.table, 4: 1, 7: -1})
        assert sandwich_check(lower, stray, 3) == int64_sandwich(
            lower, stray, 3) == SandwichReport(3, 0, None)

    def test_fixed_limit_allocates_no_table_of_size_n_max(self):
        lower = build_brun_weights(40, 1e7, "lower")
        upper = build_brun_weights(40, 1e7, "upper")
        tracemalloc.start()
        try:
            rep = sandwich_check(lower, upper, MAX_TABLE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == SandwichReport(MAX_TABLE, 0, None)
        assert peak < 2 << 20


def combinations_table(w, y, level):
    """Reference: the Brun weight table enumerated level by level with
    itertools.combinations."""
    primes = primes_below(w)
    table = {1: 1}
    for r in range(1, min(level, len(primes)) + 1):
        sign = -1 if r % 2 else 1
        for combo in itertools.combinations(primes, r):
            k = math.prod(combo)
            if k < y:
                table[k] = sign
    return table


class TestSupportBuilder:
    @pytest.mark.parametrize("w,y,parity,level", [
        (2, 100, "upper", None),  # no primes below 2
        (2, 100, "lower", 1),
        (30, 1e3, "upper", 4),  # the y cut removes part of levels 2 to 4
        (30, 1e3, "lower", 5),
        (97, 1e9, "upper", None),
        (97, 1e9, "lower", None),
        # telescoping: the primes below 59 multiply to 3.3e19, past int64
        (59, 59.0**26, "upper", None),
        (61, 61.0**26, "upper", None),
    ])
    def test_equals_combinations(self, w, y, parity, level):
        weights = build_brun_weights(w, y, parity, level)
        assert weights.table == combinations_table(w, y, weights.level)
        # growth order: ascending by the bit mask of the primes in each key
        primes = primes_below(w)
        masks = [sum(1 << i for i, p in enumerate(primes) if k % p == 0)
                 for k in weights.table]
        assert masks == sorted(masks)

    def test_random_points_equal_combinations(self, rng):
        partial = 0
        for _ in range(60):
            w = float(rng.uniform(2, 50))
            y = float(10 ** rng.uniform(0.31, 9))
            parity = str(rng.choice(["upper", "lower"]))
            level = None
            if rng.random() < 0.5:
                level = 2 * int(rng.integers(0, 5)) + (parity == "lower")
            try:
                weights = build_brun_weights(w, y, parity, level)
            except ValueError:  # no odd level fits y <= w
                continue
            want = combinations_table(w, y, weights.level)
            assert weights.table == want, (w, y, parity, level)
            partial += len(want) < len(combinations_table(w, math.inf,
                                                          weights.level))
        assert partial > 10

    @pytest.mark.parametrize("w,y", [(30, 1e5), (97, 1e9), (59, 59.0**26)])
    def test_growth_order_equals_ascending_order(self, rng, w, y):
        # no result depends on the order of a table; the keys at w = 59
        # pass 2**63
        grown = [build_brun_weights(w, y, parity)
                 for parity in ("lower", "upper")]
        ascending = [replace(g, table=dict(sorted(g.table.items())))
                     for g in grown]
        assert all(list(g.table) != list(a.table)
                   for g, a in zip(grown, ascending))
        for g, a in zip(grown, ascending):
            for h in DENSITIES.values():
                assert bits(sieve_sum(g, h)) == bits(sieve_sum(a, h))
        for i in range(3):
            P = random_polynomial(rng, 1 + i, 30)
            for squared in (True, False):
                got = neutralised_bounds(P, w, *grown, squared=squared)
                want = neutralised_bounds(P, w, *ascending, squared=squared)
                assert [bits(v) for v in got] == [bits(v) for v in want]
        assert sandwich_check(*grown, 10**4) == sandwich_check(*ascending,
                                                               10**4)


class TestObjectKeys:
    # the primes below 59 multiply to 3.3e19, so these telescoping supports
    # hold Python-int keys past 2**63
    @pytest.mark.parametrize("w", [59, 61])
    def test_sieve_sum_equals_per_prime_loop(self, w):
        weights = build_brun_weights(w, w ** 26.0, "upper")
        assert max(weights.table) >= 2**63
        for h in DENSITIES.values():
            density = {ell: h(ell) for ell in primes_below(w)}
            assert bits(sieve_sum(weights, h)) == bits(
                per_prime_weighted_sum(weights, density))


class TestTruncationLevelAtExactPowers:
    def test_named_examples(self):
        assert truncation_level(10, 1e3, "lower") == 3
        assert truncation_level(3, 243, "lower") == 5

    def test_every_power_up_to_1e300(self):
        # floor(log(y) / log(w)) falls just below m at many y = w**m; the
        # float y = float(w**m) may also round below w**m
        for w in range(2, 100):
            m = 1
            while w ** m <= 1e300:
                for y in (w ** m, float(w ** m)):
                    cap = m if w ** m <= Fraction(y) else m - 1
                    assert truncation_level(w, y, "upper") == cap - cap % 2
                    assert truncation_level(w, y, "lower") == (
                        cap if cap % 2 else cap - 1), (w, m, y)
                m += 1


class TestSupportRefusals:
    # 89 is the 24th prime and 97 the 25th
    @pytest.mark.parametrize("w", [97.5, 98, 1e8, 1e15])
    def test_past_24_primes_refused_before_the_sieve(self, w):
        tracemalloc.start()
        try:
            with pytest.raises(LimitError) as info:
                build_brun_weights(w, 1e300, "lower")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"Brun weight primes below w={w}, counted up to 97: requested "
            "size 25 exceeds the fixed limit 24")
        assert peak < 1 << 20

    def test_support_budget(self, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        with pytest.raises(BudgetError) as info:
            build_brun_weights(89, 89.0 ** 26, "upper")
        assert (info.value.requested, info.value.budget) == (
            2**23, DEFAULT_SUPPORT_BUDGET)
        monkeypatch.setenv("BHLAB_BUDGET", "1023")
        with pytest.raises(BudgetError, match="Brun weight support at w=30: "
                           "requested size 1024 exceeds budget 1023"):
            build_brun_weights(30, 30.0 ** 26, "upper")
        monkeypatch.setenv("BHLAB_BUDGET", "1024")
        assert len(build_brun_weights(30, 30.0 ** 26, "upper").table) == 1024

    def test_y_cut_bounds_the_support(self, monkeypatch):
        # level 24 over 24 primes, but only the ceil(y) - 1 = 99 keys below
        # y = 100 can be kept
        monkeypatch.setenv("BHLAB_BUDGET", "99")
        weights = build_brun_weights(97, 100, "upper", level=24)
        assert weights.table == {k: mobius(k) for k in range(1, 97)
                                 if mobius(k)}
        monkeypatch.setenv("BHLAB_BUDGET", "98")
        with pytest.raises(BudgetError, match="requested size 99 "):
            build_brun_weights(97, 100, "upper", level=24)
