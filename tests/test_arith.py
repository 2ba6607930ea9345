import math
import random
import tracemalloc

import numpy as np
import pytest

from bhlab import arith
from bhlab.budgets import MAX_FAMILY_TABLE, MAX_TABLE, LimitError
from bhlab.arith import (CompactLambda, chebyshev_psi, euler_phi, factorize,
                         is_prime_u64, mobius, omega_distinct, phi_table,
                         primes_below, primorial, sieve_primes,
                         squarefree_primes, von_mangoldt, von_mangoldt_table)


def trial_division_lambda(n):
    """Independent oracle: factor n completely, then read off Lambda."""
    if n == 1:
        return 0.0
    m, smallest = n, None
    for d in range(2, n + 1):
        if d * d > m:
            break
        if m % d == 0:
            smallest = d
            while m % d == 0:
                m //= d
            break
    if smallest is None:
        return math.log(n)  # n prime
    return math.log(smallest) if m == 1 else 0.0


def root_by_every_exponent_lambda(n):
    """Reference: the exact a-th root for every exponent a below the bit
    length, by binary search, accepted when prime and exact."""
    if n == 1:
        return 0.0
    for a in range(1, n.bit_length()):
        lo, hi = 1, 1 << (n.bit_length() // a + 1)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid**a <= n:
                lo = mid
            else:
                hi = mid - 1
        if lo**a == n and is_prime_u64(lo):
            return math.log(lo)
    return 0.0


def per_prime_log_table(limit):
    """Reference: math.log(p) at every prime power p**a <= limit."""
    table = np.zeros(limit + 1, dtype=np.float64)
    for p in sieve_primes(limit).tolist():
        q = p
        while q <= limit:
            table[q] = math.log(p)
            q *= p
    return table


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# limits 0-9, 2**k +- 1, 3**k, a prime power +- 1 (7**8), two sieve
# segments +- 1, and 10**7
COMPACT_LIMITS = ([0, 1, 2, 3, 4, 8, 9]
                  + [2**k + e for k in (4, 10, 16, 20) for e in (-1, 1)]
                  + [3**7, 3**13, 7**8 - 1, 7**8 + 1, 2**23 - 1, 2**23 + 1,
                     10**7])


def _rho_cases():
    """(n, factorization) for the cofactors rho splits: p*q, p**2, p**3 and
    p**2*q for the first two primes p < q of each bit length 11..31, and p*r
    and p**2*r for r = 2**31 - 1, a prime, wherever n < 2**63."""
    r = 2**31 - 1
    cases = []
    for bits in range(11, 32):
        p = 1 << (bits - 1)
        while not is_prime_u64(p):
            p += 1
        q = p + 1
        while not is_prime_u64(q):
            q += 1
        for n, factors in ((p * q, [(p, 1), (q, 1)]), (p * p, [(p, 2)]),
                           (p**3, [(p, 3)]), (p * p * q, [(p, 2), (q, 1)]),
                           (p * r, [(p, 1), (r, 1)]),
                           (p * p * r, [(p, 2), (r, 1)])):
            if n < 2**63:
                cases.append((n, factors))
    return cases


_RHO_CASES = _rho_cases()


class TestSieve:
    def test_small(self):
        assert list(sieve_primes(10)) == [2, 3, 5, 7]
        assert list(sieve_primes(2)) == [2]
        assert len(sieve_primes(1)) == 0

    def test_hundred_against_trial_division(self):
        table = sieve_primes(100)
        assert len(table) == 25
        assert list(table)[-1] == 97
        assert list(table) == [n for n in range(2, 101)
                               if trial_division_is_prime(n)]

    def test_below_is_strict(self):
        assert primes_below(7) == (2, 3, 5)
        assert primes_below(7.5) == (2, 3, 5, 7)

    @pytest.mark.parametrize("z", [2, 2.5, 3, 3.0, 7.2, 100, 30000])
    def test_primes_below_matches_table(self, z):
        want = [p for p in sieve_primes(math.ceil(z)).tolist() if p < z]
        assert primes_below(z) == tuple(want)
        assert all(type(p) is int for p in primes_below(z))

    def test_primes_below_is_cached(self):
        assert primes_below(1000) is primes_below(1000)

    def test_membership(self):
        table = sieve_primes(50)
        assert 47 in table
        assert 49 not in table

    # the segments hold 2**21 odd numbers: 4194304 integers each
    @pytest.mark.parametrize("limit", [4194303, 4194304, 4194305, 4194307,
                                       8388609, 10**7])
    def test_segment_edges_against_a_plain_sieve(self, limit):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        assert np.array_equal(sieve_primes(limit), np.flatnonzero(flags))


class TestVonMangoldt:
    @pytest.mark.parametrize("n,expected", [
        (1, 0.0),
        (8, math.log(2)),
        (12, 0.0),
        (2, math.log(2)),
        (9973, math.log(9973)),
        (3**7, math.log(3)),
    ])
    def test_values(self, n, expected):
        assert von_mangoldt(n) == pytest.approx(expected, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            von_mangoldt(0)
        with pytest.raises(ValueError):
            von_mangoldt(2**63)

    def test_against_trial_division(self):
        for n in range(1, 20000):
            assert von_mangoldt(n) == trial_division_lambda(n)

    def test_table_matches_scalar(self, lam_table_1e6, rng):
        for n in range(1, 5000):
            assert lam_table_1e6[n] == von_mangoldt(n)
        for n in rng.integers(5000, 10**6, size=2000):
            assert lam_table_1e6[int(n)] == von_mangoldt(int(n))

    # the compact layer's edge limits too: the dense table unpacks it, so
    # this reference is what checks the two
    @pytest.mark.parametrize("limit", sorted(
        {0, 1, 2, 3, 4, 10**4, 10**6, 3 * 10**6 + 1, *COMPACT_LIMITS}))
    def test_table_bits_equal_per_prime_logs(self, limit):
        got = von_mangoldt_table(limit)
        want = per_prime_log_table(limit)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scalar_equals_root_by_every_exponent(self):
        rng = np.random.default_rng(63)
        ns = list(range(1, 10**5 + 1))
        for p in primes_below(3000):
            q = p
            while q < 2**63:
                ns.append(q)
                q *= p
        ns += [6**a for a in range(2, 25)] + [2**62, (2**31 - 1) ** 2, 3**39]
        ns += [2**63 - j for j in range(1, 200)]
        ns += [int(v) for v in rng.integers(1, 2**63, size=10**4)]
        # past the trial primes: r**a and its neighbours for a = 2, 3, 5, at
        # r near 2**10 and near the largest r with r**a < 2**63
        for a, top in ((2, 3037000499), (3, 2097151), (5, 6208)):
            assert top**a < 2**63 <= (top + 1) ** a
            for r in [*range(1000, 1100), *range(top - 100, top + 1)]:
                ns += [r**a - 1, r**a, r**a + 1]
        # semiprimes of primes >= 2**10, their squares and cubes, and p*p*q
        big = [p for p in primes_below(1100) if p > 1024]
        big += [1048573, 1048583, 2147483647, 2147483659]
        for p in big:
            for q in big:
                if p < q:
                    ns += [p * q, (p * q) ** 2, (p * q) ** 3]
                if p != q:
                    ns.append(p * p * q)
        for n in ns:
            if n < 2**63:
                assert von_mangoldt(n) == root_by_every_exponent_lambda(n), n

    def test_chebyshev_trend(self):
        # PNT: psi(x)/x near 1 (within 5%) at x = 10^7
        table = von_mangoldt_table(10**7)
        assert float(table.sum()) / 10**7 == pytest.approx(1.0, rel=0.05)

    def test_chebyshev_psi_small(self, lam_table_1e6):
        assert chebyshev_psi(10, table=lam_table_1e6) == pytest.approx(
            sum(von_mangoldt(n) for n in range(1, 11)))

    def test_chebyshev_psi_below_one_is_zero(self):
        assert chebyshev_psi(0.5) == 0.0

    def test_table_refuses_a_negative_limit(self):
        # the refusal is CompactLambda's, which the table unpacks
        with pytest.raises(ValueError, match="^limit must be nonnegative$"):
            von_mangoldt_table(-1)

    def test_chebyshev_psi_refuses_a_short_table(self):
        table = von_mangoldt_table(100)
        assert chebyshev_psi(100, table=table) == chebyshev_psi(100)
        with pytest.raises(ValueError, match=(
                r"^Lambda table must hold 1001 entries \(0\.\.1000\), "
                r"got 101$")):
            chebyshev_psi(1000, table=table)


class TestIntegerRoot:
    """Lambda's exact-root step next to perfect powers of every exponent:
    r**a is detected as a power and r**a +- 1 is not."""

    @pytest.mark.parametrize("a", range(1, 64))
    def test_exact_next_to_perfect_powers(self, a):
        ns = []
        for r in (2, 3, 10, 1031, 2**20 + 7, 3**20, 10**12 + 39, 10**20 + 1,
                  3037000493):
            ns += [n for n in (r**a - 1, r**a, r**a + 1) if 1 <= n < 2**63]
        assert ns
        for n in ns:
            assert von_mangoldt(n) == root_by_every_exponent_lambda(n), n


class TestCompactLambda:
    # both forms: math.log on the gather's prime hits (reads below the
    # limit) and np.log on them after the build's log scan (reads at it)
    @pytest.mark.parametrize("limit", COMPACT_LIMITS)
    def test_whole_range_bits_equal_the_dense_table(self, limit):
        want = von_mangoldt_table(limit)
        for reads, scanned in ((0, limit == 0), (limit, True)):
            layer = CompactLambda(limit, reads=reads)
            assert layer.scanned == scanned
            got = layer[np.arange(limit + 1, dtype=np.int64)]
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gather_keeps_the_shape(self, rng):
        limit = 10**6
        values = rng.integers(0, limit + 1, size=(300, 7))
        got = CompactLambda(limit)[values]
        assert got.shape == (300, 7)
        assert np.array_equal(got, von_mangoldt_table(limit)[values])

    def test_patches_hold_powers_and_log_exceptions(self):
        # without the scan the patch array is exactly the p**a with a >= 2
        # and the powers of two; the scan adds exactly the odd primes where
        # np.log differs from math.log (how many depends on numpy's build
        # and the CPU, so the set is computed here, not counted)
        limit = 10**6
        table = per_prime_log_table(limit)
        primes = sieve_primes(limit)
        powers = np.union1d(np.setdiff1d(np.flatnonzero(table), primes), [2])
        assert np.array_equal(powers[:20], [2, 4, 8, 9, 16, 25, 27, 32, 49,
                                            64, 81, 121, 125, 128, 169, 243,
                                            256, 289, 343, 361])
        odd = primes[1:]
        exact = np.array([math.log(p) for p in odd.tolist()])
        exceptions = odd[np.log(odd) != exact]
        for reads, want in ((limit - 1, powers),
                            (limit, np.union1d(powers, exceptions))):
            layer = CompactLambda(limit, reads=reads)
            assert np.array_equal(layer.values[:-1], want)
            assert layer.values[-1] == np.iinfo(np.int64).max
            assert np.array_equal(layer.logs[:-1].view(np.uint64),
                                  table[want].view(np.uint64))

    # the dense table is 32 MiB; unpack takes math.log of the 295,946 odd
    # primes in batches (one whole-array pass holds a Python float and int
    # per prime, about 10 MiB more)
    def test_unpacked_table_memory_is_the_dense_table(self):
        limit = 2**22
        tracemalloc.start()
        try:
            von_mangoldt_table(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (limit + 1) + 8 * 2**20

    def test_size_is_a_sixteenth_byte_per_integer(self):
        layer = CompactLambda(10**7)
        assert layer.bits.nbytes == 10**7 // 16 + 1
        assert layer.nbytes < 10**7 / 16 + 2**17

    def test_limit(self):
        assert MAX_FAMILY_TABLE == 2 * 10**9
        with pytest.raises(ValueError):
            CompactLambda(-1)
        tracemalloc.start()
        try:
            with pytest.raises(LimitError) as exc:
                CompactLambda(MAX_FAMILY_TABLE + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "compact von Mangoldt table: requested size 2000000001 exceeds "
            "the fixed limit 2000000000")
        assert peak < 1 << 20


class TestMillerRabin:
    def test_small_range(self):
        for n in range(2000):
            assert is_prime_u64(n) == trial_division_is_prime(n)

    def test_large_samples(self, rng):
        for n in rng.integers(10**9, 10**12, size=50):
            n = int(n)
            assert is_prime_u64(n) == trial_division_is_prime(n)

    def test_known_strong_pseudoprimes(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
        assert not is_prime_u64(3215031751)
        assert not is_prime_u64(3825123056546413051)

    # psi_k (OEIS A014233), the least strong pseudoprime to each of the
    # first k prime bases, for every psi_k below 2^63
    PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751,
           5: 2152302898747, 6: 3474749660383, 7: 341550071728321,
           8: 341550071728321, 9: 3825123056546413051,
           10: 3825123056546413051, 11: 3825123056546413051}

    @staticmethod
    def every_witness(n):
        """The untiered test: trial division by the twelve witnesses, then
        the strong probable-prime test to all of them."""
        for p in arith._MR_WITNESSES:
            if n % p == 0:
                return n == p
        return arith._strong_probable_prime(n, arith._MR_WITNESSES)

    @pytest.mark.parametrize("k", sorted(PSI))
    def test_tier_bounds_are_refused(self, k):
        # psi_k passes the first k bases, so it must be tested past them
        psi = self.PSI[k]
        assert arith._strong_probable_prime(psi, arith._MR_WITNESSES[:k])
        assert not is_prime_u64(psi)

    def test_tiers_agree_with_every_witness(self):
        gen = random.Random(20251021)
        # odd n of a random bit length, so every tier is drawn
        ns = [gen.randrange(2, 1 << gen.randrange(2, 64)) | 1
              for _ in range(20000)]
        ns += [psi + step for psi in self.PSI.values()
               for step in range(-64, 65)]
        assert sum(map(is_prime_u64, ns)) > 500
        assert [n for n in ns
                if is_prime_u64(n) != self.every_witness(n)] == []

    def test_carmichael_numbers(self):
        carmichael = {n: [p for p, _ in factorize(n)] for n in (
            561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
            41041, 46657, 52633, 62745, 63973, 75361)}
        # Chernick's (6k + 1)(12k + 1)(18k + 1) below 2^63, all three
        # factors prime
        top = round((2**63 / 1296) ** (1 / 3))
        primes = set(sieve_primes(18 * top + 1).tolist())
        for k in range(1, top + 1):
            factors = [6 * k + 1, 12 * k + 1, 18 * k + 1]
            if math.prod(factors) < 2**63 and primes.issuperset(factors):
                carmichael[math.prod(factors)] = factors
        assert len(carmichael) > 100
        for n, factors in carmichael.items():
            assert all((n - 1) % (p - 1) == 0 for p in factors)
            assert not is_prime_u64(n)
            assert not self.every_witness(n)


class TestMultiplicativeFunctions:
    @pytest.mark.parametrize("n,mu", [(1, 1), (6, 1), (12, 0), (30, -1)])
    def test_mobius(self, n, mu):
        assert mobius(n) == mu

    @pytest.mark.parametrize("n,phi", [(1, 1), (12, 4), (97, 96)])
    def test_phi(self, n, phi):
        assert euler_phi(n) == phi

    @pytest.mark.parametrize("n,w", [(1, 0), (12, 2), (30, 3)])
    def test_omega(self, n, w):
        assert omega_distinct(n) == w

    def test_domain(self):
        for fn in (mobius, euler_phi, omega_distinct, factorize):
            with pytest.raises(ValueError):
                fn(0)

    def test_divisor_sum_identities(self):
        # sum_{d|n} mu(d) = [n == 1] and sum_{d|n} phi(d) = n, n <= 10^4
        limit = 10**4
        mu_sums = np.zeros(limit + 1, dtype=np.int64)
        phi_sums = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            mu_sums[d::d] += mobius(d)
            phi_sums[d::d] += euler_phi(d)
        assert mu_sums[1] == 1
        assert not mu_sums[2:].any()
        assert (phi_sums[1:] == np.arange(1, limit + 1)).all()

    @pytest.mark.parametrize("k,primes", [(1, []), (2, [2]), (30, [2, 3, 5]),
                                          (1_000_003 * 7, [7, 1_000_003])],
                             ids=["1", "2", "30", "7000021"])
    def test_squarefree_primes(self, k, primes):
        assert squarefree_primes(k) == primes

    @pytest.mark.parametrize("k,message", [
        (12, "modulus must be squarefree, got 12"),
        (0, "modulus must be positive, got 0"),
        (-3, "modulus must be positive, got -3"),
    ], ids=["12", "0", "-3"])
    def test_squarefree_primes_refusals(self, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            squarefree_primes(k)

    def test_factorize_reconstructs_n(self):
        for n in range(1, 10**4 + 1):
            factors = factorize(n)
            primes = [p for p, _ in factors]
            assert primes == sorted(set(primes))
            assert all(is_prime_u64(p) and e >= 1 for p, e in factors)
            assert math.prod(p**e for p, e in factors) == n

    @pytest.mark.parametrize("n,factors", [
        (1031**2, [(1031, 2)]),  # the first prime past the initial 2^10
        (1_000_003 * 1_000_033, [(1_000_003, 1), (1_000_033, 1)]),
        *_RHO_CASES,
    ])
    def test_factorize_grows_its_trial_divisors(self, n, factors):
        assert factorize(n) == factors

    def test_factorize_round_trips_near_2_62(self, rng):
        p, q = 2_147_483_659, 2_147_483_693  # consecutive primes past 2^31
        cases = [p * q, p * p, 1_048_583**3, 2**62, 2**63 - 1,
                 *(2**62 + int(v) for v in rng.integers(0, 2**61, 20))]
        for n in cases:
            factors = factorize(n)
            primes = [ell for ell, _ in factors]
            assert primes == sorted(set(primes))
            assert all(is_prime_u64(ell) and e >= 1 for ell, e in factors)
            assert math.prod(ell**e for ell, e in factors) == n
        assert factorize(p * q) == [(p, 1), (q, 1)]
        assert factorize(p * p) == [(p, 2)]

    def test_factorize_past_the_old_sieve_limit(self):
        # the trial divisors once had to reach isqrt(n), refused from 2^54
        assert factorize(2**55 + 1) == [(3, 1), (11, 2), (683, 1),
                                        (2971, 1), (48912491, 1)]
        p, q = 2_147_483_659, 2_147_483_693
        assert mobius(p * q) == 1
        assert mobius(3 * p * 1_000_003) == -1
        assert mobius(p * p) == 0
        assert euler_phi(p * q) == (p - 1) * (q - 1)
        assert omega_distinct(3 * p * 1_000_003) == 3

    def test_factorize_refuses_2_63(self):
        with pytest.raises(ValueError, match=(
                r"^factorize limited to n < 2\^63, got 9223372036854775808$")):
            factorize(2**63)

    def test_phi_table_matches_scalar(self):
        table = phi_table(3000)
        for n in range(1, 3001):
            assert int(table[n]) == euler_phi(n)


class TestPrimorial:
    @pytest.mark.parametrize("w,expected", [(3, 2), (6, 30), (12, 2310),
                                            (2.5, 2), (13.5, 30030)])
    def test_values(self, w, expected):
        assert primorial(w) == expected

    def test_prime_cutoff_is_strict(self):
        assert primorial(5) == 6
        assert primorial(5.01) == 30

    def test_domain(self):
        with pytest.raises(ValueError):
            primorial(1)
        with pytest.raises(ValueError):
            primorial(10**8)


class TestFixedTableLimit:
    def test_limit_value(self):
        assert MAX_TABLE == 2 * 10**8

    @pytest.mark.parametrize("builder", [sieve_primes, von_mangoldt_table,
                                         phi_table])
    def test_refused_above_the_limit_before_allocating(self, builder):
        tracemalloc.start()
        try:
            with pytest.raises(LimitError) as exc:
                builder(MAX_TABLE + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "prime sieve: requested size 200000001 exceeds the fixed limit "
            "200000000")
        assert peak < 1 << 20
