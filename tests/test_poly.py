import importlib.util
import itertools
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bhlab import budgets, poly
from bhlab.arith import is_prime_u64, primes_below
from bhlab.budgets import BudgetError, LimitError
from bhlab.poly import (CHUNK_SIZE, FamilySpec, IntPolynomial,
                        _decode_exhaustive, coefficient_chunks,
                        digit_columns, eval_poly, iter_family,
                        local_root_counts, residue_key, root_count_table,
                        roots_count_mod_prime, roots_count_mod_squarefree,
                        traverse_family, value_bound)
from conftest import random_polynomial, residue_scan

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def edge_polynomials(rng):
    """Random P of degree 1-6 with the lanes that need care: negative and
    above-2**63 coefficients, leads that small primes divide, P = 0 mod l
    (a common factor) and P = nonzero constant mod l (l | every c_j, j >= 1)."""
    draw = random.Random(int(rng.integers(2**32)))
    out = []
    for d in range(1, 7):
        for bound in (9, 2**40, 2**70):
            for lead in (1, 2, 6, 30, 210, -(2**65) - 1):
                out.append([draw.randint(-bound, bound) for _ in range(d)]
                           + [lead])
        out.append([2310 * draw.randint(-99, 99) for _ in range(d)] + [2310])
        out.append([7] + [30 * draw.randint(-99, 99) for _ in range(d - 1)]
                   + [30])
    return out


def column_by_column_decode(spec, start, stop):
    """Reference: the exhaustive decoder as it was before digit_columns,
    dividing by powers of the base from the lead coefficient down."""
    d, H = spec.d, spec.H
    base = 2 * H + 1
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), d + 1), dtype=np.int64)
    out[:, d] = idx // base**d + 1
    rem = idx % base**d
    for j in range(d - 1, -1, -1):
        out[:, j] = rem // base**j - H
        rem = rem % base**j
    return out


class TestIntPolynomial:
    def test_eval_examples(self):
        assert eval_poly(IntPolynomial((1, 0, 1)), 3) == 10
        assert eval_poly(IntPolynomial((-3, 0, 1)), 1) == -2
        assert eval_poly(IntPolynomial((-5, 1, 0, 2)), 4) == 127

    def test_degree_and_height(self):
        P = IntPolynomial((-5, 1, 0, 2))
        assert P.degree == 3
        assert P.height == 5
        assert P.in_family(5)
        assert not P.in_family(4)

    @pytest.mark.parametrize("coeffs,text", [
        ((0,), "0"), ((7,), "7"), ((1, 0, 1), "1 + 1*t^2"),
        ((0, -3, 0, 2), "-3*t^1 + 2*t^3"),
    ], ids=["zero", "constant", "quadratic", "cubic"])
    def test_str(self, coeffs, text):
        assert str(IntPolynomial(coeffs)) == text

    def test_rejects_zero_lead(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 0))
        with pytest.raises(ValueError):
            IntPolynomial(())

    def test_value_bound_holds(self, rng):
        for _ in range(50):
            P = random_polynomial(rng, 3, 20)
            for m in range(1, 8):
                assert abs(eval_poly(P, m)) <= value_bound(3, 20, 7)


class TestRootsCount:
    def test_examples(self):
        P = IntPolynomial((1, 0, 1))
        assert roots_count_mod_prime(P, 5) == 2
        assert roots_count_mod_prime(P, 3) == 0
        # identically zero mod 2: every residue is a root
        assert roots_count_mod_prime(IntPolynomial((6, 4, 2)), 2) == 2

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            roots_count_mod_prime(IntPolynomial((1, 1)), 6)

    def test_matches_direct_enumeration(self, rng):
        for _ in range(100):
            P = random_polynomial(rng, 3, 30)
            for ell in (2, 3, 5, 7, 11):
                direct = sum(eval_poly(P, r) % ell == 0 for r in range(ell))
                assert roots_count_mod_prime(P, ell) == direct

    @pytest.mark.parametrize("ell,d", [(2, 1), (3, 2), (5, 2), (7, 1)])
    def test_table_matches_scalar_count(self, ell, d):
        # mixed-radix key, c0 least significant; trailing zeros are dropped
        # so every residue tuple is a valid IntPolynomial
        table = root_count_table(ell, d)
        assert len(table) == ell ** (d + 1)
        assert not table.flags.writeable  # cached, shared by every caller
        for key, coeffs in enumerate(
                itertools.product(range(ell), repeat=d + 1)):
            coeffs = coeffs[::-1]
            assert residue_key(coeffs, ell) == key
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            assert table[key] == roots_count_mod_prime(
                IntPolynomial(coeffs), ell), coeffs

    def test_table_refused_above_the_residue_budget(self, monkeypatch):
        root_count_table.cache_clear()
        monkeypatch.setenv("BHLAB_BUDGET", "10000")
        with pytest.raises(BudgetError, match=(
                r"residue root-count table: requested size 10201 exceeds "
                r"budget 10000 \(override with BHLAB_BUDGET\)")):
            root_count_table(101, 1)
        monkeypatch.setenv("BHLAB_BUDGET", "10201")
        assert len(root_count_table(101, 1)) == 101**2

    def test_table_budget_checked_on_a_cache_miss_only(self, monkeypatch):
        calls = []
        check = budgets.check
        monkeypatch.setattr(budgets, "check",
                            lambda *args: calls.append(args) or check(*args))
        root_count_table.cache_clear()
        first = root_count_table(3, 2)
        assert root_count_table(3, 2) is first
        assert calls == [("residue root-count table", 27,
                          budgets.DEFAULT_RESIDUE_BUDGET)]

    def test_bounded_by_degree(self, rng):
        for _ in range(200):
            P = random_polynomial(rng, 2, 50)
            for ell in (2, 3, 5, 7, 11, 13):
                if any(c % ell for c in P.coeffs):
                    assert roots_count_mod_prime(P, ell) <= min(2, ell)

    def test_squarefree_examples(self):
        P = IntPolynomial((1, 0, 1))
        assert roots_count_mod_squarefree(P, 1) == 1
        assert roots_count_mod_squarefree(P, 15) == 0
        assert roots_count_mod_squarefree(P, 10) == 2

    def test_squarefree_validation(self):
        with pytest.raises(ValueError):
            roots_count_mod_squarefree(IntPolynomial((1, 1)), 12)

    @pytest.mark.parametrize("k,message", [
        (0, "modulus must be positive, got 0"),
        (12, "modulus must be squarefree, got 12"),
    ], ids=["0", "12"])
    def test_modulus_refusal_texts(self, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            roots_count_mod_squarefree(IntPolynomial((1, 0, 1)), k)

    def test_crt_multiplicativity(self, rng):
        pairs = [(2, 15), (3, 10), (6, 35), (10, 21), (30, 7)]
        for _ in range(40):
            P = random_polynomial(rng, 2, 50)
            for k1, k2 in pairs:
                assert (roots_count_mod_squarefree(P, k1 * k2)
                        == roots_count_mod_squarefree(P, k1)
                        * roots_count_mod_squarefree(P, k2))

    def test_crt_against_direct_count(self, rng):
        for _ in range(20):
            P = random_polynomial(rng, 2, 50)
            for k in (6, 10, 30, 210):
                direct = sum(eval_poly(P, r) % k == 0 for r in range(k))
                assert roots_count_mod_squarefree(P, k) == direct


class TestDistinctDegreePass:
    def test_matches_residue_scan_below_2000(self, rng):
        primes = primes_below(2000)
        for coeffs in edge_polynomials(rng):
            got = poly._root_counts(coeffs, primes).tolist()
            want = [residue_scan(coeffs, ell) for ell in primes]
            assert got == want, coeffs

    def test_degenerate_lanes(self):
        primes = primes_below(50)
        zero = poly._root_counts([0, 0, 0], primes).tolist()
        assert zero == list(primes)  # every residue is a root
        assert poly._root_counts([12], primes).tolist() == [
            ell if 12 % ell == 0 else 0 for ell in primes]
        # t^2 + t = t(t + 1) mod 2 has both residues as roots; t^3 - t
        # has all three mod 3 though l <= d
        assert poly._root_counts([0, 1, 1], [2]).tolist() == [2]
        assert poly._root_counts([0, -1, 0, 1], [2, 3]).tolist() == [2, 3]

    # 3037000493 is the largest prime on the int64 lanes, 3037000507 the
    # smallest on the object lanes
    @pytest.mark.parametrize("ell", [
        2_147_483_647, 3_037_000_493, 3_037_000_507, 2**61 - 1, 2**63 - 25])
    def test_matches_the_benchmark_oracle_at_large_primes(self, rng, ell):
        assert is_prime_u64(ell)
        for coeffs in edge_polynomials(rng)[::5]:
            assert (poly._root_counts(coeffs, [ell])[0]
                    == workloads.distinct_roots_mod(coeffs, ell)), coeffs
        # split polynomials: (t - a)(t - b)(t - c), a double root too
        for roots in ((1, 2, 3), (5, 5, ell - 1), (0, ell - 7, 2**40)):
            coeffs = [1]
            for a in roots:  # multiply by (t - a)
                coeffs = [(x - a * y) for x, y in
                          zip([0] + coeffs, coeffs + [0])]
            assert poly._root_counts(coeffs, [ell])[0] == len(set(roots))

    # degree 8-12 at the largest int64-lane prime and the smallest
    # object-lane prime: each column of _square's convolution sums up to d
    # reduced products
    @pytest.mark.parametrize("ell", [3_037_000_493, 3_037_000_507])
    @pytest.mark.parametrize("d", range(8, 13))
    def test_split_polynomials_with_repeated_roots(self, rng, ell, d):
        draw = random.Random(int(rng.integers(2**32)))
        pool = [0, 1, ell - 1, ell - 2, 2**31 + 11] + [
            draw.randrange(ell) for _ in range(d)]
        for distinct in (1, 2, d // 2, d - 1):
            roots = draw.sample(pool, distinct)
            roots += [draw.choice(roots) for _ in range(d - distinct)]
            lead = draw.choice([1, 7, ell - 1, ell + 3])
            coeffs = [lead]
            for a in roots:  # multiply by (t - a)
                coeffs = [(x - a * y) for x, y in
                          zip([0] + coeffs, coeffs + [0])]
            assert len(coeffs) == d + 1
            assert poly._root_counts(coeffs, [ell])[0] == len(set(roots))

    def test_int64_and_object_lanes_in_one_pass(self, rng):
        primes = [2, 3, 3_037_000_493, 3_037_000_507, 2**61 - 1]
        for coeffs in edge_polynomials(rng)[::7]:
            assert poly._root_counts(coeffs, primes).tolist() == [
                workloads.distinct_roots_mod(coeffs, ell) for ell in primes]

    def test_mersenne_61_examples(self):
        ell = 2**61 - 1
        assert roots_count_mod_prime(IntPolynomial((1, 0, 1)), ell) == 0
        assert roots_count_mod_prime(IntPolynomial((-2, 0, 1)), ell) == 2
        assert roots_count_mod_prime(IntPolynomial((0, -1, 0, 1)), ell) == 3

    def test_squarefree_modulus_of_large_primes(self):
        p, q = 2_147_483_659, 2_147_483_693  # k = pq is close to 2^62
        P = IntPolynomial((-2, 0, 1))
        want = (workloads.distinct_roots_mod([-2, 0, 1], p)
                * workloads.distinct_roots_mod([-2, 0, 1], q))
        assert roots_count_mod_squarefree(P, p * q) == want


class TestRootCountBudget:
    def test_default_admits_1e6_at_degree_6(self):
        assert (poly._root_count_cost(6, 1e6)
                <= budgets.DEFAULT_ROOT_COUNT_BUDGET)

    def test_refused_before_the_sieve(self, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        sieved = []
        monkeypatch.setattr(poly, "primes_below",
                            lambda z: sieved.append(z) or primes_below(z))
        with pytest.raises(BudgetError, match=(
                r"^local root counts: requested size \d+ exceeds budget "
                r"100000000 \(override with BHLAB_BUDGET\)$")):
            local_root_counts(IntPolynomial((1, 0, 1)), 1e8)
        assert sieved == []

    def test_cost_is_an_upper_bound_on_the_prime_count_term(self):
        for z in (2.5, 3, 17, 1000, 10**5):
            assert (poly._root_count_cost(1, z)
                    >= len(primes_below(z)) * math.ceil(z).bit_length())
        assert poly._root_count_cost(3, 2) == 0

    def test_override(self, monkeypatch):
        P = IntPolynomial((1, 0, 1))
        cost = poly._root_count_cost(2, 200)
        monkeypatch.setenv("BHLAB_BUDGET", str(cost - 1))
        with pytest.raises(BudgetError, match=f"requested size {cost} "):
            local_root_counts(P, 200)
        monkeypatch.setenv("BHLAB_BUDGET", str(cost))
        assert len(local_root_counts(P, 200)) == len(primes_below(200))

    def test_fixed_sieve_limit_named_first(self, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        with pytest.raises(LimitError, match="^prime sieve: "):
            local_root_counts(IntPolynomial((1, 0, 1)), 1e13)


class TestLocalRootCounts:
    @pytest.mark.parametrize("z", [2, 2.5, 30, 1000])
    def test_per_prime_counts(self, rng, z):
        for d in (1, 2, 3):
            for _ in range(5):
                P = random_polynomial(rng, d, 40)
                want = [roots_count_mod_prime(P, ell)
                        for ell in primes_below(z)]
                assert local_root_counts(P, z) == tuple(want)

    @pytest.mark.parametrize("z", [2, 2.5, 30, 1000])
    def test_equal_to_residue_scan(self, rng, z):
        for d in (1, 2, 3, 4):
            for _ in range(5):
                P = random_polynomial(rng, d, 40)
                assert local_root_counts(P, z) == tuple(
                    residue_scan(P.coeffs, ell) for ell in primes_below(z))

    def test_cached(self):
        P = IntPolynomial((3, -7, 2, 10))
        assert local_root_counts(P, 500) is local_root_counts(P, 500)


class TestDigitColumns:
    @pytest.mark.parametrize("base", range(2, 32))
    def test_inverse_of_residue_key(self, base):
        for n in range(1, 5):
            idx = np.arange(base**n, dtype=np.int64)
            columns = digit_columns(idx, base, n)
            assert len(columns) == n
            assert all(c.dtype == np.int64 for c in columns)
            assert all(((0 <= c) & (c < base)).all() for c in columns)
            assert (residue_key(columns, base) == idx).all()


class TestTraversal:
    @pytest.mark.parametrize("d,H", [(1, 1), (1, 500), (2, 3), (2, 100),
                                     (3, 20), (4, 2)])
    def test_decode_matches_column_by_column_decoder(self, d, H):
        spec = FamilySpec(d=d, H=H)
        total = spec.family_size
        for start, stop in ((0, total), (0, 1), (total - 1, total),
                            (total // 3, min(total, total // 3 + CHUNK_SIZE))):
            got = _decode_exhaustive(spec, start, stop)
            want = column_by_column_decode(spec, start, stop)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert (got == want).all()

    def test_exhaustive_cardinality(self):
        count = traverse_family(FamilySpec(d=1, H=1), lambda acc, P: acc + 1, 0)
        assert count == 3
        count = traverse_family(FamilySpec(d=2, H=1), lambda acc, P: acc + 1, 0)
        assert count == 9
        spec = FamilySpec(d=2, H=7)
        assert spec.family_size == 7 * 15**2
        assert sum(1 for _ in iter_family(spec)) == spec.family_size

    def test_exhaustive_order_and_membership(self):
        polys = list(iter_family(FamilySpec(d=1, H=1)))
        assert [P.coeffs for P in polys] == [(-1, 1), (0, 1), (1, 1)]
        for P in iter_family(FamilySpec(d=2, H=2)):
            assert P.in_family(2)

    def test_exhaustive_visits_distinct(self):
        seen = {P.coeffs for P in iter_family(FamilySpec(d=2, H=3))}
        assert len(seen) == FamilySpec(d=2, H=3).family_size

    def test_budget_refusal(self):
        spec = FamilySpec(d=2, H=10**6)
        with pytest.raises(BudgetError):
            list(coefficient_chunks(spec))

    def test_montecarlo_sample_budget(self, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        spec = FamilySpec(d=2, H=9, mode="montecarlo",
                          sample_count=budgets.DEFAULT_FAMILY_BUDGET + 1)
        with pytest.raises(BudgetError, match=(
                r"^Monte Carlo sample traversal: requested size 100000001 "
                r"exceeds budget 100000000 \(override with BHLAB_BUDGET\)$")):
            next(coefficient_chunks(spec))
        small = FamilySpec(d=2, H=9, mode="montecarlo", sample_count=5000)
        monkeypatch.setenv("BHLAB_BUDGET", "4999")
        with pytest.raises(BudgetError, match="Monte Carlo sample traversal"):
            next(coefficient_chunks(small))
        monkeypatch.setenv("BHLAB_BUDGET", "5000")
        assert sum(len(r) for _, r in coefficient_chunks(small)) == 5000

    def test_montecarlo_determinism(self):
        spec = FamilySpec(d=2, H=10**6, mode="montecarlo",
                          sample_count=10**4, seed=42)
        acc1 = traverse_family(spec, lambda acc, P: acc + eval_poly(P, 3), 0)
        acc2 = traverse_family(spec, lambda acc, P: acc + eval_poly(P, 3), 0)
        assert acc1 == acc2

    def test_montecarlo_ranges(self):
        spec = FamilySpec(d=2, H=9, mode="montecarlo",
                          sample_count=5000, seed=7)
        rows = np.concatenate([r for _, r in coefficient_chunks(spec)])
        assert rows.shape == (5000, 3)
        assert rows[:, :2].min() >= -9 and rows[:, :2].max() <= 9
        assert rows[:, 2].min() >= 1 and rows[:, 2].max() <= 9
        # all three columns actually vary
        assert all(len(np.unique(rows[:, j])) > 5 for j in range(3))

    def test_montecarlo_chunks_are_independent(self):
        # a chunk regenerated on its own matches the same chunk of a full
        # pass: the counter-based stream needs no preceding draws
        from bhlab.poly import _draw_montecarlo
        spec = FamilySpec(d=2, H=100, mode="montecarlo",
                          sample_count=CHUNK_SIZE + 1000, seed=11)
        chunks = dict(coefficient_chunks(spec))
        assert sorted(chunks) == [0, CHUNK_SIZE]
        solo = _draw_montecarlo(spec, 1, 1000)
        assert (chunks[CHUNK_SIZE] == solo).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(d=0, H=1)
        with pytest.raises(ValueError):
            FamilySpec(d=1, H=0)
        with pytest.raises(ValueError):
            FamilySpec(d=1, H=1, mode="montecarlo")
        with pytest.raises(ValueError):
            FamilySpec(d=1, H=1, mode="sideways")

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_montecarlo_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(ValueError) as exc:
            FamilySpec(d=1, H=1, mode="montecarlo", sample_count=1, seed=seed)
        assert str(exc.value) == f"seed must be in [0, 2^128), got {seed}"
        FamilySpec(d=1, H=1, seed=seed)  # exhaustive traversal has no seed

    def test_montecarlo_seed_range_ends(self):
        for seed in (0, 2**128 - 1):
            spec = FamilySpec(d=1, H=1, mode="montecarlo", sample_count=3,
                              seed=seed)
            (_, rows), = coefficient_chunks(spec)
            assert rows.shape == (3, 2)


class TestRootCountTableModulus:
    @pytest.mark.parametrize("ell", [4, 1, 0, 9, 10**4])
    def test_composite_modulus_refused(self, ell):
        with pytest.raises(ValueError, match="modulus must be prime"):
            root_count_table(ell, 1)


class TestRootCountTableScatter:
    """The table is filled by one scatter per residue r: for each head
    (c1, ..., cd), c0 = -(c1 r + ... + cd r**d) mod l is the one c0 that
    makes r a root."""

    @pytest.mark.parametrize("ell,d", [(97, 2), (661, 1), (53, 2), (23, 3)])
    def test_equals_residue_scan(self, rng, ell, d):
        # the zero polynomial, a nonzero constant, and 2000 random keys
        table = root_count_table.__wrapped__(ell, d)
        assert table.dtype == np.int64 and not table.flags.writeable
        keys = np.concatenate(([0, 1], rng.integers(ell ** (d + 1),
                                                    size=2000)))
        columns = digit_columns(keys, ell, d + 1)
        for i, key in enumerate(keys):
            coeffs = tuple(int(c[i]) for c in columns)
            assert table[key] == residue_scan(coeffs, ell), coeffs
        assert table[0] == ell and table[1] == 0

    def test_large_prime_is_fast(self):
        # Horner at every residue over every tuple took 18.9 s (2-core box)
        t0 = time.perf_counter()
        table = root_count_table.__wrapped__(1009, 1)
        assert time.perf_counter() - t0 < 2
        # each residue is a root for one c0 per head
        assert (table.reshape(1009, 1009).sum(axis=1) == 1009).all()

    def test_peak_memory_is_table_scale(self):
        # 53**4 entries, 60 MB; Horner over every tuple peaked at 482 MB
        tracemalloc.start()
        try:
            table = root_count_table.__wrapped__(53, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.nbytes
