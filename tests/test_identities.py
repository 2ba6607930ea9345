import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from bhlab import budgets, identities
from bhlab.arith import factorize
from bhlab.budgets import BudgetError
from bhlab.identities import (by_root_count, multiplicative_average,
                              omega_moment, residue_root_count,
                              squared_factor_sum)

SQUAREFREE_30 = [k for k in range(1, 31)
                 if all(k % (p * p) for p in (2, 3, 5))]


def local_root_fraction(coeffs, ell):
    return Fraction(residue_root_count(coeffs, ell), ell)


def squared_density(coeffs, ell):
    w = residue_root_count(coeffs, ell)
    return Fraction(2 * w, ell) - Fraction(w * w, ell * ell)


# f(w, l) forms of the CLI's local factors and of squared_factor_sum's
ROOT_COUNT_FACTORS = {
    "w/l": lambda w, ell: Fraction(w, ell),
    "1-w/l": lambda w, ell: 1 - Fraction(w, ell),
    "(1-w/l)^2": lambda w, ell: (1 - Fraction(w, ell)) ** 2,
    "2w/l-w^2/l^2": lambda w, ell: (Fraction(2 * w, ell)
                                    - Fraction(w * w, ell * ell)),
}


def float_factor(w, ell):
    return 0.1 * w + 1e-3 / ell


def general(f):
    """f(w, l) as a plain g(coeffs, l), which takes the general path."""
    return lambda coeffs, ell: f(residue_root_count(coeffs, ell), ell)


def tuple_by_tuple_sums(g, k, d):
    """Reference: (direct, product) with the direct side summed one tuple
    mod k at a time, each tuple reduced mod every l | k by hand."""
    local = []
    for ell, _ in factorize(k):
        table = {coeffs: g(coeffs, ell)
                 for coeffs in itertools.product(range(ell), repeat=d + 1)}
        local.append(([c % ell for c in range(k)], table))
    direct = 0
    for coeffs in itertools.product(range(k), repeat=d + 1):
        term = 1
        for residues, table in local:
            term *= table[tuple(map(residues.__getitem__, coeffs))]
        direct += term
    product = 1
    for _, table in local:
        product *= sum(table.values())
    return direct, product


class TestResidueRootCount:
    def test_direct_enumeration(self):
        for ell in (2, 3, 5):
            for coeffs in itertools.product(range(ell), repeat=3):
                direct = sum(
                    sum(c * pow(r, j, ell) for j, c in enumerate(coeffs)) % ell == 0
                    for r in range(ell))
                assert residue_root_count(coeffs, ell) == direct

    def test_zero_polynomial(self):
        assert residue_root_count((0, 0, 0), 5) == 5

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            residue_root_count((1, 1), 4)

    def test_table_past_the_residue_budget_is_refused(self, monkeypatch):
        # the table mod 10007 for d = 2 would take 10007**3 int64 entries
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        with pytest.raises(BudgetError) as info:
            residue_root_count((1, 0, 1), 10007)
        assert info.value.requested == 10007**3
        assert info.value.budget == budgets.DEFAULT_RESIDUE_BUDGET
        assert str(info.value).startswith("residue root-count table: ")


class TestOmegaMoment:
    @pytest.mark.parametrize("ell,d,j,expected", [
        (2, 2, 1, 8), (2, 2, 2, 12), (5, 3, 2, 1125)])
    def test_examples(self, ell, d, j, expected):
        mom = omega_moment(ell, d, j)
        assert mom.enumerated == expected
        assert mom.closed_form == expected

    def test_closed_forms_full_grid(self):
        for ell in (2, 3, 5, 7):
            for d in (1, 2, 3):
                assert omega_moment(ell, d, 1).enumerated == ell ** (d + 1)
                assert (omega_moment(ell, d, 2).enumerated
                        == ell**d * (2 * ell - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            omega_moment(4, 2, 1)
        with pytest.raises(ValueError):
            omega_moment(3, 2, 3)
        with pytest.raises(BudgetError):
            omega_moment(13, 7, 1)


class TestMultiplicativeAverage:
    def test_examples(self):
        pair = multiplicative_average(local_root_fraction, 2, 2)
        assert pair.direct == 4
        pair = multiplicative_average(local_root_fraction, 6, 2)
        assert pair.direct == pair.product == 36
        pair = multiplicative_average(lambda c, ell: Fraction(1), 1, 2)
        assert pair.direct == pair.product == 1

    @pytest.mark.parametrize("g", [
        local_root_fraction,
        lambda c, ell: 1 - local_root_fraction(c, ell),
        lambda c, ell: (1 - local_root_fraction(c, ell)) ** 2,
    ])
    def test_direct_equals_product(self, g):
        for d in (1, 2):
            for k in SQUAREFREE_30:
                pair = multiplicative_average(g, k, d)
                assert pair.direct == pair.product, (k, d)

    def test_squarefree_validation(self):
        with pytest.raises(ValueError):
            multiplicative_average(local_root_fraction, 12, 1)

    def test_modulus_refusal_text(self):
        with pytest.raises(ValueError,
                           match="^modulus must be positive, got 0$"):
            multiplicative_average(local_root_fraction, 0, 1)

    @pytest.mark.parametrize("g", [
        local_root_fraction,
        lambda c, ell: 1 - local_root_fraction(c, ell),
        lambda c, ell: (1 - local_root_fraction(c, ell)) ** 2,
        squared_density,
        residue_root_count,
    ])
    def test_equals_tuple_by_tuple_sums(self, g):
        for d in (1, 2):
            for k in SQUAREFREE_30:
                got = multiplicative_average(g, k, d)
                want = tuple_by_tuple_sums(g, k, d)
                assert got == want, (k, d)
                assert tuple(map(type, got)) == tuple(map(type, want)), (k, d)

    def test_denominators_near_2_to_61_stay_exact(self):
        def g(coeffs, ell):
            return Fraction(1 + residue_root_count(coeffs, ell),
                            2**61 - 1 - sum(coeffs))

        tables = [[g(c, ell) for c in itertools.product(range(ell), repeat=2)]
                  for ell in (2, 3, 5)]
        # int64 numerators over the common denominator would overflow
        assert identities._scaled_numerators(tables, 30**2) is None
        got = multiplicative_average(g, 30, 1)
        assert got == tuple_by_tuple_sums(g, 30, 1)
        assert type(got.direct) is Fraction

    def test_float_values_sum_in_enumeration_order(self):
        def g(coeffs, ell):
            return 0.1 * residue_root_count(coeffs, ell) + 1e-3 / ell

        for k, d in ((30, 2), (29, 1), (1, 2)):
            got = multiplicative_average(g, k, d)
            want = tuple_by_tuple_sums(g, k, d)
            assert repr(tuple(got)) == repr(want), (k, d)
            assert tuple(map(type, got)) == tuple(map(type, want))
        # order matters here: a compensated sum reads differently
        terms = [g(c, 5) * g(c, 3) for c in itertools.product(range(15),
                                                              repeat=3)]
        assert math.fsum(terms) != multiplicative_average(g, 15, 2).direct

    @pytest.mark.parametrize("g", [
        squared_density,
        by_root_count(ROOT_COUNT_FACTORS["(1-w/l)^2"]),
        general(float_factor),
        by_root_count(float_factor),
    ], ids=["fraction", "fraction-by-count", "float", "float-by-count"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_product_side_is_the_naive_per_prime_product(self, g, d):
        # each single-prime sum runs over the tuples mod l in
        # itertools.product order, from 0
        k = 30
        want = 1
        for ell in (2, 3, 5):
            local = 0
            for coeffs in itertools.product(range(ell), repeat=d + 1):
                local += g(coeffs, ell)
            want *= local
        got = multiplicative_average(g, k, d).product
        assert type(got) is type(want)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("tile,k", [(1, 6), (5, 30), (7, 30), (64, 30),
                                        (900, 30), (1000, 30)])
    def test_tile_edges(self, tile, k, monkeypatch):
        # tiles of a few leading digits times trailing blocks, cut short
        # at the end, on the int64 and on the object path
        monkeypatch.setattr(identities, "_TILE", tile)

        def g_float(coeffs, ell):
            return 0.1 * residue_root_count(coeffs, ell) + 1e-3 / ell

        for g in (squared_density, g_float,
                  by_root_count(ROOT_COUNT_FACTORS["2w/l-w^2/l^2"]),
                  by_root_count(float_factor)):
            got = multiplicative_average(g, k, 2)
            assert repr(tuple(got)) == repr(tuple_by_tuple_sums(g, k, 2))

    def test_k_210_d_2_is_fast_and_tiled(self):
        # 210**3 = 9261000 tuples, inside the default budget; the
        # tuple-by-tuple enumeration took 56 s
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            pair = multiplicative_average(local_root_fraction, 210, 2)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.direct == pair.product == 210**2
        assert elapsed < 56 / 30
        assert peak < 128 * 2**20

    def test_budget_refusal_before_tabulating(self, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        calls = []

        def g(coeffs, ell):
            calls.append(ell)
            return 1

        # 217 = 7 * 31 is the least squarefree k with k**3 over 10**7
        with pytest.raises(BudgetError, match=(
                "residue average enumeration: requested size 10218313 "
                "exceeds budget 10000000")):
            multiplicative_average(g, 217, 2)
        assert calls == []


class TestByRootCount:
    """The root-count path against the general g(coeffs, l) path."""

    @pytest.mark.parametrize("name", ROOT_COUNT_FACTORS)
    def test_equals_general_path(self, name):
        f = ROOT_COUNT_FACTORS[name]
        cases = [(k, d) for k in SQUAREFREE_30 for d in (0, 1, 2)]
        cases += [(k, 3) for k in SQUAREFREE_30 if k <= 6]
        for k, d in cases:
            got = multiplicative_average(by_root_count(f), k, d)
            want = multiplicative_average(general(f), k, d)
            assert got == want, (k, d)
            assert tuple(map(type, got)) == tuple(map(type, want)), (k, d)

    def test_squared_factor_sum_equals_general_path(self):
        f = ROOT_COUNT_FACTORS["2w/l-w^2/l^2"]
        cases = [(k, d) for k in SQUAREFREE_30 for d in (1, 2)]
        cases += [(k, 3) for k in SQUAREFREE_30 if k <= 6]
        for k, d in cases:
            want = multiplicative_average(general(f), k, d).direct
            assert squared_factor_sum(k, d).enumerated == want, (k, d)

    def test_int_values_sum_to_int(self):
        for k, d in ((30, 2), (7, 3)):
            got = multiplicative_average(by_root_count(lambda w, ell: w), k, d)
            assert got == multiplicative_average(residue_root_count, k, d)
            assert tuple(map(type, got)) == (int, int)

    def test_float_values_keep_enumeration_order(self):
        for k, d in ((30, 2), (29, 1), (1, 2), (6, 3), (7, 0)):
            got = multiplicative_average(by_root_count(float_factor), k, d)
            want = multiplicative_average(general(float_factor), k, d)
            assert repr(tuple(got)) == repr(tuple(want)), (k, d)
            assert tuple(map(type, got)) == tuple(map(type, want)), (k, d)

    def test_denominators_near_2_to_61_take_the_object_path(self):
        def f(w, ell):
            return Fraction(1 + w, 2**61 - 1 - w)

        g = by_root_count(f)
        values = [identities._local_table(g, ell, 1)[0] for ell in (2, 3, 5)]
        assert identities._scaled_numerators(values, 30**2) is None
        got = multiplicative_average(g, 30, 1)
        assert got == multiplicative_average(general(f), 30, 1)
        assert got == tuple_by_tuple_sums(g, 30, 1)
        assert tuple(map(type, got)) == (Fraction, Fraction)

    def test_f_called_once_per_root_count(self):
        calls = []

        def f(w, ell):
            calls.append((ell, w))
            return Fraction(w, ell)

        for k, d in ((2, 0), (2, 3), (3, 2), (5, 2), (7, 3), (30, 2)):
            calls.clear()
            multiplicative_average(by_root_count(f), k, d)
            for ell, _ in factorize(k):
                got = [w for prime, w in calls if prime == ell]
                want = list(range(min(d, ell) + 1)) + [ell] * (ell > d)
                assert got == want, (k, d, ell)
                assert len(got) <= d + 2

    def test_budget_refusal_before_any_f_call_or_table(self, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        calls = []
        real_table = identities.root_count_table
        monkeypatch.setattr(identities, "root_count_table",
                            lambda ell, d: calls.append(ell)
                            or real_table(ell, d))

        def f(w, ell):
            calls.append(w)
            return 1

        with pytest.raises(BudgetError, match=(
                "residue average enumeration: requested size 10218313 "
                "exceeds budget 10000000")):
            multiplicative_average(by_root_count(f), 217, 2)
        assert calls == []


class TestSquaredFactorSum:
    def test_examples(self):
        pair = squared_factor_sum(2, 2)
        assert pair.enumerated == pair.closed_form == 5
        pair = squared_factor_sum(1, 2)
        assert pair.enumerated == pair.closed_form == 1
        pair = squared_factor_sum(15, 2)
        assert pair.closed_form == 13 * 41
        assert pair.enumerated == 533

    def test_sides_agree_up_to_30(self):
        for k in SQUAREFREE_30:
            pair = squared_factor_sum(k, 2)
            assert pair.enumerated == pair.closed_form, k

    def test_modulus_refusal_text(self):
        with pytest.raises(ValueError,
                           match="^modulus must be squarefree, got 12$"):
            squared_factor_sum(12, 2)

    def test_degree_one_fractional_closed_form(self):
        pair = squared_factor_sum(2, 1)
        assert pair.closed_form == Fraction(2 * 2 * 2 - 2 * 2 + 1, 2)
        assert pair.enumerated == pair.closed_form
