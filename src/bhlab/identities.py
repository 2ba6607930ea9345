"""Exact averages over residue-class polynomial families.

Everything here enumerates polynomials over Z/kZ of bounded degree and
verifies multiplicativity / closed forms by comparing a brute-force side
against a product side.  Left sides use exact rational arithmetic.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import budgets
from .arith import squarefree_primes
from .poly import digit_columns, residue_key, root_count_table

_TILE = 1 << 20  # tuples per tile of the direct enumeration


def residue_root_count(coeffs, ell):
    """Root count mod ell of the residue polynomial with these coefficients."""
    coeffs = tuple(coeffs)
    table = root_count_table(ell, len(coeffs) - 1)
    return int(table[residue_key(coeffs, ell)])


class OmegaMoment(NamedTuple):
    enumerated: int
    closed_form: int


def omega_moment(ell, d, j):
    """j-th moment of the root count over all residue polynomials mod ell.

    Brute-force sum of root_count**j over the ell**(d+1) residue
    polynomials of degree <= d, next to the closed forms ell**(d+1) (j=1)
    and ell**d * (2*ell - 1) (j=2).
    """
    if j not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {j}")
    counts = root_count_table(ell, d)
    enumerated = int(np.sum(counts**j))
    closed = ell ** (d + 1) if j == 1 else ell**d * (2 * ell - 1)
    return OmegaMoment(enumerated=enumerated, closed_form=closed)


class AveragePair(NamedTuple):
    direct: object
    product: object


class _ByRootCount:
    """g(coeffs, l) = f(w, l), w the root count mod l of the coefficients."""

    def __init__(self, f):
        self.f = f

    def __call__(self, coeffs, ell):
        return self.f(residue_root_count(coeffs, ell), ell)


def by_root_count(f):
    """The local factor g(coeffs, l) = f(w, l) with w the root count mod l.

    The result is an ordinary g for multiplicative_average, which tabulates
    it from root_count_table(l, d) alone, with no residue_root_count call:
    f is called once per root count that occurs (0..min(d, l), and l for
    the zero polynomial), at most d + 2 times per prime.
    """
    return _ByRootCount(f)


def _local_table(g, ell, d):
    """(values, index): the table of g over the ell**(d+1) residue tuples,
    in itertools.product order, is values[index].  A general g has one
    value per tuple and the identity index."""
    if not isinstance(g, _ByRootCount):
        tuples = itertools.product(range(ell), repeat=d + 1)
        return ([g(coeffs, ell) for coeffs in tuples],
                np.arange(ell ** (d + 1)))
    # root counts run over 0..min(d, l), and l > d only at the zero
    # polynomial, which index d + 1 stands for; the transpose turns the
    # residue_key order (c0 least significant) into itertools.product order
    counts = root_count_table(ell, d).reshape((ell,) * (d + 1)).T.ravel()
    values = [g.f(w, ell) for w in range(min(d, ell) + 1)]
    if ell > d:
        values.append(g.f(ell, ell))
    return values, np.minimum(counts, d + 1)


def _residue_family_sums(g, k, d, label):
    """Both sides of the sum over P0 in (Z/kZ)[t], deg <= d, of
    prod_{l | k} g(P0 mod l, l).

    g is tabulated once per prime l | k over the l**(d+1) residue tuples
    (from the root-count table when g comes from by_root_count).  Both
    sides are _direct_sum enumerations: the direct side over every tuple
    mod k (no Chinese remainder shortcut), the product side over the tuples
    mod each l, in itertools.product order, multiplied.
    """
    primes = squarefree_primes(k)
    budgets.check(label, k ** (d + 1), budgets.DEFAULT_RESIDUE_BUDGET)
    tables = [_local_table(g, ell, d) for ell in primes]
    product = math.prod(_direct_sum([table], [ell], ell, d)
                        for table, ell in zip(tables, primes))
    return _direct_sum(tables, primes, k, d), product


def _direct_sum(tables, primes, k, d):
    """sum over the k**(d+1) tuples of prod_l tables[l][tuple mod l].

    A tile is a block of leading digits (c0, ..., c_{d-m}) times every
    trailing block (c_{d-m+1}, ..., c_d), at most _TILE tuples in
    enumeration order; the trailing keys mod each l are formed once and
    each tuple's key is lead key * l**m + trailing key.  Rational tables
    are scaled to int64 numerators over a per-prime common denominator and
    summed exactly; when a partial sum could reach 2**63, or a value is
    not an int or a Fraction, the same tiles run on object arrays and are
    summed term by term in enumeration order.  Each (values, index) table
    is scaled on its values and then gathered by its index.
    """
    scaled = _scaled_numerators([values for values, _ in tables],
                                k ** (d + 1))
    if scaled is None:
        factors = [np.fromiter(values, dtype=object, count=len(values))
                   for values, _ in tables]
    else:
        factors, denominator, rational = scaled
    factors = [factor[index] for factor, (_, index) in zip(factors, tables)]
    m = 0
    while m < d and k ** (m + 1) <= _TILE:
        m += 1
    trailing = digit_columns(np.arange(k**m, dtype=np.int64), k, m)
    trailing_keys = [residue_key(trailing, ell) for ell in primes]
    leads = k ** (d + 1 - m)
    block = _TILE // k**m
    direct = 0
    for start in range(0, leads, block):
        lead = digit_columns(
            np.arange(start, min(start + block, leads), dtype=np.int64),
            k, d + 1 - m)
        term = np.ones((len(lead[0]), k**m),
                       dtype=object if scaled is None else np.int64)
        for ell, factor, tail in zip(primes, factors, trailing_keys):
            term *= factor[residue_key(lead, ell)[:, None] * ell**m + tail]
        if scaled is None:
            for value in term.ravel():
                direct += value
        else:
            direct += int(term.sum())
    if scaled is None or not rational:
        return direct
    return Fraction(direct, denominator)


def _scaled_numerators(tables, count):
    """(int64 numerator tables, prod of denominators, any Fraction seen) for
    int/Fraction tables whose direct sum stays below 2**63, else None."""
    numerators, denominator, bound, rational = [], 1, count, False
    for table in tables:
        types = set(map(type, table))
        if not types <= {int, bool, Fraction}:
            return None
        rational = rational or Fraction in types
        scale = math.lcm(*(v.denominator for v in table))
        nums = [v.numerator * (scale // v.denominator) for v in table]
        bound *= max(1, *map(abs, nums))
        if bound >= 2**63:
            return None
        numerators.append(np.array(nums, dtype=np.int64))
        denominator *= scale
    return numerators, denominator, rational


def multiplicative_average(g, k, d):
    """Average of a per-prime local factor over residue polynomials mod k.

    G(k) = sum over P0 in (Z/kZ)[t], deg <= d, of prod_{l | k} g(P0 mod l, l),
    computed two ways: by direct enumeration mod k (no Chinese remainder
    shortcut) and as the product of the single-prime sums G(l).  Both are
    returned so the multiplicativity claim is genuinely tested.

    g takes (coeff tuple reduced mod l, l) and may return any numeric type
    (Fraction included); sums stay in that type.  A g that depends on the
    coefficients only through their root count should come from
    by_root_count, which calls f per root count instead of per tuple.
    """
    direct, product = _residue_family_sums(
        g, k, d, "residue average enumeration")
    return AveragePair(direct=direct, product=product)


class FactorSumPair(NamedTuple):
    enumerated: Fraction
    closed_form: Fraction


def squared_factor_sum(k, d):
    """Both sides of the squared-density average over residue polynomials.

    Left: sum over P0 mod k of prod_{l|k} (2*w/l - w**2/l**2) with
    w = root count of P0 mod l, in exact rationals.  Right: the closed form
    prod_{l|k} (2*l**d - 2*l**(d-1) + l**(d-2)).
    """
    def local_factor(w, ell):
        return Fraction(2 * w, ell) - Fraction(w * w, ell * ell)

    enumerated, _ = _residue_family_sums(
        by_root_count(local_factor), k, d,
        "residue squared-factor enumeration")
    closed = Fraction(1)
    for ell in map(Fraction, squarefree_primes(k)):
        closed *= 2 * ell**d - 2 * ell ** (d - 1) + ell ** (d - 2)
    return FactorSumPair(enumerated=Fraction(enumerated), closed_form=closed)
