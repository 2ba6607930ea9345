"""Exact averages over residue-class polynomial families.

Everything here enumerates polynomials over Z/kZ of bounded degree and
verifies multiplicativity / closed forms by comparing a brute-force side
against a product side.  Left sides use exact rational arithmetic.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import budgets
from .arith import factorize, is_prime_u64, is_squarefree
from .poly import residue_key, root_count_table


def residue_root_count(coeffs, ell):
    """Root count mod ell of the residue polynomial with these coefficients."""
    if not is_prime_u64(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
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
    if not is_prime_u64(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    if j not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {j}")
    budgets.check("residue moment enumeration", ell ** (d + 1),
                  budgets.residue_budget())
    counts = root_count_table(ell, d)
    enumerated = int(np.sum(counts**j))
    closed = ell ** (d + 1) if j == 1 else ell**d * (2 * ell - 1)
    return OmegaMoment(enumerated=enumerated, closed_form=closed)


class AveragePair(NamedTuple):
    direct: object
    product: object


def _residue_family_sums(g, k, d, label):
    """Both sides of the sum over P0 in (Z/kZ)[t], deg <= d, of
    prod_{l | k} g(P0 mod l, l).

    g is tabulated once per prime l | k over the l**(d+1) residue tuples.
    The direct side enumerates every tuple mod k and reduces it mod each l
    before the lookup (no Chinese remainder shortcut); the product side
    multiplies the per-prime table sums.
    """
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    if not is_squarefree(k):
        raise ValueError(f"modulus must be squarefree, got {k}")
    budgets.check(label, k ** (d + 1), budgets.residue_budget())
    local = []  # (residues of 0..k-1 mod l, {residue tuple mod l: g})
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


def multiplicative_average(g, k, d):
    """Average of a per-prime local factor over residue polynomials mod k.

    G(k) = sum over P0 in (Z/kZ)[t], deg <= d, of prod_{l | k} g(P0 mod l, l),
    computed two ways: by direct enumeration mod k (no Chinese remainder
    shortcut) and as the product of the single-prime sums G(l).  Both are
    returned so the multiplicativity claim is genuinely tested.

    g takes (coeff tuple reduced mod l, l) and may return any numeric type
    (Fraction included); sums stay in that type.
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
    def local_factor(coeffs, ell):
        w = residue_root_count(coeffs, ell)
        return Fraction(2 * w, ell) - Fraction(w * w, ell * ell)

    enumerated, _ = _residue_family_sums(
        local_factor, k, d, "residue squared-factor enumeration")
    closed = Fraction(1)
    for ell, _ in factorize(k):
        closed *= (2 * Fraction(ell) ** d - 2 * Fraction(ell) ** (d - 1)
                   + Fraction(ell) ** (d - 2))
    return FactorSumPair(enumerated=Fraction(enumerated), closed_form=closed)
