"""Truncated singular-series products and totient partial sums.

Products accumulate factor by factor in ascending prime order in extended
(80-bit) precision; sums use exact compensated summation (math.fsum).
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import VON_MANGOLDT_LIMIT, factorize, phi_table, primes_below
from .poly import eval_poly, local_root_counts

# Truncation standing in for the full prime product in reference values.
FULL_PRODUCT_Z = 10**5


def euler_product(factors):
    """Product of the factors in the order given, accumulated in extended
    precision, as a float."""
    acc = np.longdouble(1.0)
    for factor in factors:
        acc *= factor
    return float(acc)


def truncated_bh_constant(P, z):
    """Truncated singular series of P at cutoff z.

    Product over primes l < z of (1 - 1/l)^(-1) * (1 - w_P(l)/l), where
    w_P(l) counts roots of P mod l.  Zero when a prime l < z divides
    g = gcd(P(0), ..., P(d)): exactly then w_P(l) = l, as the roots 0..d
    cover every residue mod l <= d and force P = 0 mod l > d.  For g below
    2^63 that zero comes before any root count.
    """
    if z <= 1:
        raise ValueError(f"cutoff must exceed 1, got {z}")
    if not math.isfinite(z):
        raise ValueError(f"cutoff must be finite, got {z}")
    g = math.gcd(*(eval_poly(P, m) for m in range(P.degree + 1)))
    # the smallest prime factor of g, by factorize (no sieve): 2 for g = 0,
    # none for g = 1.  A g past factorize's range takes the root counts,
    # whose limit and budget refuse first, and w_P(l) = l gives the zero.
    if g < VON_MANGOLDT_LIMIT:
        smallest = 2 if g == 0 else factorize(g)[0][0] if g > 1 else z
        if smallest < z:
            return 0.0
    counts = local_root_counts(P, z)  # refused before primes_below(z) sieves
    return euler_product(np.longdouble(ell - w) / np.longdouble(ell - 1)
                         for ell, w in zip(primes_below(z), counts))


def reference_product(z):
    """Product over primes l < z of (1 + 1/(l(l-1))).

    The z -> infinity limit is zeta(2)zeta(3)/zeta(6); that identity is used
    only as a test oracle.
    """
    if z <= 1:
        raise ValueError(f"cutoff must exceed 1, got {z}")
    return euler_product(1 + 1 / (np.longdouble(ell) * (ell - 1))
                         for ell in primes_below(z))


@lru_cache(maxsize=1)
def full_reference_product():
    """reference_product at the standing full-product truncation."""
    return reference_product(FULL_PRODUCT_Z)


class TotientSums(NamedTuple):
    s1: float        # sum_{t<=x} t/phi(t)
    s2: float        # sum_{t<=x} t^2/phi(t)
    s1_main: float   # predicted main term x * C
    s2_main: float   # predicted main term (x^2/2) * C


def totient_ratio_sums(x):
    """Partial sums of t/phi(t) and t^2/phi(t), with predicted main terms.

    The terms are exact float ratios of exact integers, combined with
    compensated summation; the predicted mains use the full-product
    surrogate constant C.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    phi = phi_table(x).astype(np.float64)
    t = np.arange(x + 1, dtype=np.float64)
    ratio = np.divide(t[1:], phi[1:])
    s1 = math.fsum(ratio.tolist())
    s2 = math.fsum((t[1:] * ratio).tolist())
    c = full_reference_product()
    return TotientSums(s1=s1, s2=s2, s1_main=x * c, s2_main=x * x / 2 * c)


def nondiagonal_phi_sum(x):
    """Double sum of (m2-m1)/phi(m2-m1) over 1 <= m1 < m2 <= x.

    Collapsed over the gap t = m2 - m1, which occurs x - t times:
    sum_{t<x} (x-t) * t/phi(t).  Returns 0 for x < 2.
    """
    if x < 2:
        return 0.0
    phi = phi_table(x - 1).astype(np.float64)
    t = np.arange(x, dtype=np.float64)
    terms = (x - t[1:]) * t[1:] / phi[1:]
    return math.fsum(terms.tolist())
