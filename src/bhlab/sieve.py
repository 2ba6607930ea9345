"""Bonferroni-truncated sieve weights and Hooley-style sandwich bounds.

The weights are the Mobius function restricted to squarefree products of
fewer than a parity-matched number of primes below the cutoff w: an even
truncation level gives upper weights, an odd level lower weights.  They are
supported on divisors of the primorial of w and vanish from y upward.

So both sides of the sandwich depend on n only through its kernel
g = gcd(n, primorial of w), and the sandwich check runs over the kernels
up to n_max (the squarefree products of primes below w), never over every
n: its arrays have at most min(n_max, 2**r) entries for the r primes.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .arith import primes_below
from .budgets import check_table
from .eulerprod import euler_product
from .poly import local_root_counts

_MAX_SUPPORT_PRIMES = 24  # 2**24 subset enumerations; far beyond desk scale


@dataclass(frozen=True)
class SieveWeights:
    """Signed weight table k -> lambda_k on squarefree divisors of P(w)."""

    w: float
    y: float
    parity: str                 # "upper" or "lower"
    level: int                  # retained number-of-prime-factors bound
    table: dict = field(repr=False)

    @property
    def support(self):
        return sorted(self.table)

    def weight(self, k):
        return self.table.get(k, 0)

    def divisor_sum(self, n):
        """Sum of lambda_k over divisors k of n within the support."""
        return sum(lam for k, lam in self.table.items() if n % k == 0)


def truncation_level(w, y, parity):
    """Default retained-factor bound: largest parity-matched m with w**m <= y.

    Capping by w**m <= y guarantees every retained k < y.  When no even
    level fits, upper weights degrade to the bare normalization {1: 1};
    lower weights need at least level 1, i.e. y > w.
    """
    cap = math.floor(math.log(y) / math.log(max(w, 2.0)))
    if parity == "upper":
        return max(0, cap - (cap % 2))
    level = cap if cap % 2 else cap - 1
    if level < 1:
        raise ValueError(
            f"no odd truncation level fits w={w}, y={y}; need y > w")
    return level


def build_brun_weights(w, y, parity, level=None):
    """Bonferroni weights at prime cutoff w and support cutoff y.

    lambda_k = mu(k) for squarefree k composed of primes below w with at
    most `level` prime factors and k < y, else 0.  `level` defaults to the
    parity-matched bound from truncation_level and may be overridden with
    any integer of the right parity.
    """
    if parity not in ("upper", "lower"):
        raise ValueError(f"parity must be 'upper' or 'lower', got {parity!r}")
    if w < 2:
        raise ValueError(f"prime cutoff must be >= 2, got {w}")
    if y < 2:
        raise ValueError(f"support cutoff must be >= 2, got {y}")
    if not math.isfinite(w):
        raise ValueError(f"prime cutoff must be finite, got {w}")
    if not math.isfinite(y):
        raise ValueError(f"support cutoff must be finite, got {y}")
    if level is None:
        level = truncation_level(w, y, parity)
    elif level % 2 != (0 if parity == "upper" else 1):
        raise ValueError(f"level {level} has the wrong parity for {parity}")
    primes = primes_below(w)
    if len(primes) > _MAX_SUPPORT_PRIMES:
        raise ValueError(f"prime cutoff w={w} gives an unmanageable support")
    table = {1: 1}
    for r in range(1, min(level, len(primes)) + 1):
        sign = -1 if r % 2 else 1
        for combo in itertools.combinations(primes, r):
            k = math.prod(combo)
            if k < y:
                table[k] = sign
    return SieveWeights(w=w, y=y, parity=parity, level=level, table=table)


class SandwichReport(NamedTuple):
    checked: int
    violations: int
    first_violation: Optional[int]


def sandwich_check(lower, upper, n_max):
    """Verify the divisor-sum sandwich for every n <= n_max.

    Checks  sum_{k|n} lambda_k^-  <=  ind(n)  <=  sum_{k|n} lambda_k^+,
    where ind(n) is 1 when n has no prime factor below w and 0 otherwise.
    On divisors of the primorial of w (the only values the neutraliser
    bounds consume) ind(n) coincides with the indicator of n = 1.
    A violation is reported, not raised.  n_max > MAX_TABLE is refused, and
    so is a key k <= n_max that is not a squarefree product of primes
    below w; keys above n_max divide no n and are ignored.

    Over the sorted kernels g <= n_max, one pass per prime p (sums[g] +=
    sums[g/p] for p | g) gives each weight's divisor sums, and one Moebius
    pass per prime turns floor(n_max/g) into the count of n with kernel g,
    of which n = g is the first.  Work and memory are O(r |G|) for the r
    primes below w and the |G| <= min(n_max, 2**r) kernels.
    """
    if (lower.w, lower.y) != (upper.w, upper.y):
        raise ValueError("weight pair must share the same w and y")
    if lower.parity != "lower" or upper.parity != "upper":
        raise ValueError("pass (lower, upper) weights in that order")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_table("sandwich check arrays", n_max)
    primes = primes_below(lower.w)
    kernels = np.ones(1, dtype=np.int64)
    for p in primes:
        kernels = np.concatenate((kernels, p * kernels[kernels <= n_max // p]))
    kernels.sort()
    lo, hi = sums = np.zeros((2, len(kernels)), dtype=np.int64)
    for row, weights in zip(sums, (lower, upper)):
        kept = {k: lam for k, lam in weights.table.items() if k <= n_max}
        keys = np.array(list(kept), dtype=np.int64)
        at = np.minimum(np.searchsorted(kernels, keys), len(kernels) - 1)
        stray = keys[kernels[at] != keys]
        if len(stray):
            raise ValueError(f"weight key {stray[0]} is not a squarefree "
                             f"product of primes below w={weights.w}")
        row[at] = list(kept.values())
    count = n_max // kernels
    for p in primes:
        has = np.flatnonzero(kernels % p == 0)
        at = np.searchsorted(kernels, kernels[has] // p)
        sums[:, has] += sums[:, at]
        count[at] -= count[has]
    ind = kernels == 1
    bad = np.flatnonzero((lo > ind) | (hi < ind))
    return SandwichReport(
        checked=n_max,
        violations=int(count[bad].sum()),
        first_violation=int(kernels[bad[0]]) if len(bad) else None,
    )


def _weighted_sum(weights, density):
    """sum_k lambda_k prod_{l | k} density[l] over the support, by fsum.

    density maps each prime l below w, in ascending order, to its value.
    Support values are products of distinct primes below w, so the primes
    below w that divide k are exactly its prime factors; the scan stops
    once they are all divided out.
    """
    terms = []
    for k in weights.support:
        val, rest = 1.0, k
        for ell, value in density.items():
            if rest == 1:
                break
            if rest % ell == 0:
                val *= value
                rest //= ell
        terms.append(weights.table[k] * val)
    return math.fsum(terms)


def sieve_sum(weights, h):
    """Weighted sum of the density h over the support.

    h maps primes below w into [0, 1) and is extended multiplicatively to
    the squarefree support.  With the truncation inactive this telescopes
    to the product of (1 - h(l)) over primes below w.
    """
    density = {ell: h(ell) for ell in primes_below(weights.w)}
    for ell, hv in density.items():
        if not 0.0 <= hv < 1.0:
            raise ValueError(f"density out of [0,1) at prime {ell}: {hv}")
    return _weighted_sum(weights, density)


class NeutralisedBounds(NamedTuple):
    lower: float
    upper: float


def neutralised_bounds(P, z, lower, upper, squared=True):
    """Sandwich bounds for the truncated squarefree density product of P.

    For f(l) = (1 - w_P(l)/l)**2 (or the first power with squared=False)
    and its complement density fhat(l) = 1 - f(l), the weighted sums
    sum_k lambda_k^{+/-} prod_{l|k} fhat(l) bracket the direct product
    f(P(z)-primorial) = prod_{l<z} f(l).  The weights must be built with
    w = z.
    """
    if lower.w != z or upper.w != z:
        raise ValueError("weights must share their prime cutoff with z")
    if lower.y != upper.y or lower.parity != "lower" \
            or upper.parity != "upper":
        raise ValueError("pass (lower, upper) weights built with equal y")
    fhat = {}
    for ell, w in zip(primes_below(z), local_root_counts(P, z)):
        share = w / ell
        fhat[ell] = 2 * share - share ** 2 if squared else share
    # fhat(l) = 1 where w_P(l) = l, so the [0, 1) check of sieve_sum does
    # not apply here.
    return NeutralisedBounds(lower=_weighted_sum(lower, fhat),
                             upper=_weighted_sum(upper, fhat))


def density_product(w, h):
    """Direct product of (1 - h(l)) over primes below w (telescoping oracle)."""
    return euler_product(1 - np.longdouble(h(ell)) for ell in primes_below(w))


def truncated_density_product(P, z, squared=True):
    """prod_{l<z} (1 - w_P(l)/l)**(2 or 1), the quantity the bounds bracket."""
    factors = (1 - w / np.longdouble(ell)
               for ell, w in zip(primes_below(z), local_root_counts(P, z)))
    return euler_product(f * f if squared else f for f in factors)
