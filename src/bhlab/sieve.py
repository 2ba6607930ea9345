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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .arith import primes_below
from .budgets import DEFAULT_SUPPORT_BUDGET, check, check_table
from .eulerprod import euler_product
from .poly import local_root_counts

# A fixed limit on the primes below w: 97 is the 25th prime, so the primes
# below min(w, 98) decide it without sieving past 97.
_MAX_SUPPORT_PRIMES = 24


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
    base = max(w, 2.0)
    cap = math.floor(math.log(y) / math.log(base))
    # the float quotient can miss an integer either way at exact powers:
    # settle base**cap <= y < base**(cap + 1) in exact rationals
    base, exact_y = Fraction(base), Fraction(y)
    while base ** (cap + 1) <= exact_y:
        cap += 1
    while base ** cap > exact_y:
        cap -= 1
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
    any integer of the right parity.  More than 24 primes below w (w > 97)
    are refused at a fixed limit, before any sieve past 97, and a support
    that may pass DEFAULT_SUPPORT_BUDGET keys is refused before it is built.
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
    primes = primes_below(min(w, 98))
    check_table(f"Brun weight primes below w={w}, counted up to 97",
                len(primes), _MAX_SUPPORT_PRIMES)
    top = math.ceil(y) - 1  # k < y
    # the support holds at most top keys, and at most the subsets of the
    # primes with up to `level` members
    subsets = sum(math.comb(len(primes), r)
                  for r in range(min(level, len(primes)) + 1))
    check(f"Brun weight support at w={w}", min(top, subsets),
          DEFAULT_SUPPORT_BUDGET)
    keys, counts = _squarefree_products(primes, top, level)
    table = dict(zip(keys.tolist(), (1 - 2 * (counts % 2)).tolist()))
    return SieveWeights(w=w, y=y, parity=parity, level=level, table=table)


def _squarefree_products(primes, top, most):
    """Products k <= top of at most `most` distinct primes, and their prime
    counts, in growth order: ascending by the bit mask of their primes, bit
    i for primes[i].  Keys are int64 below 2**63, Python ints past that."""
    big = min(top, math.prod(primes)) >= 2**63
    keys = np.ones(1, dtype=object if big else np.int64)
    counts = np.zeros(1, dtype=np.int64)
    for p in primes:
        grow = (counts < most) & (keys <= top // p)
        keys = np.concatenate((keys, p * keys[grow]))
        counts = np.concatenate((counts, counts[grow] + 1))
    return keys, counts


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
    kernels = np.sort(_squarefree_products(primes, n_max, len(primes))[0])
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
    One masked multiply per prime forms each key's product in that order.
    """
    keys = list(weights.table)
    big = max(keys, default=0) >= 2**63
    keys = np.array(keys, dtype=object if big else np.int64)
    val = np.ones(len(keys))
    for ell, value in density.items():
        val[keys % ell == 0] *= value
    return math.fsum(val * list(weights.table.values()))


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
