"""Exact arithmetic primitives: primes, von Mangoldt, Mobius, totient.

Scalar functions (von_mangoldt, mobius, ...) are exact and work on single
integers; the *_table functions build numpy tables for bulk work.  All
logarithms are natural.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10^24
# (in particular for all 64-bit inputs).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Documented range contract for von_mangoldt / is_prime_u64.  Python ints do
# not overflow, but the scalar primality path is specified for 64-bit inputs
# and callers must stay below this.
VON_MANGOLDT_LIMIT = 2**63


def is_prime_u64(n):
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**63."""
    if not 0 <= n < VON_MANGOLDT_LIMIT:
        raise ValueError(f"primality test limited to [0, 2^63), got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(n, a):
    """Largest r with r**a <= n, by binary search on integers."""
    if n < 0 or a < 1:
        raise ValueError("integer_root requires n >= 0 and a >= 1")
    if a == 1 or n < 2:
        return n
    lo, hi = 1, 1 << (n.bit_length() // a + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**a <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def von_mangoldt(n):
    """Lambda(n): log(l) if n = l**a for a prime l, else 0.

    No factoring: for each exponent a, take the exact integer a-th root and
    accept when it is prime and the power reconstructs n.
    """
    if n < 1:
        raise ValueError(f"von_mangoldt requires n >= 1, got {n}")
    if n >= VON_MANGOLDT_LIMIT:
        raise ValueError(f"von_mangoldt limited to n < 2^63, got {n}")
    if n == 1:
        return 0.0
    for a in range(1, n.bit_length()):
        r = integer_root(n, a)
        if r**a == n and is_prime_u64(r):
            return math.log(r)
    return 0.0


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, from a sieve of Eratosthenes."""

    limit: int
    primes: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.primes)

    def __iter__(self):
        return iter(int(p) for p in self.primes)

    def __contains__(self, n):
        i = int(np.searchsorted(self.primes, n))
        return i < len(self.primes) and int(self.primes[i]) == n

    def below(self, z):
        """Primes strictly below z, as python ints."""
        i = int(np.searchsorted(self.primes, z, side="left"))
        return [int(p) for p in self.primes[:i]]


def sieve_primes(limit):
    """PrimeTable of all primes <= limit (empty when limit < 2)."""
    if limit < 2:
        return PrimeTable(limit=limit, primes=np.array([], dtype=np.int64))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.nonzero(sieve)[0].astype(np.int64))


@lru_cache(maxsize=8)
def primes_below(z):
    """Primes strictly below the real cutoff z, ascending, as a tuple of ints.

    Cached: every product and sum over primes l < z shares this one sieve.
    """
    return tuple(sieve_primes(math.ceil(z)).below(z))


def factorize(n):
    """Prime factorization [(l, exponent), ...] by trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    # the trial divisors cover isqrt(n); the limit is a power of two, never
    # prime, so the primes below it are the primes up to it
    limit = 1 << 10
    while limit < math.isqrt(n):
        limit *= 2
    out = []
    for p in primes_below(limit):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n):
    """Mobius function, in {-1, 0, 1}."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n):
    """Euler totient."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def omega_distinct(n):
    """Number of distinct prime divisors."""
    if n < 1:
        raise ValueError(f"omega_distinct requires n >= 1, got {n}")
    return len(factorize(n))


def is_squarefree(n):
    return mobius(n) != 0


def primorial(w):
    """Product of all primes strictly below w, for real w > 1.

    Python integers do not overflow, so no width bound applies here; w is
    still capped to keep the backing sieve reasonable.
    """
    if w <= 1:
        raise ValueError(f"primorial requires w > 1, got {w}")
    if w > 10**7:
        raise ValueError(f"primorial cutoff too large for the sieve: {w}")
    return math.prod(primes_below(w))


def von_mangoldt_table(limit):
    """numpy array L with L[n] = Lambda(n) for 0 <= n <= limit.

    Sieve-based: one entry per prime power.  Cross-checked against the
    root-and-primality scalar path in the test suite.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    table = np.zeros(limit + 1, dtype=np.float64)
    for p in sieve_primes(limit).primes:
        p = int(p)
        logp = math.log(p)
        q = p
        while q <= limit:
            table[q] = logp
            q *= p
    return table


def phi_table(limit):
    """numpy array F with F[n] = phi(n) for 1 <= n <= limit (F[0] = 0)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    table = np.arange(limit + 1, dtype=np.int64)
    table[0] = 0
    for p in sieve_primes(limit).primes:
        p = int(p)
        table[p::p] -= table[p::p] // p
    return table


def chebyshev_psi(x, table=None):
    """Sum of Lambda(n) for n <= x."""
    if x < 1:
        return 0.0
    if table is None:
        table = von_mangoldt_table(int(x))
    return float(math.fsum(table[1 : int(x) + 1].tolist()))
