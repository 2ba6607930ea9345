"""Exact arithmetic primitives: primes, von Mangoldt, Mobius, totient.

Scalar functions (von_mangoldt, mobius, ...) are exact and work on single
integers; the *_table functions build numpy tables for bulk work.  All
logarithms are natural.
"""

import bisect
import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np

from .budgets import MAX_FAMILY_TABLE, check_table

# Deterministic Miller-Rabin witnesses: all twelve decide every
# n < psi_12 = 3.18 * 10^23 (OEIS A014233), so every 64-bit input.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The first k witnesses already decide every n < psi_k.  n below
# _MR_BOUNDS[i] (psi_k for k = 1..7 and 9; psi_8 = psi_7) takes the first
# _MR_COUNTS[i] of them, and n past the last bound all twelve.
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051)
_MR_COUNTS = (1, 2, 3, 4, 5, 6, 7, 9, 12)

# Documented range contract for von_mangoldt / is_prime_u64.  Python ints do
# not overflow, but the scalar primality path is specified for 64-bit inputs
# and callers must stay below this.
VON_MANGOLDT_LIMIT = 2**63

# Primes per math.log batch, in the CompactLambda scan and in unpack: the
# batch's Python floats are alive at once, so no pass holds one per prime.
_LOG_CHUNK = 1 << 12

# Odd numbers per segment of the prime sieve (a multiple of 8, so segments
# pack into whole bytes): 2 MB of flags covering 4M integers.
_SEGMENT = 1 << 21

# CompactLambda: the bit of odd n within its bitset byte, by n mod 16 (0 for
# even n), and the low bits of a value its patch filter is indexed by.
_ODD_BIT = np.array([(1 << (r >> 1)) * (r & 1) for r in range(16)],
                    dtype=np.uint8)
_FILTER_BITS = 16
_FILTER_MASK = (1 << _FILTER_BITS) - 1

# factorize and von_mangoldt trial-divide by the primes below _TRIAL_CAP: an
# n < 2**63 left with no prime factor below 2**10 is at most a sixth power.
_TRIAL_CAP = 1 << 10


def raise_past_limit(n, primality=False):
    """Raise the ValueError of an argument n outside the 2^63 range: that
    of is_prime_u64 (primality) or of von_mangoldt, the one home of both
    texts."""
    if primality:
        raise ValueError(f"primality test limited to [0, 2^63), got {n}")
    raise ValueError(f"von_mangoldt limited to n < 2^63, got {n}")


def is_prime_u64(n):
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**63."""
    if not 0 <= n < VON_MANGOLDT_LIMIT:
        raise_past_limit(n, primality=True)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    count = _MR_COUNTS[bisect.bisect_right(_MR_BOUNDS, n)]
    return _strong_probable_prime(n, _MR_WITNESSES[:count])


def _strong_probable_prime(n, bases):
    """Whether odd n > 2 passes the strong probable-prime test to every one
    of `bases`, none of which divides n."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def von_mangoldt(n):
    """Lambda(n): log(l) if n = l**a for a prime l, else 0.

    A prime n gives log(n).  Otherwise trial division by the primes below
    _TRIAL_CAP, the ones factorize uses: at the first that divides n, n is
    a power of it or Lambda(n) = 0.  Past them every prime factor of n is
    at least _TRIAL_CAP = 2**10, so n < 2**63 is at most a sixth power:
    only a = 2, 3 and 5 are tried, by the rounded float root, which below
    2**63 is within 2**-20 of an exact root and so rounds to it.  n = r**a
    is a power of l exactly when r is, so Lambda(n) = Lambda(r), and that
    recursion covers a = 4 and 6.
    """
    if n < 1:
        raise ValueError(f"von_mangoldt requires n >= 1, got {n}")
    if n >= VON_MANGOLDT_LIMIT:
        raise_past_limit(n)
    if n == 1:
        return 0.0
    if is_prime_u64(n):
        return math.log(n)
    for p in primes_below(_TRIAL_CAP):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    for a in (2, 3, 5):
        r = round(n ** (1 / a))
        if r**a == n:
            return von_mangoldt(r)
    return 0.0


def _odd_prime_flags(limit):
    """Yield (lo, flags) over the odd n <= limit, in ascending segments of at
    most _SEGMENT odd numbers from lo = 1: flags[i] is True exactly when
    lo + 2i is prime.

    The one sieve of Eratosthenes: odd numbers only, segmented, so its
    working memory is one segment and the odd primes up to isqrt(limit).
    """
    base = sieve_primes(math.isqrt(limit))[1:].tolist()  # the odd ones
    for lo in range(1, limit + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT - 2, limit)  # last integer covered
        flags = np.ones((hi - lo) // 2 + 1, dtype=bool)
        for p in base:
            first = p * p
            if first > hi:
                break
            if first < lo:  # the first odd multiple of p at or past lo
                first = -(-lo // p) * p
                first += p * (first % 2 == 0)
            flags[(first - lo) // 2 :: p] = False
        if lo == 1:
            flags[0] = False  # 1 is not prime
        yield lo, flags


def sieve_primes(limit):
    """Ascending int64 array of all primes <= limit (empty when limit < 2),
    by the odd-only segmented sieve; refused above MAX_TABLE before
    sieving."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    check_table("prime sieve", limit)
    return np.concatenate([[2]] + [np.flatnonzero(flags) * 2 + lo
                                   for lo, flags in _odd_prime_flags(limit)])


@lru_cache(maxsize=8)
def primes_below(z):
    """Primes strictly below the real cutoff z, ascending, as a tuple of ints.

    Cached: every product and sum over primes l < z shares this one sieve.
    """
    primes = sieve_primes(math.ceil(z))
    return tuple(primes[: np.searchsorted(primes, z, side="left")].tolist())


def _rho_factor(n):
    """A nontrivial factor of the composite n, which has no prime factor
    below _TRIAL_CAP: Pollard's rho on x -> x^2 + c mod n under Floyd's
    cycle finding, for c = 1, 2, ... until the gcd found is not n."""
    for c in itertools.count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


def factorize(n):
    """Prime factorization [(l, exponent), ...] of 1 <= n < 2**63.

    Trial division by the primes below _TRIAL_CAP; a cofactor left below
    _TRIAL_CAP**2 is prime, and a larger one that is not prime is split by
    Pollard rho.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= VON_MANGOLDT_LIMIT:
        raise ValueError(f"factorize limited to n < 2^63, got {n}")
    out = Counter()
    for p in primes_below(_TRIAL_CAP):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _TRIAL_CAP**2 or is_prime_u64(m):
            out[m] += 1
        else:
            q = _rho_factor(m)
            rest += [q, m // q]
    return sorted(out.items())


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


def squarefree_primes(k):
    """Ascending primes of a squarefree modulus k >= 1 ([] for k = 1)."""
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    factors = factorize(k)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"modulus must be squarefree, got {k}")
    return [p for p, _ in factors]


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


def _math_logs(ints):
    """math.log of each entry of an int64 array, as a float64 array."""
    return np.fromiter(map(math.log, ints.tolist()), dtype=np.float64,
                       count=len(ints))


def _log_batches(primes):
    """Yield (chunk, _math_logs(chunk)) over the int64 array primes, one
    chunk of _LOG_CHUNK entries at a time."""
    for i in range(0, len(primes), _LOG_CHUNK):
        chunk = primes[i : i + _LOG_CHUNK]
        yield chunk, _math_logs(chunk)


def von_mangoldt_table(limit):
    """numpy array L with L[n] = Lambda(n) for 0 <= n <= limit.

    CompactLambda(limit) unpacked: math.log on its bitset's odd primes, in
    _LOG_CHUNK batches, then its patch array on top, so every entry is
    math.log(p) at a power of p.  The layer is built without the log scan,
    which only a gather uses.  The prime sieve's fixed limit is checked
    first, and CompactLambda refuses a negative limit.
    """
    check_table("prime sieve", limit)
    layer = CompactLambda(limit)
    table = np.zeros(limit + 1, dtype=np.float64)
    layer.unpack(table)
    return table


class CompactLambda:
    """Lambda(n) for 0 <= n <= limit in about limit/16 bytes, read by
    L[values]: math.log(p) at each power of p, bit for bit.  The one Lambda
    fill; the dense von_mangoldt_table(limit) is this layer unpacked.

    An odd-only prime bitset (bit (n - 1) / 2 for odd n) marks the odd
    primes.  A sorted patch array holds every prime power p**a <= limit
    with a >= 2 and the powers of two (2 included).  A gather tests the
    bit, takes a log of the hits only, and patches by searchsorted the
    values whose low _FILTER_BITS bits match some patch value.

    The gather's log on the prime hits depends on reads, the number of
    values the caller expects to gather.  Below limit the gather takes
    math.log of its hits.  At or past it the build scans every prime below
    limit for the few where np.log differs from math.log (how many depends
    on numpy's build and the CPU) and adds them to the patch array, and
    the gather takes np.log of its hits.  Either form gives the same
    values.  A hit's math.log costs about what the scan pays per prime,
    and reads hit primes at about their density below limit, so the two
    forms break even near limit reads (measured at 1.05 to 1.6 times
    limit); the cut at limit leans to the scan.
    """

    def __init__(self, limit, reads=0):
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        check_table("compact von Mangoldt table", limit, MAX_FAMILY_TABLE)
        self.scanned = reads >= limit
        self.bits = np.zeros((limit >> 4) + 1, dtype=np.uint8)
        values, logs = [], []
        for lo, flags in _odd_prime_flags(limit):
            at = (lo - 1) // 16  # segments hold a multiple of 8 odd numbers
            packed = np.packbits(flags, bitorder="little")
            self.bits[at : at + len(packed)] = packed
            if self.scanned:
                for chunk, exact in _log_batches(2 * np.flatnonzero(flags)
                                                 + lo):
                    odd = np.log(chunk) != exact
                    values += chunk[odd].tolist()
                    logs += exact[odd].tolist()
        for p in sieve_primes(max(math.isqrt(limit), 2)).tolist():
            q = p * p if p > 2 else p
            while q <= limit:
                values.append(q)
                logs.append(math.log(p))
                q *= p
        order = np.argsort(values)
        # a sentinel past every value keeps each searchsorted index in range
        self.values = np.append(np.array(values, dtype=np.int64)[order],
                                np.iinfo(np.int64).max)
        self.logs = np.append(np.array(logs, dtype=np.float64)[order], 0.0)
        self.filter = np.zeros(1 << _FILTER_BITS, dtype=bool)
        self.filter[self.values[:-1] & _FILTER_MASK] = True
        self.nbytes = (self.bits.nbytes + self.values.nbytes
                       + self.logs.nbytes + self.filter.nbytes)
        self.limit = limit

    def unpack(self, out):
        """Write Lambda(n) to out[n] for 0 <= n <= limit, out being a
        zero-filled float64 array (or slice) of limit + 1 entries: math.log
        of each odd prime, _LOG_CHUNK primes at a time, then the patch
        array."""
        odd = 2 * np.flatnonzero(np.unpackbits(self.bits, bitorder="little")
                                 [: (self.limit + 1) // 2]) + 1
        for chunk, exact in _log_batches(odd):
            out[chunk] = exact
        out[self.values[:-1]] = self.logs[:-1]

    def __getitem__(self, values):
        """Lambda of each int64 entry of values, all in [0, limit]."""
        v = np.ravel(values)
        key = v >> 4  # one scratch array, freed before the output is made
        prime = self.bits.take(key)
        np.bitwise_and(v, 15, out=key)
        prime &= _ODD_BIT.take(key)
        np.bitwise_and(v, _FILTER_MASK, out=key)
        near = np.flatnonzero(self.filter.take(key))
        del key
        hit = np.flatnonzero(prime)
        out = np.zeros(v.shape, dtype=np.float64)
        out[hit] = (np.log if self.scanned else _math_logs)(v[hit])
        at = np.searchsorted(self.values, v[near])
        found = self.values[at] == v[near]
        out[near[found]] = self.logs[at[found]]
        return out.reshape(np.shape(values))


def phi_table(limit):
    """numpy array F with F[n] = phi(n) for 1 <= n <= limit (F[0] = 0)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    primes = sieve_primes(limit)  # refuses an oversize limit first
    table = np.arange(limit + 1, dtype=np.int64)
    table[0] = 0
    for p in primes.tolist():
        table[p::p] -= table[p::p] // p
    return table


def check_lambda_table(table, limit):
    """Refuse a Lambda table shorter than limit + 1: sums would skip terms."""
    if len(table) <= limit:
        raise ValueError(f"Lambda table must hold {limit + 1} entries "
                         f"(0..{limit}), got {len(table)}")


def chebyshev_psi(x, table=None):
    """Sum of Lambda(n) for n <= x."""
    if x < 1:
        return 0.0
    if table is None:
        table = von_mangoldt_table(int(x))
    check_lambda_table(table, int(x))
    return float(math.fsum(table[1 : int(x) + 1].tolist()))
