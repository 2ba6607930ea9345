"""Integer polynomials, root counting mod primes, and family traversal.

The family of degree-d polynomials with coefficients in [-H, H] and positive
leading coefficient is traversed either exhaustively (lexicographic
coefficient order, leading coefficient outermost) or by seeded Monte Carlo
draws from a counter-based generator, so any chunk of draws can be
regenerated independently.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import budgets
from .arith import is_prime_u64, primes_below, squarefree_primes

# Fixed traversal chunk geometry.  Monte Carlo chunks re-seed a Philox
# stream at counter offset chunk_index * _PHILOX_STRIDE, which no chunk can
# consume, so chunk j is reproducible without generating chunks 0..j-1.
CHUNK_SIZE = 1 << 16
_PHILOX_STRIDE = 1 << 32


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coeffs = (c0, c1, ..., cd)."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient vector")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def height(self):
        return max(abs(c) for c in self.coeffs)

    def __call__(self, m):
        return eval_poly(self, m)

    def in_family(self, H):
        """Membership in the degree-d, height-H family (positive lead)."""
        return self.height <= H and self.coeffs[-1] > 0

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{j}" if j else str(c))
        return " + ".join(terms) if terms else "0"


def eval_poly(P, m):
    """Exact P(m) by Horner evaluation (python ints, no overflow)."""
    acc = 0
    for c in reversed(P.coeffs):
        acc = acc * m + c
    return acc


def value_bound(d, H, x):
    """Bound on |P(m)| over the family for |m| <= x: (d+1) * H * x**d."""
    return (d + 1) * H * max(1, x) ** d


# Primes up to this bound run on int64 lanes: a product of two residues,
# at most (l - 1)**2, stays below 2**63.  Lanes of larger primes run the
# same pass on object arrays.
_INT64_PRIME_MAX = 3_037_000_499


def _times_t(a, t_n, ell):
    """a * t mod (f, ell) per lane, for a polynomial a of degree < n held as
    its n residues and t_n = t**n mod f."""
    shifted = np.zeros_like(a)
    shifted[:, 1:] = a[:, :-1]
    return (shifted + a[:, -1:] * t_n % ell) % ell


def _square(a, times_t, powers, ell):
    """a * a, times t in the lanes where times_t is set, mod (f, ell);
    powers[:, i] = t**(n+i) mod f.

    A plain convolution: row i adds a_i a, shifted by i + 1, into full,
    so full[:, 1:] holds a * a and full[:, :2n] holds a * a * t.  The high
    half is folded back as n multiply-adds of powers[:, i].  Every product
    of two residues is reduced before at most n of them are summed.
    """
    k, n = a.shape
    full = np.zeros((k, 2 * n + 1), dtype=a.dtype)
    for i in range(n):
        full[:, i + 1 : i + 1 + n] += a[:, i : i + 1] * a % ell
    full = np.where(times_t, full[:, : 2 * n], full[:, 1:]) % ell
    low = full[:, :n]
    for i in range(n):
        low += full[:, n + i : n + i + 1] * powers[:, i] % ell
    return low % ell


def _rank(rows, ell):
    """Rank over F_ell of each lane's n x n matrix, all lanes in step.  The
    pivot row p of column j clears it from each row r not yet a pivot as
    p[j] r - r[j] p, which needs no inverse."""
    k, n, _ = rows.shape
    lanes = np.arange(k)
    cell = ell[:, :, None]
    free = np.ones((k, n), dtype=bool)
    rank = np.zeros(k, dtype=np.int64)
    for j in range(n):
        column = rows[:, :, j]
        candidates = free & (column != 0)
        found = candidates.any(axis=1)
        rank += found
        if j == n - 1:
            break
        at = candidates.argmax(axis=1)
        free[lanes, at] &= ~found
        pivot = rows[lanes, at]
        cleared = (pivot[:, None, j : j + 1] * rows % cell
                   - column[:, :, None] * pivot[:, None, :] % cell) % cell
        rows = np.where((free & found[:, None])[:, :, None], cleared, rows)
    return rank


def _distinct_degree_counts(rows, ell):
    """deg gcd(f, t**ell - t) over F_ell per lane, for rows of residues of
    a polynomial f of degree exactly n >= 1 and ell a column of primes.

    f is replaced by the monic c**(n-1) f(t / c), c its leading
    coefficient, whose roots are c times those of f.  t**ell mod f is
    raised by binary powering over each lane's own exponent bits.  The
    gcd of f and g = t**ell - t has degree n - rank of the map a -> g a on
    F_ell[t]/(f), whose rows are g t**i mod f, i < n.
    """
    k, n = rows.shape[0], rows.shape[1] - 1
    f = np.empty_like(rows[:, :n])
    scale = np.ones_like(ell)
    for i in reversed(range(n)):
        f[:, i : i + 1] = rows[:, i : i + 1] * scale % ell
        scale = scale * rows[:, n:] % ell
    powers = np.empty((k, n, n), dtype=f.dtype)  # t**(n+i) mod f
    powers[:, 0] = -f % ell
    t_n = powers[:, 0]
    for i in range(1, n):
        powers[:, i] = _times_t(powers[:, i - 1], t_n, ell)
    flat = ell[:, 0]
    width = int(flat.max()).bit_length()
    bits = (flat[:, None] >> np.arange(width - 1, -1, -1)) & 1 == 1
    one = np.zeros_like(f)
    one[:, 0] = 1
    power = one
    for i in range(width):
        power = _square(power, bits[:, i : i + 1], powers, ell)
    matrix = np.empty_like(powers)
    matrix[:, 0] = (power - _times_t(one, t_n, ell)) % ell
    for i in range(1, n):
        matrix[:, i] = _times_t(matrix[:, i - 1], t_n, ell)
    return n - _rank(matrix, ell)


def _root_counts(coeffs, primes):
    """int64 array of w_P(l), for P with integer coefficients (c0, ..., cd)
    and each prime l of `primes`: the number of distinct roots of P mod l,
    l where P = 0 mod l, 0 where it is a nonzero constant.

    Every coefficient is reduced mod every prime exactly (Python ints).  A
    lane where P mod l has degree n < d, as where l divides the leading
    coefficient, runs as t**(d-n) P, whose roots are those of P and 0: one
    more where P(0) != 0 mod l.  So every lane runs one distinct-degree
    pass of degree d, on int64 arrays up to _INT64_PRIME_MAX and on
    object arrays above it.
    """
    ell = np.array(primes, dtype=object)
    residues = np.stack([c % ell for c in coeffs], axis=1)
    d = len(coeffs) - 1
    degrees = ((residues != 0) * np.arange(1, d + 2)).max(axis=1) - 1
    counts = np.where(degrees < 0, ell, 0).astype(np.int64)
    shift = d - degrees  # past d where P = 0 mod l: those lanes do not run
    src = np.arange(d + 1) - shift[:, None]
    rows = np.where(src >= 0, np.take_along_axis(residues, np.maximum(src, 0),
                                                 axis=1), 0)
    extra_root = (0 < shift) & (shift <= d) & (residues[:, 0] != 0)
    small = ell <= _INT64_PRIME_MAX
    for dtype, kind in ((np.int64, small), (object, ~small)):
        lanes = np.flatnonzero((degrees >= 0) & kind)
        if d and len(lanes):
            counts[lanes] = _distinct_degree_counts(
                rows[lanes].astype(dtype), ell[lanes, None].astype(dtype)
            ) - extra_root[lanes]
    return counts


def roots_count_mod_prime(P, ell):
    """Number of residues r mod ell with P(r) = 0, for a prime ell < 2**63.

    If P vanishes identically mod ell, every residue is a root and the
    count is ell.  One lane of the distinct-degree pass.
    """
    if not is_prime_u64(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    return int(_root_counts(P.coeffs, [ell])[0])


def _root_count_cost(d, z):
    """About pi(z) * d**2 * log2(z), the work of the distinct-degree pass
    over the primes below z, from z alone: pi(z) < 1.25506 z / ln z
    (Rosser and Schoenfeld)."""
    if z <= 2:
        return 0
    return (math.ceil(1.25506 * z / math.log(z)) * max(d, 1) ** 2
            * math.ceil(z).bit_length())


@lru_cache(maxsize=64)
def local_root_counts(P, z):
    """w_P(l) for every prime l < z, as a tuple in primes_below(z) order.

    One distinct-degree pass over all the primes at once.  The fixed sieve
    limit, then the root-count budget, are checked before the sieve runs.
    Cached, so every product and sum over the primes below z that takes
    the same P and z shares one set of root counts.
    """
    budgets.check_table("prime sieve", math.ceil(z))
    budgets.check("local root counts", _root_count_cost(P.degree, z),
                  budgets.DEFAULT_ROOT_COUNT_BUDGET)
    return tuple(_root_counts(P.coeffs, primes_below(z)).tolist())


def residue_key(coeffs, ell):
    """Mixed-radix index of coefficients (c0, ..., cd) reduced mod ell, c0
    least significant; entries are ints or int64 columns (vectorised).

    c mod ell is c - (c // ell) * ell: numpy's int64 floor division by a
    scalar takes libdivide on a contiguous column (0.05 ms per 65,536
    values), its % never does (0.58 ms)."""
    key = 0
    for c in reversed(coeffs):
        key = key * ell + (c - c // ell * ell)
    return key


def digit_columns(idx, base, n):
    """The n base-`base` digits of each index in the int64 array idx, all
    below base**n, least significant first, as int64 columns: the inverse
    of residue_key."""
    columns = []
    for _ in range(n - 1):
        quotient = idx // base  # np.divmod is slower than these three passes
        columns.append(idx - quotient * base)
        idx = quotient
    if n:
        columns.append(idx)
    return columns


@lru_cache(maxsize=64)
def root_count_table(ell, d):
    """Flat table T of length ell**(d+1) with T[key] = root count mod ell.

    key = residue_key((c0, ..., cd), ell).  For each head (c1, ..., cd) and
    residue r, exactly one c0 = -(c1 r + ... + cd r**d) mod ell makes r a
    root, so each r adds 1 at one distinct key per head.  ell must be
    prime, and the table is refused above the residue budget before it is
    allocated.  Cached, so read-only.
    """
    if not is_prime_u64(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    budgets.check("residue root-count table", ell ** (d + 1),
                  budgets.DEFAULT_RESIDUE_BUDGET)
    heads = digit_columns(np.arange(ell ** d, dtype=np.int64), ell, d)
    rows = np.arange(0, ell ** (d + 1), ell, dtype=np.int64)  # c0 = 0 keys
    counts = np.zeros(ell ** (d + 1), dtype=np.int64)
    for r in range(ell):
        q = 0
        for c in reversed(heads):
            q = (q + c) * r % ell
        counts[rows + -q % ell] += 1
    counts.flags.writeable = False
    return counts


def roots_count_mod_squarefree(P, k):
    """Root count mod squarefree k, as a product over primes dividing k."""
    out = 1
    for ell in squarefree_primes(k):
        out *= roots_count_mod_prime(P, ell)
        if out == 0:
            break
    return out


@dataclass(frozen=True)
class FamilySpec:
    """Traversal description for the degree-d height-H family.

    mode is "exhaustive" or "montecarlo"; Monte Carlo needs sample_count
    and a seed in [0, 2**128), the Philox key.  A traversal whose visit
    count (the family size, or the sample count) exceeds the family budget
    is refused.
    """

    d: int
    H: int
    mode: str = "exhaustive"
    sample_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        if self.H < 1:
            raise ValueError(f"height must be >= 1, got {self.H}")
        if self.mode not in ("exhaustive", "montecarlo"):
            raise ValueError(f"unknown traversal mode {self.mode!r}")
        if self.mode == "montecarlo" and self.sample_count < 1:
            raise ValueError("montecarlo mode needs sample_count >= 1")
        if self.mode == "montecarlo" and not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2^128), got {self.seed}")

    @property
    def family_size(self):
        """Exact cardinality H * (2H+1)**d of the family."""
        return self.H * (2 * self.H + 1) ** self.d

    @property
    def normalizer(self):
        """The leading-order count 2**d * H**(d+1) used by the averages."""
        return 2**self.d * self.H ** (self.d + 1)

    @property
    def visit_count(self):
        if self.mode == "exhaustive":
            return self.family_size
        return self.sample_count

    def check_budget(self):
        name = ("exhaustive family traversal" if self.mode == "exhaustive"
                else "Monte Carlo sample traversal")
        budgets.check(name, self.visit_count, budgets.DEFAULT_FAMILY_BUDGET)


def exhaustive_rows(spec, idx):
    """Coefficient rows of the exhaustive indices in the int64 array idx.

    Index order: c_d in 1..H outermost, then c_{d-1}, ..., c_0 innermost,
    each low coefficient running -H..H, so the base-(2H+1) digits of an
    index are (c0 + H, ..., c_{d-1} + H, c_d - 1).  Returns an int64 array
    of shape (len(idx), d+1) with columns (c0, ..., cd).
    """
    d, H = spec.d, spec.H
    out = np.column_stack(digit_columns(idx, 2 * H + 1, d + 1))
    out -= H  # whole-array passes: a strided out[:, :d] is slower
    out[:, d] += H + 1
    return out


def _draw_montecarlo(spec, chunk_index, count):
    """Seeded coefficient rows for one Monte Carlo chunk, column-major, so
    that each coefficient column, which residue_key reduces, is
    contiguous."""
    d, H = spec.d, spec.H
    bitgen = np.random.Philox(key=spec.seed)
    bitgen.advance(chunk_index * _PHILOX_STRIDE)
    rng = np.random.Generator(bitgen)
    out = np.empty((count, d + 1), dtype=np.int64, order="F")
    out[:, :d] = rng.integers(-H, H + 1, size=(count, d), dtype=np.int64)
    out[:, d] = rng.integers(1, H + 1, size=count, dtype=np.int64)
    return out


def chunk_ranges(spec, chunk_size=CHUNK_SIZE):
    """Yield the (start, stop) index range of each chunk of the traversal.

    The one chunk geometry, independent of consumer: chunk_size indices
    per chunk but the last.  The traversal's budget is checked at the
    first next(), before any range.
    """
    spec.check_budget()
    total = spec.visit_count
    for start in range(0, total, chunk_size):
        yield start, min(start + chunk_size, total)


def coefficient_chunks(spec, chunk_size=CHUNK_SIZE):
    """Yield (start_index, coeff_rows) over the whole traversal, one item
    per chunk_ranges range: the decoded exhaustive rows, or the chunk's
    Monte Carlo draws.  The backbone of the generic visitor; the moment
    kernel reads exhaustive chunks as ranges and Monte Carlo chunks from
    here."""
    for chunk_index, (start, stop) in enumerate(chunk_ranges(spec,
                                                             chunk_size)):
        if spec.mode == "exhaustive":
            idx = np.arange(start, stop, dtype=np.int64)
            yield start, exhaustive_rows(spec, idx)
        else:
            yield start, _draw_montecarlo(spec, chunk_index, stop - start)


def iter_family(spec):
    """Yield IntPolynomial values in traversal order."""
    for _, rows in coefficient_chunks(spec):
        for row in rows:
            yield IntPolynomial(tuple(int(c) for c in row))


def traverse_family(spec, visit, init):
    """Fold visit(acc, P) over the traversal, deterministically ordered."""
    acc = init
    for P in iter_family(spec):
        acc = visit(acc, P)
    return acc
