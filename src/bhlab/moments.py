"""Prime-counting sums over polynomial values and the second-moment experiment.

Scalar operations (psi, psi_abs, theta, negative_part) work on a single
polynomial.  The family-level accumulators (second_moment, nondiagonal_term)
run vectorized over fixed-size chunks of the traversal with a
deterministic merge order, optionally fanned out over threads.  Within a
chunk the polynomials that share a head (c1, ..., cd) differ only in c0, so
P(m) = Q(m) + c0 with Q evaluated once per head.  An exhaustive chunk is an
index range, not decoded rows: a row's value at m is linear in the
base-(2H + 1) digits of its index, so only the heads and each box's first
row are decoded, and for each m the Lambda terms of a box of rows (whole
lower digits, a run of the next) are one strided view of a Lambda table
extended below 0; the views are summed over m in the order numpy sums a
row, in lanes of one scratch per worker thread, and the singular series
comes from one factor per (head, c0 mod l).  Monte Carlo rows, small chunks
and the compact Lambda layer (runs that read less than their bound or pass
a table cap) are gathered per value in fixed tiles.  Memory does not grow
with x.
"""

import bisect
import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import budgets
from .arith import (VON_MANGOLDT_LIMIT, CompactLambda, check_lambda_table,
                    euler_phi, is_prime_u64, primes_below, raise_past_limit,
                    von_mangoldt, von_mangoldt_table)
from .poly import (IntPolynomial, chunk_ranges, coefficient_chunks, eval_poly,
                   exhaustive_rows, residue_key, root_count_table, value_bound)


# ---------------------------------------------------------------------------
# scalar sums over one polynomial
# ---------------------------------------------------------------------------

def lambda_terms(P, x, which="nonzero", from_one=True):
    """Per-argument von Mangoldt terms of the m-sums, in ascending m.

    which selects the arguments kept: "positive" (P(m) > 0), "negative"
    (P(m) < 0, evaluated at -P(m)), "nonzero" (|P(m)|), or "prime" (P(m)
    prime, whose term is log P(m)).  from_one picks the range 1 <= m <= x;
    from_one=False starts at m = 2, the literal range of the absolute-value
    sum.  More than DEFAULT_SCALAR_BUDGET arguments are refused before the
    2^63 limit is looked for.
    """
    return list(_terms(P, x, which, from_one))


def _terms(P, x, which, from_one=True):
    """lambda_terms as a generator, so the exact fsum of a scalar sum holds
    no list; its checks run at the first next(), before any term."""
    if which not in ("positive", "negative", "nonzero", "prime"):
        raise ValueError(f"unknown term selector {which!r}")
    start = 1 if from_one else 2
    budgets.check("scalar sum arguments m <= x", int(x) - start + 1,
                  budgets.DEFAULT_SCALAR_BUDGET)
    if value_bound(P.degree, P.height, x) >= VON_MANGOLDT_LIMIT:
        _refuse_past_limit(P, int(x), which, start)
    for m in range(start, int(x) + 1):
        v = eval_poly(P, m)
        if which == "positive" and v > 0:
            yield von_mangoldt(v)
        elif which == "negative" and v < 0:
            yield von_mangoldt(-v)
        elif which == "nonzero" and v != 0:
            yield von_mangoldt(abs(v))
        elif which == "prime" and v > 1 and is_prime_u64(v):
            yield math.log(v)


def _refuse_past_limit(P, x, which, start):
    """Raise the ValueError that lambda_terms would meet at its first
    argument at or past 2^63, before any Lambda is evaluated.

    |P(m)| <= B(m) = sum |c_j| m^j, which grows with m, so the scan starts
    at the first m where B(m) reaches 2^63, found by bisection.
    """
    bound = IntPolynomial(tuple(abs(c) for c in P.coeffs))
    first = bisect.bisect_left(range(start, x + 1), VON_MANGOLDT_LIMIT,
                               key=bound)
    for m in range(start + first, x + 1):
        v = eval_poly(P, m)
        arg = {"negative": -v, "nonzero": abs(v)}.get(which, v)
        if arg >= VON_MANGOLDT_LIMIT:
            raise_past_limit(arg, primality=which == "prime")


def psi(P, x):
    """Sum of Lambda(P(n)) over 1 <= n <= x with P(n) > 0."""
    return math.fsum(_terms(P, x, "positive"))


def psi_abs(P, x, from_one=False):
    """Sum of Lambda(|P(m)|) over the range with P(m) != 0.

    The default range is 1 < m <= x (the literal displayed one); pass
    from_one=True for the 1 <= m <= x variant.
    """
    return math.fsum(_terms(P, x, "nonzero", from_one))


def negative_part(P, x):
    """Sum of Lambda(-P(m)) over 1 <= m <= x with P(m) < 0."""
    return math.fsum(_terms(P, x, "negative"))


def theta(P, x):
    """Sum of log P(n) over 1 <= n <= x with P(n) prime."""
    return math.fsum(_terms(P, x, "prime"))


# ---------------------------------------------------------------------------
# primes in arithmetic progressions
# ---------------------------------------------------------------------------

def ap_error(X, q, b, table=None):
    """Error of the prime-power count in the progression b mod q up to X.

    Sum of Lambda(n) over 0 < n <= X with n = b mod q, minus X/phi(q) when
    gcd(q, b) = 1 (for q = 1 the single class b = 0 counts as the unit).
    """
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    X = int(X)
    if table is None:
        budgets.check("progression error sieve", X,
                      budgets.DEFAULT_PROGRESSION_BUDGET)
        table = von_mangoldt_table(X)
    check_lambda_table(table, X)
    start = b % q
    if start == 0:
        start = q
    total = math.fsum(table[start : X + 1 : q].tolist())
    if math.gcd(q, b) == 1:
        total -= X / euler_phi(q)
    return total


def bv_average(X, Q, table=None):
    """Sum over q <= Q of the worst progression error max_{Y<=X} max_b |E|.

    The inner maximum runs over integer Y <= X and unit classes b mod q of
    E(Y) = psi(Y; q, b) - Y/phi(q).  Only the support of Lambda is read: per
    q its points are sorted by class into zero-padded rows, one cumsum each.
    E jumps at prime powers and falls in between, so |E| peaks at one of
    four kinds of point: a prime power n of a unit class, the point n - 1
    before it, the class's tail at X, and its first member b when b is not
    a prime power; that last one, b/phi(q), never exceeds the point before
    the class's first prime power or, with none, its tail, so it is not
    evaluated.  The maximum equals a scan of every member bit for bit:
    np.cumsum adds left to right and adding 0.0 changes nothing, and with a
    fixed sum C the float C - n/phi(q) is monotone in n.
    """
    if X < 1 or Q < 1:
        raise ValueError("X and Q must be >= 1")
    X, Q = int(X), int(Q)
    if Q > math.isqrt(X) + 1:  # the range of the statement, not a budget
        raise ValueError(f"Q must be <= isqrt(X) + 1 = {math.isqrt(X) + 1}, "
                         f"got {Q}")
    if table is None:
        budgets.check("progression average sieve", X,
                      budgets.DEFAULT_PROGRESSION_BUDGET)
        table = von_mangoldt_table(X)
    check_lambda_table(table, X)
    support = np.flatnonzero(table[1 : X + 1]) + 1
    values = table[support]
    out = []
    for q in range(1, Q + 1):
        phi_q = euler_phi(q)
        unit = np.gcd(np.arange(q), q) == 1  # class 0 is the unit of q = 1
        keys = (support % q).astype(np.min_scalar_type(q))  # a radix sort
        order = np.argsort(keys, kind="stable")
        keys, ns = keys[order], support[order]
        counts = np.bincount(keys, minlength=q)
        width = int(counts.max()) + 1  # column 0 of each row stays 0.0
        row_at = np.arange(1, q * width, width) - (np.cumsum(counts) - counts)
        at = np.arange(ns.size) + row_at[keys]
        cs = np.zeros(q * width)
        cs[at] = values[order]
        cs = np.cumsum(cs.reshape(q, width), axis=1).ravel()
        keep = unit[keys]
        at, ns = at[keep], ns[keep]
        out.append(max(
            float(np.abs(cs[at] - ns / phi_q).max(initial=0.0)),
            float(np.abs(cs[at - 1] - (ns - 1) / phi_q).max(initial=0.0)),
            float(np.abs(cs[width - 1 :: width][unit] - X / phi_q).max())))
    return math.fsum(out)


# ---------------------------------------------------------------------------
# diagonal term
# ---------------------------------------------------------------------------

class DiagonalTerm(NamedTuple):
    value: float
    deviation: float  # (value - 2 H log H) / (H log log H), nan for tiny H


def diagonal_term(N, H, table=None):
    """Sum of Lambda(|c0 + N|)**2 over c0 in [-H, H] with c0 + N != 0.

    Returns the exact sum together with its deviation from the predicted
    main term 2 H log H, scaled by H log log H.
    """
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    top = abs(N) + H
    if table is None:
        budgets.check_table("diagonal term sieve", top)
        table = von_mangoldt_table(top)
    check_lambda_table(table, top)
    ns = np.abs(np.arange(N - H, N + H + 1, dtype=np.int64))
    vals = table[ns]  # index 0 (the excluded c0 = -N) holds Lambda-table 0
    # numpy's pairwise sum, not np.dot: a BLAS dot's bits depend on its
    # thread count
    value = float(np.square(vals, out=vals).sum())
    loglog = math.log(math.log(H)) if H > 3 else float("nan")
    deviation = (value - 2 * H * math.log(H)) / (H * loglog)
    return DiagonalTerm(value=value, deviation=deviation)


# ---------------------------------------------------------------------------
# family second moment
# ---------------------------------------------------------------------------

@dataclass
class MomentReport:
    """The second-moment decomposition over one family traversal.

    Raw fields are sums over the visited polynomials of, per polynomial P:
      diag     sum_m Lambda(|P(m)|)**2           (selected psi variant range)
      nondiag  psi_P**2 - diag
      cross    psi_P * S_P(z)
      ssq      S_P(z)**2
      direct   |psi_P - x * S_P(z)|**2
    In exhaustive mode  direct = diag + nondiag - 2x cross + x^2 ssq  up to
    accumulation tolerance.  Normalized views divide by 2^d H^(d+1) (the
    leading-order family count) or by the exact visit count.
    """

    params: dict
    visit_count: int
    family_size: int
    normalizer: int
    raw: dict
    mc_stderr: Optional[float] = None

    def normalized(self, key):
        """Paper-style average: raw sum scaled onto 2^d H^(d+1) polynomials."""
        scale = self.family_size / self.visit_count / self.normalizer
        return self.raw[key] * scale

    def mean(self, key):
        """Exact-cardinality mean (sample mean in Monte Carlo mode)."""
        return self.raw[key] / self.visit_count

    def decomposition_residual(self):
        """Relative defect of direct = diag + nondiag - 2x cross + x^2 ssq."""
        x = self.params["x"]
        combo = (self.raw["diag"] + self.raw["nondiag"]
                 - 2 * x * self.raw["cross"] + x * x * self.raw["ssq"])
        denom = max(abs(self.raw["direct"]), 1e-300)
        return abs(combo - self.raw["direct"]) / denom

    FIELDS = ("diag", "nondiag", "cross", "ssq", "direct")

    def to_dict(self):
        out = dict(self.params)
        out["visit_count"] = self.visit_count
        out["family_size"] = self.family_size
        out["normalizer"] = self.normalizer
        for key in self.FIELDS:
            out[f"raw_{key}"] = self.raw[key]
            out[f"norm_{key}"] = self.normalized(key)
            out[f"mean_{key}"] = self.mean(key)
        out["mc_stderr"] = self.mc_stderr
        return out


def _series_primes(d, z):
    """The primes below z, whose root-count tables the singular series reads.

    Refused before any table is built, and before sieving past the budget,
    when sum_{l<z} l**(d+1) exceeds the residue budget: a prime above
    isqrt(budget) alone exceeds it, so primes are sieved only up to that
    cap, and one prime in [cap, z), if there is one, settles the refusal.
    """
    cap = math.isqrt(budgets.budget(budgets.DEFAULT_RESIDUE_BUDGET)) + 1
    primes = primes_below(min(z, cap))
    requested = sum(ell ** (d + 1) for ell in primes)
    ell = cap
    while ell < z and not is_prime_u64(ell):
        ell += 1
    if ell < z:
        requested += ell ** (d + 1)
    budgets.check("root-count tables for the singular series", requested,
                  budgets.DEFAULT_RESIDUE_BUDGET)
    return primes


def _euler_factor_tables(d, z, primes=None):
    """Per-prime singular-series factor tables (l - w) / (l - 1.0) for all
    primes l below z, indexed like root_count_table: _series_primes(d, z),
    which refuses them over the residue budget, unless already given."""
    if primes is None:
        primes = _series_primes(d, z)
    return {ell: (ell - root_count_table(ell, d)) / (ell - 1.0)
            for ell in primes}


# Largest extended table of the family moment, in entries (256 MB).  Runs
# that read their bound in values or more take it, others the compact
# layer: reads = bound is where the two broke even in both modes (compact
# at 0.37 and 0.5 times the bound, table at 1.02 and 1).  Past the cap, d
# = 2, H = 50, x = 500 took 3.2-5.3 s and 44 MB scanned on 2 cores, and
# 1.4-1.6 s and 343 MB at a cap of 2**26.
_TABLE_CAP = 1 << 25

# Tile of the moment kernel, in entries.  An element-gather tile (the int64
# values and their Lambda terms) holds at most this many (row, m) entries,
# and a box of _box_sums at most this many rows, so one lane of its scratch
# takes 256 KB.  With the lane scratch kept per worker, no tile size is
# mapped afresh per chunk, and a larger tile bought nothing: on a 2-core
# machine, in two runs of 20 alternated rounds of fresh processes, tiles of
# 2**15 and 2**16 entries took moment --d 2 --H 100 --x 30 --z 30 0.507
# and 0.504, then 0.510 and 0.511 median CPU s, and --d 1 --H 500 --x 300
# --z 20 --threads 2 0.422 and 0.438, then 0.419 and 0.433; 2**16 won 11
# of 20 rounds of the pair both times.  At 2**19 the compact gather of d =
# 2, H = 20, x = 300 went 0.20 -> 0.34 s.  So the tile stays at 2**15.
# Chunks of fewer than _TILE // 16 rows take the element gather: their
# lanes are too short to pay for a few calls per m.
_TILE = 1 << 15


def _head_values(heads, m):
    """Q(m) = sum_{j>=1} c_j m**j for each head row (c1, ..., cd), by
    Horner's rule in int64 (exact below the value bound)."""
    acc = np.zeros((len(heads), len(m)), dtype=np.int64)
    for j in range(heads.shape[1] - 1, -1, -1):
        acc += heads[:, j : j + 1]
        acc *= m
    return acc


class _Extended(NamedTuple):
    """Lambda of the psi variant's argument at each v in [-pad, bound] as
    table[v + pad]: Lambda(v), and 0 for v <= 0 (psi); Lambda(|v|), and 0
    at v = 0 (abs)."""
    table: np.ndarray
    pad: int


def _extended_table(bound, psi_kind, pad):
    """The _Extended table the moment kernel reads over a bound, for values
    down to -pad (pad <= bound).

    For psi the pad is zeros; for abs it is the positive half mirrored.
    The one Lambda fill writes the positive half in place, so no second
    dense table is alive: 8 bytes per unit of bound plus pad.
    """
    layer = CompactLambda(bound)
    table = np.zeros(pad + bound + 1, dtype=np.float64)
    layer.unpack(table[pad:])
    if psi_kind != "psi":
        table[:pad] = table[2 * pad : pad : -1]  # v = -pad, ..., -1
    return _Extended(table, pad)


def _chunk_stats(start, chunk, spec, x, lam_table, factor_tables, psi_kind,
                 center, per_thread):
    """Per-chunk unnormalized sums of the five decomposition pieces.

    An exhaustive chunk is the index range [start, chunk) of chunk_ranges,
    chunk being its stop.  A head (c1, ..., cd) owns the base = 2H + 1
    consecutive rows c0 = -H, ..., H, and the chunk is the slice [offset,
    offset + n) of its heads' blocks, with offset = start mod base; heads
    may straddle chunks.  Only the heads are decoded, from the indices of
    their first rows.  The singular series is formed per (head, c0): for
    each prime l the head's row of the factor table is gathered at c0 mod
    l, so no per-row key is formed.  A Monte Carlo chunk is its rows
    (count, d + 1), drawn by coefficient_chunks: one-row heads, each with
    its own c0, whose series is gathered per row.

    The per-row m-sums psi and diag come from _box_sums, in the calling
    thread's scratch in the run's threading.local per_thread, where an
    exhaustive chunk has at least _TILE // 16 rows of an _Extended
    lam_table, else from the element-gather tiles of _lambda_tiles, summed
    per row by numpy.
    Either way every row's Lambda terms, m-sums and series product are
    those of the row-wise kernel, bit for bit.
    """
    m = np.arange(1, x + 1, dtype=np.int64)
    base = 2 * spec.H + 1 if spec.mode == "exhaustive" else None
    if base is None:
        rows = chunk
        n = len(rows)
        heads, c0s, offset = rows[:, 1:], rows[:, :1], 0
        series = np.ones(n, dtype=np.float64)
        for ell, factors in factor_tables.items():
            series *= factors[residue_key(rows.T, ell)]
    else:
        n, offset = chunk - start, start % base
        nheads = -(-(offset + n) // base)
        firsts = np.arange(start - offset, chunk, base, dtype=np.int64)
        heads = exhaustive_rows(spec, firsts)[:, 1:]
        c0s = np.arange(-(base // 2), base // 2 + 1, dtype=np.int64)
        series = np.ones((nheads, base), dtype=np.float64)
        for ell, factors in factor_tables.items():
            per_head = factors.reshape(-1, ell)[residue_key(heads.T, ell)]
            series *= per_head[:, c0s % ell]
        series = series.ravel()[offset : offset + n]
        c0s = np.broadcast_to(c0s, (nheads, base))
    if center != "bh":
        series = np.zeros(n, dtype=np.float64)

    sums = np.empty((2, n), dtype=np.float64)  # psi and diag per row
    if base and isinstance(lam_table, _Extended) and n >= _TILE // 16:
        _box_sums(start, chunk, spec, m, lam_table, psi_kind, sums,
                  per_thread)
    else:
        step = max(_TILE // max(x, 1), 1)  # rows per tile
        for a, lam in _lambda_tiles(heads, c0s, offset, n, m, step,
                                    lam_table, psi_kind):
            if psi_kind == "abs":
                lam[:, :1] = 0.0  # literal range starts at m = 2
            b = a + len(lam)
            sums[0, a:b] = lam.sum(axis=1)
            lam *= lam
            sums[1, a:b] = lam.sum(axis=1)
    psi_vec, diag_vec = sums

    dev = psi_vec - x * series
    direct_vec = dev * dev
    return {
        "diag": float(diag_vec.sum()),
        "nondiag": float((psi_vec * psi_vec - diag_vec).sum()),
        "cross": float((psi_vec * series).sum()),
        "ssq": float((series * series).sum()),
        "direct": float(direct_vec.sum()),
        "direct_sq": float((direct_vec * direct_vec).sum()),
        "count": n,
    }


def _lambda_tiles(heads, c0s, offset, n, m, step, lam_table, psi_kind):
    """(first row, Lambda terms) tiles of the chunk [offset, offset + n) of
    the heads' blocks, head i's block being the rows Q_i(m) + c0 for the
    base = c0s.shape[1] values c0 of c0s[i]: groups of whole heads of at
    most step rows, or c0 slices of at most step rows where a group is one
    head.  Q is evaluated per group, never for every head of the chunk.

    Each tile is a (row, m) element gather: from an _Extended table at the
    values shifted by its pad, from the compact layer at the values clamped
    at 0 (psi: its entry 0 is 0, which drops P(m) <= 0) or made absolute.
    """
    base, x = c0s.shape[1], len(m)
    group = max(step // base, 1)

    def read(q, c0):
        vals = (q[:, None, :] + c0[:, :, None]).reshape(
            len(q) * c0.shape[1], x)  # reshape(-1, x) fails at x = 0
        if isinstance(lam_table, _Extended):
            vals += lam_table.pad
            return lam_table.table[vals]
        if psi_kind == "psi":
            np.maximum(vals, 0, out=vals)
        else:
            np.abs(vals, out=vals)
        return lam_table[vals]

    for h in range(0, len(heads), group):
        q = _head_values(heads[h : h + group], m)
        lo = max(h * base, offset)
        hi = min((h + group) * base, offset + n)
        if len(q) > 1:
            yield lo - offset, read(q, c0s[h : h + len(q)])[
                lo - h * base : hi - h * base]
        else:
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                yield a - offset, read(q, c0s[h : h + 1,
                                              a - h * base : b - h * base])


def _boxes(lo, hi, base, d, cap):
    """(first row, level k, run) boxes that tile the exhaustive rows [lo,
    hi) of degree d in order.  A box of level k <= d starts where the k
    lowest base-(2H + 1) digits of the row index are 0, spans all of them
    and a run of the next digit that does not carry: run * base**k rows,
    at most cap."""
    top = d
    while base ** top > cap:
        top -= 1
    p = lo
    while p < hi:
        k = top
        while p % base ** k or hi - p < base ** k:
            k -= 1
        size = base ** k
        run = min((hi - p) // size, cap // size, base - p // size % base)
        yield p, k, run
        p += run * size


def _box_sums(start, stop, spec, m, lam_table, psi_kind, out, per_thread):
    """psi and diag of the exhaustive rows [start, stop) into out[0] and
    out[1], read from the _Extended lam_table one box of rows at a time.

    For a fixed m a row's value is linear in the digits of its index, so
    the values of a box of level k are P_first(m) + i_k m**k + ... + i_1 m
    + i_0 over the box's digits: one strided view of the table, of shape
    (run, base, ..., base) and strides (m**k, ..., m, 1) entries, where the
    box's first row is decoded from its index.  The abs variant reads its
    m = 1 term as the 0 at v = 0, with zero strides.  _lane_sum adds the
    views over m, then their squares, in the calling thread's
    _lane_scratch, so a box makes only views.
    """
    n, d, x = stop - start, spec.d, len(m)
    base = 2 * spec.H + 1
    table, pad = lam_table
    cap = min(_TILE, n)
    scratch = _lane_scratch(per_thread, _scratch_rows(x) + 1, cap)
    steps = 8 * m[:, None] ** np.arange(d, -1, -1)  # bytes per digit, per m
    if psi_kind == "abs":
        steps[:1] = 0
    steps = steps.tolist()
    boxes = list(_boxes(start, stop, base, d, cap))
    rows = exhaustive_rows(spec, np.array([p for p, _, _ in boxes],
                                          dtype=np.int64))
    firsts = (_head_values(rows[:, 1:], m) + (rows[:, :1] + pad)) * 8
    if psi_kind == "abs":
        firsts[:, :1] = 8 * pad
    for (p, k, run), first in zip(boxes, firsts.tolist()):
        shape, size = (run,) + (base,) * k, run * base ** k
        box_steps = [s[d - k :] for s in steps]
        lanes = scratch[:, :size].reshape((-1,) + shape)
        sq = lanes[-1]

        def term(t):
            return np.ndarray(shape, np.float64, table, first[t],
                              box_steps[t])

        sums = out[:, p - start : p - start + size].reshape((2,) + shape)
        _lane_sum(term, x, lanes[:-1], sums[0])
        _lane_sum(term, x, lanes[:-1], sums[1], sq)


def _lane_scratch(per_thread, rows, cols):
    """A (rows, cols) float64 scratch of the calling thread, held in the
    threading.local per_thread: the array the thread holds there when that
    has at least these rows and columns, else a new one, which it then
    holds.  second_moment makes one per_thread per run, and a run's chunks
    take the same rows and at most _TILE columns, so each worker allocates
    once per run."""
    held = getattr(per_thread, "scratch", None)
    if held is None or held.shape[0] < rows or held.shape[1] < cols:
        held = per_thread.scratch = np.empty((rows, cols), dtype=np.float64)
    return held[:rows, :cols]


def _scratch_rows(n):
    """Arrays of _lane_sum's scratch for n terms: 8 lanes, and one held
    half per nested halving after the first (numpy halves the last half
    until it is at most 128 long)."""
    rows = 7
    while n > 128:
        n -= n // 2 - n // 2 % 8
        rows += 1
    return max(rows, 8)


def _lane_sum(term, n, scratch, out, sq=None):
    """Elementwise sum over t < n of the arrays term(t), or of their
    squares formed in the buffer sq, into out, in the order numpy's sum
    adds a contiguous row of n entries, so each entry equals that row's
    sum(axis=-1) bit for bit.

    That order is pairwise: under 8 entries, left to right; up to 128,
    into 8 lanes of stride 8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 +
    r5) + (r6 + r7)), then the tail in order; past 128, the row is split
    at n // 2 less its remainder mod 8, and each half is summed the same
    way.  scratch holds _scratch_rows(n) arrays of term's shape, and out
    holds the first half of the outermost split.
    """
    lanes, held = list(scratch[:8]), [out, *scratch[8:]]

    def put(lane, t):
        if sq is None:
            np.copyto(lane, term(t))
        else:
            np.square(term(t), out=lane)

    def add(lane, t):
        v = term(t) if sq is None else np.square(term(t), out=sq)
        np.add(lane, v, out=lane)

    def pairwise(lo, n, depth):  # into lanes[0]
        if n > 128:
            half = n // 2 - n // 2 % 8
            pairwise(lo, half, depth + 1)
            np.copyto(held[depth], lanes[0])
            pairwise(lo + half, n - half, depth + 1)
            lanes[0] += held[depth]
            return
        if n == 0:
            lanes[0].fill(0.0)
        width, body = (8, n - n % 8) if n >= 8 else (min(n, 1), n)
        for t in range(lo, lo + width):
            put(lanes[t - lo], t)
        for t in range(lo + width, lo + body):
            add(lanes[(t - lo) % width], t)
        if width == 8:
            for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6),
                         (0, 4)):
                lanes[a] += lanes[b]
        for t in range(lo + body, lo + n):
            add(lanes[0], t)

    pairwise(0, n, 0)
    np.copyto(out, lanes[0])


def _ordered_map(fn, items, threads):
    """Yield fn(item) in input order, computed on min(threads, CPUs this
    process may use) workers; threads is an integer >= 1 (see second_moment).

    Unlike Executor.map, which submits every item at once, at most one call
    per worker is pending, so at most workers + 1 items are alive at a time.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threads = min(threads, cpus)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for item in items:
            if len(pending) == threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()


def check_moment_point(spec, x, z, center):
    """Refuse a point of the family moment before any table is built: x
    must be >= 0, z a finite cutoff above 1 and center 'bh' or 'none'
    (ValueError); the value bound must be within the family's Lambda limit
    (LimitError), the traversal and, with center 'bh', the root-count tables
    within their budgets (BudgetError).  Returns the singular series'
    primes below z, none with center 'none', so they are sieved once."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not z > 1:  # nan included
        raise ValueError(f"z must exceed 1, got {z}")
    if not math.isfinite(z):  # no root-count budget covers every prime
        raise ValueError(f"z must be finite, got {z}")
    if center not in ("bh", "none"):
        raise ValueError(f"center must be 'bh' or 'none', got {center!r}")
    budgets.check_table("von Mangoldt table for the family moment",
                        value_bound(spec.d, spec.H, int(x)),
                        budgets.MAX_FAMILY_TABLE)
    spec.check_budget()
    return _series_primes(spec.d, z) if center == "bh" else []


def psi_variant(use_abs=False, abs_from_one=False):
    """The psi variant of the family moment: "psi" (Lambda(P(m)) over P(m)
    > 0), "abs" (Lambda(|P(m)|) over 1 < m <= x) or "abs_from_one" (over
    1 <= m <= x).  abs_from_one without use_abs is refused."""
    if abs_from_one and not use_abs:
        raise ValueError("abs_from_one requires use_abs")
    return "abs_from_one" if abs_from_one else "abs" if use_abs else "psi"


def second_moment(spec, x, z, center="bh", use_abs=False, abs_from_one=False,
                  threads=1):
    """Family second moment of psi_P(x) - x * S_P(z), fully decomposed.

    Accumulates, per visited polynomial, the selected psi variant, the
    truncated singular series S_P(z), and the five decomposition pieces.
    A run whose reads, visits * x, reach its value bound takes one table
    extended below 0 when bound and pad fit in _TABLE_CAP entries
    (_extended_table: 8 bytes per entry, the pad H (1 + x + ... +
    x**(d-1)) zeros for psi and mirrored for abs); any other run takes the
    compact layer, built with those reads, so its log scan runs only past
    the cap.  Exhaustive chunks go to the workers as index ranges and read
    the table one strided view per m for each box of at most 2**15 rows,
    summed into lanes of one scratch per worker thread, kept for the run (8
    + about log2(x/128) arrays of at most 2**15 entries).  Monte Carlo
    chunks, drawn on the calling thread, exhaustive chunks under 2**11 rows
    and the compact layer gather per value, in tiles of at most 2**15
    values (one row once x exceeds that), with Q(m) = sum_{j>=1} c_j m**j
    evaluated once per head (c1, ..., cd).  So each worker's temporaries
    stay at a few MB.  The psi variant is psi_variant(use_abs,
    abs_from_one), which refuses abs_from_one without use_abs.
    Chunks run on `threads` threads (one per CPU at most) and merge in
    traversal order, so the result does not depend on `threads`; a count
    that is not an integer (by operator.index) or is below 1 is refused
    before any table is built.  Monte Carlo mode adds the standard error
    of the mean direct term from the sample variance; for a mean this
    equals the delete-one jackknife standard error.
    """
    psi_kind = psi_variant(use_abs, abs_from_one)
    if not hasattr(threads, "__index__") or operator.index(threads) < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    primes = check_moment_point(spec, x, z, center)
    x = int(x)
    bound = value_bound(spec.d, spec.H, x)
    factor_tables = _euler_factor_tables(spec.d, z, primes)
    # c_d >= 1, so P(m) >= m**d - H (1 + m + ... + m**(d-1)) >= -pad, m <= x
    pad = spec.H * sum(x ** j for j in range(spec.d))
    reads = spec.visit_count * x
    if reads >= bound and bound + pad <= _TABLE_CAP:
        lam_table = _extended_table(bound, psi_kind, pad)
    else:
        lam_table = CompactLambda(bound, reads)

    per_thread = threading.local()  # each worker's lane scratch, this run

    def work(item):
        start, chunk = item
        return _chunk_stats(start, chunk, spec, x, lam_table, factor_tables,
                            psi_kind, center, per_thread)

    items = (coefficient_chunks(spec) if spec.mode == "montecarlo"
             else chunk_ranges(spec))
    chunks = list(_ordered_map(work, items, threads))
    raw = {k: math.fsum(c[k] for c in chunks) for k in MomentReport.FIELDS}
    count = sum(c["count"] for c in chunks)
    mc_stderr = None
    if spec.mode == "montecarlo" and count > 1:
        mean = raw["direct"] / count
        ssq = math.fsum(c["direct_sq"] for c in chunks)
        var = max(ssq - count * mean * mean, 0.0) / (count - 1)
        mc_stderr = math.sqrt(var / count)

    params = {
        "d": spec.d, "H": spec.H, "x": x, "z": z, "center": center,
        "psi_variant": psi_kind, "mode": spec.mode,
        "samples": spec.sample_count if spec.mode == "montecarlo" else None,
        "seed": spec.seed if spec.mode == "montecarlo" else None,
        "threads": threads,
    }
    return MomentReport(params=params, visit_count=count,
                        family_size=spec.family_size,
                        normalizer=spec.normalizer, raw=raw,
                        mc_stderr=mc_stderr)


def nondiagonal_term(spec, x, threads=1):
    """Normalized off-diagonal double sum of Lambda(|P(m1)|) Lambda(|P(m2)|).

    Runs over 1 <= m1 != m2 <= x with zero values skipped, averaged with
    the 2^d H^(d+1) normalizer (scaled from the sample in Monte Carlo
    mode).
    """
    report = second_moment(spec, x, z=2, center="none", use_abs=True,
                           abs_from_one=True, threads=threads)
    return report.normalized("nondiag")
