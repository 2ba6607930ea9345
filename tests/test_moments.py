import itertools
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bhlab.arith import (chebyshev_psi, euler_phi, is_prime_u64,
                         sieve_primes, von_mangoldt, von_mangoldt_table)
from bhlab import arith, moments, poly
from bhlab.budgets import DEFAULT_SCALAR_BUDGET, BudgetError
from bhlab.eulerprod import truncated_bh_constant
from bhlab.moments import (ap_error, bv_average, diagonal_term, lambda_terms,
                           negative_part, nondiagonal_term, psi, psi_abs,
                           second_moment, theta)
from bhlab.poly import (CHUNK_SIZE, FamilySpec, IntPolynomial, chunk_ranges,
                        coefficient_chunks, eval_poly, iter_family,
                        residue_key, root_count_table, value_bound)
from bhlab.cli import main as cli_main
from conftest import fresh_python, random_polynomial

LOG2, LOG3, LOG5, LOG7 = (math.log(p) for p in (2, 3, 5, 7))


class TestScalarSums:
    def test_psi_examples(self):
        assert psi(IntPolynomial((1, 0, 1)), 3) == pytest.approx(LOG2 + LOG5)
        assert psi(IntPolynomial((-3, 0, 1)), 3) == 0.0
        assert psi(IntPolynomial((1, 0, 1)), 0) == 0.0

    def test_psi_abs_ranges(self):
        P = IntPolynomial((-3, 0, 1))
        assert psi_abs(P, 3) == 0.0
        assert psi_abs(P, 3, from_one=True) == LOG2
        Q = IntPolynomial((1, 0, 1))
        assert psi_abs(Q, 3, from_one=True) == psi(Q, 3)
        assert psi_abs(Q, 3) == pytest.approx(psi(Q, 3) - LOG2, rel=1e-15)

    def test_zero_values_are_skipped(self):
        # P(1) = 0 contributes nothing in any variant
        P = IntPolynomial((-1, 0, 1))
        # values 0, 3, 8: the zero is dropped, Lambda(8) = log 2
        assert psi_abs(P, 3, from_one=True) == pytest.approx(LOG3 + LOG2)

    def test_theta_examples(self):
        assert theta(IntPolynomial((1, 0, 1)), 3) == pytest.approx(LOG2 + LOG5)
        assert theta(IntPolynomial((1, 0, 1)), 1) == LOG2
        assert theta(IntPolynomial((0, 2)), 5) == LOG2

    def test_negative_part_examples(self):
        assert negative_part(IntPolynomial((-3, 0, 1)), 3) == LOG2
        assert negative_part(IntPolynomial((1, 0, 1)), 10) == 0.0
        assert negative_part(IntPolynomial((-10, 0, 1)), 3) == LOG3

    def test_theta_below_psi_on_positive_ranges(self, rng):
        for _ in range(200):
            P = random_polynomial(rng, 2, 20, positive=True)
            assert psi(P, 20) - theta(P, 20) >= 0

    def test_transition_identity_random(self, rng):
        # psi_abs over 1 <= m is the positive and negative term multisets
        # merged; fsum is order-independent, so the identity is bitwise
        for _ in range(200):
            P = random_polynomial(rng, 2, 40)
            x = int(rng.integers(1, 50))
            merged = math.fsum(lambda_terms(P, x, "positive")
                               + lambda_terms(P, x, "negative"))
            assert psi_abs(P, x, from_one=True) == merged
            assert psi_abs(P, x, from_one=True) == pytest.approx(
                psi(P, x) + negative_part(P, x), rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_terms(IntPolynomial((1, 1)), 5, "sideways")


class TestApError:
    def test_examples(self):
        assert ap_error(10, 3, 1) == pytest.approx(LOG2 + LOG7 - 5)
        assert ap_error(10, 3, 0) == pytest.approx(2 * LOG3)
        table = von_mangoldt_table(10)
        assert ap_error(10, 1, 0) == pytest.approx(float(table.sum()) - 10)

    def test_residue_sum_identity(self, lam_table_1e6):
        # errors plus main terms over a full residue system recover psi(X)
        for X in (10, 100, 999):
            want = chebyshev_psi(X, table=lam_table_1e6)
            for q in (1, 2, 3, 4, 6, 10):
                total = math.fsum(
                    ap_error(X, q, b, table=lam_table_1e6)
                    for b in range(q))
                total += X  # the unit classes contribute phi(q) * X/phi(q)
                assert total == pytest.approx(want, rel=1e-12)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            ap_error(10**7, 3, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ap_error(0, 3, 1)
        with pytest.raises(ValueError):
            ap_error(10, 0, 1)


def naive_bv(X, Q, table):
    total = 0.0
    for q in range(1, Q + 1):
        from bhlab.arith import euler_phi
        phi_q = euler_phi(q)
        classes = [0] if q == 1 else [b for b in range(1, q)
                                      if math.gcd(b, q) == 1]
        worst = 0.0
        for b in classes:
            for Y in range(1, X + 1):
                s = sum(float(table[n]) for n in range(1, Y + 1)
                        if n % q == b % q)
                worst = max(worst, abs(s - Y / phi_q))
        total += worst
    return total


def dense_scan_bv(X, Q, table):
    """Reference: bv_average as a scan of every member of every unit class,
    one cumsum per class (the form before it read only the support)."""
    out = []
    for q in range(1, Q + 1):
        phi_q = euler_phi(q)
        worst = 0.0
        for b in (b for b in range(1, q + 1) if math.gcd(b, q) == 1):
            ns = np.arange(b, X + 1, q, dtype=np.int64)
            cs = np.cumsum(table[b : X + 1 : q])
            at_member = np.abs(cs - ns / phi_q)
            before = np.abs(np.concatenate(([0.0], cs[:-1])) - (ns - 1) / phi_q)
            if ns[0] == 1:
                before[0] = 0.0  # no Y >= 1 precedes the first member
            tail = abs(cs[-1] - X / phi_q)
            worst = max(worst, float(at_member.max()),
                        float(before.max()), tail)
        out.append(worst)
    return math.fsum(out)


class TestBvAverage:
    def test_single_modulus(self, lam_table_1e6):
        want = max(abs(chebyshev_psi(Y, table=lam_table_1e6) - Y)
                   for Y in range(1, 11))
        assert bv_average(10, 1) == pytest.approx(want, rel=1e-12)

    def test_naive_oracle(self, lam_table_1e6):
        got = bv_average(100, 3)
        want = naive_bv(100, 3, lam_table_1e6)
        assert got == pytest.approx(want, rel=1e-9)

    def test_naive_oracle_wider(self, lam_table_1e6):
        got = bv_average(60, 7)
        want = naive_bv(60, 7, lam_table_1e6)
        assert got == pytest.approx(want, rel=1e-9)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            bv_average(10**7, 3)

    @pytest.mark.parametrize("X,Q,limit", [(10**4, 40, 10**4),
                                           (5000, 30, 7000)])
    def test_equals_gathered_progressions(self, X, Q, limit):
        # reference: each progression gathered by index from the table
        table = von_mangoldt_table(limit)
        out = []
        for q in range(1, Q + 1):
            phi_q = euler_phi(q)
            worst = 0.0
            for b in [0] if q == 1 else [b for b in range(1, q)
                                         if math.gcd(b, q) == 1]:
                ns = np.arange(b if b >= 1 else q, X + 1, q, dtype=np.int64)
                cs = np.cumsum(table[ns])
                before = np.abs(np.concatenate(([0.0], cs[:-1]))
                                - (ns - 1) / phi_q)
                if ns[0] == 1:
                    before[0] = 0.0
                worst = max(worst, float(np.abs(cs - ns / phi_q).max()),
                            float(before.max()), abs(cs[-1] - X / phi_q))
            out.append(worst)
        assert bv_average(X, Q, table=table) == math.fsum(out)

    def test_equals_dense_scan(self, lam_table_1e6, rng):
        # X <= 10 has classes with no prime power; Q = isqrt(X) + 1 has
        # X < q^2; q = 1 is the one class 0
        cases = [(X, Q) for X in range(1, 11)
                 for Q in range(1, math.isqrt(X) + 2)]
        for X in rng.integers(11, 20000, size=12):
            top = math.isqrt(int(X)) + 1
            cases += [(int(X), Q) for Q in
                      {1, 2, int(rng.integers(1, top + 1)), top}]
        for X, Q in cases:
            assert bv_average(X, Q, table=lam_table_1e6) == dense_scan_bv(
                X, Q, lam_table_1e6), (X, Q)

    @pytest.mark.parametrize("X,Q", [(10, 4), (1000, 32), (4999, 71)])
    def test_reads_no_entry_past_X(self, X, Q):
        table = von_mangoldt_table(X)
        longer = np.concatenate((table, np.full(50, 7.0)))
        assert bv_average(X, Q, table=longer) == dense_scan_bv(X, Q, table)

    def test_traced_peak_is_support_scale(self, lam_table_1e6):
        # the scan of every member peaked at 45.8 MiB, the support form
        # at 7.6 MiB: 78,498 prime powers, not 10^6 entries
        tracemalloc.start()
        try:
            bv_average(10**6, 100, table=lam_table_1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_moduli_outside_the_range_are_bad_input(self):
        # Q <= isqrt(X) + 1 is the statement's range, not a budget
        with pytest.raises(ValueError, match="isqrt"):
            bv_average(100, 50)

    def test_budget_guards_the_sieve_not_a_callers_table(self, monkeypatch):
        table = von_mangoldt_table(5000)
        want = bv_average(5000, 30, table=table)
        monkeypatch.setenv("BHLAB_BUDGET", "4999")
        with pytest.raises(BudgetError, match="progression average sieve"):
            bv_average(5000, 30)
        assert bv_average(5000, 30, table=table) == want
        with pytest.raises(ValueError, match="isqrt"):  # the range first
            bv_average(5000, 72)


class TestShortLambdaTable:
    """A caller's Lambda table that stops short of a sum's range is refused
    before any sum, not read as if the missing entries were 0."""

    @pytest.mark.parametrize("call,need", [
        (lambda t: ap_error(1000, 3, 1, table=t), 1000),
        (lambda t: bv_average(1000, 10, table=t), 1000),
        (lambda t: diagonal_term(0, 500, table=t), 500),
        (lambda t: diagonal_term(-300, 200, table=t), 500),
    ], ids=["ap_error", "bv_average", "diagonal_term", "diagonal_term-N"])
    def test_refused(self, call, need):
        with pytest.raises(ValueError, match=(
                rf"^Lambda table must hold {need + 1} entries "
                rf"\(0\.\.{need}\), got 101$")):
            call(von_mangoldt_table(100))
        assert call(von_mangoldt_table(need)) == call(None)


class TestDiagonalTerm:
    def test_examples(self):
        got = diagonal_term(0, 3)
        assert got.value == pytest.approx(2 * LOG3**2 + 2 * LOG2**2)
        assert diagonal_term(0, 1).value == 0.0

    def test_excluded_center(self):
        # c0 = -N is skipped, never Lambda(0)
        got = diagonal_term(5, 5)
        want = math.fsum(
            von_mangoldt_table(10)[abs(5 + c0)] ** 2
            for c0 in range(-5, 6) if c0 != -5)
        assert got.value == pytest.approx(want)

    def test_trend_at_moderate_height(self):
        got = diagonal_term(0, 10**4)
        assert abs(got.deviation) <= 5

    def test_value_does_not_depend_on_blas_threads(self):
        # from 2H + 1 = 10001 values on, the bits of a BLAS dot product
        # depended on the OpenBLAS thread count
        code = ("from bhlab.moments import diagonal_term; "
                "print(diagonal_term(0, 6000).value.hex())")
        assert fresh_python(code, 1) == fresh_python(code, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            diagonal_term(0, 0)

    def test_table_limit_is_not_lifted_by_the_budget(self, monkeypatch):
        monkeypatch.setenv("BHLAB_BUDGET", str(10**12))
        with pytest.raises(BudgetError) as exc:
            diagonal_term(2 * 10**8, 1)
        assert str(exc.value) == (
            "diagonal term sieve: requested size 200000001 exceeds the fixed "
            "limit 200000000")


class TestSecondMoment:
    def test_hand_enumerated_family(self):
        # d=2, H=1, x=1: nine polynomials; P(1) in {-1..3} minus lead-0 rows
        rep = second_moment(FamilySpec(d=2, H=1), 1, 2, use_abs=True,
                            abs_from_one=True)
        want = 6 + 2 * (LOG2 - 1) ** 2 + (LOG3 - 1) ** 2
        assert rep.raw["direct"] == pytest.approx(want, rel=1e-12)
        assert rep.visit_count == 9

    def test_x_zero_collapses(self):
        rep = second_moment(FamilySpec(d=2, H=2), 0, 3)
        assert rep.raw["diag"] == rep.raw["nondiag"] == rep.raw["cross"] == 0
        assert rep.raw["direct"] == pytest.approx(0 * rep.raw["ssq"], abs=0)

    @pytest.mark.parametrize("use_abs,from_one", [
        (False, False), (True, False), (True, True)])
    def test_naive_loop_oracle(self, use_abs, from_one):
        spec = FamilySpec(d=2, H=3)
        x, z = 5, 5
        rep = second_moment(spec, x, z, use_abs=use_abs, abs_from_one=from_one)
        sums = dict.fromkeys(rep.FIELDS, 0.0)
        for P in iter_family(spec):
            if use_abs:
                terms = lambda_terms(P, x, "nonzero", from_one=from_one)
            else:
                terms = lambda_terms(P, x, "positive")
            psi_val = math.fsum(terms)
            series = truncated_bh_constant(P, z)
            sums["diag"] += sum(t * t for t in terms)
            sums["nondiag"] += psi_val**2 - sum(t * t for t in terms)
            sums["cross"] += psi_val * series
            sums["ssq"] += series**2
            sums["direct"] += (psi_val - x * series) ** 2
        for key in rep.FIELDS:
            assert rep.raw[key] == pytest.approx(sums[key], rel=1e-9), key

    def test_unknown_center_is_refused(self):
        with pytest.raises(ValueError, match="center must be 'bh' or "
                                             "'none', got 'bogus'"):
            second_moment(FamilySpec(d=2, H=2), 3, 3, center="bogus")

    @pytest.mark.parametrize("mode,samples", [("exhaustive", 0),
                                              ("montecarlo", 10**12)])
    def test_traversal_refused_before_any_table(self, monkeypatch, mode,
                                                samples):
        def build(*args):
            raise AssertionError("a table was built before the refusal")
        monkeypatch.setattr(moments, "_euler_factor_tables", build)
        monkeypatch.setattr(moments, "CompactLambda", build)
        spec = FamilySpec(d=3, H=10000, mode=mode, sample_count=samples,
                          seed=1)
        with pytest.raises(BudgetError, match="traversal"):
            second_moment(spec, 20, 20)

    @pytest.mark.parametrize("threads", [0, -4, 1.5])
    def test_thread_count_refused_before_any_table(self, monkeypatch,
                                                   threads):
        def build(*args):
            raise AssertionError("a table was built before the refusal")
        for name in ("_euler_factor_tables", "_extended_table",
                     "CompactLambda", "check_moment_point"):
            monkeypatch.setattr(moments, name, build)
        with pytest.raises(ValueError, match=(
                rf"^threads must be an integer >= 1, got {threads}$")):
            second_moment(FamilySpec(d=2, H=3), 3, 3, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 16])
    def test_thread_count_accepted_and_echoed(self, threads):
        spec = FamilySpec(d=2, H=3)
        rep = second_moment(spec, 3, 3, threads=threads)
        assert rep.params["threads"] == threads
        assert rep.raw == second_moment(spec, 3, 3).raw

    def test_decomposition_identity(self):
        rep = second_moment(FamilySpec(d=2, H=10), 5, 5)
        assert rep.decomposition_residual() <= 1e-9

    def test_normalizations(self):
        spec = FamilySpec(d=2, H=3)
        rep = second_moment(spec, 3, 3)
        assert rep.visit_count == spec.family_size == 3 * 7**2
        assert rep.normalizer == 4 * 3**3
        assert rep.normalized("direct") == pytest.approx(
            rep.raw["direct"] / rep.normalizer)
        assert rep.mean("direct") == pytest.approx(
            rep.raw["direct"] / rep.visit_count)
        row = rep.to_dict()
        assert row["raw_direct"] == rep.raw["direct"]
        assert row["mc_stderr"] is None

    def test_montecarlo_determinism(self):
        spec = FamilySpec(d=2, H=10**4, mode="montecarlo",
                          sample_count=2 * 10**4, seed=5)
        rep1 = second_moment(spec, 5, 5)
        rep2 = second_moment(spec, 5, 5)
        assert rep1.raw == rep2.raw
        assert rep1.mc_stderr == rep2.mc_stderr

    def test_montecarlo_tracks_exhaustive(self):
        x, z = 10, 10
        exact = second_moment(FamilySpec(d=2, H=50), x, z)
        spec = FamilySpec(d=2, H=50, mode="montecarlo",
                          sample_count=10**5, seed=3)
        mc = second_moment(spec, x, z)
        assert mc.mc_stderr is not None and mc.mc_stderr > 0
        gap = abs(mc.mean("direct") - exact.mean("direct"))
        assert gap <= 4 * mc.mc_stderr

    def test_threads_match_single(self):
        spec = FamilySpec(d=2, H=8)
        rep1 = second_moment(spec, 5, 5, threads=1)
        rep2 = second_moment(spec, 5, 5, threads=2)
        assert rep1.raw == rep2.raw

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            second_moment(FamilySpec(d=3, H=100), 10**4, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            second_moment(FamilySpec(d=2, H=2), -1, 5)
        with pytest.raises(ValueError):
            second_moment(FamilySpec(d=2, H=2), 5, 1)
        with pytest.raises(ValueError, match="z must be finite, got inf"):
            second_moment(FamilySpec(d=2, H=2), 5, math.inf)


class TestChunkMerge:
    @pytest.mark.parametrize("spec", [
        FamilySpec(d=2, H=40),
        FamilySpec(d=2, H=1000, mode="montecarlo",
                   sample_count=3 * CHUNK_SIZE + 7, seed=11),
    ], ids=["exhaustive", "montecarlo"])
    def test_thread_counts_agree_on_many_chunks(self, spec):
        assert spec.visit_count > 2 * CHUNK_SIZE  # at least three chunks
        reps = [second_moment(spec, 3, 5, threads=t) for t in (1, 2, 3)]
        assert reps[0].raw == reps[1].raw == reps[2].raw
        assert reps[0].mc_stderr == reps[1].mc_stderr == reps[2].mc_stderr

    @staticmethod
    def _peak_in_flight(monkeypatch, threads):
        """The most chunk ranges made and not yet reduced at once in a run
        of second_moment on `threads` threads with slow workers, whose
        result is checked against the one-thread run."""
        real_chunks = moments.chunk_ranges
        real_stats = moments._chunk_stats
        lock = threading.Lock()
        seen = {"made": 0, "done": 0, "peak": 0}

        def chunks(spec):
            for item in real_chunks(spec, chunk_size=64):
                with lock:
                    seen["made"] += 1
                    seen["peak"] = max(seen["peak"],
                                       seen["made"] - seen["done"])
                yield item

        def stats(*args):
            time.sleep(0.002)  # slower workers than producer
            out = real_stats(*args)
            with lock:
                seen["done"] += 1
            return out

        monkeypatch.setattr(moments, "chunk_ranges", chunks)
        monkeypatch.setattr(moments, "_chunk_stats", stats)
        spec = FamilySpec(d=2, H=8)
        rep = second_moment(spec, 5, 5, threads=threads)
        assert seen["made"] == seen["done"] == math.ceil(spec.family_size / 64)
        assert rep.raw == second_moment(spec, 5, 5).raw
        return seen["peak"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_chunks_in_flight_are_bounded(self, monkeypatch, threads):
        assert self._peak_in_flight(monkeypatch, threads) <= threads + 1

    def test_threads_past_the_cpu_count_hold_no_more_chunks(self,
                                                            monkeypatch):
        # two CPUs: at most two workers, so at most three chunks alive
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert self._peak_in_flight(monkeypatch, 8) <= 3


def _extended_pad(d, H, x):
    """The pad second_moment gives the extended table: -min P(m) over the
    degree-d, height-H family and 1 <= m <= x is at most this."""
    return H * sum(x ** j for j in range(d))


def _rowwise_chunk_stats(rows, x, lam_table, omega_tables, psi_kind, center):
    """Reference kernel: full Horner on every row, masked Lambda gather."""
    n, width = rows.shape
    m = np.arange(1, x + 1, dtype=np.int64)
    vals = np.zeros((n, x), dtype=np.int64)
    for j in range(width - 1, -1, -1):
        vals = vals * m + rows[:, j : j + 1]
    lam = lam_table[np.abs(vals)]
    if psi_kind == "psi":
        lam = np.where(vals > 0, lam, 0.0)
    else:
        lam = np.where(vals != 0, lam, 0.0)
        if psi_kind == "abs":
            lam[:, :1] = 0.0
    psi_vec = lam.sum(axis=1)
    diag_vec = (lam * lam).sum(axis=1)

    if center == "bh":
        series = np.ones(n, dtype=np.float64)
        for ell, table in omega_tables.items():
            w = table[residue_key(rows.T, ell)]
            series *= (ell - w) / (ell - 1.0)
    else:
        series = np.zeros(n, dtype=np.float64)

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


class TestHeadSharedKernel:
    X, Z = 7, 12

    def _assert_chunks_equal_oracle(self, spec, chunk_size, base, x=X,
                                    chunks=None):
        """Every chunk's stats (the first `chunks` only, if given) against
        the row-wise oracle, for each psi variant and centering: by element
        gathers from the dense table and, for exhaustive chunks, by reads of
        the extended table (boxes, or element gathers for small chunks).
        An exhaustive chunk goes to the kernel as its index range."""
        bound = value_bound(spec.d, spec.H, x)
        lam = von_mangoldt_table(bound)
        factors = moments._euler_factor_tables(spec.d, self.Z)
        counts = {ell: root_count_table(ell, spec.d) for ell in factors}
        for kind in ("psi", "abs", "abs_from_one"):
            reads = [lam]
            if base is not None:
                reads.append(moments._extended_table(
                    bound, kind, _extended_pad(spec.d, spec.H, x)))
            for start, rows in itertools.islice(
                    coefficient_chunks(spec, chunk_size=chunk_size), chunks):
                for center in ("bh", "none"):
                    want = _rowwise_chunk_stats(rows, x, lam, counts, kind,
                                                center)
                    chunk = rows if base is None else start + len(rows)
                    for table in reads:
                        got = moments._chunk_stats(start, chunk, spec, x,
                                                   table, factors, kind,
                                                   center, threading.local())
                        assert got == want, (start, kind, center,
                                             type(table).__name__)

    # tile of 5 rows: heads of 17 rows straddle tiles as well as chunks
    @pytest.mark.parametrize("tile", [None, 5 * X], ids=["tile", "tiny-tile"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exhaustive_chunks_equal_rowwise_oracle(self, monkeypatch, d,
                                                    tile):
        if tile is not None:
            monkeypatch.setattr(moments, "_TILE", tile)
        spec = FamilySpec(d=d, H=8)  # base 17 does not divide the chunk size
        self._assert_chunks_equal_oracle(spec, 64, 17)

    # (chunk size, tile) against heads of 17 rows: tiles of two whole heads
    # with chunks starting mid-head, chunks shorter than a head, chunks of
    # whole heads only, and tiles of exactly one head
    @pytest.mark.parametrize("chunk_size,tile", [
        (64, 40 * X), (10, None), (10, 40 * X), (34, None), (34, 5 * X),
        (51, 17 * X), (64, 3 * X),
    ], ids=["two-heads-per-tile", "chunk-below-head",
            "chunk-below-head-two-head-tile", "chunk-on-head-boundary",
            "chunk-on-head-boundary-tiny-tile", "head-sized-tile",
            "three-row-tile"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_exhaustive_chunk_geometries(self, monkeypatch, d, chunk_size,
                                         tile):
        if tile is not None:
            monkeypatch.setattr(moments, "_TILE", tile)
        self._assert_chunks_equal_oracle(FamilySpec(d=d, H=8), chunk_size, 17)

    # Horner on a head far below 0: (-2, -2, -2) reaches -2 * (30 + 30**2
    # + 30**3) = -55860.  The family's own heads (c3 >= 1) reach Q(2) = -4,
    # below -H - 1 = -3, so rows read the table below 0.  At the default
    # tile these chunks of 64 rows take the element gather; with tiles of
    # 60 entries they take boxes, up to two 25-row planes each.  At x = 30
    # a row's m-sum fills 8 lanes and a tail, so a sum in any other order
    # would change it.
    @pytest.mark.parametrize("tile", [None, 2 * 30],
                             ids=["tile", "two-row-tile"])
    def test_heads_far_below_minus_h(self, monkeypatch, tile):
        if tile is not None:
            monkeypatch.setattr(moments, "_TILE", tile)
        heads = np.array([[-2, -2, -2]], dtype=np.int64)
        m = np.arange(1, 31, dtype=np.int64)
        assert moments._head_values(heads, m).min() == -55860
        self._assert_chunks_equal_oracle(FamilySpec(d=3, H=2), 64, 5, x=30)

    # At x = 1 the value bound (d + 1) H is reached (c0 = c1 = c2 = 8), so
    # the table ends at the largest value.  Heads of 17 rows are read in c0
    # slices of 5, 5, 5 and 2: the last box must end at c0 = H.
    def test_window_rows_end_inside_the_table(self, monkeypatch):
        monkeypatch.setattr(moments, "_TILE", 5)
        assert value_bound(2, 8, 1) == 8 + 8 + 8
        self._assert_chunks_equal_oracle(FamilySpec(d=2, H=8), 64, 17, x=1)

    # a tile below x holds one row, so every one-row head takes the
    # single-head slice path
    @pytest.mark.parametrize("tile", [None, 5 * X, X - 1],
                             ids=["tile", "tiny-tile", "below-x"])
    def test_montecarlo_chunk_equals_rowwise_oracle(self, monkeypatch, tile):
        if tile is not None:
            monkeypatch.setattr(moments, "_TILE", tile)
        spec = FamilySpec(d=3, H=1000, mode="montecarlo", sample_count=500,
                          seed=7)
        self._assert_chunks_equal_oracle(spec, CHUNK_SIZE, None)

    @staticmethod
    def _spy(monkeypatch, name):
        """The arguments of every call of moments.<name> (a generator's
        items, for _boxes), as made."""
        seen = []
        real = getattr(moments, name)
        if name == "_boxes":
            def spy(*args):
                for box in real(*args):
                    seen.append(box)
                    yield box
        else:
            def spy(*args):
                seen.append(args)
                return real(*args)
        monkeypatch.setattr(moments, name, spy)
        return seen

    # Past x = 7 the m-sums leave numpy's left-to-right branch: 8 and 9
    # fill the 8 lanes, 30 adds a tail, 128 is the longest unsplit row, and
    # 129 and 300 are halved.  Each chunk size of the geometries above is
    # read in boxes, since a tile of 16 chunks' rows routes full chunks to
    # them (the first 40 chunks for d >= 2, which cross planes).  d = 3
    # stops at x = 30: at x = 128 the oracle's dense table would hold
    # 4 * 8 * 128**3 = 6.7e7 entries (537 MB).
    @pytest.mark.parametrize("d,x", [(d, x) for d in (1, 2, 3)
                                     for x in (8, 9, 30, 128, 129, 300)
                                     if d < 3 or x <= 30])
    def test_boxes_equal_rowwise_oracle_past_eight_terms(self, monkeypatch,
                                                          d, x):
        boxes = self._spy(monkeypatch, "_boxes")
        for chunk_size in (64, 10, 34, 51):
            monkeypatch.setattr(moments, "_TILE", 16 * chunk_size)
            self._assert_chunks_equal_oracle(FamilySpec(d=d, H=8), chunk_size,
                                             17, x=x, chunks=40)
        assert {k for _, k, _ in boxes} == {0, 1}

    # d = 3, H = 2..4 with tiles of two cubes of base**3 rows: chunks of
    # base**3 + base**2 + base + 2 rows are read in boxes of every level,
    # whole cubes (3) and planes (2) of c0, c1 and c2 among them; the second
    # chunk starts mid-head.
    @pytest.mark.parametrize("H", [2, 3, 4])
    def test_boxes_span_planes(self, monkeypatch, H):
        base = 2 * H + 1
        monkeypatch.setattr(moments, "_TILE", 2 * base ** 3)
        boxes = self._spy(monkeypatch, "_boxes")
        self._assert_chunks_equal_oracle(
            FamilySpec(d=3, H=H), base ** 3 + base ** 2 + base + 2, base,
            x=30)
        assert {k for _, k, _ in boxes} == {0, 1, 2, 3}

    # tiles of 5 rows against heads of 17: each box is a c0 slice of one
    # head, at most 5 rows long, so c0 columns split across boxes
    def test_head_wider_than_a_lane(self, monkeypatch):
        monkeypatch.setattr(moments, "_TILE", 5)
        boxes = self._spy(monkeypatch, "_boxes")
        self._assert_chunks_equal_oracle(FamilySpec(d=2, H=8), 64, 17, x=30,
                                         chunks=40)
        assert {k for _, k, _ in boxes} == {0}
        assert {run for *_, run in boxes} == {1, 2, 3, 4, 5}

    # chunks under _TILE // 16 rows read the extended table by element
    # gathers: a whole family of 147 rows at the default tile, and the
    # 8-row last chunk of d = 2, H = 8 in chunks of 64 with a tile of 1024
    def test_small_chunks_take_the_element_gather(self, monkeypatch):
        boxed = self._spy(monkeypatch, "_box_sums")
        assert FamilySpec(d=2, H=3).visit_count < moments._TILE // 16
        self._assert_chunks_equal_oracle(FamilySpec(d=2, H=3), CHUNK_SIZE, 7,
                                         x=30)
        assert boxed == []
        monkeypatch.setattr(moments, "_TILE", 16 * 64)
        self._assert_chunks_equal_oracle(FamilySpec(d=2, H=8), 64, 17, x=9)
        assert {stop - start for start, stop, *_ in boxed} == {64}
        assert FamilySpec(d=2, H=8).visit_count % 64 == 8

    def test_threaded_exhaustive_memory_is_bounded(self):
        # the row-wise kernel peaks near 560 MB here: 65536 x 300 temporaries
        tracemalloc.start()
        try:
            second_moment(FamilySpec(d=1, H=200), 300, 20, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    # Small H, long x.  The first family's heads of 21 rows * 2e5 values
    # (34 MB) are cut into one-row tiles, and Q for all its 10 heads takes
    # 16 MB; the second's tiles of 74 rows hold 3 whole heads, and Q for
    # all its 210 heads takes 0.6 MiB.  The kernel with a per-row head
    # index peaked at 7.64 and 0.76 MiB with the same tiles (27.5 MiB at
    # its 2**20-entry tile on the first family); the bounds add 2.36 and
    # 0.24 MiB to those peaks.
    @pytest.mark.parametrize("d,H,x,tile,bound", [
        (1, 10, 200_000, 1 << 17, 10 * 2**20),
        (2, 10, 373, 74 * 373, 2**20),
    ], ids=["head-beyond-tile", "heads-per-tile"])
    def test_small_height_long_x_peak_is_tile_scale(self, monkeypatch, d, H,
                                                   x, tile, bound):
        monkeypatch.setattr(moments, "_TILE", tile)
        spec = FamilySpec(d=d, H=H)
        top = value_bound(d, H, x)
        factors = moments._euler_factor_tables(d, 10)
        (start, rows), = coefficient_chunks(spec)
        # element gathers from the dense table, then reads of the extended
        # table: element gathers for the first family (210 rows, under
        # _TILE // 16), boxes for the second (4410 rows)
        pad = _extended_pad(d, H, x)
        for lam in (von_mangoldt_table(top),
                    moments._extended_table(top, "psi", pad)):
            tracemalloc.start()
            try:
                moments._chunk_stats(start, start + len(rows), spec, x, lam,
                                     factors, "psi", "bh", threading.local())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, type(lam).__name__


class TestIndexRangeChunks:
    """Exhaustive chunks reach the kernel as index ranges: no coefficient
    row is decoded but the heads and each box's first row, and each worker
    keeps one lane scratch for the whole run."""

    # d = 2, H = 40: 262,440 rows in chunks of 65,536 = 809 heads of 81
    # rows and 7 more, so the second chunk starts mid-head; four chunks
    # take boxes, and the 296-row tail the element gather
    SPEC, X = FamilySpec(d=2, H=40), 5

    def test_geometry(self):
        base, ranges = 2 * self.SPEC.H + 1, list(chunk_ranges(self.SPEC))
        assert [stop - start for start, stop in ranges] == [CHUNK_SIZE] * 4 + [
            296]
        assert ranges[1][0] % base == 7
        assert 296 < moments._TILE // 16 <= CHUNK_SIZE

    def test_no_row_is_decoded(self, monkeypatch):
        sizes = []
        real = poly.exhaustive_rows

        def spy(spec, idx):
            sizes.append(len(idx))
            return real(spec, idx)

        monkeypatch.setattr(poly, "exhaustive_rows", spy)
        monkeypatch.setattr(moments, "exhaustive_rows", spy)
        second_moment(self.SPEC, self.X, 5)
        heads = -(-CHUNK_SIZE // (2 * self.SPEC.H + 1)) + 1
        assert sizes and max(sizes) <= heads
        assert sum(sizes) < self.SPEC.family_size // 50

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_lane_scratch_per_worker(self, monkeypatch, threads):
        held = []  # every array held after a call, kept alive so ids differ
        real = moments._lane_scratch

        def spy(per_thread, rows, cols):
            out = real(per_thread, rows, cols)
            held.append((threading.get_ident(), per_thread.scratch))
            return out

        monkeypatch.setattr(moments, "_lane_scratch", spy)
        second_moment(self.SPEC, self.X, 5, threads=threads)
        assert len(held) == 4  # one call per boxed chunk
        workers = {ident for ident, _ in held}
        arrays = {id(array): array for _, array in held}
        assert 1 <= len(workers) <= threads
        assert len(arrays) == len(workers)
        shape = (moments._scratch_rows(self.X) + 1, moments._TILE)
        assert {array.shape for array in arrays.values()} == {shape}

    def test_raw_equals_oracle_at_every_thread_count(self):
        bound = value_bound(self.SPEC.d, self.SPEC.H, self.X)
        lam = von_mangoldt_table(bound)
        factors = moments._euler_factor_tables(self.SPEC.d, 5)
        counts = {ell: root_count_table(ell, self.SPEC.d) for ell in factors}
        oracle = [_rowwise_chunk_stats(rows, self.X, lam, counts, "psi", "bh")
                  for _, rows in coefficient_chunks(self.SPEC)]
        want = {k: math.fsum(c[k] for c in oracle)
                for k in moments.MomentReport.FIELDS}
        for threads in (1, 2, 16):
            assert second_moment(self.SPEC, self.X, 5,
                                 threads=threads).raw == want, threads


class TestLaneSum:
    """_lane_sum adds arrays in the order numpy's sum adds a contiguous row,
    which the exhaustive kernel's m-sums rely on for bit-identical output.
    If a numpy release changes that order, this test fails."""

    @pytest.mark.parametrize("lengths", [
        range(301), [1000], [4096], [8191], [8192], [8193], [20000], [40000],
    ], ids=["0-300", "1000", "4096", "8191", "8192", "8193", "20000",
            "40000"])
    def test_equals_numpy_row_sum(self, lengths):
        rng = np.random.default_rng(len(lengths) + lengths[-1])
        rows = 16
        for n in lengths:
            # values spread over 1e-8 to 1e8, so the order shows in rounding
            terms = np.exp(rng.uniform(math.log(1e-8), math.log(1e8),
                                       size=(n, rows)))
            scratch = np.empty((moments._scratch_rows(n), rows))
            sums, squares = np.empty(rows), np.empty(rows)
            moments._lane_sum(terms.__getitem__, n, scratch, sums)
            moments._lane_sum(terms.__getitem__, n, scratch, squares,
                              np.empty(rows))
            row_major = np.ascontiguousarray(terms.T)
            assert np.array_equal(sums, row_major.sum(axis=-1)), n
            assert np.array_equal(squares,
                                  (row_major * row_major).sum(axis=-1)), n


class TestCompactLayer:
    """A run that reads at least its value bound in values takes the
    extended table, under _TABLE_CAP entries; any other run the compact
    layer, which scans for np.log misses only when the reads reach the
    bound.  Every source gives the same report, bit for bit."""

    # (spec, x) at the bound and just below it, d = 2.  Monte Carlo, H =
    # 100, x = 20: 6000 draws read the bound 3 H x**2 = 120,000 itself,
    # 5999 draws 20 values less.  Exhaustive, H = 10: 4410 rows read 4410 x
    # values, the bound 30 x**2 at x = 147 and 0.993 times it at x = 148.
    RULE_RUNS = {
        ("montecarlo", "below"): (FamilySpec(d=2, H=100, mode="montecarlo",
                                             sample_count=5999, seed=5), 20),
        ("montecarlo", "at"): (FamilySpec(d=2, H=100, mode="montecarlo",
                                          sample_count=6000, seed=5), 20),
        ("exhaustive", "below"): (FamilySpec(d=2, H=10), 148),
        ("exhaustive", "at"): (FamilySpec(d=2, H=10), 147),
    }

    @pytest.mark.parametrize("side,source", [
        ("below", "compact"), ("at", "table"), ("past-cap", "scanned")])
    @pytest.mark.parametrize("mode", ["montecarlo", "exhaustive"])
    def test_source_follows_reads_and_cap(self, monkeypatch, mode, side,
                                          source):
        spec, x = self.RULE_RUNS[mode, "below" if side == "below" else "at"]
        bound, pad = value_bound(2, spec.H, x), _extended_pad(2, spec.H, x)
        reads = spec.visit_count * x
        assert reads < bound if side == "below" else reads == bound
        assert bound + pad <= moments._TABLE_CAP
        if side == "past-cap":  # one entry short of the table
            monkeypatch.setattr(moments, "_TABLE_CAP", bound + pad - 1)
        read, scans = [], []  # the Lambda source of each chunk

        def source_of(table):
            if isinstance(table, moments._Extended):
                return "table"
            return "scanned" if table.scanned else "compact"

        real_stats, real_scan = moments._chunk_stats, arith._log_batches
        real_layer = arith.CompactLambda
        monkeypatch.setattr(moments, "_chunk_stats", lambda *args:
                            read.append(args[4]) or real_stats(*args))
        monkeypatch.setattr(arith, "_log_batches", lambda primes:
                            scans.append(len(primes)) or real_scan(primes))
        for use_abs, from_one in ((False, False), (True, False),
                                  (True, True)):
            kind = "abs_from_one" if from_one else "abs" if use_abs else "psi"
            read.clear()
            scans.clear()
            report = second_moment(spec, x, 10, use_abs=use_abs,
                                   abs_from_one=from_one)
            assert [source_of(table) for table in read] == [source]
            # the log scan, or the table's fill, takes every odd prime
            # below the bound; the unscanned layer takes none
            assert sum(scans) == (0 if source == "compact"
                                  else len(sieve_primes(bound)) - 1)
            # the other sources, forced: under a cap of -1 every run calls
            # CompactLambda(bound, reads), here the source asked for (the
            # table's own fill calls it with the bound alone)
            forced = {
                "compact": lambda bound, reads: real_layer(bound),
                "scanned": lambda bound, reads: real_layer(bound, bound),
                "table": lambda bound, *reads: moments._extended_table(
                    bound, kind, pad) if reads else real_layer(bound),
            }
            for other in sorted(set(forced) - {source}):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(moments, "_TABLE_CAP", -1)
                    patch.setattr(moments, "CompactLambda", forced[other])
                    got = second_moment(spec, x, 10, use_abs=use_abs,
                                        abs_from_one=from_one)
                assert source_of(read[-1]) == other
                assert got.raw == report.raw, (kind, other)
                assert got.mc_stderr == report.mc_stderr, (kind, other)

    @staticmethod
    def _force_table(monkeypatch, kind, pad):
        """Make second_moment take the extended table: under a cap of -1 it
        calls CompactLambda(bound, reads), here the table (whose own fill
        calls it with the bound alone)."""
        real_layer = arith.CompactLambda
        monkeypatch.setattr(moments, "_TABLE_CAP", -1)
        monkeypatch.setattr(moments, "CompactLambda", lambda bound, *reads:
                            moments._extended_table(bound, kind, pad)
                            if reads else real_layer(bound))

    # d = 1, x = 2: the value bound 4H + 4 is just past the old fixed cut
    # of 2**22, and 3000 draws read 6000 values, far under it, so the run
    # gathers from the unscanned compact layer; the extended table gives
    # the same report
    @pytest.mark.parametrize("H,layer", [(2**20 + 1, "compact")])
    def test_both_sides_of_the_dense_cut(self, monkeypatch, H, layer):
        spec = FamilySpec(d=1, H=H, mode="montecarlo", sample_count=3000,
                          seed=5)
        bound, pad = value_bound(1, H, 2), _extended_pad(1, H, 2)
        assert spec.visit_count * 2 < bound
        assert bound + pad <= moments._TABLE_CAP
        read = []
        real = moments._chunk_stats
        monkeypatch.setattr(moments, "_chunk_stats", lambda *args:
                            read.append(args[4]) or real(*args))
        report = second_moment(spec, 2, 10)
        assert [type(table).__name__ for table in read] == ["CompactLambda"]
        assert not read[0].scanned
        # the other side, forced
        with pytest.MonkeyPatch.context() as patch:
            self._force_table(patch, "psi", pad)
            other = second_moment(spec, 2, 10)
        assert isinstance(read[1], moments._Extended)
        assert report.raw == other.raw
        assert report.mc_stderr == other.mc_stderr

    # d = 2, H = 3, x = 683: the value bound 9 x**2 = 4,198,401 was just past
    # the old cut; the 147 rows read 100,401 values, so the run takes the
    # unscanned compact layer, and the extended table gives the same report
    @pytest.mark.parametrize("x,layer", [(683, "compact")])
    def test_exhaustive_both_sides_of_the_dense_cut(self, monkeypatch, x,
                                                    layer):
        spec = FamilySpec(d=2, H=3)
        bound, pad = value_bound(2, 3, x), _extended_pad(2, 3, x)
        assert spec.visit_count * x < bound
        assert bound + pad <= moments._TABLE_CAP
        read = []
        real = moments._chunk_stats
        monkeypatch.setattr(moments, "_chunk_stats", lambda *args:
                            read.append(args[4]) or real(*args))
        for use_abs, from_one in ((False, False), (True, False),
                                  (True, True)):
            kind = "abs_from_one" if from_one else "abs" if use_abs else "psi"
            report = second_moment(spec, x, 10, use_abs=use_abs,
                                   abs_from_one=from_one)
            assert not read[-1].scanned
            # the other side, forced
            with pytest.MonkeyPatch.context() as patch:
                self._force_table(patch, kind, pad)
                other = second_moment(spec, x, 10, use_abs=use_abs,
                                      abs_from_one=from_one)
            assert report.raw == other.raw, kind
        assert [type(table).__name__ for table in read] == 3 * [
            "CompactLambda", "_Extended"]

    # d = 1, H = 2, x = 1.1e6, past a cap under the value bound 4.4e6: one
    # Monte Carlo draw reads 1.1e6 values, the 10 exhaustive rows 1.1e7, so
    # only the exhaustive run's compact layer scans for np.log misses
    @pytest.mark.parametrize("mode,scanned", [("montecarlo", False),
                                              ("exhaustive", True)])
    def test_log_scan_only_when_reads_reach_the_bound(self, monkeypatch,
                                                      mode, scanned):
        x = 1_100_000
        bound = value_bound(1, 2, x)
        monkeypatch.setattr(moments, "_TABLE_CAP", bound)
        spec = FamilySpec(d=1, H=2, mode=mode, sample_count=1, seed=1)
        assert (spec.visit_count * x >= bound) == scanned
        layers, scans = [], []
        real_layer, real_scan = moments.CompactLambda, arith._log_batches
        monkeypatch.setattr(moments, "CompactLambda", lambda *args, **kw:
                            layers.append(real_layer(*args, **kw))
                            or layers[-1])
        monkeypatch.setattr(arith, "_log_batches", lambda primes:
                            scans.append(len(primes)) or real_scan(primes))
        second_moment(spec, x, 3)
        assert [layer.scanned for layer in layers] == [scanned]
        # the scan takes every odd prime below the bound, or none
        assert sum(scans) == (len(sieve_primes(bound)) - 1 if scanned else 0)

    # d = 2, H = 20, x = 264: 33,620 rows read 8.9e6 values, over the
    # value bound 4,181,760, so the run takes the extended table.  The
    # table is filled in place: psi adds the pad of 5300 entries to the
    # dense table (31.9 MiB; 36.9 MiB traced peak), abs doubles it
    MEMORY_RUN = FamilySpec(d=2, H=20), 264

    def _traced_peak(self, **kw):
        spec, x = self.MEMORY_RUN
        assert spec.visit_count * x >= value_bound(2, spec.H, x)
        tracemalloc.start()
        try:
            second_moment(spec, x, 10, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("use_abs", [False, True], ids=["psi", "abs"])
    def test_exhaustive_extended_table_memory(self, use_abs):
        bound = value_bound(2, 20, 264)
        peak = self._traced_peak(use_abs=use_abs)
        dense = 8 * (bound + 1)
        assert peak < (2 * dense + 8 * 2**20 if use_abs else 40 * 2**20)

    # abs mirrors only the pad below 0, H (1 + x) entries at d = 2, so its
    # table is the psi table's size (a mirror of the whole bound would
    # double it)
    def test_exhaustive_abs_table_is_one_dense_table(self):
        bound, pad = value_bound(2, 20, 264), _extended_pad(2, 20, 264)
        peak = self._traced_peak(use_abs=True)
        assert peak < 8 * (bound + 1 + pad) + 8 * 2**20

    # At a cap of bound + pad entries the run builds the table, 8 bytes an
    # entry; one entry less and it takes the scanned compact layer, about
    # bound/16 bytes, and holds under a third of the dense table (7.0 MiB
    # traced, against 36.9 MiB at the cap)
    @pytest.mark.parametrize("short", [0, 1], ids=["at-cap", "past-cap"])
    def test_memory_at_and_past_the_cap(self, monkeypatch, short):
        bound, pad = value_bound(2, 20, 264), _extended_pad(2, 20, 264)
        monkeypatch.setattr(moments, "_TABLE_CAP", bound + pad - short)
        peak = self._traced_peak()
        if short:
            assert peak < 8 * (bound + 1) // 3
        else:
            assert 8 * (bound + pad) < peak < (8 * (bound + 1 + pad)
                                                + 8 * 2**20)

    def test_threaded_montecarlo_equals_one_thread(self):
        # 4 chunks read 5.9e6 values, under the value bound 3 * 3000 *
        # 30**2 = 8.1e6, so they gather from the compact layer
        spec = FamilySpec(d=2, H=3000, mode="montecarlo",
                          sample_count=3 * CHUNK_SIZE + 100, seed=3)
        assert spec.visit_count * 30 < value_bound(2, 3000, 30)
        one = second_moment(spec, 30, 30, threads=1)
        two = second_moment(spec, 30, 30, threads=2)
        assert one.raw == two.raw
        assert one.mc_stderr == two.mc_stderr

    def test_montecarlo_allocates_no_dense_table(self):
        # the value bound 4e7 took a 320 MB float64 table
        spec = FamilySpec(d=3, H=10000, mode="montecarlo", sample_count=1000,
                          seed=1)
        assert value_bound(3, 10000, 10) == 4 * 10**7
        tracemalloc.start()
        try:
            second_moment(spec, 10, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRootCountBudget:
    def test_refused_before_any_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(moments, "von_mangoldt_table", built.append)
        monkeypatch.setattr(moments, "CompactLambda", built.append)
        monkeypatch.setattr(moments, "root_count_table",
                            lambda ell, d: built.append((ell, d)))
        # sum over primes l < 1000 of l**3 is far above the residue budget
        with pytest.raises(BudgetError, match="root-count tables"):
            second_moment(FamilySpec(d=2, H=50), 1000, 1000)
        assert built == []

    def test_budget_follows_environment(self, monkeypatch):
        # primes below 30: sum of l**3 is 52359
        spec = FamilySpec(d=2, H=2)
        monkeypatch.setenv("BHLAB_BUDGET", "52358")
        with pytest.raises(BudgetError, match="52359"):
            second_moment(spec, 3, 30)
        monkeypatch.setenv("BHLAB_BUDGET", "52359")
        assert second_moment(spec, 3, 30).visit_count == spec.family_size
        # no singular series, no root-count tables; 50 is the family size
        monkeypatch.setenv("BHLAB_BUDGET", "50")
        assert second_moment(spec, 3, 30, center="none").visit_count == 50

    @pytest.mark.parametrize("budget,d", [(13, 1), (1000, 1), (1000, 2)])
    def test_capped_sieve_refuses_as_the_full_sum(self, monkeypatch, budget,
                                                  d):
        # primes are sieved below isqrt(budget) + 1 only (4 and 32 here);
        # at budget 13 no prime lies in [4, 5), where z must still pass
        monkeypatch.setenv("BHLAB_BUDGET", str(budget))
        cap = math.isqrt(budget) + 1
        sieved = []
        real = moments.primes_below
        monkeypatch.setattr(moments, "primes_below",
                            lambda z: sieved.append(z) or real(z))
        for z in (k / 2 for k in range(3, 160)):
            full = sum(ell ** (d + 1) for ell in real(z))
            if full > budget:
                with pytest.raises(BudgetError) as exc:
                    moments._euler_factor_tables(d, z)
                assert budget < exc.value.requested <= full
                if z <= cap:
                    assert exc.value.requested == full
            else:
                assert list(moments._euler_factor_tables(d, z)) == list(
                    real(z))
        assert max(sieved) <= cap


class TestNondiagonalTerm:
    def test_no_pairs(self):
        assert nondiagonal_term(FamilySpec(d=2, H=2), 1) == 0.0

    def test_naive_triple_loop_oracle(self):
        spec = FamilySpec(d=2, H=3)
        x = 5
        table = von_mangoldt_table(200)
        total = 0.0
        for P in iter_family(spec):
            vals = [eval_poly(P, m) for m in range(1, x + 1)]
            lams = [float(table[abs(v)]) if v else 0.0 for v in vals]
            for i in range(x):
                for j in range(x):
                    if i != j:
                        total += lams[i] * lams[j]
        got = nondiagonal_term(spec, x)
        assert got == pytest.approx(total / spec.normalizer, rel=1e-9)


def theta_loop(P, x):
    """Reference: theta as its own m-loop."""
    terms = []
    for n in range(1, int(x) + 1):
        v = eval_poly(P, n)
        if v > 1 and is_prime_u64(v):
            terms.append(math.log(v))
    return math.fsum(terms)


def bv_with_empty_class_branch(X, Q, table):
    """Reference: bv_average with class 0 for q = 1 and a branch for a class
    without members up to X."""
    out = []
    for q in range(1, Q + 1):
        phi_q = euler_phi(q)
        worst = 0.0
        for b in [0] if q == 1 else [b for b in range(1, q)
                                     if math.gcd(b, q) == 1]:
            start = b if b >= 1 else q
            ns = np.arange(start, X + 1, q, dtype=np.int64)
            if len(ns) == 0:
                worst = max(worst, X / phi_q)
                continue
            cs = np.cumsum(table[start : X + 1 : q])
            before = np.abs(np.concatenate(([0.0], cs[:-1])) - (ns - 1) / phi_q)
            if ns[0] == 1:
                before[0] = 0.0
            worst = max(worst, float(np.abs(cs - ns / phi_q).max()),
                        float(before.max()), abs(cs[-1] - X / phi_q))
        out.append(worst)
    return math.fsum(out)


class TestOneMLoop:
    def test_theta_equals_its_own_loop(self, rng):
        polys = [IntPolynomial(c) for c in [(1, 0, 1), (-3, 0, 1), (0, 1, 1),
                                            (-7, 2, 1), (1,), (2,), (5, 1)]]
        polys += [random_polynomial(rng, 1 + i % 3, 20) for i in range(30)]
        for P in polys:
            for x in (0, 1, 7, 300):
                assert theta(P, x) == theta_loop(P, x), (P, x)

    def test_sums_equal_fsum_of_lambda_terms(self, rng):
        # the sums add the terms lazily; fsum is exact, so bit for bit
        polys = [IntPolynomial(c) for c in [(1, 0, 1), (-3, 0, 1), (0, 1, 1),
                                            (-7, 2, 1), (1,), (2,), (5, 1)]]
        polys += [random_polynomial(rng, 1 + i % 3, 20) for i in range(30)]
        for P in polys:
            for x in (0, 1, 7, 300):
                for got, which, from_one in [
                        (psi(P, x), "positive", True),
                        (psi_abs(P, x), "nonzero", False),
                        (psi_abs(P, x, from_one=True), "nonzero", True),
                        (negative_part(P, x), "negative", True),
                        (theta(P, x), "prime", True)]:
                    assert got == math.fsum(
                        lambda_terms(P, x, which, from_one)), (P, x, which)

    def test_prime_selector_keeps_log_of_prime_values(self):
        P = IntPolynomial((1, 0, 1))  # values 2, 5, 10, 17, 26
        assert lambda_terms(P, 5, "prime") == [math.log(2), math.log(5),
                                               math.log(17)]


class TestBvClasses:
    def test_every_class_has_a_member_at_the_widest_range(self):
        for X in range(1, 120):
            Q = math.isqrt(X) + 1
            table = von_mangoldt_table(X)
            assert bv_average(X, Q) == bv_with_empty_class_branch(X, Q, table)


class TestPsiVariantSelection:
    def test_abs_from_one_without_abs_is_refused(self):
        spec = FamilySpec(d=1, H=3)
        with pytest.raises(ValueError, match="abs_from_one requires use_abs"):
            second_moment(spec, 5, 3, abs_from_one=True)
        report = second_moment(spec, 5, 3, use_abs=True, abs_from_one=True)
        assert report.params["psi_variant"] == "abs_from_one"

    def test_cli_and_library_share_the_pairing_check(self, monkeypatch):
        # the CLI refuses --abs-from-one without --abs through psi_variant,
        # before any grid point's limits
        assert [moments.psi_variant(*flags) for flags in (
            (False, False), (True, False), (True, True))] == [
                "psi", "abs", "abs_from_one"]
        seen = []
        real = moments.psi_variant
        monkeypatch.setattr(moments, "psi_variant",
                            lambda *args: seen.append(args) or real(*args))
        assert cli_main(["moment", "--d", "3", "--H", "1000", "--x", "1000",
                         "--z", "2", "--abs-from-one"]) == 2
        assert seen == [(False, True)]


class TestPastTheLambdaLimit:
    """Sums that meet an argument at or past 2^63 are refused before any
    Lambda, with the error the first such argument raises."""

    @staticmethod
    def real_error(fn, n):
        with pytest.raises(ValueError) as exc:
            fn(n)
        return str(exc.value)

    @pytest.mark.parametrize("coeffs,fn,kind", [
        ((1, 0, 0, 1), psi, "lambda"),
        ((1, 0, 0, 1), psi_abs, "lambda"),
        ((-1, 0, 0, -1), negative_part, "lambda"),
        ((1, 0, 0, 1), theta, "prime"),
        ((1, 0, 0, 1), lambda_terms, "lambda"),
    ])
    def test_refused_before_any_term(self, monkeypatch, coeffs, fn, kind):
        # P(2^21) = +-(2^63 + 1) is the first argument past the limit
        want = self.real_error(
            von_mangoldt if kind == "lambda" else is_prime_u64, 2**63 + 1)
        calls = []
        monkeypatch.setattr(moments, "von_mangoldt",
                            lambda n: calls.append(n) or 0.0)
        monkeypatch.setattr(moments, "is_prime_u64",
                            lambda n: calls.append(n) or False)
        with pytest.raises(ValueError) as exc:
            fn(IntPolynomial(coeffs), 3_000_000)
        assert str(exc.value) == want
        assert calls == []

    def test_first_argument_past_a_cancelling_bound(self):
        # P = 2^60 (m - 4): the bound 2^60 m + 2^62 reaches 2^63 at m = 4,
        # P itself at m = 12
        P = IntPolynomial((-(2**62), 2**60))
        want = self.real_error(von_mangoldt, 2**63)
        for fn in (psi, psi_abs):
            with pytest.raises(ValueError) as exc:
                fn(P, 20)
            assert str(exc.value) == want
        # below m = 12 nothing is refused: 2^60, 2^61, 2^62 each add log 2
        assert psi(P, 11) == math.fsum([math.log(2)] * 3)
        assert negative_part(P, 20) == math.fsum(
            [von_mangoldt(2**60 * k) for k in (3, 2, 1)])

    def test_scan_only_where_the_bound_reaches_the_limit(self, monkeypatch):
        scans = []
        monkeypatch.setattr(moments, "_refuse_past_limit",
                            lambda *args: scans.append(args))
        P = IntPolynomial((3, -7, 2, 10))  # the benchmark's psi-abs shape
        psi_abs(P, 200)
        assert scans == []
        Q = IntPolynomial((-(2**62), 2**60))  # value_bound(1, 2^62, 2) = 2^64
        psi(Q, 2)
        assert scans == [(Q, 2, "positive", 1)]


class TestScalarBudget:
    @pytest.mark.parametrize("fn", [psi, psi_abs, negative_part, theta,
                                    lambda_terms])
    def test_refused_before_any_term(self, monkeypatch, fn):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)

        def evaluated(*args):
            raise AssertionError("an argument was evaluated")

        monkeypatch.setattr(moments, "eval_poly", evaluated)
        with pytest.raises(BudgetError) as exc:
            fn(IntPolynomial((1, 1)), 10**9)
        assert exc.value.budget == DEFAULT_SCALAR_BUDGET
        assert exc.value.requested in (10**9, 10**9 - 1)

    def test_checked_before_the_2_63_scan(self, monkeypatch):
        # x = 3e6 meets 2^63 + 1 at m = 2^21; under a budget of 10^6
        # arguments the budget refuses first
        monkeypatch.setenv("BHLAB_BUDGET", str(10**6))
        with pytest.raises(BudgetError, match="scalar sum arguments m <= x: "
                           "requested size 3000000 exceeds budget 1000000"):
            psi(IntPolynomial((1, 0, 0, 1)), 3_000_000)

    def test_counts_the_arguments_of_the_range(self, monkeypatch):
        # 1 <= m <= 100 is 100 arguments, 1 < m <= 100 is 99
        P = IntPolynomial((1, 1))
        monkeypatch.setenv("BHLAB_BUDGET", "99")
        assert psi_abs(P, 100) == math.fsum(
            von_mangoldt(m + 1) for m in range(2, 101))
        with pytest.raises(BudgetError, match="requested size 100 "):
            psi(P, 100)
        with pytest.raises(BudgetError, match="requested size 100 "):
            psi_abs(P, 100, from_one=True)
        monkeypatch.setenv("BHLAB_BUDGET", "100")
        assert psi(P, 100) == math.fsum(
            von_mangoldt(m + 1) for m in range(1, 101))

    def test_sum_holds_no_list_of_terms(self):
        # a list of the 20000 terms peaked at 229 KiB traced, the
        # generator at 8 KiB
        tracemalloc.start()
        try:
            psi(IntPolynomial((1, 1)), 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
