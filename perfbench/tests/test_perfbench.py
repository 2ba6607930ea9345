"""Tests of the benchmark itself (not of bhlab).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bhlab  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Upper bound on the op wall time that neither setup_s nor cli.main covers:
# tracer install, writing the record, interpreter teardown.
RESIDUAL_S = 0.25


def test_metric_names_and_units():
    names = ([n for n, *_ in layers.END_TO_END]
             + [n for n, *_ in layers.PER_LAYER] + list(workloads.WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, better, *_ in layers.END_TO_END + layers.PER_LAYER:
        assert UNIT.fullmatch(unit) and better in ("lower", "higher")


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in layers.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in layers.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in spec["end_to_end"]) for m in spec["end_to_end"])


def _workload(*ops):
    return Workload("test", "test", lambda seed: (list(ops), []))


BV_SMALL = ("bv", "--X", "1000", "--Q", "5")


def _bv_check(value):
    return workloads.check_against(lambda: value)


def test_wrong_output_counts_in_error_rate(tmp_path):
    right = float(re.search(r"^value = (\S+)$",
                            _cli_stdout(*BV_SMALL), re.M).group(1))
    res = run.run_workload(_workload(Op("bv", BV_SMALL, _bv_check(right + 1))),
                           seed=1, seconds=0, trace=0, work=tmp_path)
    assert not res["correct"]
    assert res["failed"] == 2          # both passes, nothing else
    assert res["error_rate"] == 2 / res["attempted"]
    res = run.run_workload(_workload(Op("bv", BV_SMALL, _bv_check(right))),
                           seed=1, seconds=0, trace=0, work=tmp_path)
    assert res["correct"] and res["failed"] == 0
    # a speed probe before each measured op process and after the last
    assert len(res["speed_probes_s"]) == run.SETUP_PROBES + 2 + 1
    assert all(op["scale"] > 0 for p in res["passes"] for op in p["ops"])


def test_times_are_scaled_per_op_and_summed_over_ops():
    def result(name, wall, scale):
        return run.OpResult(name, 0, wall, wall, 1.0, "", scale=scale)
    passes = [[result("a", 2.0, 1.0), result("b", 1.0, 2.0)],
              [result("a", 4.0, 0.5), result("b", 3.0, 1.0)],
              [result("a", 9.0, 1.0)]]
    # scaled: a 2, 2, 9 and b 2, 3; unscaled: a 2, 4, 9 and b 1, 3
    assert run._median_per_op(passes, "wall_s") == (2.0 + 2.5, 4.0 + 2.0)


def test_failing_exit_code_counts_in_error_rate(tmp_path):
    res = run.run_workload(
        _workload(Op("bad", ("psi", "--poly", "1,0,1"), lambda out: None)),
        seed=1, seconds=0, trace=0, work=tmp_path)
    assert res["failed"] == 2
    assert res["failures"][0].startswith("bad: exit code 2")


def test_self_times_add_up_to_wall_time(tmp_path):
    ops = (Op("moment", ("moment", "--d", "1", "--H", "20", "--x", "10",
                         "--z", "10", "--format", "json"), lambda out: None),
           Op("bv", BV_SMALL, lambda out: None))
    res = run.run_workload(_workload(*ops), seed=1, seconds=0, trace=1,
                           work=tmp_path)
    assert res["correct"]
    traced = [p for p in res["passes"] if p["traced"]]
    assert traced
    by_op = {}
    for span in res["spans"]:
        by_op.setdefault(span["op"], []).append(span)
    assert len(by_op) == len(ops)
    for op in traced[0]["ops"]:
        spans = by_op[f"pass1.{op['name']}"]
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["cli.main"]
        record = {"spans": [[s["name"], s["start"], s["end"], s["parent"]]
                            for s in spans], "counts": {}}
        profile = layers.op_profile(record)
        self_total = sum(e["self_s"] for e in profile.values())
        main = roots[0]["end"] - roots[0]["start"]
        assert self_total == pytest.approx(main, abs=1e-6)
        residual = op["wall_s"] - op["setup_s"] - self_total
        assert 0 <= residual <= RESIDUAL_S
    metrics = {k: m["value"] for k, m in res["metrics"].items()}
    # exact work counts, fixed by the arguments
    assert metrics["moments.evals"] == 20 * 41 * 10
    assert metrics["poly.coefficient_chunks.chunks"] == 1
    assert metrics["arith.von_mangoldt_table.bytes"] == (
        8 * (2 * 20 * 10 + 1) + 8 * (1000 + 1))
    assert metrics["budgets.check.calls"] == 4
    assert set(metrics) == {n for n, *_ in layers.PER_LAYER}


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "REQUIRED",
                        tracer.REQUIRED | {"arith.no_such_function"})
    with pytest.raises(LookupError, match="arith.no_such_function"):
        tracer.public_functions(bhlab)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-and-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_root_count_oracle_matches_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
        for ell in workloads.primes_below(40):
            want = sum(1 for r in range(ell) if sum(
                c * r**j for j, c in enumerate(coeffs)) % ell == 0)
            assert workloads.distinct_roots_mod(coeffs, ell) == want


def test_prime_power_oracle():
    for n in range(2, 3000):
        base = next((p for p in workloads.primes_below(n + 1)
                     if any(p**a == n for a in range(1, 12))), None)
        assert workloads.prime_power_base(n) == base
    assert workloads.prime_power_base(2**61 - 1) == 2**61 - 1
    assert workloads.prime_power_base((2**31 - 1) ** 2) == 2**31 - 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_density_oracles_agree_with_bhlab(seed):
    coeffs = workloads.seeded_cubic(seed)
    assert coeffs[-1] == workloads.LOCAL_H
    P = bhlab.IntPolynomial(tuple(coeffs))
    assert workloads.singular_series_oracle(coeffs, 500) == pytest.approx(
        bhlab.truncated_bh_constant(P, 500), rel=workloads.SCALAR_RTOL)
    assert workloads.psi_abs_oracle(coeffs, 300) == pytest.approx(
        bhlab.psi_abs(P, 300), rel=workloads.SCALAR_RTOL)


def _cli_stdout(*argv):
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from bhlab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    return done.stdout
