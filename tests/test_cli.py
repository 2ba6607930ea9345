import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bhlab import identities, moments
from bhlab.cli import main
from bhlab.poly import _root_count_cost, local_root_counts
from conftest import fresh_python


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestSingularSeries:
    def test_example(self, capsys):
        code, out = run(capsys, "singular-series", "--poly", "1,0,1", "--z", "6")
        assert code == 0
        assert "value = 1.125" in out
        assert "# poly = (1, 0, 1)" in out

    def test_missing_z(self, capsys):
        assert main(["singular-series", "--poly", "1,0,1"]) == 2


class TestPsi:
    def test_value(self, capsys):
        code, out = run(capsys, "psi", "--poly", "1,0,1", "--x", "3")
        assert code == 0
        assert f"value = {math.log(2) + math.log(5):.15g}" in out

    def test_variants(self, capsys):
        code, out = run(capsys, "psi", "--poly=-3,0,1", "--x", "3",
                        "--abs", "--from-one")
        assert code == 0
        assert "psi_abs_from_one" in out
        assert f"value = {math.log(2):.15g}" in out

    @pytest.mark.parametrize("argv,kind,value", [
        (("--poly", "1,0,1", "--x", "3", "--theta"), "theta",
         "2.30258509299405"),  # log 2 + log 5
        (("--poly=-3,0,1", "--x", "3", "--neg"), "negative_part",
         "0.693147180559945"),  # -P(1) = 2
    ], ids=["theta", "neg"])
    def test_theta_and_negative_part(self, capsys, argv, kind, value):
        code, out = run(capsys, "psi", *argv)
        assert code == 0
        assert f"# kind = {kind}\n" in out
        assert out.endswith(f"value = {value}\n")

    @pytest.mark.parametrize("argv", [
        ("psi", "--poly", "-3,0,0,1", "--x", "20"),
        ("psi", "--x", "20", "--abs", "--poly", "-3,0,0,1"),
        ("singular-series", "--poly", "-3,0,0,1", "--z", "30"),
    ])
    def test_negative_constant_term_space_form(self, capsys, argv):
        # argparse alone reads "-3,0,0,1" as an option, not as a value
        code, out = run(capsys, *argv)
        i = argv.index("--poly")
        want = run(capsys, *argv[:i], "--poly=" + argv[i + 1], *argv[i + 2:])
        assert (code, out) == want
        assert code == 0 and "# poly = (-3, 0, 0, 1)" in out


class TestMoment:
    ARGS = ("moment", "--d", "2", "--H", "1", "--x", "1", "--z", "2",
            "--abs", "--abs-from-one")

    def test_hand_enumerated_value_csv(self, capsys):
        code, out = run(capsys, *self.ARGS)
        assert code == 0
        rows = list(csv.DictReader(
            line for line in out.splitlines() if not line.startswith("#")))
        assert len(rows) == 1
        assert float(rows[0]["raw_direct"]) == pytest.approx(6.19804, abs=1e-4)
        assert rows[0]["visit_count"] == "9"

    def test_header_echoes_config(self, capsys):
        _, out = run(capsys, *self.ARGS)
        assert "# d = 2" in out
        assert "# psi_variant = abs_from_one" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["H"] == 1
        assert payload["rows"][0]["raw_direct"] == pytest.approx(
            6.19804, abs=1e-4)

    def test_grid_produces_one_row_per_point(self, capsys):
        _, out = run(capsys, "moment", "--d", "2", "--H", "2",
                     "--x", "2,3", "--z", "2,3")
        rows = list(csv.DictReader(
            line for line in out.splitlines() if not line.startswith("#")))
        assert len(rows) == 4
        assert [(r["x"], r["z"]) for r in rows] == [
            ("2", "2"), ("2", "3"), ("3", "2"), ("3", "3")]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["moment", "--d", "2", "--H", "100", "--x", "4",
                "--mode", "mc", "--samples", "2000", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_root_count_tables_over_budget_exit_3(self, monkeypatch, capsys):
        # z defaults to x = 1000: the Lambda table would fit its limit, the
        # root-count tables for d = 2 (sum of l**3 over l < 1000) do not
        from bhlab import identities, moments
        built = []
        monkeypatch.setattr(moments, "von_mangoldt_table", built.append)
        monkeypatch.setattr(moments, "CompactLambda", built.append)
        monkeypatch.setattr(moments, "root_count_table",
                            lambda ell, d: built.append((ell, d)))
        code = main(["moment", "--d", "2", "--H", "50", "--x", "1000"])
        assert code == 3
        assert built == []
        err = capsys.readouterr().err
        assert err.startswith("budget refusal: root-count tables")
        assert "BHLAB_BUDGET" in err

    def test_huge_z_refused_without_sieving_past_the_cap(self, monkeypatch,
                                                         capsys):
        # a prime above isqrt(budget) alone exceeds the residue budget
        from bhlab import budgets, moments
        sieved = []
        real = moments.primes_below
        monkeypatch.setattr(moments, "primes_below",
                            lambda z: sieved.append(z) or real(z))
        code = main(["moment", "--d", "2", "--H", "2", "--x", "3",
                     "--z", "3e7"])
        assert code == 3
        assert sieved
        assert max(sieved) <= math.isqrt(
            budgets.budget(budgets.DEFAULT_RESIDUE_BUDGET)) + 1
        err = capsys.readouterr().err
        assert err.startswith("budget refusal: root-count tables")

    def test_unwritable_out_refused_before_any_point(self, capsys,
                                                     monkeypatch, tmp_path):
        def ran(*args, **kwargs):
            raise AssertionError("second_moment ran")

        monkeypatch.setattr(moments, "second_moment", ran)
        argv, want = TestRefusals.CASES["out-unwritable"]
        code = exit_code(argv.format(tmp=tmp_path).split())
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(want)

    def test_directory_out_refused_before_any_point(self, capsys,
                                                    monkeypatch, tmp_path):
        def ran(*args, **kwargs):
            raise AssertionError("second_moment ran")

        monkeypatch.setattr(moments, "second_moment", ran)
        argv, want = TestRefusals.CASES["out-directory"]
        code = exit_code(argv.format(tmp=tmp_path).split())
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"{want}: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        "moment --H 10 --x 3 --mode mc --samples 1000000000000",
        "moment --d 2 --H 50 --x 1000",  # the root-count tables
    ])
    def test_refused_run_leaves_no_out_file(self, argv, capsys,
                                            monkeypatch, tmp_path):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("earlier result\n")
        for path in (fresh, kept):
            assert exit_code([*argv.split(), "--out", str(path)]) == 3
        assert capsys.readouterr().out == ""
        assert sorted(tmp_path.iterdir()) == [kept]
        assert kept.read_text() == "earlier result\n"

    def test_config_file_under_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("H = 1\nx = 1\nz = 2\nd = 2\n")
        code, out = run(capsys, "--config", str(cfg), "moment",
                        "--abs", "--abs-from-one", "--x", "1")
        assert code == 0
        assert "# H = 1" in out

    def test_config_file_skips_comments_and_blank_lines(self, capsys,
                                                        tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# moment settings\n\nH = 1\n  \n  # x = 5\nx = 1\n"
                       "z = 2\n")
        code, out = run(capsys, "--config", str(cfg), "moment")
        assert code == 0
        assert out == run(capsys, "moment", "--H", "1", "--x", "1",
                          "--z", "2")[1]


class TestSuites:
    def test_identities_passes(self, capsys):
        code, out = run(capsys, "identities")
        assert code == 0
        assert "0 failures" in out
        assert "FAIL" not in out

    def test_identities_counts_no_roots_per_tuple(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(identities, "residue_root_count",
                            lambda *args: calls.append(args))
        code, out = run(capsys, "identities")
        assert calls == []
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("PASS  ") for line in lines) == 49
        assert lines[-1] == "0 failures"

    def test_sieve_check_passes(self, capsys):
        code, out = run(capsys, "sieve-check", "--n-max", "2000",
                        "--w-grid", "6,12", "--y-grid", "50,1e3")
        assert code == 0
        assert "0 failures" in out


class TestBv:
    def test_runs(self, capsys):
        code, out = run(capsys, "bv", "--X", "100", "--Q", "3")
        assert code == 0
        assert "value = " in out
        assert "ratio_to_X_over_logX_pow_5" in out

    def test_budget_exit_code(self, capsys):
        assert main(["bv", "--X", "10000000", "--Q", "3"]) == 3


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("--d", "0", "--H", "2", "--x", "3"),
        ("--H", "2", "--x", "3", "--mode", "mc", "--samples", "0"),
        ("--H", "2", "--x", "-3"),
        ("--H", "2", "--x", "3", "--z", "1"),
        ("--H", "2", "--x", "3", "--threads", "0"),
        ("--d", "2", "--x", "3"),
    ], ids=["d-0", "samples-0", "x-negative", "z-1", "threads-0",
            "missing-H"])
    def test_moment_refusal_is_one_line(self, capsys, argv):
        code = main(["moment", *argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert "Traceback" not in err

    def test_thread_count_refused_in_the_library_words(self, capsys,
                                                       tmp_path):
        target = tmp_path / "out.csv"
        for out_flag in ([], ["--out", str(target)]):
            code = main(["moment", "--H", "2", "--x", "3", "--threads", "0",
                         *out_flag])
            assert (code, *capsys.readouterr()) == (
                2, "", "usage error: threads must be an integer >= 1, "
                       "got 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_grid_is_refused_before_any_point_runs(self, capsys,
                                                   monkeypatch):
        ran = []
        monkeypatch.setattr(moments, "second_moment",
                            lambda *args, **kwargs: ran.append(args))
        code = main(["moment", "--H", "2", "--x", "3", "--z", "5,inf"])
        out, err = capsys.readouterr()
        assert code == 2
        assert ran == []
        assert out == ""
        assert err == "usage error: z must be finite, got inf\n"

    @pytest.mark.parametrize("grid,want", [
        ("--x 30,100000 --z 30",
         "von Mangoldt table for the family moment: requested size "
         "3000000000000 exceeds the fixed limit 2000000000"),
        ("--x 30 --z 30,200",
         "root-count tables for the singular series: requested size "
         "86470593 exceeds budget 10000000 (override with BHLAB_BUDGET)"),
    ], ids=["lambda-limit", "residue-budget"])
    def test_later_point_over_a_limit_refused_before_any_point_runs(
            self, capsys, monkeypatch, grid, want):
        def ran(*args, **kwargs):
            raise AssertionError("second_moment ran")

        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        monkeypatch.setattr(moments, "second_moment", ran)
        code = main(["moment", "--d", "2", "--H", "100", *grid.split()])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == f"budget refusal: {want}\n"

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--poly", "1,1", "--x", "3", "--bogus"])
        assert exc.value.code == 2


class TestRefusals:
    """Bad input, on every subcommand: empty stdout, one stderr line."""

    CASES = {  # id: (argv, start of the stderr line)
        "psi-without-poly": ("psi --x 3", "usage error: psi requires --poly"),
        "y-below-w": ("sieve-check --y-grid 3",
                      "usage error: no odd truncation level"),
        "w-below-2": ("sieve-check --w-grid 1", "usage error: prime cutoff"),
        "sieve-n-max-0": ("sieve-check --n-max 0 --w-grid 6 --y-grid 50",
                          "usage error: n_max must be >= 1, got 0"),
        "config-value": (
            "--config {tmp}/bad.cfg moment --x 3",
            "usage error: argument --H: invalid int value: 'abc'"),
        "config-missing": ("--config {tmp}/no.cfg moment --H 1 --x 3",
                           "usage error: [Errno 2]"),
        # argparse checks a flag's choices on the command line only
        "config-center": ("--config {tmp}/center.cfg moment --H 1 --x 3",
                          "usage error: config center: invalid choice: "
                          "'bogus' (choose from 'bh', 'none')"),
        "config-format": ("--config {tmp}/format.cfg moment --H 1 --x 3",
                          "usage error: config format: invalid choice: "
                          "'xml' (choose from 'csv', 'json')"),
        "config-mode": ("--config {tmp}/mode.cfg moment --H 1 --x 3",
                        "usage error: config mode: invalid choice: 'random' "
                        "(choose from 'exhaustive', 'mc', 'montecarlo')"),
        "out-unwritable": ("moment --H 1 --x 1 --out {tmp}/no/out.csv",
                           "usage error: [Errno 2]"),
        "out-directory": ("moment --H 1 --x 1 --out {tmp}",
                          "usage error: [Errno 21] Is a directory"),
        "poly-leading-zero": ("psi --poly 1,0 --x 3",
                              "usage error: argument --poly"),
        "poly-not-integer": ("psi --poly 1,x --x 3",
                             "usage error: argument --poly"),
        "series-z-1": ("singular-series --poly 1,0,1 --z 1",
                       "usage error: cutoff must exceed 1"),
        "series-z-inf": ("singular-series --poly 1,0,1 --z inf",
                         "usage error: cutoff must be finite, got inf"),
        "series-z-nan": ("singular-series --poly 1,0,1 --z nan",
                         "usage error: cutoff must be finite, got nan"),
        # refused before the fixed-divisor exit (2 divides every value)
        "series-fixed-divisor-z-inf": (
            "singular-series --poly 2,2,2 --z inf",
            "usage error: cutoff must be finite, got inf"),
        "sieve-y-nan": ("sieve-check --y-grid nan",
                        "usage error: support cutoff must be finite, got nan"),
        "sieve-y-inf": ("sieve-check --y-grid inf",
                        "usage error: support cutoff must be finite, got inf"),
        "sieve-y-1e400": ("sieve-check --y-grid 1e400",
                          "usage error: support cutoff must be finite, "
                          "got inf"),
        "sieve-w-nan": ("sieve-check --w-grid nan",
                        "usage error: prime cutoff must be finite, got nan"),
        # the telescoping support of w = 89 has 2^23 keys; every weight is
        # built before any output
        "sieve-support-budget": (
            "sieve-check --n-max 100000 --w-grid 2,3,6,89,97 --y-grid 100,1e9",
            "budget refusal: Brun weight support at w=89.0: requested size "
            "8388608 exceeds budget 1048576 (override with BHLAB_BUDGET)"),
        # refused before the primes below w are sieved
        "sieve-w-past-97": (
            "sieve-check --w-grid 1e8 --y-grid 1e300",
            "budget refusal: Brun weight primes below w=100000000.0, counted "
            "up to 97: requested size 25 exceeds the fixed limit 24"),
        "bv-X-0": ("bv --X 0 --Q 1", "usage error: "),
        "bv-X-1": ("bv --X 1 --Q 1", "usage error: bv requires X >= 2"),
        "bv-missing-Q": ("bv --X 100", "usage error: bv requires --Q"),
        "bv-moduli-range": ("bv --X 100 --Q 50",
                            "usage error: Q must be <= isqrt(X) + 1 = 11"),
        "psi-past-2^63": ("psi --poly 1,0,0,0,0,1 --x 100000",
                          "usage error: von_mangoldt limited to n < 2^63"),
        # refused before any argument is evaluated or scanned for 2^63
        "psi-scalar-budget": (
            "psi --poly 1,1 --x 1000000000",
            "budget refusal: scalar sum arguments m <= x: requested size "
            "1000000000 exceeds budget 10000000 (override with BHLAB_BUDGET)"),
        "budget-env-not-int": ("bv --X 100 --Q 3",
                               "usage error: BHLAB_BUDGET must be an integer"),
        "unknown-subcommand": ("frobnicate", "usage error: argument command"),
        "lambda-table-limit": (
            "moment --d 3 --H 1000 --x 1000 --z 2",
            "budget refusal: von Mangoldt table for the family moment: "
            "requested size 4000000000000 exceeds the fixed limit 2000000000"),
        "lambda-table-limit-edge": (
            "moment --d 3 --H 10000 --x 37 --z 10 --mode mc --samples 10",
            "budget refusal: von Mangoldt table for the family moment: "
            "requested size 2026120000 exceeds the fixed limit 2000000000"),
        "progression-budget": (
            "bv --X 10000000 --Q 3",
            "budget refusal: progression average sieve: requested size "
            "10000000 exceeds budget 1000000 (override with BHLAB_BUDGET)"),
        "mc-sample-budget": (
            "moment --H 10 --x 3 --mode mc --samples 1000000000000",
            "budget refusal: Monte Carlo sample traversal: requested size "
            "1000000000000 exceeds budget 100000000 (override with "
            "BHLAB_BUDGET)"),
        "psi-abs-theta": ("psi --poly 1,0,1 --x 3 --abs --theta",
                          "usage error: argument --theta: not allowed with "
                          "argument --abs"),
        "psi-theta-neg": ("psi --poly 1,0,1 --x 3 --theta --neg",
                          "usage error: argument --neg: not allowed with "
                          "argument --theta"),
        "psi-neg-abs": ("psi --poly 1,0,1 --x 3 --neg --abs",
                        "usage error: argument --abs: not allowed with "
                        "argument --neg"),
        # refused before the 2^63 limit is met, about 0.7 s into the sum
        "psi-from-one-without-abs": (
            "psi --poly 1,0,0,0,0,1 --x 100000 --from-one",
            "usage error: --from-one requires --abs"),
        "psi-theta-from-one": ("psi --poly 1,0,1 --x 3 --theta --from-one",
                               "usage error: --from-one requires --abs"),
        # no root-count budget covers an infinite cutoff
        "moment-z-inf": ("moment --H 2 --x 3 --z inf",
                         "usage error: z must be finite, got inf"),
        "moment-gamma-inf": ("moment --H 2 --x 3 --gamma inf",
                             "usage error: z must be finite, got inf"),
        "moment-gamma-overflow": ("moment --H 2 --x 100000 --gamma 400",
                                  "usage error: z must be finite, got inf"),
        # Monte Carlo seeds are Philox keys; refused before the Lambda table
        # (or its limit) is met
        "moment-mc-seed-negative": (
            "moment --H 2 --x 3 --mode mc --samples 10 --seed -1",
            "usage error: seed must be in [0, 2^128), got -1"),
        "moment-mc-seed-2^128": (
            "moment --d 3 --H 10000 --x 37 --z 10 --mode mc --samples 10 "
            "--seed 340282366920938463463374607431768211456",
            "usage error: seed must be in [0, 2^128), got "
            "340282366920938463463374607431768211456"),
        # refused before the Lambda-table limit
        "moment-abs-from-one-without-abs": (
            "moment --d 3 --H 1000 --x 1000 --z 2 --abs-from-one",
            "usage error: --abs-from-one requires --abs"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_line(self, case, capsys, monkeypatch, tmp_path):
        argv, want = self.CASES[case]
        for name, line in (("bad", "H = abc"), ("center", "center = bogus"),
                           ("format", "format = xml"),
                           ("mode", "mode = random")):
            (tmp_path / f"{name}.cfg").write_text(line + "\n")
        if case == "budget-env-not-int":
            monkeypatch.setenv("BHLAB_BUDGET", "abc")
        else:
            monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        code = exit_code(argv.format(tmp=tmp_path).split())
        out, err = capsys.readouterr()
        assert code == (3 if want.startswith("budget refusal: ") else 2)
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(want)
        assert "Traceback" not in err
        # the hint is given only where BHLAB_BUDGET lifts the limit
        assert ("BHLAB_BUDGET" in err) == (case in ("budget-env-not-int",
                                                    "progression-budget",
                                                    "mc-sample-budget",
                                                    "sieve-support-budget",
                                                    "psi-scalar-budget"))


def _grid(values):
    return st.lists(values, min_size=1, max_size=3).map(
        lambda vs: ",".join(map(str, vs)))


JUNK = st.sampled_from(["", "abc", "1.5", "-1", "0", "nan", "inf", "1e400",
                        "1,,2", "0x10", "2,", "1,0"])
POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda cs: ",".join(map(str, cs + [1])))
SWITCH = None

# The real flag set of every subcommand but `identities` (about 1 s a run),
# with values bounded so that each run takes milliseconds.  The first flags
# listed are the ones a run needs.
FLAGS = {
    "sieve-check": {
        "--n-max": st.integers(-1, 200),
        "--w-grid": _grid(st.floats(2, 40)),
        "--y-grid": _grid(st.floats(2, 2000)),
    },
    "singular-series": {"--poly": POLY, "--z": st.floats(1.5, 200)},
    "psi": {"--poly": POLY, "--x": st.integers(0, 6), "--abs": SWITCH,
            "--from-one": SWITCH, "--theta": SWITCH, "--neg": SWITCH},
    "moment": {
        "--H": st.integers(1, 3), "--x": _grid(st.integers(0, 6)),
        "--d": st.integers(1, 3), "--z": _grid(st.floats(1.5, 12)),
        "--gamma": st.floats(0, 1.4),
        "--mode": st.sampled_from(["exhaustive", "mc", "montecarlo"]),
        "--samples": st.integers(1, 50), "--seed": st.integers(0, 5),
        "--center": st.sampled_from(["bh", "none"]),
        "--abs": SWITCH, "--abs-from-one": SWITCH,
        "--threads": st.integers(1, 3),
        "--out": st.sampled_from(["{tmp}/out.csv", "{tmp}/no/such/out.csv"]),
        "--format": st.sampled_from(["csv", "json"]),
    },
    "bv": {"--X": st.integers(1, 10**4), "--Q": st.integers(1, 40)},
}
NEEDED = {"sieve-check": 1, "singular-series": 2, "psi": 2, "moment": 2,
          "bv": 2}


@st.composite
def cli_runs(draw):
    """(argv, config text or None, BHLAB_BUDGET or None) for one run.

    About one value in 16 is malformed, one flag in 30 lacks its value, and
    one needed flag in 10 is left out (or moved to the config file).  The
    faults come last in each sampled_from, so examples shrink to valid runs.
    """
    command = draw(st.sampled_from(["moment", *FLAGS]))  # moment: 14 flags
    flags = FLAGS[command]
    names = list(flags)

    def value(flag):
        if flags[flag] is SWITCH:
            return "1"
        return str(draw(draw(st.sampled_from([flags[flag]] * 15 + [JUNK]))))

    chosen = [f for f in names[:NEEDED[command]]
              if draw(st.sampled_from([1] * 9 + [0]))]
    chosen += [f for f in names[NEEDED[command]:]
               if draw(st.sampled_from([0, 0, 1]))]
    chosen = draw(st.permutations(chosen))
    in_config = draw(st.lists(st.sampled_from(names + ["--bogus"]),
                              max_size=3)) if draw(st.booleans()) else None
    argv = [command]
    for flag in chosen:
        if flags[flag] is SWITCH or draw(st.sampled_from([0] * 29 + [1])):
            argv.append(flag)  # a missing value, unless a switch
        elif draw(st.booleans()):
            argv.append(f"{flag}={value(flag)}")
        else:  # the space form, negative constant terms included
            argv += [flag, value(flag)]
    if command == "sieve-check" and "--n-max" not in chosen:
        argv.append("--n-max=50")  # the default 10**5 takes seconds
    config = None
    if in_config is not None:
        config = "".join(
            f"{flag[2:]} = {value(flag) if flag in flags else 1}\n"
            for flag in in_config)
        argv = ["--config", "{tmp}/run.cfg", *argv]
    budget = draw(st.sampled_from([None] * 12 + ["abc", "0", "50", "100000"]))
    return argv, config, budget


@settings(max_examples=150, deadline=None)
@given(cli_runs())
def test_cli_contract_fuzz(run):
    """Any argv from the real flag set: exit 0-3, at most one stderr line,
    never a traceback."""
    argv, config, budget = run
    env = {} if budget is None else {"BHLAB_BUDGET": budget}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        if budget is None:
            os.environ.pop("BHLAB_BUDGET", None)
        if config is not None:
            with open(os.path.join(tmp, "run.cfg"), "w") as fh:
                fh.write(config)
        cwd = os.getcwd()
        os.chdir(tmp)  # a malformed --out names a file here
        try:
            code = exit_code([a.replace("{tmp}", tmp) for a in argv])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1


class TestFixedLimitRefusals:
    """Oversize prime sieves and sandwich arrays are refused, not a
    MemoryError traceback with the failed-checks code."""

    @pytest.mark.parametrize("argv,budget,want", [
        ("sieve-check --n-max 10000000000000 --w-grid 6 --y-grid 50", None,
         "budget refusal: sandwich check arrays: requested size "
         "10000000000000 exceeds the fixed limit 200000000"),
        ("singular-series --poly 1,0,1 --z 1e13", None,
         "budget refusal: prime sieve: requested size 10000000000000 "
         "exceeds the fixed limit 200000000"),
        ("bv --X 1000000000000 --Q 3", "10000000000000",
         "budget refusal: prime sieve: requested size 1000000000000 "
         "exceeds the fixed limit 200000000"),
    ])
    def test_exit_3_with_one_line(self, argv, budget, want, capsys,
                                  monkeypatch):
        if budget is None:
            monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("BHLAB_BUDGET", budget)
        code = exit_code(argv.split())
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == want + "\n"


class TestRootCountBudgetRefusal:
    def test_large_z_refused_with_one_line(self, capsys, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        code = exit_code(["singular-series", "--poly", "1,0,1", "--z", "1e8"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("budget refusal: local root counts: requested "
                              "size ")
        assert err.endswith(" exceeds budget 100000000 (override with "
                            "BHLAB_BUDGET)\n")
        assert len(err.splitlines()) == 1

    def test_fixed_divisor_needs_no_count(self, capsys, monkeypatch):
        monkeypatch.delenv("BHLAB_BUDGET", raising=False)
        code, out = run(capsys, "singular-series", "--poly", "6,4,2",
                        "--z", "1e8")
        assert code == 0
        assert out.endswith("value = 0\n")

    def test_budget_lifts_the_refusal(self, capsys, monkeypatch):
        argv = ["singular-series", "--poly", "-3,0,0,1", "--z", "1000"]
        cost = _root_count_cost(3, 1000.0)
        local_root_counts.cache_clear()  # the budget guards a cache miss
        monkeypatch.setenv("BHLAB_BUDGET", str(cost - 1))
        assert exit_code(argv) == 3
        assert capsys.readouterr().err.startswith(
            f"budget refusal: local root counts: requested size {cost} ")
        monkeypatch.setenv("BHLAB_BUDGET", str(cost))
        code, lifted = run(capsys, *argv)
        assert code == 0
        monkeypatch.delenv("BHLAB_BUDGET")
        local_root_counts.cache_clear()
        assert run(capsys, *argv) == (0, lifted)


class TestPsiPastTheLimit:
    def test_refused_before_any_lambda(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "von_mangoldt",
                            lambda n: calls.append(n) or 0.0)
        code = exit_code(["psi", "--poly", "1,0,0,1", "--x", "3000000"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == ("usage error: von_mangoldt limited to n < 2^63, "
                       "got 9223372036854775809\n")
        assert calls == []


class TestBlasThreads:
    """Importing bhlab pins OpenBLAS to one thread before numpy loads, so a
    process runs its main thread plus --threads workers and no BLAS pool."""

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="thread count read from /proc")
    def test_import_starts_no_blas_pool(self):
        out = fresh_python(
            "import os, sys, bhlab\n"
            "status = open('/proc/self/status').read().split('\\n')\n"
            "print(*[line for line in status if line.startswith('Threads:')],"
            " os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)")
        assert out.split() == ["Threads:", "1", "1", "True"]

    def test_a_set_thread_count_is_kept(self):
        out = fresh_python(
            "import os, bhlab; print(os.environ['OPENBLAS_NUM_THREADS'])",
            openblas_threads=2)
        assert out == "2\n"
