import csv
import json
import math

import pytest

from bhlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


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
        from bhlab import moments
        built = []
        monkeypatch.setattr(moments, "von_mangoldt_table", built.append)
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
        assert max(sieved) <= math.isqrt(budgets.residue_budget()) + 1
        err = capsys.readouterr().err
        assert err.startswith("budget refusal: root-count tables")

    def test_config_file_under_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("H = 1\nx = 1\nz = 2\nd = 2\n")
        code, out = run(capsys, "--config", str(cfg), "moment",
                        "--abs", "--abs-from-one", "--x", "1")
        assert code == 0
        assert "# H = 1" in out


class TestSuites:
    def test_identities_passes(self, capsys):
        code, out = run(capsys, "identities")
        assert code == 0
        assert "0 failures" in out
        assert "FAIL" not in out

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

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--poly", "1,1", "--x", "3", "--bogus"])
        assert exc.value.code == 2
