"""CLI surface: grammar, exit codes, file outputs, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import liftdep
from liftdep import cli, codec
from liftdep.cli import main
from liftdep.codec import CSV_BLOCK_ROWS
from liftdep.errors import LiftDepError

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMi:
    def test_bvn_closed_form(self, capsys):
        code, out, _ = run(capsys, "mi", "--dist", "bvn", "--r", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.223144, abs=1e-6)
        assert payload["method"] == "ClosedForm"

    def test_bvn_forced_quadrature(self, capsys):
        code, out, _ = run(capsys, "mi", "--dist", "bvn", "--r", "0.6", "--method", "quadrature")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "Quadrature"
        assert payload["value"] == pytest.approx(0.223144, abs=1e-3)

    def test_curve_dist(self, capsys):
        code, out, _ = run(capsys, "mi", "--dist", "curve-normal-identity")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "CurveQuadrature"
        assert payload["value"] == pytest.approx(0.6207822376352453, abs=1e-4)

    def test_pmf_file(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text("x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n")
        code, out, _ = run(capsys, "mi", "--pmf-file", str(pmf))
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "ExactSum"
        assert payload["value"] == pytest.approx(0.192745, abs=1e-6)

    @pytest.mark.parametrize("flags", [["--method", "quadrature"], ["--budget", "10"]],
                             ids=["method", "budget"])
    @pytest.mark.parametrize("source", ["pmf", "curve"])
    def test_quadrature_flags_need_a_continuous_dist(self, capsys, tmp_path, source, flags):
        """mi_discrete and mi_curve take neither flag, so giving one is a usage
        error instead of a silently ignored setting."""
        pmf = tmp_path / "pmf.csv"
        pmf.write_text("x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n")
        dist = ["--pmf-file", str(pmf)] if source == "pmf" else ["--dist", "curve-normal-identity"]
        code, out, err = run(capsys, "mi", *dist, *flags)
        assert code == 2
        assert out == ""
        assert flags[0] in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_is_a_usage_error(self, capsys, budget):
        code, out, err = run(
            capsys, "mi", "--dist", "bvn", "--r", "0.6", "--method", "quadrature",
            "--budget", budget,
        )
        assert code == 2
        assert out == ""
        assert "--budget must be positive" in err

    def test_budget_on_the_closed_form_bvn_is_a_usage_error(self, capsys):
        """Under --method auto the bvn takes the closed form, which has no
        budget, so --budget there is refused instead of ignored."""
        code, out, err = run(capsys, "mi", "--dist", "bvn", "--r", "0.6", "--budget", "5")
        assert code == 2
        assert out == ""
        assert "--budget" in err and "--method quadrature" in err

    def test_seed_is_a_usage_error(self, capsys):
        """Only ``sample`` draws at random, so only it takes --seed."""
        code, out, err = run(capsys, "mi", "--dist", "bvn", "--r", "0.6", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "--seed" in err

    def test_budget_reaches_the_quadrature(self, capsys):
        code, _, err = run(capsys, "mi", "--dist", "cauchy-circular", "--budget", "1000")
        assert code == 1
        assert "QuadratureNotConverged" in err


class TestWeierstrass:
    def test_two_endpoints(self, capsys):
        code, out, _ = run(capsys, "weierstrass", "--n-points", "2", "--n-terms", "30")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,w"
        assert len(lines) == 3
        x0, w0 = lines[1].split(",")
        x1, w1 = lines[2].split(",")
        assert float(w0) == pytest.approx(1 - 2.0**-30, abs=1e-12)
        assert float(w1) == pytest.approx(-(1 - 2.0**-30), abs=1e-12)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(capsys, "mi")[0] == 2  # no distribution given
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys, "mi", "--dist", "bvn")[0] == 2  # bvn without --r

    @pytest.mark.parametrize("argv", [
        ["lift-grid", "--pmf-file", "pmf.csv", "--grid-default", "--ny", "5"],
        ["mi", "--dist", "bvn"],
        ["target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1"],
        ["estimate-lift", "--samples-file", "s.csv", "--estimator", "kernel",
         "--smoothing", "0.1"],
    ], ids=lambda argv: argv[0])
    def test_a_handler_usage_error_prints_its_subcommand_usage(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # it used to print the top-level "usage: liftdep [-h] {lift-grid,...}"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pmf.csv").write_text("x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: liftdep {argv[0]} ")
        assert f"\nliftdep {argv[0]}: error: " in err

    def test_domain_error_is_1_with_stable_name(self, capsys):
        code, _, err = run(capsys, "mi", "--dist", "bvn", "--r", "1.5")
        assert code == 1
        assert "DegenerateCorrelation" in err

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "mi", "--pmf-file", "/nonexistent/x.csv")
        assert code == 1

    @pytest.mark.parametrize("argv,code,message", [
        (["mi", "--dist", "bvn", "--r", "0.6", "--pmf-file", "pmf.csv"], 2,
         "liftdep mi: error: --dist and --pmf-file are mutually exclusive\n"),
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "1"], 1,
         "error: ValueError: grid counts must be >= 2\n"),
        (["target", "--pmf-file", "pmf.csv"], 2,
         "liftdep target: error: discrete targeting requires --target-y\n"),
        (["estimate-lift", "--samples-file", "samples.csv", "--bandwidth-x", "0.5"], 2,
         "liftdep estimate-lift: error: --bandwidth-x and --bandwidth-y must be given together\n"),
        # a float flag reads a number as a CSV cell does: ASCII, no underscores
        (["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "abc", "1"], 2,
         "liftdep sibuya: error: argument --point: invalid float value: 'abc'\n"),
        (["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "1_0", "1"], 2,
         "liftdep sibuya: error: argument --point: invalid float value: '1_0'\n"),
        (["mi", "--dist", "bvn", "--r", "0_6"], 2,
         "liftdep mi: error: argument --r: invalid float value: '0_6'\n"),
        (["counterexample", "--r-schedule", "0.9,abc"], 2,
         "liftdep counterexample: error: argument --r-schedule: invalid float value: 'abc'\n"),
        # an int flag takes the same syntax: ASCII, no underscores
        (["weierstrass", "--n-points", "1_0"], 2,
         "liftdep weierstrass: error: argument --n-points: invalid int value: '1_0'\n"),
        (["sample", "--dist", "bvn", "--r", "0.6", "--n", "\uff13"], 2,
         "liftdep sample: error: argument --n: invalid int value: '\uff13'\n"),
        (["sample", "--dist", "bvn", "--r", "0.6", "--n", "5", "--seed", "4_2"], 2,
         "liftdep sample: error: argument --seed: invalid int value: '4_2'\n"),
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "2.5"], 2,
         "liftdep lift-grid: error: argument --nx: invalid int value: '2.5'\n"),
    ], ids=["dist-and-pmf-file", "nx-1", "target-without-target-y", "bandwidth-x-alone",
            "point-abc", "point-underscore", "r-underscore", "r-schedule-abc",
            "n-points-underscore", "n-fullwidth-digit", "seed-underscore", "nx-float"])
    def test_flag_errors(self, capsys, tmp_path, monkeypatch, argv, code, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pmf.csv").write_text("x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n")
        (tmp_path / "samples.csv").write_text(
            "x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30))
        )
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.endswith(message)

    @pytest.mark.parametrize("argv,same", [
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "3", "--ny", "3", "--xmin", "-1e3"],
         ["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "3", "--ny", "3", "--xmin=-1e3"]),
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "3", "--ny", "3", "--ymin", "-.5E1"],
         ["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "3", "--ny", "3", "--ymin=-.5E1"]),
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--xmin", "-Infinity"],
         ["lift-grid", "--dist", "bvn", "--r", "0.6", "--xmin=-Infinity"]),
        (["mi", "--dist", "bvn", "--r", "-5e-1"], ["mi", "--dist", "bvn", "--r=-5e-1"]),
        # --point takes two values, so its reference gives the same value in a
        # token that argparse reads as a value at any rule
        (["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "-1e-3", "0"],
         ["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "-0.001", "0"]),
        (["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "-inf", "0"],
         ["sibuya", "--dist", "bvn", "--r", "0.6", "--point", " -inf", "0"]),
        (["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "-nan", "0"],
         ["sibuya", "--dist", "bvn", "--r", "0.6", "--point", " -nan", "0"]),
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--xmin", "-NaN"],
         ["lift-grid", "--dist", "bvn", "--r", "0.6", "--xmin=-NaN"]),
        (["counterexample", "--r-schedule", "-0.5,0.5"],
         ["counterexample", "--r-schedule=-0.5,0.5"]),
    ], ids=["xmin-exponent", "ymin-point-exponent", "xmin-infinity", "r-exponent",
            "point-exponent", "point-inf", "point-nan", "xmin-nan", "r-schedule-list"])
    def test_a_negative_float_value_is_not_an_option(self, capsys, argv, same):
        """argparse takes a token that starts with "-" for an option unless it
        is "-1" or "-1.5"; a float flag's value may be any number that
        _float reads."""
        got = run(capsys, *argv)
        assert got == run(capsys, *same)
        assert "expected" not in got[2]

    USAGE_ERRORS = {
        "mi-budget": "mi --pmf-file pmf.csv --budget 5",
        "mi-method": "mi --pmf-file pmf.csv --method quadrature",
        "mi-dist-and-pmf-file": "mi --pmf-file pmf.csv --dist bvn --r 0.6",
        "target-without-target-y": "target --pmf-file pmf.csv",
        "target-lo": "target --pmf-file pmf.csv --target-lo 1",
        "lift-grid-default-nx": "lift-grid --pmf-file pmf.csv --grid-default --nx 5",
        "lift-grid-tol": "lift-grid --pmf-file pmf.csv --tol 0",
        "regions-r": "regions --pmf-file pmf.csv --r 0.5",
        "sibuya-point": "sibuya --pmf-file pmf.csv --point abc 1",
        "sample-r": "sample --pmf-file pmf.csv --n 5 --r 0.5",
        "estimate-lift-bandwidth-x": "estimate-lift --samples-file s.csv --bandwidth-x 0.5",
        "estimate-lift-smoothing": "estimate-lift --samples-file s.csv --smoothing 0.1",
        "estimate-lift-empirical-nx":
            "estimate-lift --samples-file s.csv --estimator empirical --nx 3",
        "scaling-center-x": "scaling --samples-file s.csv --center-x 0_5 --center-y 0",
    }

    @pytest.mark.parametrize("argv", [a.split() for a in USAGE_ERRORS.values()],
                             ids=list(USAGE_ERRORS))
    def test_a_usage_error_does_not_depend_on_an_input_file(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        """Every usage rule is decided from argv alone, before any file is
        read, so a missing input file cannot turn it into a domain error."""
        results = []
        for files in (True, False):
            where = tmp_path / str(files)
            where.mkdir()
            if files:
                (where / "pmf.csv").write_text(TestUnreadFlags.PMF)
                (where / "s.csv").write_text(
                    "x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30))
                )
            monkeypatch.chdir(where)
            results.append(run(capsys, *argv))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (2, "")
        assert f"liftdep {argv[0]}: error: " in err


class TestOutputs:
    def test_lift_grid_csv(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "lift-grid",
            "--dist",
            "bvn",
            "--r",
            "0.6",
            "--nx",
            "5",
            "--ny",
            "5",
            "--out",
            str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,L,label"
        assert len(lines) == 1 + 25

    def test_counterexample_csv(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--r-schedule", "0.9,0.99,0.999")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,mi,limit_mi,exceeds"
        assert len(lines) == 4
        assert all(line.endswith(",true") for line in lines[1:])

    def test_counterexample_empty_schedule(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--r-schedule", "")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_regions_json(self, capsys):
        code, out, _ = run(capsys, "regions", "--dist", "bvn", "--r", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert 0 < payload["mass_lift"] < 1
        assert 0 < payload["mass_inhibit"] < 1

    def test_sibuya_points(self, capsys):
        code, out, _ = run(
            capsys, "sibuya", "--dist", "bvn", "--r", "0.6",
            "--point", "0", "0", "--point", "1", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,omega"
        assert float(lines[1].split(",")[2]) == pytest.approx(1.409666, abs=1e-4)

    def test_lift_grid_rejects_a_nan_grid_value(self, capsys):
        code, out, err = run(
            capsys, "lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "2", "--ny", "2",
            "--xmin", "nan",
        )
        assert code == 1
        assert out == ""
        assert "ValueError" in err and "NaN" in err

    @pytest.mark.parametrize("xmin,xmax", [("nan", "1"), ("1", "0")])
    def test_estimate_lift_rejects_a_nan_or_decreasing_grid(self, capsys, tmp_path, xmin, xmax):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30)))
        out_file = tmp_path / "lhat.csv"
        for out in ("-", str(out_file)):
            code, stdout, err = run(
                capsys, "estimate-lift", "--samples-file", str(samples), "--xmin", xmin,
                "--xmax", xmax, "--nx", "3", "--ny", "3", "--out", out,
            )
            assert code == 1
            assert stdout == ""
            assert "ValueError" in err and "grids must" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv,message", [
        (["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "3", "--ny", "2",
          "--xmin=-1e308", "--xmax", "1e308"], "grids must"),
        (["target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1", "--target-hi", "2",
          "--xmin=-inf"], "profile grid"),
        (["estimate-lift", "--samples-file", "{samples}", "--nx", "3", "--ny", "3",
          "--ymax", "inf"], "grids must"),
    ], ids=["lift-grid", "target", "estimate-lift"])
    def test_an_infinite_grid_end_or_span_is_an_error(self, capsys, tmp_path, argv, message):
        # in process, so a numpy warning from the grid would be an error here
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30)))
        out_file = tmp_path / "out"
        argv = [arg.replace("{samples}", str(samples)) for arg in argv]
        code, stdout, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 1
        assert stdout == ""
        assert "ValueError" in err and message in err
        assert not out_file.exists()

    def test_bvn_lift_past_the_largest_double_is_inf_without_a_warning(self, capsys):
        # in process, so pytest's warnings-as-errors turns an overflow warning
        # into a failure
        code, out, _ = run(
            capsys, "lift-grid", "--dist", "bvn", "--r", "-0.6", "--xmin", "63", "--xmax", "64",
            "--nx", "2", "--ymin", "-38", "--ymax", "-37", "--ny", "2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(float(x), float(y)) for x, y, _, _ in rows] == [
            (63, -38), (63, -37), (64, -38), (64, -37)
        ]
        for x, y, value, label in rows:
            expected = oracles.bvn_lift_mp(-0.6, float(x), float(y))
            if float(y) == -38:  # log L = 722 at (63, -38)
                assert value == "inf" and expected == math.inf
            else:
                assert float(value) == pytest.approx(expected, rel=1e-12)
            assert label == "Lift"

    def test_sibuya_nan_point_is_an_error_and_inf_is_valid(self, capsys):
        code, out, err = run(capsys, "sibuya", "--dist", "bvn", "--r", "0.6", "--point", "nan", "0")
        assert code == 1
        assert out == ""
        assert "ValueError" in err and "(nan, 0.0)" in err
        code, out, _ = run(capsys, "sibuya", "--dist", "bvn", "--r", "0.6", "--point", "inf", "inf")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_sibuya_underflowing_marginal_product_is_a_domain_error(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text("x,y:0,y:1\n0,1e-200,0\n1,0,1\n")
        code, out, err = run(capsys, "sibuya", "--pmf-file", str(pmf), "--point", "0", "0")
        assert code == 1
        assert out == ""
        assert "UndefinedAtPoint" in err
        assert "Traceback" not in err

    def test_target_empty_profile_grid_is_an_error(self, capsys):
        code, out, err = run(
            capsys, "target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1",
            "--target-hi", "2", "--nx", "0",
        )
        assert code == 1
        assert out == ""
        assert "ValueError" in err and "profile grid" in err

    def test_lift_grid_default_is_the_support_grid(self, capsys, tmp_path):
        # fewer than eight labels a side: numpy then sums each marginal in
        # order, so the loop oracle gives the same bits
        xs, ys = [-1.5, 0.0, 2.0], [0.0, 1.0, 2.5, 4.0]
        pmf = [[0.125, 0.0, 0.0625, 0.0], [0.1, 0.2, 0.0, 0.0], [0.0, 0.0, 0.5125, 0.0]]
        path = tmp_path / "pmf.csv"
        path.write_text(oracles.pmf_csv(xs, ys, pmf))
        code, out, _ = run(capsys, "lift-grid", "--pmf-file", str(path), "--grid-default")
        assert code == 0
        values = [[math.nan if v is None else v for v in row]
                  for row in oracles.brute_lift_table(pmf)]
        labels = [[oracles.lift_label(v, 1e-9) for v in row] for row in values]
        assert out == oracles.lift_field_csv(xs, ys, values, labels)

    def test_lift_grid_default_needs_pmf_file(self, capsys):
        code, out, err = run(
            capsys, "lift-grid", "--dist", "bvn", "--r", "0.6", "--grid-default"
        )
        assert code == 2
        assert out == ""
        assert "--grid-default" in err

    def test_target_discrete(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text("x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n")
        code, out, _ = run(capsys, "target", "--pmf-file", str(pmf), "--target-y", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["x_opt"] == 1.0
        assert payload["boosted_rate"] == pytest.approx(0.8)

    def test_sample_then_scaling_round_trip(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        code, _, _ = run(
            capsys,
            "sample",
            "--dist",
            "curve-uniform-identity",
            "--n",
            "50000",
            "--seed",
            "42",
            "--out",
            str(samples),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "scaling",
            "--samples-file",
            str(samples),
            "--center-x",
            "0.5",
            "--center-y",
            "0.5",
            "--eps-max",
            "0.1",
            "--eps-min",
            "0.02",
            "--k",
            "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s_hat"] == pytest.approx(1.0, abs=0.2)

    def test_estimate_lift_kernel(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        run(capsys, "sample", "--dist", "bvn", "--r", "0.6", "--n", "5000",
            "--out", str(samples))
        code, out, _ = run(
            capsys,
            "estimate-lift",
            "--samples-file",
            str(samples),
            "--estimator",
            "kernel",
            "--xmin", "-1", "--xmax", "1", "--nx", "5",
            "--ymin", "-1", "--ymax", "1", "--ny", "5",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,y,L,label"

    def test_estimate_lift_empirical(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n" + "0,0\n" * 10 + "1,1\n" * 10)
        code, out, _ = run(
            capsys,
            "estimate-lift",
            "--samples-file", str(samples),
            "--estimator", "empirical",
            "--smoothing", "0",
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(2.0)


class TestMalformedInput:
    def test_short_samples_row_is_domain_error(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n1,2\n3\n")
        code, out, err = run(
            capsys, "scaling", "--samples-file", str(samples), "--center-x", "0",
            "--center-y", "0",
        )
        assert code == 1
        assert out == ""
        assert "ValueError" in err and "line 3" in err
        assert "Traceback" not in err

    def test_non_numeric_samples_cell_is_domain_error(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n1,2\nabc,3\n")
        code, out, err = run(
            capsys, "scaling", "--samples-file", str(samples), "--center-x", "0",
            "--center-y", "0",
        )
        assert code == 1
        assert out == ""
        assert "ValueError" in err and "line 3: not a number: 'abc'" in err


    @pytest.mark.parametrize("argv", [
        ["regions"],
        ["target", "--target-lo", "0", "--target-hi", "1"],
    ])
    def test_curve_without_area_density_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--dist", "curve-normal-identity")
        assert code == 1
        assert out == ""
        assert "CurveSingularHasNoDensity" in err

    def test_curve_fold_is_undefined_cell(self, capsys):
        # X ~ U[0,1], Y = X^2: phi' vanishes at x = 0, the rest of the curve
        # has lift 4x / (pi sqrt(1 + 4x^2)).
        code, out, _ = run(
            capsys, "lift-grid", "--dist", "curve-uniform-square", "--xmin", "0", "--xmax",
            "1", "--ymin", "0", "--ymax", "1", "--nx", "101", "--ny", "101",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 101 * 101
        on_curve = [r for r in rows if abs(float(r[1]) - float(r[0]) ** 2) <= 1e-9]
        assert len(on_curve) == 11
        assert on_curve[0][:2] == ["0", "0"] and on_curve[0][3] == "Undefined"
        for x, _, value, label in on_curve[1:]:
            x = float(x)
            assert float(value) == pytest.approx(4 * x / (math.pi * math.sqrt(1 + 4 * x * x)), rel=1e-9)
            assert label == "Inhibit"
        assert all(r[3] == "Zero" for r in rows if r not in on_curve)


    @pytest.mark.parametrize("command", ["regions", "lift-grid"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_must_be_positive_and_finite(self, capsys, command, tol):
        code, out, err = run(capsys, command, "--dist", "bvn", "--r", "0.6", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol must be positive and finite" in err

    def test_non_finite_bandwidth_is_domain_error(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30)))
        code, out, err = run(
            capsys, "estimate-lift", "--samples-file", str(samples), "--bandwidth-x", "nan",
            "--bandwidth-y", "1", "--nx", "3", "--ny", "3",
        )
        assert code == 1
        assert out == ""
        assert "ValueError" in err and "bandwidths must be positive and finite" in err

    def test_weierstrass_phase_overflow_is_domain_error(self):
        # a subprocess, so that a RuntimeWarning would reach the real stderr
        src = str(Path(liftdep.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "liftdep.cli", "weierstrass", "--n-points", "5",
             "--n-terms", "700"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ValueError: n_terms=700")
        assert "RuntimeWarning" not in proc.stderr


class TestUnreadFlags:
    """A flag that the route a command takes never reads is a usage error
    that names it, not a setting silently ignored; no ``--out`` is written."""

    PMF = "x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n"
    GRID = [["--xmin", "0"], ["--xmax", "1"], ["--nx", "5"], ["--ymin", "0"], ["--ymax", "1"],
            ["--ny", "5"]]
    CASES = {
        "estimate-lift-empirical": (
            ["estimate-lift", "--samples-file", "s.csv", "--estimator", "empirical"],
            [*GRID, ["--bandwidth-x", "1"], ["--bandwidth-y", "1"]],
        ),
        "estimate-lift-kernel": (
            ["estimate-lift", "--samples-file", "s.csv", "--nx", "3", "--ny", "3"],
            [["--smoothing", "0.1"]],
        ),
        "target-discrete": (
            ["target", "--pmf-file", "pmf.csv", "--target-y", "1"],
            [["--target-lo", "0"], ["--target-hi", "1"], ["--xmin", "0"], ["--xmax", "1"],
             ["--nx", "5"]],
        ),
        "target-continuous": (
            ["target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1", "--target-hi", "2"],
            [["--target-y", "1"]],
        ),
        "lift-grid-default": (
            ["lift-grid", "--pmf-file", "pmf.csv", "--grid-default"],
            GRID,
        ),
        # --r is read by --dist bvn only
        "mi-cauchy-circular": (["mi", "--dist", "cauchy-circular"], [["--r", "0.5"]]),
        "sibuya-indep-normal": (
            ["sibuya", "--dist", "indep-normal", "--point", "0", "0"],
            [["--r", "0.9"]],
        ),
        "regions-pmf-file": (["regions", "--pmf-file", "pmf.csv"], [["--r", "0.5"]]),
    }
    PARAMS = [(base, flag) for base, flags in CASES.values() for flag in flags]
    IDS = [f"{case}{flag[0]}" for case, (_, flags) in CASES.items() for flag in flags]

    @pytest.mark.parametrize(("base", "flag"), PARAMS, ids=IDS)
    def test_unread_flag_is_a_usage_error(self, capsys, tmp_path, monkeypatch, base, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pmf.csv").write_text(self.PMF)
        (tmp_path / "s.csv").write_text("x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30)))
        assert run(capsys, *base)[0] == 0
        code, out, err = run(capsys, *base, *flag, "--out", "out.csv")
        assert code == 2
        assert out == ""
        assert f"error: {flag[0]} " in err
        assert not (tmp_path / "out.csv").exists()


ERROR_CLASSES = [*LiftDepError.__subclasses__(), ValueError, OSError]


class TestFailurePath:
    """Every error a handler raises reaches one printer in ``main``."""

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_an_error_exits_1_with_its_class_name(self, capsys, monkeypatch, error):
        def handler(args, f, parser):
            raise error("the message")

        monkeypatch.setattr(cli, "_cmd_mi", handler)
        code, out, err = run(capsys, "mi", "--dist", "bvn", "--r", "0.6")
        assert (code, out, err) == (1, "", f"error: {error.__name__}: the message\n")

    def test_a_usage_error_in_a_handler_exits_2(self, capsys, monkeypatch):
        def handler(args, f, parser):
            parser.error("the message")

        monkeypatch.setattr(cli, "_cmd_mi", handler)
        code, out, err = run(capsys, "mi", "--dist", "bvn", "--r", "0.6")
        assert (code, out) == (2, "")
        assert err.startswith("usage: liftdep mi ")
        assert err.endswith("\nliftdep mi: error: the message\n")

    @pytest.mark.parametrize("argv", [
        ["weierstrass", "--n-points", str(10**15)],
        ["sample", "--dist", "bvn", "--r", "0.6", "--n", str(10**15)],
    ], ids=["weierstrass", "sample"])
    def test_an_array_past_the_address_space_is_one_memory_error_line(
        self, capsys, tmp_path, argv
    ):
        """10**15 doubles are more than the 2**47-byte user address space,
        so numpy refuses them at once and allocates nothing. It raises a
        private subclass of MemoryError; the line names the builtin, and
        the --out file is left as it was."""
        out = tmp_path / "out.csv"
        out.write_bytes(b"keep\n")
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: MemoryError: Unable to allocate ") and err.count("\n") == 1
        assert out.read_bytes() == b"keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestOutFile:
    """``--out PATH`` replaces the file only when the command succeeds."""

    def _failing_estimate(self, capsys, tmp_path, out):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(30)))
        return run(
            capsys, "estimate-lift", "--samples-file", str(samples), "--bandwidth-x", "nan",
            "--bandwidth-y", "1", "--nx", "3", "--ny", "3", "--out", out,
        )

    @pytest.mark.parametrize("error", ["domain", "usage"])
    def test_failing_command_keeps_the_file(self, capsys, tmp_path, error):
        out = tmp_path / "out.csv"
        out.write_bytes(b"keep\n")
        if error == "domain":
            code, _, _ = self._failing_estimate(capsys, tmp_path, str(out))
            assert code == 1
        else:
            code, _, _ = run(capsys, "mi", "--dist", "bvn", "--out", str(out))
            assert code == 2
        assert out.read_bytes() == b"keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["out.csv"] + (["samples.csv"] if error == "domain" else [])
        )

    def test_failing_command_creates_no_file(self, capsys, tmp_path):
        code, _, _ = self._failing_estimate(capsys, tmp_path, str(tmp_path / "new.csv"))
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv"]

    def test_success_replaces_the_file_and_keeps_its_mode(self, capsys, tmp_path):
        out = tmp_path / "mi.json"
        out.write_text("old contents that are longer than the new ones " * 10)
        out.chmod(0o640)
        code, stdout, _ = run(capsys, "mi", "--dist", "bvn", "--r", "0.3")
        assert main(["mi", "--dist", "bvn", "--r", "0.3", "--out", str(out)]) == 0
        assert out.read_text() == stdout
        assert out.stat().st_mode & 0o777 == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["mi.json"]

    def test_new_file_gets_the_mode_of_a_plain_open(self, capsys, tmp_path):
        plain = tmp_path / "plain"
        with open(plain, "w"):
            pass
        out = tmp_path / "mi.json"
        assert main(["mi", "--dist", "bvn", "--r", "0.3", "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == plain.stat().st_mode & 0o7777

    def test_a_taken_temporary_name_is_skipped(self, capsys, tmp_path):
        # another writer's temporary sibling holds the first name
        stale = tmp_path / f".mi.json.{os.getpid()}.0.tmp"
        stale.write_bytes(b"stale\n")
        _, stdout, _ = run(capsys, "mi", "--dist", "bvn", "--r", "0.3")
        out = tmp_path / "mi.json"
        assert main(["mi", "--dist", "bvn", "--r", "0.3", "--out", str(out)]) == 0
        assert out.read_text() == stdout
        assert stale.read_bytes() == b"stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "mi.json"]

    def test_a_device_is_written_directly(self, capsys, tmp_path):
        # not a regular file, so it is opened as it is, with no temporary sibling
        code, out, err = run(capsys, "mi", "--dist", "bvn", "--r", "0.3", "--out", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_dash_writes_to_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, "mi", "--dist", "bvn", "--r", "0.3", "--out", "-")
        assert code == 0 and json.loads(out)["method"] == "ClosedForm"
        code, out, err = self._failing_estimate(capsys, tmp_path, "-")
        assert code == 1 and out == "" and "ValueError" in err


class TestImport:
    def test_import_loads_no_scipy(self):
        """Neither the import nor a bvn `regions` or `lift-grid` command loads
        scipy: the runtime needs numpy only."""
        src = str(Path(liftdep.__file__).resolve().parents[1])
        argvs = [
            ["regions", "--dist", "bvn", "--r", "0.6"],
            ["lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "5", "--ny", "5"],
        ]
        code = (
            "import contextlib, io, sys, liftdep.cli\n"
            "def scipy_modules(): return [m for m in sys.modules if m.startswith('scipy')]\n"
            "print(scipy_modules())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [liftdep.cli.main(argv) for argv in {argvs!r}]\n"
            "print(codes, scipy_modules())\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[0, 0] []"]

    LOADS = {
        ("weierstrass", "--n-points", "5"): ["codec", "scaling"],
        ("scaling", "--samples-file", "line.csv", "--center-x", "0.5", "--center-y", "0.5"):
            ["codec", "scaling"],
        ("sample", "--dist", "bvn", "--r", "0.6", "--n", "5"):
            ["codec", "distributions", "quadrature"],
        ("mi", "--dist", "bvn", "--r", "0.6"):
            ["codec", "distributions", "information", "quadrature"],
        ("counterexample", "--r-schedule", "0.9"):
            ["codec", "distributions", "information", "quadrature"],
        ("lift-grid", "--dist", "bvn", "--r", "0.6", "--nx", "3", "--ny", "3"):
            ["codec", "distributions", "lift", "quadrature"],
        ("regions", "--dist", "bvn", "--r", "0.6"):
            ["codec", "distributions", "lift", "quadrature"],
        ("sibuya", "--dist", "bvn", "--r", "0.6", "--point", "0", "0"):
            ["codec", "distributions", "lift", "quadrature"],
        # `information` comes only with `estimation`, for `empirical_mi`, and the
        # bench tracer indexes sys.modules for it: ROADMAP item 12
        ("target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1", "--target-hi", "2"):
            ["codec", "distributions", "estimation", "information", "lift", "quadrature"],
        # `information` only through `estimation`'s import, as for `target`
        ("estimate-lift", "--samples-file", "line.csv", "--nx", "3", "--ny", "3"):
            ["codec", "distributions", "estimation", "information", "lift", "quadrature"],
    }

    @pytest.mark.parametrize("argv", list(LOADS), ids=[argv[0] for argv in LOADS])
    def test_a_command_loads_only_its_modules(self, tmp_path, argv):
        """Each subcommand loads the liftdep modules it uses, besides `cli`
        and `errors`, and no scipy or `numpy.polynomial`."""
        xs = [i / 1999 for i in range(2000)]
        (tmp_path / "line.csv").write_text("x,y\n" + "".join(f"{x!r},{x!r}\n" for x in xs))
        code = (
            "import contextlib, io, json, sys, liftdep.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = liftdep.cli.main(sys.argv[1:])\n"
            "watched = ('liftdep.', 'scipy', 'numpy.polynomial')\n"
            "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith(watched))]))\n"
        )
        src = str(Path(liftdep.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        status, loaded = json.loads(done.stdout)
        assert status == 0, done.stderr
        assert loaded == sorted(f"liftdep.{m}" for m in ["cli", "errors", *self.LOADS[argv]])

    def test_the_block_threads_load_no_executor_or_logging(self, tmp_path):
        """`sample` writes three blocks and `estimate-lift` sums two kernel
        chunks on two threads, built on `threading` and `queue` alone."""
        src = str(Path(liftdep.__file__).resolve().parents[1])
        argvs = [
            ["sample", "--dist", "bvn", "--r", "0.6", "--n", str(2 * CSV_BLOCK_ROWS + 1),
             "--out", "s.csv"],
            ["estimate-lift", "--samples-file", "s.csv", "--nx", "3", "--ny", "3"],
        ]
        code = (
            "import contextlib, io, json, sys, liftdep.cli, liftdep.codec\n"
            "liftdep.codec._WORKERS = 2\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [liftdep.cli.main(argv) for argv in {argvs!r}]\n"
            "watched = ('concurrent', 'logging')\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith(watched))]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[0, 0], []]


class TestThreads:
    """Threads start only where a loop has two or more blocks (codec._in_order)."""

    @pytest.mark.parametrize("argv,threads", [
        (["mi", "--dist", "bvn", "--r", "0.6"], 0),
        (["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "0", "0", "--point", "1", "2"], 0),
        (["weierstrass", "--n-points", str(CSV_BLOCK_ROWS)], 0),
        (["weierstrass", "--n-points", str(CSV_BLOCK_ROWS + 1)], 2),
    ], ids=["mi", "sibuya", "weierstrass-one-block", "weierstrass-two-blocks"])
    def test_threads_started(self, capsys, monkeypatch, argv, threads):
        monkeypatch.setattr(codec, "_WORKERS", 4)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        assert run(capsys, *argv)[0] == 0
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)


class TestHelp:
    """``--help`` bytes at 80 columns, pinned before the parser stopped
    importing the library: the layout is argparse's on Python 3.11."""

    PINS = {
        None: "5314893fdee7296b9034a6aa1ce378505091f2e313faf284f632fb62f2b11ff9",
        "lift-grid": "0674f2b63748924da818d79f643ed7525a89c0a033915a16b6a7f806c5b573cb",
        "mi": "b49483f4d1a52f9dd01a6d315ab002f64c2727b8955496e7a75d7704565c734c",
        "regions": "38d7c9f88335da63761f125dc68fd1c6948dc2737628edee9679be82cb5fb608",
        "sibuya": "3305593dde2d34b1c72946648db7372082bba91648d226a2cde79b7eb0f7e1d6",
        "target": "dd20b465b59d7efc0d712c27c85a045aad770bd12a3a5140088ad6593a4bf160",
        "scaling": "5c6310ffec1ec00565e42621184a2e3fd3d9d9dbe04736b03d523660c766481d",
        "weierstrass": "fee83a08fad5ee62e21e9a46209ff6c029fdebacc1776e8c7d88f959e1e9b84f",
        "counterexample": "69e4a282912369cff8255db58a3d3b4b98e06d7cb0913ba563ce674bfae82222",
        "estimate-lift": "80c84af36fc618f98d965603083003e71d0630fc19442c7f924015566b9c71c4",
        "sample": "99f5b33a5829eacaefdc646d731660ca9243d0cd5d653c5d7230caab1d9ddaad",
    }

    @pytest.mark.parametrize("command", list(PINS), ids=[c or "liftdep" for c in PINS])
    def test_help_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *([command] if command else []), "--help")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[command]


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        argv = [
            "sample", "--dist", "cauchy-circular", "--n", "1000", "--seed", "7",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_stdout_matches_file(self, capsys, tmp_path):
        out_file = tmp_path / "mi.json"
        code, stdout, _ = run(capsys, "mi", "--dist", "bvn", "--r", "0.3")
        assert code == 0
        assert main(["mi", "--dist", "bvn", "--r", "0.3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert stdout == out_file.read_text()
