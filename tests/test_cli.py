"""CLI surface: grammar, exit codes, file outputs, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liftdep
from liftdep.cli import main


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

    def test_domain_error_is_1_with_stable_name(self, capsys):
        code, _, err = run(capsys, "mi", "--dist", "bvn", "--r", "1.5")
        assert code == 1
        assert "DegenerateCorrelation" in err

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "mi", "--pmf-file", "/nonexistent/x.csv")
        assert code == 1


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


class TestImport:
    def test_import_loads_no_scipy(self):
        src = str(Path(liftdep.__file__).resolve().parents[1])
        code = "import sys, liftdep; print([m for m in sys.modules if m.startswith('scipy')])"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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
