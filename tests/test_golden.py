"""Golden outputs: every README CLI recipe, byte for byte.

Each recipe runs in-process through ``liftdep.cli.main`` and the sha256 of
its output (the ``--out`` file, or stdout) must equal the pin. The grid and
Weierstrass pins equal the ``GOLDEN`` pins of ``bench/checks.py``. The
``sample`` -> ``scaling`` -> ``estimate-lift`` chain runs at ``--n 10000``
instead of the README's 1e6 rows to keep the suite short; the benchmark pins
the 1e6-row outputs. ``EXTRA`` pins quadrature paths the recipes do not
reach: the curve-singular MIs (1D heap), the r = 0.99 bivariate-normal MI by
quadrature, the circular-Cauchy and curve-singular Sibuya ratios, the
Sibuya ratio and targeting of a pmf table (``PMF``, written per test), and
the routes of a family that declares no conditional law (``indep-normal``):
the single-seed 1D heaps of its marginal masses and targeting strips, and
its 2D heaps over the box; and two ``curve-uniform-square`` lift grids that
hold the fold at (0, 0), where the lift is NaN and every other on-curve cell
keeps its value.

``kernel_lift``'s ``kx @ ky.T`` gives different last bits under one and two
OpenBLAS threads, so the ``lhat.csv`` recipe runs in a fresh process with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to
1, as ``bench/run.py`` sets them, and its pin holds on any host and under any
thread setting of the test run. ``bench/checks.py`` pins the benchmark's
1e6-row ``lhat.csv`` under the same one thread.

A change that is not meant to move output bytes leaves every pin unchanged.
A change that moves bytes (a new summation order, a new rule, a numpy upgrade
that moves a last digit) re-pins the outputs it moves, and records in
CHANGES.md each old and new value and the independent oracle (closed form or
reference integral) that shows the new bytes are right.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftdep.cli
from liftdep.cli import main

GRID = ["--xmin", "-4", "--xmax", "4", "--nx", "201", "--ymin", "-4", "--ymax", "4", "--ny", "201"]

# (name, argv, output file or None for stdout, sha256 of the output);
# "{dir}" in an argv entry is the recipe directory. Order matters: the
# chain reads line.csv.
RECIPES = [
    ("mi-bvn", ["mi", "--dist", "bvn", "--r", "0.6"], None,
     "aa204526a8abe3c90583e4522ecec808c7a8009efd3d37f5b1bcb44afddbb65b"),
    ("mi-bvn-quadrature", ["mi", "--dist", "bvn", "--r", "0.6", "--method", "quadrature"],
     None, "2971955f7d56b20f19713609283533db80d7ad133ba38245431ebeb774c4e15f"),
    ("mi-cauchy", ["mi", "--dist", "cauchy-circular"], None,
     "226526269e615c335ed8ee5f2a9af0b6e900f807acac3b85da320f7ef99656bf"),
    ("cauchy_grid.csv", ["lift-grid", "--dist", "cauchy-circular", *GRID,
                         "--out", "{dir}/cauchy_grid.csv"], "cauchy_grid.csv",
     "95b9f6919d6a0fb3a270662086a01eef004e019091ddcb0269d0fafdca82dfa5"),
    ("bvn_grid.csv", ["lift-grid", "--dist", "bvn", "--r", "0.6", *GRID,
                      "--out", "{dir}/bvn_grid.csv"], "bvn_grid.csv",
     "49c6590136412a15f11fab8f1fb19f39aea6ccbd887236ed29479c75295fe16c"),
    ("counterexample", ["counterexample", "--r-schedule", "0.9,0.99,0.999"], None,
     "f4060bb5d61037d4e38bcee88850a8030be9d1740a14d9569936970c4cbc991e"),
    ("w.csv", ["weierstrass", "--n-points", "10000", "--n-terms", "30",
               "--out", "{dir}/w.csv"], "w.csv",
     "073d5957a7811a26cd90d09df128b426e18dc78d06db7e6ab0cb54c18f268cab"),
    ("line.csv", ["sample", "--dist", "curve-uniform-identity", "--n", "10000", "--seed", "42",
                  "--out", "{dir}/line.csv"], "line.csv",
     "ca62e10cca1a487afbc119b6e122a9a45a50721bccb2211c3be2bf3b70361f8f"),
    ("scaling", ["scaling", "--samples-file", "{dir}/line.csv", "--center-x", "0.5",
                 "--center-y", "0.5", "--eps-max", "0.1", "--eps-min", "0.01", "--k", "10"],
     None, "6e1eec79d88d0ee9571b246af3a0ec6c361f04279f7531cbde79ba46fb06c228"),
    ("regions", ["regions", "--dist", "bvn", "--r", "0.6"], None,
     "a2e721a07bc8490a98385c8e2a40af6df2e8986b1253221e8de1d5f11f92428a"),
    ("sibuya", ["sibuya", "--dist", "bvn", "--r", "0.6", "--point", "0", "0",
                "--point", "-6", "-6"], None,
     "696e117f0a7e956493ed2799e0c92b562ad3dd97ed6d33c223992f9f49dc6ad2"),
    ("target", ["target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1",
                "--target-hi", "2"], None,
     "9a4013c865d1091af2513f3524b2c1fcbea7f6568f20b62f395712dbba586d80"),
    ("lhat.csv", ["estimate-lift", "--samples-file", "{dir}/line.csv", "--estimator", "kernel",
                  "--xmin", "0", "--xmax", "1", "--nx", "41", "--ymin", "0", "--ymax", "1",
                  "--ny", "41", "--out", "{dir}/lhat.csv"], "lhat.csv",
     "cea56c0d123682deac6e324caa333580e9f754a10e7ebc5ec63b9a92e1793ef7"),
]

BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


PMF = "x,y:0,y:1\n0,0.4,0.1\n1,0.1,0.4\n"

# (name, argv, sha256 of stdout); "{pmf}" in an argv entry is a file holding PMF.
EXTRA = [
    ("mi-curve-normal-identity", ["mi", "--dist", "curve-normal-identity"],
     "3d7a93bd1d88f324c11af85ec3c64e1429cee020dc5a7941a886b87620adf492"),
    ("mi-curve-uniform-identity", ["mi", "--dist", "curve-uniform-identity"],
     "94a834d3969ff7f6a240adae90c5b16d3c2f956efcfa2d48d8a860bb524993f0"),
    ("mi-curve-normal-double", ["mi", "--dist", "curve-normal-double"],
     "4046d19c50d2e52855043841f3eca54ef323b0ef20f9ceb077525aa0bf4bc6a0"),
    ("mi-curve-uniform-square", ["mi", "--dist", "curve-uniform-square"],
     "d54396e78dad596d6e3887a1bff747931ab27183d01c6c8e0574bc1efd398f6d"),
    ("mi-bvn-0.99-quadrature", ["mi", "--dist", "bvn", "--r", "0.99", "--method", "quadrature"],
     "ab2dc52d9b196e1926bf2dff1e6ba79ab1c6835d0a84c53fc51c3d0fd11a1526"),
    ("sibuya-cauchy", ["sibuya", "--dist", "cauchy-circular", "--point", "0.5", "1.5",
                       "--point", "-2", "3"],
     "72e82efbaf3df51a776a40bc1781934cb6c4fa3f3845f5960157f090025e8a3f"),
    ("sibuya-curve-uniform-square", ["sibuya", "--dist", "curve-uniform-square",
                                     "--point", "0.5", "0.16", "--point", "0.3", "0.81"],
     "faf71302f451b5c65b432affdc5874fd6f84dc0663ee319cd71108c6aa784829"),
    ("sibuya-pmf", ["sibuya", "--pmf-file", "{pmf}", "--point", "0", "0", "--point", "1", "0"],
     "5aca7226ebc1c9ebcf218ca97c634f11f21f9d1b9393be4c2f2dcb007bf8b519"),
    ("target-pmf", ["target", "--pmf-file", "{pmf}", "--target-y", "1"],
     "3c5d9da8e271a7de24b76d5fcacd94050d295cab37b04db2387a55207b9b7047"),
    ("sibuya-indep-normal", ["sibuya", "--dist", "indep-normal", "--point", "0.5", "1.5",
                             "--point", "-2", "0.3", "--point", "-7.5", "-7.5"],
     "6f7e626c4a03247fa4f93e245f8713fbaef19665fdc6d16fe12a930bfcc0935b"),
    ("target-indep-normal", ["target", "--dist", "indep-normal", "--target-lo", "1",
                             "--target-hi", "2"],
     "b5696e7d51dc72571fa76f2e67507cf6a1c1b4bf5c9fd4beb91a0597cdd4ad2c"),
    ("mi-indep-normal", ["mi", "--dist", "indep-normal"],
     "3a418966b6d8c60abd4baf85fff08e0ef91cb8cda16a37f9ea0c4b860e1917cc"),
    ("regions-indep-normal", ["regions", "--dist", "indep-normal"],
     "713bf10d6196ee1d0b51b64bffd1aa0d80343c931168323a380cd8734f76de0f"),
    ("lift-grid-curve-uniform-square", ["lift-grid", "--dist", "curve-uniform-square", *GRID],
     "45552d8ad1b95e1026ff7fd6c008c40274437f53f906e1a73b22f34da813067d"),
    ("lift-grid-curve-uniform-square-3x3", ["lift-grid", "--dist", "curve-uniform-square",
                                            "--xmin", "-1", "--xmax", "1", "--nx", "3",
                                            "--ymin", "0", "--ymax", "1", "--ny", "3"],
     "4eb2e4881575b899eb4d14879f630ac37ed86ccbe79c1a736ce0528f2bb59790"),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every recipe once, in README order; map name -> (exit code, bytes)."""
    workdir = tmp_path_factory.mktemp("golden")
    results = {}
    src = str(Path(liftdep.cli.__file__).resolve().parents[1])
    for name, argv, out_file, _pin in RECIPES:
        argv = [arg.replace("{dir}", str(workdir)) for arg in argv]
        if name == "lhat.csv":  # one BLAS thread, in a fresh process (module docs)
            done = subprocess.run(
                [sys.executable, "-m", "liftdep.cli", *argv],
                env={**os.environ, **BLAS_THREADS, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=300,
            )
            code, stdout = done.returncode, done.stdout
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            stdout = buf.getvalue()
        data = (workdir / out_file).read_bytes() if out_file else stdout.encode()
        results[name] = (code, data)
    return results


@pytest.mark.parametrize("name,pin", [(r[0], r[3]) for r in RECIPES], ids=[r[0] for r in RECIPES])
def test_recipe_output_is_golden(outputs, name, pin):
    code, data = outputs[name]
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == pin


@pytest.mark.parametrize("argv,pin", [(r[1], r[2]) for r in EXTRA], ids=[r[0] for r in EXTRA])
def test_extra_output_is_golden(tmp_path, argv, pin):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text(PMF)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([arg.replace("{pmf}", str(pmf)) for arg in argv])
    assert code == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == pin
