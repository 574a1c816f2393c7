"""The two CLI workloads: README recipes as argv lists, with their checks.

An op is one ``liftdep`` command. Timed runs start it as a fresh
``python -m liftdep.cli`` process; traced runs replay the same argv through
``liftdep.cli.main`` in-process. Each op's check gets the bytes the command
wrote (its ``--out`` file, or stdout) and returns ``None`` or a reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck

PERF = time.perf_counter
OP_TIMEOUT_S = 150.0
SAMPLE_EVERY_S = 0.1
GRID = ["--xmin", "-4", "--xmax", "4", "--nx", "201", "--ymin", "-4", "--ymax", "4", "--ny", "201"]
R = 0.6
LINE_N = 1_000_000


@dataclass
class Ctx:
    seed: int
    workdir: str
    cache: dict


@dataclass
class CliOp:
    name: str
    argv: list[str]
    out: str | None                       # output file, None for stdout
    check: Callable[[bytes, Ctx], str | None]


@dataclass
class OpResult:
    ok: bool
    wall_s: float                         # raw wall
    rss_kb: int = 0
    reason: str = ""
    factor: float = 1.0                   # host-speed factor around the op

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


# ---------------------------------------------------------------------------
# Checks of the recipe outputs
# ---------------------------------------------------------------------------


def _mi(method: str, want: float, atol: float):
    def check(data, ctx):
        p = json.loads(data)
        if p.get("method") != method:
            return f"method {p.get('method')!r}, want {method!r}"
        return ck.close("mi", p["value"], want, atol=atol)

    return check


def _field(name: str, reference):
    g = np.linspace(-4.0, 4.0, 201)

    def check(data, ctx):
        return ck.golden_mismatch(name, data, ctx.seed) or ck.check_field(
            data.decode(), g, g, reference, rtol=1e-12, tol=ck.ANALYTIC_TOL)

    return check


def _check_counterexample(data, ctx):
    lines = data.decode().splitlines()
    if lines[0] != "r,mi,limit_mi,exceeds" or len(lines) != 4:
        return "counterexample csv has the wrong header or row count"
    for line, r in zip(lines[1:], (0.9, 0.99, 0.999)):
        r_s, mi_s, lim_s, exceeds = line.split(",")
        mi, lim = float(mi_s), float(lim_s)
        err = (ck.close("r", float(r_s), r) or ck.close("mi", mi, ck.mi_bvn(r), atol=1e-12)
               or ck.close("limit_mi", lim, ck.LIMIT_MI, atol=ck.C04_TOL))
        if err:
            return err
        if exceeds != str(mi > lim).lower():
            return f"exceeds flag {exceeds!r} is wrong at r={r}"
    return None


def _check_weierstrass(data, ctx):
    err = ck.golden_mismatch("w.csv", data, ctx.seed)
    if err:
        return err
    lines = data.decode().splitlines()
    if lines[0] != "x,w" or len(lines) != 10_001:
        return "w.csv has the wrong header or row count"
    xw = np.array([tuple(map(float, ln.split(","))) for ln in lines[1:]])
    if np.any(xw[:, 0] != np.linspace(0.0, 0.5, 10_000)):
        return "w.csv x column differs from linspace(0, 0.5, 10000)"
    top = 1.0 - 2.0**-30
    if np.any(np.abs(xw[:, 1]) > top + ck.WEIERSTRASS_TOL):
        return "a Weierstrass value exceeds the series bound 1 - 2^-30"
    return (ck.close("w(0)", xw[0, 1], top, atol=ck.WEIERSTRASS_TOL)
            or ck.close("w(1/2)", xw[-1, 1], -top, atol=ck.WEIERSTRASS_TOL))


def _check_regions(data, ctx):
    p = json.loads(data)
    lift = ctx.cache.get("region_mass")
    if lift is None:
        lift = ctx.cache["region_mass"] = ck.bvn_lift_region_mass(R)
    total = p["mass_lift"] + p["mass_inhibit"] + p["mass_neutral"]
    return (ck.close("mass_lift", p["mass_lift"], lift, atol=ck.REGION_TOL)
            or ck.close("mass_inhibit", p["mass_inhibit"], 1.0 - lift, atol=ck.REGION_TOL)
            or ck.close("mass total", total, 1.0, atol=1e-12))


def sibuya_points(seed: int) -> list[tuple[str, str]]:
    """README points plus one seeded point in [-3, 3]^2, as argv strings."""
    x, y = np.random.default_rng(seed).uniform(-3.0, 3.0, 2)
    return [("0", "0"), ("-6", "-6"), (f"{x:.2f}", f"{y:.2f}")]


def _check_sibuya(data, ctx):
    lines = data.decode().splitlines()
    pts = sibuya_points(ctx.seed)
    if lines[0] != "x,y,omega" or len(lines) != len(pts) + 1:
        return "sibuya csv has the wrong header or row count"
    for line, (xs, ys) in zip(lines[1:], pts):
        x, y, omega = map(float, line.split(","))
        if (x, y) != (float(xs), float(ys)):
            return f"sibuya row ({x}, {y}) does not echo the point ({xs}, {ys})"
        err = ck.close(f"omega({xs},{ys})", omega, ck.sibuya_bvn(R, x, y), rtol=ck.SIBUYA_RTOL)
        if err:
            return err
    return None


def _check_target(data, ctx):
    p = json.loads(data)
    if p.get("target_y") != [1.0, 2.0]:
        return f"target_y {p.get('target_y')!r}"
    return ck.check_bvn_target(p, R, np.linspace(-3.0, 3.0, 201))


# ---------------------------------------------------------------------------
# Checks of the pipeline outputs
# ---------------------------------------------------------------------------


def _samples(ctx) -> np.ndarray:
    path = os.path.join(ctx.workdir, "line.csv")
    stamp = os.stat(path).st_mtime_ns
    if ctx.cache.get("samples", (None,))[0] != stamp:
        ctx.cache["samples"] = (stamp, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    return ctx.cache["samples"][1]


def _check_line(data, ctx):
    err = ck.golden_mismatch("line.csv", data, ctx.seed)
    if err:
        return err
    if not data.startswith(b"x,y\n"):
        return "line.csv header is not 'x,y'"
    pts = _samples(ctx)
    x, y = pts[:, 0], pts[:, 1]
    if pts.shape != (LINE_N, 2):
        return f"line.csv holds {pts.shape[0]} rows, want {LINE_N}"
    if np.any(x != y) or np.any((x < 0.0) | (x > 1.0)):
        return "a sample is off the segment y = x, 0 <= x <= 1"
    head = data.split(b"\n", 1001)[1:1001]
    if head != [f"{a:.17g},{b:.17g}".encode() for a, b in pts[:1000]]:
        return "line.csv floats are not written with 17 significant digits"
    # Kolmogorov-Smirnov against U(0, 1); sqrt(n) D > 3 has probability ~3e-8.
    u = np.sort(x)
    k = np.arange(1, LINE_N + 1) / LINE_N
    d = max(float(np.max(k - u)), float(np.max(u - (k - 1.0 / LINE_N))))
    if math.sqrt(LINE_N) * d > 3.0:
        return f"samples fail the uniformity test (sqrt(n) D = {math.sqrt(LINE_N) * d:.3f})"
    return None


def _check_scaling(data, ctx):
    p = json.loads(data)
    pts = _samples(ctx)
    # Ball masses counted directly, then the least-squares slope (module docs).
    dist = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
    radii = 0.1 * (0.01 / 0.1) ** (np.arange(10) / 9.0)
    counts = np.array([np.count_nonzero(dist <= e) for e in radii])
    keep = counts >= 10
    lx, ly = np.log(radii[keep]), np.log(counts[keep] / pts.shape[0])
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean()) ** 2))
    if p.get("center") != [0.5, 0.5] or len(p.get("radii_used", ())) != int(keep.sum()):
        return "scaling center or radius count is wrong"
    return (ck.close("s_hat (C09)", p["s_hat"], 1.0, atol=ck.C09_TOL)
            or ck.close("s_hat vs direct fit", p["s_hat"], slope, atol=1e-9))


def _check_lhat(data, ctx):
    err = ck.golden_mismatch("lhat.csv", data, ctx.seed)
    if err:
        return err
    x, y, values, labels = ck.parse_field_csv(data.decode())
    g = np.linspace(0.0, 1.0, 41)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    if x.size != xx.size or np.any(x != xx.ravel()) or np.any(y != yy.ravel()):
        return "lhat.csv grid differs from linspace(0, 1, 41)^2"
    pts = _samples(ctx)
    xs, ys = pts[:, 0], pts[:, 1]
    n = xs.size
    hx = 1.06 * np.std(xs, ddof=1) * n ** -0.2     # Silverman's rule of thumb
    hy = 1.06 * np.std(ys, ddof=1) * n ** -0.2
    for i, j in ((0, 0), (10, 10), (20, 20), (40, 40), (20, 21), (5, 4)):
        kx = ck.normal_pdf((g[i] - xs) / hx) / hx
        ky = ck.normal_pdf((g[j] - ys) / hy) / hy
        want = np.mean(kx * ky) / (np.mean(kx) * np.mean(ky))
        err = ck.close(f"Lhat({g[i]}, {g[j]})", values[i * 41 + j], want, rtol=1e-9)
        if err:
            return err
    return ck.check_labels(values, labels, ck.ESTIMATED_TOL)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def recipes(seed: int) -> list[CliOp]:
    sibuya = ["sibuya", "--dist", "bvn", "--r", "0.6"]
    for x, y in sibuya_points(seed):
        sibuya += ["--point", x, y]
    return [
        CliOp("mi-bvn", ["mi", "--dist", "bvn", "--r", "0.6"], None,
              _mi("ClosedForm", ck.mi_bvn(R), 1e-12)),
        CliOp("mi-bvn-quadrature", ["mi", "--dist", "bvn", "--r", "0.6", "--method", "quadrature"],
              None, _mi("Quadrature", ck.mi_bvn(R), ck.C02_TOL)),
        CliOp("mi-cauchy", ["mi", "--dist", "cauchy-circular"], None,
              _mi("Quadrature", ck.C03_VALUE, ck.C03_TOL)),
        CliOp("lift-grid-cauchy", ["lift-grid", "--dist", "cauchy-circular", *GRID,
                                   "--out", "cauchy_grid.csv"], "cauchy_grid.csv",
              _field("cauchy_grid.csv", ck.cauchy_lift)),
        CliOp("lift-grid-bvn", ["lift-grid", "--dist", "bvn", "--r", "0.6", *GRID,
                                "--out", "bvn_grid.csv"], "bvn_grid.csv",
              _field("bvn_grid.csv", lambda x, y: ck.bvn_lift(R, x, y))),
        CliOp("counterexample", ["counterexample", "--r-schedule", "0.9,0.99,0.999"], None,
              _check_counterexample),
        CliOp("weierstrass", ["weierstrass", "--n-points", "10000", "--n-terms", "30",
                              "--out", "w.csv"], "w.csv", _check_weierstrass),
        CliOp("regions", ["regions", "--dist", "bvn", "--r", "0.6"], None, _check_regions),
        CliOp("sibuya", sibuya, None, _check_sibuya),
        CliOp("target", ["target", "--dist", "bvn", "--r", "0.6", "--target-lo", "1",
                         "--target-hi", "2"], None, _check_target),
    ]


def pipeline(seed: int) -> list[CliOp]:
    return [
        CliOp("sample", ["sample", "--dist", "curve-uniform-identity", "--n", str(LINE_N),
                         "--seed", str(seed), "--out", "line.csv"], "line.csv", _check_line),
        CliOp("scaling", ["scaling", "--samples-file", "line.csv", "--center-x", "0.5",
                          "--center-y", "0.5", "--eps-max", "0.1", "--eps-min", "0.01",
                          "--k", "10"], None, _check_scaling),
        CliOp("estimate-lift", ["estimate-lift", "--samples-file", "line.csv", "--estimator",
                                "kernel", "--xmin", "0", "--xmax", "1", "--nx", "41", "--ymin",
                                "0", "--ymax", "1", "--ny", "41", "--out", "lhat.csv"],
              "lhat.csv", _check_lhat),
    ]


# ---------------------------------------------------------------------------
# Running an op
# ---------------------------------------------------------------------------


def spawn(cmd: list[str], cwd: str, env: dict,
          sample: Callable[[], None] | None = None) -> tuple[int, float, int, bytes, bytes]:
    """Run a child to exit: (exit code, wall seconds, peak RSS kB, stdout, stderr).

    While the child runs, ``sample`` is called every ``SAMPLE_EVERY_S``; the
    wait for the next call ends the moment the child exits.
    """
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = PERF()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fo, stderr=fe)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            if sample is not None:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                        sample()
                finally:
                    os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = PERF() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fo, open(err_path, "rb") as fe:
        return proc.returncode, wall, usage.ru_maxrss, fo.read(), fe.read()


def run_child(op: CliOp, ctx: Ctx, env: dict, sample=None) -> tuple[OpResult, bytes]:
    code, wall, rss, out, err = spawn([sys.executable, "-m", "liftdep.cli", *op.argv],
                                      ctx.workdir, env, sample)
    reason = "" if code == 0 else f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
    return OpResult(code == 0, wall, rss, reason), out


def run_in_process(op: CliOp, tracer=None) -> tuple[OpResult, bytes]:
    """Replay the argv through ``liftdep.cli.main``; cwd must be the workdir."""
    from liftdep.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = PERF()
    idx = tracer.begin("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except Exception as exc:  # a traceback is an op failure, not a harness crash
        code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        if tracer:
            tracer.end(idx)
    wall = PERF() - t0
    reason = "" if code == 0 else f"exit {code}: {err.getvalue().strip()[-300:]}"
    return OpResult(code == 0, wall, 0, reason), out.getvalue().encode()


def output_of(op: CliOp, ctx: Ctx, stdout: bytes) -> bytes:
    if op.out is None:
        return stdout
    with open(os.path.join(ctx.workdir, op.out), "rb") as f:
        return f.read()
