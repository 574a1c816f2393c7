"""liftdep benchmark: README CLI recipes, the 1e6-row pipeline, warm numerics.

    python3 bench/run.py --workload cli-recipes --seed 42 --seconds 30 --trace 0

Run from the repository root (the source is taken from ``src/``). One
closed-loop client runs one op at a time; BLAS is held to one thread. Every
op's output is checked against an independent reference (``checks.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` replays the same
ops in-process, alternating untraced and traced passes, and reports the
per-layer metrics plus the tracing overhead; its spans go to
``bench/out/<workload>-seed<seed>.spans.json``. Times are rescaled to a
reference host speed, measured around and during each op (``hostspeed.py``).
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in any child: one BLAS thread.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("cli-recipes", "cli-pipeline", "lib-numerics")
SETUP_REPEATS = 5
P90_MIN_OPS = 100
# Calibration chunks (about 2 ms each) timed between ops: few between the
# short library calls, more between the ~1 s child processes.
LIB_TICK_CHUNKS = 3
CLI_TICK_CHUNKS = 9
PERF = time.perf_counter
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

sys.path[:0] = [str(BENCH), str(SRC)]


@dataclass
class Run:
    """What one run measured: per-pass walls, per-op results, set-up samples.

    Pass walls are sums of op walls, raw and rescaled to the reference host
    speed; each op is rescaled by the calibration just around it.
    """

    seed: int
    clock: object
    pass_walls: list = field(default_factory=list)
    pass_scaled: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    traced_scaled: list = field(default_factory=list)
    ops: list = field(default_factory=list)          # (op name, OpResult)
    setup_samples: list = field(default_factory=list)
    rss_kb: int = 0
    import_s: float = 0.0
    tracer: object = None
    missing: list = field(default_factory=list)
    _verdicts: dict = field(default_factory=dict)

    def check(self, name: str, check, payload, key=None) -> str:
        """Run a check once per distinct output; byte-identical output reuses it."""
        if key is not None and (name, key) in self._verdicts:
            return self._verdicts[(name, key)]
        try:
            verdict = check(payload) or ""
        except Exception as exc:  # a malformed output is a failed op
            verdict = f"check raised {type(exc).__name__}: {exc}"
        if key is not None:
            self._verdicts[(name, key)] = verdict
        return verdict

    def add_pass(self, results, traced: bool) -> None:
        (self.traced_walls if traced else self.pass_walls).append(
            sum(res.wall_s for res in results))
        (self.traced_scaled if traced else self.pass_scaled).append(
            sum(res.scaled_s for res in results))

    def pass_s(self, traced: bool = False) -> float:
        """Median rescaled pass time."""
        return statistics.median(self.traced_scaled if traced else self.pass_scaled)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def measure(seconds: float, one_pass, min_passes: int) -> None:
    """Run passes until the next one would end past the deadline."""
    deadline = PERF() + seconds
    spent = []
    while True:
        t0 = PERF()
        one_pass(len(spent))
        spent.append(PERF() - t0)
        if len(spent) >= min_passes and PERF() + statistics.median(spent) > deadline:
            return


def probe(clock, cmd: list[str], workdir: str, env: dict) -> tuple[float, float, bytes]:
    """(host-speed factor, raw child wall, stdout) of a fresh child."""
    from cli_ops import spawn
    from hostspeed import chunk

    during = []
    before = clock.tick()
    rc, wall, _, stdout, stderr = spawn(cmd, workdir, env, lambda: during.append(chunk()))
    factor = clock.factor(before, clock.record(during), clock.tick())
    if rc != 0:
        raise RuntimeError(f"set-up probe failed: {stderr.decode(errors='replace')}")
    return factor, wall, stdout


def import_probes(run: Run, env: dict, workdir: str) -> list[tuple[float, float]]:
    """(rescaled child wall, raw in-child ``import liftdep`` seconds) for fresh processes."""
    code = "import time; t = time.perf_counter(); import liftdep; print(time.perf_counter() - t)"
    out = []
    for _ in range(SETUP_REPEATS):
        factor, wall, stdout = probe(run.clock, [sys.executable, "-c", code], workdir, env)
        out.append((wall * factor, float(stdout)))
    return out


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def run_cli(workload: str, run: Run, seconds: float, trace: bool, workdir: str) -> None:
    import checks as ck
    import cli_ops
    from hostspeed import chunk

    env = child_env()
    ops = (cli_ops.recipes if workload == "cli-recipes" else cli_ops.pipeline)(run.seed)
    ctx = cli_ops.Ctx(run.seed, workdir, {})
    probes = import_probes(run, env, workdir)
    run.setup_samples = [wall for wall, _ in probes]
    run.import_s = statistics.median(imp for _, imp in probes)

    tracer = patches = None
    if trace:
        import tracing as tr

        tracer = tr.Tracer()
        patches = tr.Patches(tracer)
        import liftdep.cli  # noqa: F401  -- replayed in-process

    def one_pass(index: int) -> None:
        traced = trace and index % 2 == 1
        if traced:
            patches.install()
        done = []
        before = run.clock.tick()
        try:
            for i, op in enumerate(ops):
                during = []                  # host samples taken while a child runs
                if trace:
                    tracer.op = index * len(ops) + i
                    res, stdout = cli_ops.run_in_process(op, tracer if traced else None)
                else:
                    res, stdout = cli_ops.run_child(op, ctx, env, lambda: during.append(chunk()))
                after = run.clock.tick()
                res.factor = run.clock.factor(before, run.clock.record(during), after)
                before = after
                done.append((op, res, stdout))
        finally:
            if traced:
                patches.remove()
        run.add_pass([res for _, res, _ in done], traced)
        for op, res, stdout in done:
            if res.ok:
                data = cli_ops.output_of(op, ctx, stdout)
                res.reason = run.check(op.name, lambda d: op.check(d, ctx), data, ck.sha256(data))
                res.ok = not res.reason
            run.ops.append((op.name, res))
            run.rss_kb = max(run.rss_kb, res.rss_kb)

    measure(seconds, one_pass, 2 if trace else 1)
    if trace:
        run.tracer, run.missing = tracer, patches.missing


# ---------------------------------------------------------------------------
# lib-numerics
# ---------------------------------------------------------------------------


def lib_pass(ops, tracer=None, first_op: int = 0, clock=None) -> list:
    """[(op, OpResult, value)]; with a clock, calibrate between ops and
    rescale each."""
    from cli_ops import OpResult

    done = []
    before = clock.tick() if clock is not None else None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        ts = PERF()
        try:
            value, res = op.call(), OpResult(True, 0.0)
        except Exception as exc:  # a library exception is a failed op
            value, res = None, OpResult(False, 0.0, 0, f"{type(exc).__name__}: {exc}")
        res.wall_s = PERF() - ts
        if clock is not None:
            after = clock.tick()
            res.factor, before = clock.factor(before, after), after
        done.append((op, res, value))
    return done


def lib_setup(seed: int):
    """Import, build the workload's distributions, one warm-up pass.

    Returns (ops, warm-up results, seconds). Check work is not timed.
    """
    t0 = PERF()
    import liftdep
    import lib_ops

    ops = lib_ops.workload(liftdep, seed)
    done = lib_pass(ops)
    return ops, done, PERF() - t0


def lib_setup_probe(seed: int) -> None:
    """Entry point of a fresh child that prints one set-up sample."""
    print(lib_setup(seed)[2])


def run_lib(run: Run, seconds: float, trace: bool, workdir: str) -> None:
    # This process has imported numpy and scipy for the calibration, so its
    # own set-up is not a sample; each sample is a fresh child's in-child
    # set-up time, rescaled by the calibration around the child.
    ops, warm_done, _ = lib_setup(run.seed)
    env = child_env()
    if trace:
        run.import_s = statistics.median(imp for _, imp in import_probes(run, env, workdir))
    else:
        code = ("import sys; sys.path[:0] = [sys.argv[1]]; import run; "
                "run.lib_setup_probe(int(sys.argv[2]))")
        for _ in range(SETUP_REPEATS):
            factor, _, stdout = probe(run.clock, [sys.executable, "-c", code, str(BENCH),
                                                  str(run.seed)], workdir, env)
            run.setup_samples.append(float(stdout) * factor)

    def record(done, measured: bool = True) -> None:
        for op, res, value in done:
            if res.ok:
                res.reason = run.check(op.name, op.check, value)
                res.ok = not res.reason
            if measured or not res.ok:
                run.ops.append((op.name, res))

    # warm-up ops are set-up, not measured ops; only their failures count
    record(warm_done, measured=False)

    tracer = patches = None
    if trace:
        import tracing as tr

        tracer = tr.Tracer()
        patches = tr.Patches(tracer)

    def one_pass(index: int) -> None:
        traced = trace and index % 2 == 1
        if traced:
            patches.install()
        try:
            done = lib_pass(ops, tracer if traced else None, index * len(ops), run.clock)
        finally:
            if traced:
                patches.remove()
        run.add_pass([res for _, res, _ in done], traced)
        record(done)

    measure(seconds, one_pass, 2 if trace else 1)
    run.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        run.tracer, run.missing = tracer, patches.missing


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def e2e_metrics(run: Run) -> dict[str, float]:
    # Median over the op list of each op's median latency: weighting every op
    # once keeps the value independent of how many passes fit in the run.
    by_op = defaultdict(list)
    for name, res in run.ops:
        by_op[name].append(res.scaled_s)
    return {
        "setup_s": statistics.median(run.setup_samples),
        "pass_s": run.pass_s(),
        "op_p50_s": statistics.median(statistics.median(v) for v in by_op.values()),
        "peak_rss_mb": run.rss_kb / 1024.0,
    }


def report(workload: str, run: Run, trace: bool) -> dict:
    import tracing as tr

    attempted = len(run.ops)
    failures = [(name, res.reason) for name, res in run.ops if not res.ok]
    env = environment(run.seed)
    walls = [res.scaled_s for _, res in run.ops]
    if trace:
        passes = len(run.traced_walls)
        layer = tr.layer_metrics(run.tracer.spans, passes)
        layer["cli.import_s"] = run.import_s
        layer["host.chunk_s"] = statistics.median(run.clock.samples)
        layer["trace.untraced_pass_s"] = run.pass_s()
        layer["trace.traced_pass_s"] = run.pass_s(traced=True)
        layer["trace.overhead_s"] = layer["trace.traced_pass_s"] - layer["trace.untraced_pass_s"]
        metrics = {k: {"value": layer[k], "unit": unit}
                   for k, (unit, _, _) in tr.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e_metrics(run).items()}

    print(f"liftdep bench  workload={workload} seed={run.seed} trace={int(trace)}")
    print("env " + json.dumps(env))
    print(f"  {'ops':<40} {attempted:>14d} count")
    print(f"  {'ops_failed':<40} {len(failures):>14d} count")
    print(f"  {'passes':<40} {len(run.pass_walls) + len(run.traced_walls):>14d} count")
    print(f"  {'raw pass wall (median)':<40} {statistics.median(run.pass_walls):>14.6g} s"
          f"   (calibration chunk median {statistics.median(run.clock.samples):.4g} s)")
    if not trace and attempted >= P90_MIN_OPS:
        p90 = statistics.quantiles(walls, n=10)[-1]
        print(f"  {'op_p90_s':<40} {p90:>14.6f} s   (of {attempted} ops)")
    for name, m in metrics.items():
        line = f"  {name:<40} {m['value']:>14.6g} {m['unit']}"
        if trace:
            _, exact, base = tr.LAYER_METRICS[name]
            if exact:
                line += "  exact"
            if base:
                line += f"  (base {base} = " + " + ".join(
                    f"{metrics[b]['value']:.6g}" for b in base.split("+")) + ")"
        print(line)
    if trace and run.missing:
        print("  not traced (absent): " + ", ".join(run.missing))
    for name, reason in failures[:10]:
        print(f"  FAILED {name}: {reason}")

    with open(OUT / f"{workload}-seed{run.seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"workload": workload, "trace": trace, "env": env, "metrics": metrics,
                   "attempted": attempted, "failures": failures,
                   "pass_walls": run.pass_walls, "traced_walls": run.traced_walls,
                   "pass_scaled": run.pass_scaled, "traced_scaled": run.traced_scaled,
                   "calib_ticks": run.clock.ticks,
                   "setup_samples": run.setup_samples,
                   "op_walls": [(n, r.wall_s, r.factor) for n, r in run.ops]}, f, indent=1)
    if trace:
        run.tracer.write(OUT / f"{workload}-seed{run.seed}.spans.json")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "liftdep" / "__init__.py").is_file():
        print(f"error: liftdep source not found under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    cwd = os.getcwd()
    from hostspeed import HostClock

    run = Run(args.seed, HostClock(CLI_TICK_CHUNKS if args.workload.startswith("cli")
                                   else LIB_TICK_CHUNKS))
    try:
        os.chdir(workdir)
        if args.workload == "lib-numerics":
            run_lib(run, args.seconds, bool(args.trace), workdir)
        else:
            run_cli(args.workload, run, args.seconds, bool(args.trace), workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(args.workload, run, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
