"""Span tracing around calls into liftdep's public functions.

The benchmark installs wrappers on the package's module attributes; nothing
under ``src/liftdep`` is edited. A name bound with ``from .x import f`` is a
second reference to the same function, so every liftdep module attribute
holding the original object is replaced, not only the one in the defining
module.

Each span is ``[name, start, end, parent, op, n]``: the parent is the index
of the enclosing span (-1 for none), ``op`` the id of the benchmark op that
caused it, and ``n`` the work the call did (rows, cells, evaluations...).
Spans stay in memory until the run ends and are written once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

PERF = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str, n: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, PERF(), 0.0, parent, self.op, n])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = PERF()
        self._stack.pop()

    def current_layer(self) -> str | None:
        if not self._stack:
            return None
        return self.spans[self._stack[-1]][0].split(".", 1)[0]

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "n"],
                       "spans": self.spans}, f, separators=(",", ":"))


def _traced(tracer: Tracer, name: str, fn, count=None):
    """Wrap ``fn`` in a span; ``count(args, result)`` gives the span's work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            tracer.spans[idx][5] = int(count(args, out))
        return out

    return wrapper


def _traced_quad(tracer: Tracer, name: str, fn):
    """Span the quadrature call and each integrand call inside it.

    Integrand spans belong to the layer that called the quadrature, because
    the integrand is that layer's code; the quadrature's self time is then
    the heap and rule work alone.
    """

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        owner = tracer.current_layer() or "quadrature"
        idx = tracer.begin(name)
        evals = 0

        def integrand(*a):
            nonlocal evals
            n = int(np.size(a[0]))
            evals += n
            j = tracer.begin(owner + ".integrand", n)
            try:
                return f(*a)
            finally:
                tracer.end(j)

        try:
            return fn(integrand, *args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.spans[idx][5] = evals

    return wrapper


def _traced_pushforward(tracer: Tracer, fn):
    """Span every evaluation of a derived pushforward Y-marginal."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rho_y = fn(*args, **kwargs)

        def traced_rho_y(y):
            idx = tracer.begin("distributions.pushforward", int(np.size(y)))
            try:
                return rho_y(y)
            finally:
                tracer.end(idx)

        return traced_rho_y

    return wrapper


def _rows(args, out):
    return np.shape(out)[0]


def _rows_arg1(args, out):
    return np.shape(args[1])[0]


def _cells(args, out):
    return out.values.size


def _gaussians(args, out):
    # one Gaussian per (sample, grid node) on each axis: n * (nx + ny)
    return out.n * (out.field.grid_x.size + out.field.grid_y.size)


# (module, attribute, span name, work count)
PLAIN = [
    ("distributions", "write_samples_csv", "distributions.csv_write", _rows_arg1),
    ("distributions", "read_samples_csv", "distributions.csv_read", _rows),
    ("distributions", "sample", "distributions.sample", _rows),
    ("distributions", "monotone_pieces", "distributions.monotone_pieces", None),
    ("information", "mi_continuous", "information.mi_continuous", None),
    ("information", "mi_curve", "information.mi_curve", None),
    ("information", "mi_bvn_closed_form", "information.mi_bvn_closed_form", None),
    ("information", "convergence_counterexample", "information.counterexample", None),
    ("lift", "lift_grid", "lift.grid", _cells),
    ("lift", "sibuya_omega_at", "lift.sibuya", None),
    ("lift", "region_summary", "lift.regions", None),
    ("scaling", "scaling_exponent", "scaling.fit", lambda args, out: np.shape(args[0])[0]),
    ("scaling", "weierstrass_grid", "scaling.weierstrass", _rows),
    ("estimation", "kernel_lift", "estimation.kernel", _gaussians),
    ("estimation", "target_profile", "estimation.target", None),
]
QUAD = [("adaptive_quad_2d", "quadrature.2d"), ("adaptive_quad_1d", "quadrature.1d")]


class Patches:
    """Install and remove the wrappers on every liftdep module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "liftdep" or mod_name.startswith("liftdep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import liftdep.distributions as dm
        import liftdep.lift as lf

        t = self.tracer
        for mod_name, attr, name, count in PLAIN:
            orig = getattr(sys.modules[f"liftdep.{mod_name}"], attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._replace(orig, _traced(t, name, orig, count))
        for attr, name in QUAD:
            orig = getattr(sys.modules["liftdep.quadrature"], attr, None)
            if orig is None:
                self.missing.append(f"quadrature.{attr}")
                continue
            self._replace(orig, _traced_quad(t, name, orig))
        orig = getattr(dm, "pushforward_density_fn", None)
        if orig is None:
            self.missing.append("distributions.pushforward_density_fn")
        else:
            self._replace(orig, _traced_pushforward(t, orig))
        to_csv = lf.LiftField.to_csv
        self._undo.append((lf.LiftField, "to_csv", to_csv))
        lf.LiftField.to_csv = _traced(t, "lift.to_csv", to_csv, lambda args, out: args[0].values.size)

    def remove(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()


LAYERS = ("cli", "distributions", "quadrature", "information", "lift", "scaling", "estimation")

# name -> (unit, exact count?, base metric of a ratio or None)
LAYER_METRICS = {
    "cli.import_s": ("s", False, None),
    "distributions.csv_write_s": ("s", False, None),
    "distributions.csv_rows_written": ("count", True, None),
    "distributions.csv_write_us_per_row": ("us", False, "distributions.csv_rows_written"),
    "distributions.csv_read_s": ("s", False, None),
    "distributions.csv_rows_read": ("count", True, None),
    "distributions.csv_read_us_per_row": ("us", False, "distributions.csv_rows_read"),
    "distributions.sample_s": ("s", False, None),
    "distributions.pushforward_s": ("s", False, None),
    "distributions.pushforward_ys": ("count", True, None),
    "distributions.pushforward_us_per_y": ("us", False, "distributions.pushforward_ys"),
    "distributions.monotone_pieces_calls": ("count", True, None),
    "quadrature.s_2d": ("s", False, None),
    "quadrature.s_1d": ("s", False, None),
    "quadrature.n_evals_2d": ("count", True, None),
    "quadrature.n_evals_1d": ("count", True, None),
    "quadrature.integrand_calls": ("count", True, None),
    "quadrature.evals_per_integrand_call": ("count", False, "quadrature.integrand_calls"),
    "quadrature.us_per_eval": ("us", False, "quadrature.n_evals_2d+quadrature.n_evals_1d"),
    "lift.grid_s": ("s", False, None),
    "lift.grid_cells": ("count", True, None),
    "lift.grid_ns_per_cell": ("ns", False, "lift.grid_cells"),
    "lift.to_csv_s": ("s", False, None),
    "lift.to_csv_cells": ("count", True, None),
    "lift.to_csv_us_per_cell": ("us", False, "lift.to_csv_cells"),
    "lift.sibuya_s": ("s", False, None),
    "lift.regions_s": ("s", False, None),
    "scaling.fit_s": ("s", False, None),
    "scaling.points": ("count", True, None),
    "scaling.weierstrass_s": ("s", False, None),
    "estimation.kernel_s": ("s", False, None),
    "estimation.kernel_gaussians": ("count", True, None),
    "estimation.kernel_ns_per_gaussian": ("ns", False, "estimation.kernel_gaussians"),
    "estimation.target_s": ("s", False, None),
    **{f"{layer}.self_s": ("s", False, None) for layer in LAYERS},
    "host.chunk_s": ("s", False, None),
    "trace.untraced_pass_s": ("s", False, None),
    "trace.traced_pass_s": ("s", False, None),
    "trace.overhead_s": ("s", False, "trace.untraced_pass_s"),
    "trace.spans": ("count", True, None),
}


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-pass layer totals, counts and ratios from the recorded spans.

    Times are span durations; a layer's self time subtracts the durations of
    direct children, so every second of traced time lands in one layer.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total = defaultdict(float)
    work = defaultdict(int)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[0]
        total[name] += dur[i]
        work[name] += s[5]
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += dur[i] - child[i]
    integrand = [k for k in calls if k.endswith(".integrand")]

    k = 1.0 / passes
    m = {
        "distributions.csv_write_s": total["distributions.csv_write"] * k,
        "distributions.csv_rows_written": work["distributions.csv_write"] * k,
        "distributions.csv_read_s": total["distributions.csv_read"] * k,
        "distributions.csv_rows_read": work["distributions.csv_read"] * k,
        "distributions.sample_s": total["distributions.sample"] * k,
        "distributions.pushforward_s": total["distributions.pushforward"] * k,
        "distributions.pushforward_ys": work["distributions.pushforward"] * k,
        "distributions.monotone_pieces_calls": calls["distributions.monotone_pieces"] * k,
        "quadrature.s_2d": total["quadrature.2d"] * k,
        "quadrature.s_1d": total["quadrature.1d"] * k,
        "quadrature.n_evals_2d": work["quadrature.2d"] * k,
        "quadrature.n_evals_1d": work["quadrature.1d"] * k,
        "quadrature.integrand_calls": sum(calls[n] for n in integrand) * k,
        "lift.grid_s": total["lift.grid"] * k,
        "lift.grid_cells": work["lift.grid"] * k,
        "lift.to_csv_s": total["lift.to_csv"] * k,
        "lift.to_csv_cells": work["lift.to_csv"] * k,
        "lift.sibuya_s": total["lift.sibuya"] * k,
        "lift.regions_s": total["lift.regions"] * k,
        "scaling.fit_s": total["scaling.fit"] * k,
        "scaling.points": work["scaling.fit"] * k,
        "scaling.weierstrass_s": total["scaling.weierstrass"] * k,
        "estimation.kernel_s": total["estimation.kernel"] * k,
        "estimation.kernel_gaussians": work["estimation.kernel"] * k,
        "estimation.target_s": total["estimation.target"] * k,
        "trace.spans": len(spans) * k,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] * k

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    n_evals = m["quadrature.n_evals_2d"] + m["quadrature.n_evals_1d"]
    m["distributions.csv_write_us_per_row"] = ratio(
        m["distributions.csv_write_s"], m["distributions.csv_rows_written"], 1e6)
    m["distributions.csv_read_us_per_row"] = ratio(
        m["distributions.csv_read_s"], m["distributions.csv_rows_read"], 1e6)
    m["distributions.pushforward_us_per_y"] = ratio(
        m["distributions.pushforward_s"], m["distributions.pushforward_ys"], 1e6)
    m["quadrature.evals_per_integrand_call"] = ratio(n_evals, m["quadrature.integrand_calls"], 1.0)
    m["quadrature.us_per_eval"] = ratio(m["quadrature.s_2d"] + m["quadrature.s_1d"], n_evals, 1e6)
    m["lift.grid_ns_per_cell"] = ratio(m["lift.grid_s"], m["lift.grid_cells"], 1e9)
    m["lift.to_csv_us_per_cell"] = ratio(m["lift.to_csv_s"], m["lift.to_csv_cells"], 1e6)
    m["estimation.kernel_ns_per_gaussian"] = ratio(
        m["estimation.kernel_s"], m["estimation.kernel_gaussians"], 1e9)
    return m
