"""The package namespace: ``import liftdep`` loads no module, and the first
public name read loads them all. Every case runs in a fresh interpreter, since
this process has long since loaded the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftdep

SRC = str(Path(liftdep.__file__).resolve().parents[1])
SUBMODULES = ("codec", "distributions", "errors", "estimation", "information", "lift",
              "quadrature", "scaling")

# The public API: one name per operation.
PUBLIC_NAMES = [
    "ANALYTIC_TOL", "BallDensityProfile", "BivariateNormal", "CircularCauchy",
    "ContingencyTable", "ContinuousFamily", "ContinuousJoint", "ConvergenceReport",
    "CurveBranch", "CurveSingularHasNoDensity", "CurveSingularJoint", "DegenerateCorrelation",
    "DegenerateSample", "DerivativeVanishes", "DiscreteJoint", "ESTIMATED_TOL",
    "IndependentProduct", "InsufficientRadii", "JointDistribution", "KernelLiftEstimate",
    "LiftDepError", "LiftField", "MiMethod", "MiReport", "MinSampleSize",
    "NonMonotonePiece", "NotSampleable", "OutOfSupport", "QuadratureNotConverged",
    "RegionLabel", "RegionSummary", "ScalingEstimate", "TargetHasZeroMass", "TargetingResult",
    "UndefinedAtPoint", "WEIERSTRASS_DIMENSION", "WeierstrassCurve", "as_continuous",
    "ball_density_profile", "convergence_counterexample", "empirical_discrete_lift",
    "empirical_mi", "empirical_pmf", "kernel_lift", "lift_at", "lift_grid", "mi_bvn_closed_form",
    "mi_continuous", "mi_curve", "mi_discrete", "pushforward_density_fn", "read_pmf_csv",
    "read_samples_csv", "region_summary", "sample", "scaling_exponent", "sibuya_omega_at",
    "silverman_bandwidth", "standard_normal_cdf", "standard_normal_pdf",
    "standard_normal_quantile", "target_profile", "uniform_pdf", "weierstrass_eval",
    "weierstrass_grid", "write_pmf_csv", "write_samples_csv",
]


def fresh(code: str):
    """The JSON value that ``code`` prints last, run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_module_and_no_numpy():
    loaded = fresh(
        "import json, sys, liftdep\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith(('liftdep.', 'numpy')))))\n"
    )
    assert loaded == []


def test_all_is_the_public_name_list_and_dir_holds_it():
    names, listed = fresh(
        "import json, liftdep\n"
        "print(json.dumps([sorted(liftdep.__all__), dir(liftdep)]))\n"
    )
    assert names == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(listed)


def test_first_name_loads_every_module_and_binds_the_same_objects():
    loaded, mismatched = fresh(
        "import json, sys, liftdep\n"
        "liftdep.sample\n"
        "loaded = sorted(m[8:] for m in sys.modules if m.startswith('liftdep.'))\n"
        "mods = [sys.modules['liftdep.' + m] for m in loaded]\n"
        "bad = [n for n in liftdep.__all__ if n not in vars(liftdep)\n"
        "       or not any(getattr(m, n, None) is vars(liftdep)[n] for m in mods)]\n"
        "print(json.dumps([loaded, bad]))\n"
    )
    assert loaded == sorted(SUBMODULES)
    assert mismatched == []


def test_star_import_binds_every_name():
    missing = fresh(
        "import json, liftdep\n"
        "scope = {}\n"
        "exec('from liftdep import *', scope)\n"
        "print(json.dumps([n for n in liftdep.__all__\n"
        "                  if scope.get(n, scope) is not getattr(liftdep, n)]))\n"
    )
    assert missing == []


# The aliases and pointwise duplicates the API no longer has.
REMOVED_NAMES = ["NamedFamily", "ball_density", "bvn_density", "circular_cauchy_density",
                 "continuous_lift_at", "curve_lift_at", "density_at", "derive_pushforward_density",
                 "discrete_lift"]


def test_every_function_and_class_is_exported_under_its_own_name():
    misnamed = fresh(
        "import inspect, json, liftdep\n"
        "objs = {n: getattr(liftdep, n) for n in liftdep.__all__}\n"
        "print(json.dumps(sorted(n for n, o in objs.items()\n"
        "                        if (inspect.isfunction(o) or inspect.isclass(o))\n"
        "                        and o.__name__ != n)))\n"
    )
    assert misnamed == []


@pytest.mark.parametrize("name", ["no_such_name", "distributions", "CURVE_SPECS", *REMOVED_NAMES])
def test_unknown_name_is_an_attribute_error(name):
    outcome = fresh(
        "import json, liftdep\n"
        "try:\n"
        f"    liftdep.{name}\n"
        "    print(json.dumps('bound'))\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert outcome == f"module 'liftdep' has no attribute '{name}'"


@pytest.mark.parametrize("module", SUBMODULES + ("cli",))
def test_a_submodule_imported_first_then_a_public_name(module):
    """A submodule's own relative imports must not reach the namespace loader
    (they would import the package's modules in a circle)."""
    same = fresh(
        f"import json, liftdep.{module}, liftdep.distributions as dm, liftdep\n"
        "print(json.dumps(liftdep.BivariateNormal is dm.BivariateNormal))\n"
    )
    assert same is True
