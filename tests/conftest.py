import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import liftdep as ld

SRC = str(Path(ld.__file__).resolve().parents[1])


def run_fresh(source: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run the Python ``source`` in a fresh interpreter that imports this
    liftdep, and return the finished process with its text output.

    A call that may never return is tested this way: past ``timeout``
    seconds the child is killed and the test fails, where an in-process call
    would hang the whole run.
    """
    try:
        return subprocess.run(
            [sys.executable, "-c", source], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"no result within {timeout:g} s from:\n{source}", pytrace=False)


@pytest.fixture
def dep_pmf():
    """The dependent 2x2 workhorse fixture."""
    return ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.4, 0.1], [0.1, 0.4]])


@pytest.fixture
def indep_pmf():
    return ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], np.outer([0.5, 0.5], [0.5, 0.5]))


def make_identity_branch(domain=(-8.0, 8.0), weight=1.0):
    return ld.CurveBranch(
        phi=lambda x: np.asarray(x, dtype=float),
        dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        domain=domain,
        weight=weight,
    )


@pytest.fixture
def normal_identity_curve():
    """X ~ N(0,1), Y = X."""
    return ld.CurveSingularJoint(
        marginal_x=ld.standard_normal_pdf,
        support_x=(-8.0, 8.0),
        branches=(make_identity_branch(),),
    )


@pytest.fixture
def uniform_identity_curve():
    """X ~ U[0,1], Y = X."""
    return ld.CurveSingularJoint(
        marginal_x=ld.uniform_pdf(0.0, 1.0),
        support_x=(0.0, 1.0),
        branches=(make_identity_branch(domain=(0.0, 1.0)),),
    )


@pytest.fixture
def tent_curve():
    """X ~ U[0,1], Y = X or Y = 1 - X with probability 1/2 each."""
    up = make_identity_branch(domain=(0.0, 1.0), weight=0.5)
    down = ld.CurveBranch(
        phi=lambda x: 1.0 - np.asarray(x, dtype=float),
        dphi=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        domain=(0.0, 1.0),
        weight=0.5,
    )
    return ld.CurveSingularJoint(
        marginal_x=ld.uniform_pdf(0.0, 1.0),
        support_x=(0.0, 1.0),
        branches=(up, down),
    )
