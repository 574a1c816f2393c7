"""CSV file formats: the block writer against per-row reference writers in
``oracles``, and bit-identical read(write(x)) round trips."""

import io
import os
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import liftdep as ld
import oracles
from liftdep.lift import classify_values

# Every double, NaN, +-inf, -0.0, subnormals and 1e308 included.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
EDGES = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1e308, -1e308, 0.1])

PROPERTY = settings(max_examples=100, deadline=None)


def written(write, *args):
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@PROPERTY
@given(st.data())
def test_lift_field_csv_matches_oracle(data):
    nx, ny = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    gx = data.draw(hnp.arrays(float, nx, elements=ANY_FLOAT))
    gy = data.draw(hnp.arrays(float, ny, elements=ANY_FLOAT))
    values = data.draw(hnp.arrays(float, (nx, ny), elements=ANY_FLOAT))
    labels = classify_values(values, ld.ANALYTIC_TOL)
    field = ld.LiftField(gx, gy, values, labels, ld.ANALYTIC_TOL)
    label_text = [[label.value for label in row] for row in labels]
    assert written(field.to_csv) == oracles.lift_field_csv(gx, gy, values, label_text)


def test_lift_field_csv_edge_values():
    values = EDGES.reshape(2, 5)
    labels = classify_values(values, ld.ANALYTIC_TOL)
    field = ld.LiftField(EDGES[:2], EDGES[:5], values, labels, ld.ANALYTIC_TOL)
    label_text = [[label.value for label in row] for row in labels]
    assert written(field.to_csv) == oracles.lift_field_csv(EDGES[:2], EDGES[:5], values, label_text)


@PROPERTY
@given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(2)), elements=ANY_FLOAT))
@example(EDGES.reshape(5, 2))
def test_samples_csv_matches_oracle(samples):
    assert written(ld.write_samples_csv, samples) == oracles.samples_csv(samples)


@PROPERTY
@given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(2)), elements=FINITE))
@example(EDGES[3:9].reshape(3, 2))
def test_samples_round_trip_is_bit_identical(samples):
    back = ld.read_samples_csv(io.StringIO(written(ld.write_samples_csv, samples)))
    assert back.shape == samples.shape
    np.testing.assert_array_equal(bits(back), bits(samples))


@st.composite
def pmfs(draw):
    labels = st.lists(FINITE, min_size=1, max_size=5, unique=True).map(sorted)
    xs, ys = draw(labels), draw(labels)
    weights = draw(
        hnp.arrays(float, (len(xs), len(ys)), elements=st.floats(0.0, 1.0, allow_subnormal=True))
    )
    if weights.sum() == 0.0:
        weights[0, 0] = 1.0
    return ld.DiscreteJoint(xs, ys, weights / weights.sum())


@PROPERTY
@given(pmfs())
@example(ld.DiscreteJoint([-1e308, 1e308], [-0.0, 5e-324], [[0.1, 0.2], [0.3, 0.4]]))
def test_pmf_csv_matches_oracle_and_round_trips(dist):
    text = written(ld.write_pmf_csv, dist)
    assert text == oracles.pmf_csv(dist.x_support, dist.y_support, dist.pmf)
    back = ld.read_pmf_csv(io.StringIO(text))
    for got, want in [(back.x_support, dist.x_support), (back.y_support, dist.y_support)]:
        np.testing.assert_array_equal(bits(got), bits(want))
    np.testing.assert_array_equal(bits(back.pmf), bits(dist.pmf))


@PROPERTY
@given(st.decimals(min_value="-1e300", max_value="1e300", allow_nan=False, allow_infinity=False))
def test_pmf_cells_read_as_nearest_double_of_the_literal(value):
    text = f"x,y:{value}\n{value},1\n"
    dist = ld.read_pmf_csv(io.StringIO(text))
    want = float(Decimal(str(value)))
    np.testing.assert_array_equal(bits([dist.x_support[0], dist.y_support[0]]), bits([want, want]))


@PROPERTY
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, st.booleans()), max_size=10), ANY_FLOAT)
def test_convergence_report_csv_matches_oracle(rows, limit_mi):
    report = ld.ConvergenceReport(rows=tuple(rows), limit_mi=limit_mi)
    assert written(report.to_csv) == oracles.convergence_csv(rows, limit_mi)


@PROPERTY
@given(st.data())
def test_ball_profile_csv_matches_oracle(data):
    k = data.draw(st.integers(0, 10))
    n = data.draw(st.integers(1, 10**9))
    radii = data.draw(hnp.arrays(float, k, elements=st.floats(1e-150, 1e150)))
    counts = data.draw(hnp.arrays(np.int64, k, elements=st.integers(0, n)))
    profile = ld.BallDensityProfile((0.0, 0.0), radii, counts, n)
    expected = oracles.ball_profile_csv(radii, counts, profile.densities)
    assert written(profile.to_csv) == expected


@pytest.mark.parametrize("text", ["x,y\n", "x,y", "x,y\n\n", "x,y\r\n"])
def test_header_only_samples_read_as_empty(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = ld.read_samples_csv(io.StringIO(text))
    assert back.shape == (0, 2)


def pipe(text):
    """A text stream that cannot seek, like a shell pipe."""
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    return open(read_end, newline="")


def test_samples_read_from_a_pipe():
    with pipe("x,y\n1,2\n\n3,4\n") as f:
        np.testing.assert_array_equal(ld.read_samples_csv(f), [[1.0, 2.0], [3.0, 4.0]])
    with pipe("x,y\n1,2\nabc,3\n") as f, pytest.raises(ValueError, match="line 3: not a number"):
        ld.read_samples_csv(f)


@pytest.mark.parametrize(
    "text,message",
    [
        ("x,y:0,y:1\n0,0.5,0.5\n1,0.5\n", "pmf csv line 3: expected 3 cells, got 2"),
        ("x,y:0\n0,abc\n", "pmf csv line 2: not a number: 'abc'"),
        ("x,y:0\n0,nan\n", "pmf csv line 2: non-finite value"),
        ("x,y:abc\n0,1\n", "pmf csv line 1: not a number: 'abc'"),
    ],
    ids=["short-row", "not-a-number", "nan", "bad-label"],
)
def test_malformed_pmf_names_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        ld.read_pmf_csv(io.StringIO(text))
