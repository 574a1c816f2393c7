"""CSV file formats: the block writer against per-row reference writers in
``oracles``, and bit-identical read(write(x)) round trips."""

import io
import itertools
import json
import os
import threading
import warnings
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import liftdep as ld
import oracles
from conftest import run_fresh
from liftdep import codec
from liftdep.codec import CSV_BLOCK_ROWS
from liftdep.lift import classify_values

# Every double, NaN, +-inf, -0.0, subnormals and 1e308 included.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
EDGES = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1e308, -1e308, 0.1])

PROPERTY = settings(max_examples=100, deadline=None)


# A long double built from two 32-bit halves, so that it may use all of a
# 64-bit significand, at magnitudes where no product or split overflows and
# no error underflows.
LONG = st.tuples(st.integers(2**31, 2**32 - 1), st.integers(0, 2**32 - 1),
                 st.integers(-400, 400), st.booleans())


def _exact(v) -> Fraction:
    return Fraction(*v.as_integer_ratio())


def _long_double(hi, lo, e, neg):
    m = np.longdouble(hi) * np.longdouble(2**32) + np.longdouble(lo)
    return np.ldexp(-m if neg else m, e)


@given(st.lists(st.tuples(LONG, LONG), min_size=1, max_size=20))
@PROPERTY
def test_two_product_is_exact_in_doubles_and_long_doubles(pairs):
    """The splitter comes from the mantissa of the operands' type: the double
    splitter 2^27 + 1 left 1,986 of 2,000 random long-double pairs inexact."""
    a, b = (np.array([_long_double(*x) for x in xs]) for xs in zip(*pairs))
    for dtype in (float, np.longdouble):
        x, y = a.astype(dtype), b.astype(dtype)
        p, e = codec._two_product(x, y)
        assert p.dtype == dtype and (p == x * y).all()
        assert all(_exact(pi) + _exact(ei) == _exact(xi) * _exact(yi)
                   for xi, yi, pi, ei in zip(x, y, p, e))


def written(write, *args):
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_same_text(got, want):
    """``got == want``, failing on the first line that differs: pytest's own
    diff of two megabyte strings takes minutes."""
    for line, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        assert g == w, f"line {line}"
    assert got == want


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


def test_lift_field_csv_across_a_block_boundary():
    """A non-square grid of more than CSV_BLOCK_ROWS cells, whose coordinates
    need 17 digits and include -0.0, with NaN and Zero cells."""
    nx, ny = 257, 263
    assert nx * ny > CSV_BLOCK_ROWS
    gx, gy = np.linspace(-1.0, 1.0, nx) / 3.0, np.linspace(-2.0, 1.0, ny) * 0.1
    gx[nx // 2] = -0.0
    values = np.random.default_rng(1010).lognormal(0.0, 1.0, (nx, ny))
    values[::7, ::5] = np.nan
    values[3::11, 2::13] = 0.0
    labels = classify_values(values, ld.ANALYTIC_TOL)
    field = ld.LiftField(gx, gy, values, labels, ld.ANALYTIC_TOL)
    label_text = [[label.value for label in row] for row in labels]
    assert_same_text(written(field.to_csv), oracles.lift_field_csv(gx, gy, values, label_text))


@PROPERTY
@given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(2)), elements=ANY_FLOAT))
@example(EDGES.reshape(5, 2))
def test_samples_csv_matches_oracle(samples):
    # NaN and inf reach the `%` formatter through write_csv: the samples writer refuses them
    text = written(codec.write_csv, ("x", "y"), samples[:, 0], samples[:, 1])
    assert text == oracles.samples_csv(samples)


@pytest.mark.parametrize("samples,message", [
    (np.zeros(4), r"samples must have shape \(n, 2\)"),
    (np.zeros((3, 3)), r"samples must have shape \(n, 2\)"),
    ([[0.0, np.nan]], "samples must be finite"),
    ([[np.inf, 0.0]], "samples must be finite"),
], ids=["1d", "three-columns", "nan", "inf"])
def test_the_samples_writer_refuses_what_the_reader_refuses(samples, message):
    # a 1-D array raised IndexError, a third column was dropped, and NaN and
    # inf were written as cells that read_samples_csv refuses
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        ld.write_samples_csv(buf, samples)
    assert buf.getvalue() == ""


# The vectorized formatter's exact range, both signs. ANY_FLOAT mostly lands
# outside it, where `%` formats each value.
EXACT_RANGE = st.floats(1e-6, 1e17).flatmap(lambda v: st.sampled_from([v, -v]))
# Rows each drawn or edge sample is repeated into: 258 floats a file.
VECTOR_ROWS = 129


@PROPERTY
@given(hnp.arrays(float, st.integers(1, 32), elements=EXACT_RANGE))
def test_samples_csv_in_the_exact_range_matches_oracle(values):
    samples = np.resize(values, (VECTOR_ROWS, 2))  # drawn short, so a failure shrinks fast
    assert_same_text(written(ld.write_samples_csv, samples), oracles.samples_csv(samples))


def around(value, ulps):
    """The doubles within ``ulps`` steps of ``value``."""
    return (np.array(value).view(np.int64) + np.arange(-ulps, ulps + 1)).view(float)


# Values inside the exact range, on a fixed/exponent switch, and ones `%` formats alone.
SHORT = np.concatenate([EDGES, [1e-6, -9.9999999999999995e-07, 1e-4, 123456.789, 1e16, -2.0**53]])


@pytest.mark.parametrize("size", [0, 1, 2])
def test_a_short_call_is_formatted_as_percent_would(size):
    for start in range(SHORT.size - size + 1):
        values = SHORT[start : start + size]
        want = [(codec.CSV_FLOAT % v).encode() for v in values.tolist()]
        assert codec._float_cells(values).tolist() == want


def test_samples_csv_edge_values_match_oracle():
    """Near every power of ten in the exact range, at the switch between
    fixed and exponent notation after rounding, on exact ties (round half to
    even) and at the values `%` formats alone."""
    ties = [(2.0**52 + j) / 8 for j in range(4)]
    values = np.concatenate(
        [around(float(f"1e{k}"), 1000) for k in range(-6, 18)]
        + [[9.9999999999999995e-07, 9.9999999999999999e-5, 1e-4, 99999999999999999.0, 1e17]]
        + [ties, [0.0, 5e-324, 1e-310, 1.7976931348623157e308, np.inf, np.nan]]
    )
    values = np.concatenate([values, -values])
    samples = np.resize(values, (values.size // 2 + VECTOR_ROWS, 2))
    text = written(codec.write_csv, ("x", "y"), samples[:, 0], samples[:, 1])
    assert_same_text(text, oracles.samples_csv(samples))


def test_samples_csv_across_a_block_boundary():
    """More than CSV_BLOCK_ROWS samples, with values that `%` formats alone
    on both sides of the block edge."""
    samples = np.random.default_rng(1021).uniform(-1.0, 1.0, (CSV_BLOCK_ROWS + 300, 2))
    samples[CSV_BLOCK_ROWS - 2 : CSV_BLOCK_ROWS + 2] = [
        [0.0, -0.0], [np.nan, 1e-300], [-np.inf, 2e17], [5e-324, -1.7976931348623157e308]
    ]
    text = written(codec.write_csv, ("x", "y"), samples[:, 0], samples[:, 1])
    assert_same_text(text, oracles.samples_csv(samples))


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS + 1, 5 * CSV_BLOCK_ROWS + 7])
def test_write_csv_bytes_do_not_depend_on_the_worker_count(monkeypatch, rows):
    """Blocks are built on codec._WORKERS threads and written in order: one
    worker is the plain loop. A text column, and cells that only the `%`
    fallback formats, ride along."""
    rng = np.random.default_rng(3030)
    values = rng.uniform(-1.0, 1.0, rows)
    values[::97] = np.nan
    values[1::89] = 1e-300
    values[2::83] = -np.inf
    labels = np.array(["Lift", "Inhibit", "Neutral"])[rng.integers(0, 3, rows)]
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(codec, "_WORKERS", workers)
        texts.append(written(codec.write_csv, ("x", "y", "label"), values, values / 3, labels))
    assert texts[0].count("\n") == rows + 1
    for text in texts[1:]:
        assert_same_text(text, texts[0])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_in_order_raises_the_exception_of_fn_at_its_item(monkeypatch, workers):
    monkeypatch.setattr(codec, "_WORKERS", workers)
    before = threading.active_count()
    boom = ArithmeticError("item 5")

    def fn(k):
        if k == 5:
            raise boom
        return k * k

    got = []
    with pytest.raises(ArithmeticError) as caught:
        for value in codec._in_order(fn, range(20)):
            got.append(value)
    assert caught.value is boom
    assert got == [k * k for k in range(5)]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_in_order_runs_fn_under_the_callers_errstate(monkeypatch, workers):
    monkeypatch.setattr(codec, "_WORKERS", workers)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        list(codec._in_order(lambda x: np.float64(x) * 10.0, [1.0, 1e308, 1.0]))


class FailingFile(io.StringIO):
    """A text file whose ``write`` of the second block raises OSError (its
    first write is the header)."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_a_failed_write_leaves_one_block_and_joins_the_threads(monkeypatch):
    monkeypatch.setattr(codec, "_WORKERS", 2)
    samples = np.random.default_rng(1031).uniform(-1.0, 1.0, (5 * CSV_BLOCK_ROWS + 7, 2))
    before = threading.active_count()
    f = FailingFile()
    try:
        ld.write_samples_csv(f, samples)
    except OSError:
        # counted while the traceback, which holds write_csv's frame, is alive
        assert threading.active_count() == before
    else:
        pytest.fail("the failing write raised nothing")
    lines = written(ld.write_samples_csv, samples).splitlines(keepends=True)
    assert f.getvalue() == "".join(lines[: 1 + CSV_BLOCK_ROWS])


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_closing_in_order_early_starts_no_more_items_and_joins_the_threads(
    monkeypatch, workers, k
):
    """The caller takes k of 100 results and closes the generator: it got
    the first k in order, fn started on at most k + 2 * _WORKERS items (the
    ones in flight), and every thread is joined."""
    monkeypatch.setattr(codec, "_WORKERS", workers)
    before = threading.active_count()
    started = []

    def fn(item):
        started.append(item)
        return item * item

    results = codec._in_order(fn, range(100))
    got = [next(results) for _ in range(k)]
    results.close()
    assert got == [item * item for item in range(k)]
    assert len(started) <= k + 2 * workers
    assert threading.active_count() == before


def test_in_order_under_fast_thread_switching():
    """More workers than cores and a 1 us switch interval, in a fresh
    process so that a deadlock fails the test within its timeout: the items
    come back in order, at most 2 * _WORKERS of them are in flight, and every
    thread is joined."""
    done = run_fresh(
        "import json, sys, threading\n"
        "from liftdep import codec\n"
        "codec._WORKERS = 8\n"
        "lock = threading.Lock()\n"
        "started = consumed = peak = 0\n"
        "def fn(k):\n"
        "    global started, peak\n"
        "    with lock:\n"
        "        started += 1\n"
        "        peak = max(peak, started - consumed)\n"
        "    return sum(range(k % 50)) + k\n"
        "sys.setswitchinterval(1e-6)\n"
        "try:\n"
        "    got = []\n"
        "    for value in codec._in_order(fn, range(2000)):\n"
        "        got.append(value)\n"
        "        with lock:\n"
        "            consumed += 1\n"
        "finally:\n"
        "    sys.setswitchinterval(0.005)\n"
        "want = [sum(range(k % 50)) + k for k in range(2000)]\n"
        "print(json.dumps([got == want, peak, threading.active_count()]))\n"
    )
    assert done.returncode == 0, done.stderr
    in_order, peak, threads = json.loads(done.stdout.splitlines()[-1])
    # the count of calls started and values not yet counted by the loop
    # includes the value being handed over, one above the 2 * 8 in flight
    assert in_order and 1 <= peak <= 2 * 8 + 1 and threads == 1


@pytest.mark.parametrize(
    "header,columns",
    [
        (("a", "b"), ([1.0], [1.0, 2.0])),
        (("a", "b", "c"), ([1.0], [2.0])),
        (("a", "b"), ([1.0, 2.0], [1.0])),
    ],
    ids=["short-first-column", "header-too-wide", "long-first-column"],
)
def test_write_csv_rejects_a_bad_shape_before_writing(header, columns):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"lengths \[\d+, \d+\]"):
        codec.write_csv(buf, header, *columns)
    assert buf.getvalue() == ""


@PROPERTY
@given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(2)), elements=FINITE))
@example(EDGES[3:9].reshape(3, 2))
def test_samples_round_trip_is_bit_identical(samples):
    back = ld.read_samples_csv(io.StringIO(written(ld.write_samples_csv, samples)))
    assert back.shape == samples.shape
    np.testing.assert_array_equal(bits(back), bits(samples))


# Three full blocks and part of a fourth.
ROUND_TRIP_ROWS = 3 * CSV_BLOCK_ROWS + 123
# The writer's exact range, away from its ends, where every cell it writes
# is in the form the reader parses in numpy: "1.2345e-06" to 17-digit integers.
WRITER_FORM = (2e-6, 9e16)
# Values at the edges of the parsed form and below it; none has an "e+".
RARE = [-0.0, 0.0, 1e-7, -1e-7, 1e-6, 1e-5, 5e-324, -2.2250738585072014e-308, 2.0**53 + 2,
        99999999999999984.0]


def writer_form(rng, shape):
    """Log-uniform doubles of random sign in WRITER_FORM, zeros and integers."""
    v = np.exp(rng.uniform(*np.log(WRITER_FORM), shape)) * rng.choice([-1.0, 1.0], shape)
    v.flat[::101] = np.rint(v.flat[::101])
    v.flat[1::211] = -0.0
    return v


def any_finite(rng, shape):
    """Doubles drawn uniformly from every finite bit pattern: subnormals,
    huge and tiny values, and the writer's range by a little."""
    v = rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False).view(float)
    return np.where(np.isfinite(v), v, 1.5)


def tiny(rng, shape):
    """Doubles of random sign drawn uniformly from the bit patterns below
    1e-6, subnormals included, which the writer writes "d.ddde-XX"."""
    top = np.float64(1e-6).view(np.uint64)
    return rng.integers(0, top, shape, dtype=np.uint64).view(float) * rng.choice([-1.0, 1.0], shape)


def no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt was called")


@PROPERTY
@given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(2)),
                  elements=st.floats(*WRITER_FORM) | st.floats(-WRITER_FORM[1], -WRITER_FORM[0])))
def test_writer_form_round_trip_is_parsed_in_numpy(samples):
    """Drawn doubles in the writer's exact range read back bit for bit, and
    np.loadtxt, which a declined block or body would call, is never reached."""
    text = written(ld.write_samples_csv, samples)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", no_loadtxt)
        back = ld.read_samples_csv(io.StringIO(text))
    assert back.shape == samples.shape
    np.testing.assert_array_equal(bits(back), bits(samples))


@pytest.mark.parametrize("off_form, loadtxt_calls", [(tiny, 2), (any_finite, 1)])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_samples_round_trip_over_blocks_is_bit_identical(off_form, loadtxt_calls, seed):
    """Reader block 1 and the last one, part of a block, hold ``off_form``
    doubles in a third of their rows, and RARE at drawn places; the other
    blocks hold only cells in the parsed form, which numpy parses. Tiny
    doubles send only their own blocks to np.loadtxt; any finite double
    (1e17 and above are written with an "e+") sends the whole body there
    from block 1 on. np.loadtxt of the same text is the oracle, for the text
    written on 1, 2 and 3 writer threads."""
    rng = np.random.default_rng(seed)
    samples = writer_form(rng, (ROUND_TRIP_ROWS, 2))
    size = codec._READ_ROWS
    for block in (1, ROUND_TRIP_ROWS // size):
        rows = samples[block * size : (block + 1) * size]
        rows[::3] = off_form(rng, rows[::3].shape)
        rows.flat[rng.choice(rows.size, len(RARE), replace=False)] = RARE
    loadtxt = np.loadtxt
    for workers in (1, 2, 3):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_WORKERS", workers)
            text = written(ld.write_samples_csv, samples)
            patch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
            back = ld.read_samples_csv(io.StringIO(text))
        want = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert len(calls) == loadtxt_calls
        assert back.shape == samples.shape
        np.testing.assert_array_equal(bits(back), bits(samples))
        np.testing.assert_array_equal(bits(back), bits(want))


def test_writer_form_is_parsed_without_loadtxt(monkeypatch, tmp_path):
    """Every block of writer output in its exact range passes the guard, from
    a file as the CLI opens it and from a text stream: np.loadtxt, which a
    declined block or body would call, is never reached."""
    samples = writer_form(np.random.default_rng(3101), (ROUND_TRIP_ROWS, 2))
    text = written(ld.write_samples_csv, samples)
    assert "e-06" in text and "e-05" in text
    path = tmp_path / "s.csv"
    path.write_text(text)
    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    with open(path, newline="") as f:
        from_file = ld.read_samples_csv(f)
    for back in (from_file, ld.read_samples_csv(io.StringIO(text))):
        np.testing.assert_array_equal(bits(back), bits(samples))


def test_a_body_with_no_room_for_its_values_goes_to_loadtxt(monkeypatch):
    """The reader reserves address space for the most rows the body's bytes
    could hold; where that fails, np.loadtxt reads the body instead."""
    samples = writer_form(np.random.default_rng(3104), (50, 2))
    text = written(ld.write_samples_csv, samples)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    monkeypatch.setattr(np, "empty", lambda *a, **k: (_ for _ in ()).throw(MemoryError))
    back = ld.read_samples_csv(io.StringIO(text))
    assert calls
    np.testing.assert_array_equal(bits(back), bits(samples))


def midpoints(values):
    """The exact midpoint between each double and the next one up, as a Decimal."""
    return [Decimal(v) + (Decimal(np.nextafter(v, np.inf)) - Decimal(v)) / 2 for v in values]


def test_hard_cases_read_as_the_nearest_double(monkeypatch):
    """Decimals on or near a midpoint between doubles read as the nearest
    double, ties to even (oracles.nearest_double, exact rationals): 2**53 + 1
    and other 17-digit ties at and above 1e16 (and x.5 just below 2**53),
    which the guard passes to np.loadtxt; midpoints rounded to 17 digits,
    which it accepts; and decimals within 1e-25 (relative) of a midpoint."""
    rng = np.random.default_rng(3102)
    big = np.exp(rng.uniform(np.log(1e16), np.log(9.9e16), 300))
    ties = [str(m) for m in midpoints(big)]
    assert all(len(t) == 17 and t.isdigit() for t in ties)
    ties += ["9007199254740993"]
    ties += [str(m) for m in midpoints(2.0**52 + rng.integers(0, 2**52, 50).astype(float))]
    values = np.exp(rng.uniform(np.log(2e-6), np.log(1e15), 3000))
    seventeen = [format(Context(prec=17).plus(m), "f") for m in midpoints(values)]
    wide = Context(prec=80)
    close = [f"{wide.fma(m, Decimal(sign).scaleb(-25), m):.40e}"
             for m, sign in zip(midpoints(values[:300]), itertools.cycle([-1, 1]))]
    for cells in (ties, seventeen, close):
        n = len(cells) // 2 * 2
        text = "x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(cells[:n:2], cells[1:n:2]))
        with monkeypatch.context() as patch:
            if cells is seventeen:
                patch.setattr(np, "loadtxt", no_loadtxt)
            back = ld.read_samples_csv(io.StringIO(text)).ravel()
        want = [oracles.nearest_double(c) for c in cells[:n]]
        np.testing.assert_array_equal(bits(back), bits(want))


def test_a_file_in_another_encoding_is_read_as_its_text(tmp_path):
    """Body bytes that are ASCII digits but, in the file's encoding, other
    characters: the file is read as that text, which is not a number."""
    path = tmp_path / "t.csv"
    path.write_bytes("x,y\n".encode("cp037") + b"0.5,1\n")
    with open(path, newline="", encoding="cp037") as f, pytest.raises(ValueError, match="line 2"):
        ld.read_samples_csv(f)


def test_an_ascii_file_with_other_bytes_fails_as_its_decoder_fails(tmp_path):
    """A no-break space, which np.loadtxt takes as whitespace, as UTF-8
    bytes in a file opened as ASCII: the read raises the decoder's error,
    as the text of the file cannot be read, and gives no values."""
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,y\n" + b"0.5,0.25\n" * 1000 + b"1,2\xc2\xa0\n")  # past the first 8 KB read
    with open(path, newline="", encoding="ascii") as f, pytest.raises(UnicodeDecodeError):
        ld.read_samples_csv(f)


class Trickle(io.BytesIO):
    """Bytes that come at most 1,000 to a read."""

    def readinto(self, b):
        return super().readinto(memoryview(b)[:1000])


class Growing(io.BytesIO):
    """A file that grows by 100 bytes after its end is first sought."""

    def seek(self, pos, whence=io.SEEK_SET):
        at = super().seek(pos, whence)
        return at - 100 if whence == io.SEEK_END else at


def test_a_file_that_grows_while_read_goes_to_loadtxt():
    """More rows than the size first taken has room for: np.loadtxt reads
    the body to its end."""
    text = "x,y\n" + "1,2\n" * 100
    f = io.TextIOWrapper(Growing(text.encode()), encoding="utf-8", newline="")
    np.testing.assert_array_equal(ld.read_samples_csv(f), [[1.0, 2.0]] * 100)


def test_short_reads_give_the_same_values():
    """A window that a short read ends mid-line is declined, and np.loadtxt
    reads the body to the same values."""
    samples = writer_form(np.random.default_rng(3105), (2 * codec._READ_ROWS + 5, 2))
    text = written(ld.write_samples_csv, samples)
    f = io.TextIOWrapper(Trickle(text.encode()), encoding="utf-8", newline="")
    np.testing.assert_array_equal(bits(ld.read_samples_csv(f)), bits(samples))


def closest_to_midpoints():
    """Cells "0.00000<17 digits>" (k = 22) in [2**-17, 1e-5), where the
    spacing of doubles is 2**-69, at 1 / (2 * 5**22) of that spacing from a
    midpoint: no cell of the parsed form off a midpoint comes closer. For
    ``x = sig / 10**22`` and a midpoint ``(2m + 1) * 2**-70``, ``x`` minus it
    is ``(sig * 2**48 - (2m + 1) * 5**22) / (5**22 * 2**70)``, and the
    numerator is +-1 where ``sig * 2**48 = +-1 (mod 5**22)``."""
    cells = []
    for sign in (1, -1):
        first = sign * pow(2**48, -1, 5**22) % 5**22
        cells += [f"0.00000{sig}" for sig in range(first, 10**17, 5**22) if sig > 2**-17 * 1e22]
    return cells


def test_cells_closest_to_a_midpoint_go_to_loadtxt(monkeypatch):
    """Their residual is within the guard's 2**-40 margin of half a gap, so
    np.loadtxt reads their block, and every value is the nearest double."""
    cells = closest_to_midpoints()
    assert len(cells) >= 16 and all(len(c) == 24 for c in cells)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    text = "x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(cells[::2], cells[1::2]))
    back = ld.read_samples_csv(io.StringIO(text)).ravel()
    assert calls
    np.testing.assert_array_equal(bits(back), bits([oracles.nearest_double(c) for c in cells]))


def read_both(text, how, what, tmp_path):
    """(codec._read_csv, oracles.loadtxt_csv) of ``text``, each as
    ("ok", header, body bits) or ("error", message); a warning is an error."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    results = []
    for read in (codec._read_csv, oracles.loadtxt_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                if how == "stream":
                    header, body = read(io.StringIO(text), what)
                else:
                    with open(path, newline="" if how == "cli" else None, encoding="utf-8") as f:
                        header, body = read(f, what)
                results.append(("ok", header, body.shape, bits(body).tobytes()))
            except ValueError as exc:
                results.append(("error", str(exc)))
    return results


def three_blocks(line, cell):
    """Writer text of three blocks of samples with the first cell of ``line``
    (1-based, the header being line 1) replaced by ``cell``."""
    samples = np.random.default_rng(3103).uniform(0.0, 1.0, (3 * CSV_BLOCK_ROWS, 2))
    lines = written(ld.write_samples_csv, samples).split("\n")
    lines[line - 1] = cell + lines[line - 1][lines[line - 1].index(",") :]
    return "\n".join(lines)


PARITY = {
    "crlf": "x,y\r\n1,2\r\n0.5,-3.25\r\n",
    "no-final-newline": "x,y\n1,2\n0.5,-3.25",
    "blank-lines": "x,y\n1,2\n\n0.5,-3.25\n\n",
    "whitespace-line": "x,y\n1,2\n   \n0.5,-3.25\n",
    "lone-cr-body": "x,y\n\r",
    "cr-at-end": "x,y\n1,2\r",
    "short-forms": "x,y\n+1,1e5\n1E5,.5\n5.,007\n-0,0.0\n",
    "long-significands": ("x,y\n123456789012345678,1.2345678901234567891\n"
                          "1234567890.1234567891,0.5\n"),
    "spaces": "x,y\n 0.5 ,1\n",
    "bom": "\ufeffx,y\n1,2\n",
    "non-ascii": "x,y\n1,2\u00e9\n",
    "arabic-digit": "x,y\n1,\u0663\n",
    "pipe": "x,y\n1|2\n",
    "nan": "x,y\n1,nan\n",
    "huge": "x,y\n1,1e999\n",
    "underscore": "x,y\n1_0,2\n",
    "one-cell-lines": "x,y\n1\n2\n",
    "four-cell-line": "x,y\n1,2,3,4\n",
    "empty-cell": "x,y\n1,\n",
    "pmf": "x,y:0,y:1\n0,0.25,0.25\n1,0.25,0.25\n",
    "pmf-one-column-blank-lines": "x\n\n\n",
    "one-column-blank-line-inside": "x\n1234\n\n5678\n",
    "pmf-short-row": "x,y:0,y:1\n0,0.25,0.25\n1,0.25\n",
    "short-form-in-block-3": three_blocks(2 * CSV_BLOCK_ROWS + 100, "1e5"),
    "tiny-in-block-3": three_blocks(2 * CSV_BLOCK_ROWS + 100, "1.250032328758972e-07"),
    "huge-in-block-3": three_blocks(2 * CSV_BLOCK_ROWS + 100, "1.0000000000000001e+17"),
    "bad-cell-in-block-3": three_blocks(2 * CSV_BLOCK_ROWS + 2, "abc"),
}
# Cells near the parsed form: misplaced signs, points and exponents.
NEAR_FORM = ["1.2.3", "--1", "1-", "-", ".", "1e-05.5", "e-05", "-e-06", "1.e-05", "1e-5",
             "1.5e-04", "1e-055", "0x10", "12345678901234567.5", "0.12345678901234567891",
             "0.000000000000000000.500"]
PARITY.update({f"cell {cell}": f"x,y\n0.5,{cell}\n" for cell in NEAR_FORM})


@pytest.mark.parametrize("how", ["stream", "cli", "translated"])
@pytest.mark.parametrize("case", list(PARITY))
def test_reader_keeps_the_loadtxt_rules(case, how, tmp_path):
    """The same header and body bits, or the same ValueError text, as
    np.loadtxt with a line scan (oracles.loadtxt_csv), from a text stream, a
    file opened as the CLI opens it and one that translates newlines."""
    text = PARITY[case]
    what = "pmf" if case.startswith("pmf") else "sample"
    got, want = read_both(text, how, what, tmp_path)
    if case == "bom":  # unlike loadtxt, the reader drops one leading byte-order mark
        want = read_both(text.removeprefix("\ufeff"), how, what, tmp_path)[1]
    assert got == want
    if case == "bad-cell-in-block-3":
        assert want == ("error", "sample csv line 32770: not a number: 'abc'")


BOM_CASES = {
    "short-forms": "x,y\n+1,1e5\n1E5,.5\n",
    "writer-form": written(
        ld.write_samples_csv, np.random.default_rng(32).normal(size=(CSV_BLOCK_ROWS + 7, 2))
    ),
    "pmf": "x,y:0,y:1\n0,0.25,0.25\n1,0.25,0.25\n",
}


@pytest.mark.parametrize("case", list(BOM_CASES))
def test_a_byte_order_mark_is_not_part_of_the_header(case, tmp_path, capsys):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet "CSV
    UTF-8" exports do, reads as the same file without it: the same header
    and body bits from a stream, a file opened as the CLI opens it and one
    that translates newlines, and the same ``liftdep scaling`` output."""
    from liftdep.cli import main

    text = BOM_CASES[case]
    what = "pmf" if case == "pmf" else "sample"
    results = []
    for prefix in ("", "\ufeff"):
        path = tmp_path / f"bom{len(prefix)}.csv"
        path.write_bytes((prefix + text).encode())
        for newline in ("", None):
            with open(path, newline=newline, encoding="utf-8") as f:
                header, body = codec._read_csv(f, what)
            results.append((header, bits(body).tobytes()))
        header, body = codec._read_csv(io.StringIO(prefix + text), what)
        results.append((header, bits(body).tobytes()))
        if case == "writer-form":
            argv = ["scaling", "--samples-file", str(path), "--center-x", "0", "--center-y",
                    "0", "--eps-max", "1", "--eps-min", "0.5", "--k", "4"]
            assert main(argv) == 0
            results.append(capsys.readouterr().out)
    assert results[0][0][0] == "x"
    assert results == results[: len(results) // 2] * 2


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
