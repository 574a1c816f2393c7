"""File formats: the one CSV writer and reader, and the JSON writer.

Every CSV the package writes goes through :func:`write_csv`, which writes
floats ``%.17g`` (they read back to the same double), and every CSV it reads
through one reader that names the first bad line. The sample pair files
(header ``x,y``) are read and written here; the pmf tables, which build a
``DiscreteJoint``, are read and written in :mod:`liftdep.distributions` on
top of this module. The module needs numpy only, so the ``scaling`` and
``weierstrass`` commands load none of the distribution code. It also holds
:func:`_in_order`, which runs the writer's blocks and the kernel estimator's
chunks on a few threads and hands back their results in order.

The writer formats a float column in numpy, byte for byte as ``"%.17g" % v``
would. For ``|v| = s * 10**-k`` with ``0 <= k <= 22``, ``10**k`` is an exact
double, so Dekker's error-free product (a Veltkamp split of both factors;
Numer. Math. 18 (1971) 224-242) gives ``|v| * 10**k`` exactly as a pair
``hi + lo``. The exponent is ``E = floor(log10|v|)``, corrected by one
where the exact pair falls outside ``[1e16, 1e17)``, so that ``k = 16 - E``.
``hi`` is then an even integer above 2**53, and ``hi + rint(lo)`` is the
17-digit significand rounded half to even, as the correctly rounded ``dtoa``
behind ``%`` rounds it. The digits are laid out per ``%g``: trailing zeros
stripped, fixed notation for decimal exponents -4 to 16, otherwise (-5
and -6 here) ``d.ddde-0X``. This covers ``1e-6 <= |v| < 1e17`` (and a little less at
the ends); zero, NaN, infinities and every other value are formatted by
``CSV_FLOAT % v`` itself, once per distinct value.

The reader inverts that layout. It reads the body's bytes, at most one
block's worth at a time, into one reused zero-padded byte array and parses
them _READ_ROWS rows at a time in numpy, where each line of the block is
cells joined by commas and ended by a newline, and each cell is in the
writer's form ``-?D+(.D+)?(e-0[56])?``: its digits, point dropped, are an
integer ``sig < 10**17`` (at most 17 significant digits) and its value
is ``sig / 10**k`` with ``k`` = (digits after the point) - (exponent) ``<= 22``,
so ``10**k`` is an exact double. The quotient ``c = sig / 10**k`` is
corrected once by the residual ``sig - c * 10**k``, which Dekker's product
gives exactly (Clinger, PLDI 1990). A block is kept only if every corrected
``c`` then passes a guard: its residual, evaluated to within far less than
its 2**-40 margin, is below half the gap from ``c`` to the next double toward
zero, the smaller of its two gaps. Then ``c`` is the double nearest to
``sig / 10**k``, as ``np.loadtxt`` would read it; an exact tie fails the
guard. A block with any other cell is read by ``np.loadtxt`` on its own, and
if that fails, or a line is not of that shape (a "+", a space or a "\\r"
ends a cell early), or the file may hold text other than ASCII, the whole
body is read by ``np.loadtxt`` as if no block had been, so every value and
every line-numbered error stays the same.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import contextvars
import io
import json
import math
import operator
import os
import threading
import warnings

import numpy as np

CSV_BLOCK_ROWS = 16384  # 1e6 x 2 samples wrote fastest at 16,384 rows; 65,536 took 1.3-1.6x as long
# Rows per block of the reader: a fresh read of 1e6 x 2 samples took as long at
# 2,048 to 16,384 rows, and its peak RSS grows with the block (4,096: that of
# np.loadtxt; 16,384: 8.6 MB more).
_READ_ROWS = 4096
CSV_FLOAT = "%.17g"
# Threads for the block loops of write_csv and estimation.kernel_lift; see _in_order.
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

# A cell's text is at most 24 bytes ("-2.2250738585072014e-308"). The
# formatter builds it NUL-padded in three little-endian 64-bit words: byte j
# of the text is bits 8 * (j % 8) up of word j // 8.
_CELL = "S24"
_ZEROS = 0x3030303030303030  # "00000000"
_DOTS = 0x2E2E2E2E2E2E2E2E  # "........"
_POW10 = np.array([10**j for j in range(23)], dtype=float)  # the powers of ten that are doubles


def write_csv(f: io.TextIOBase, header, *columns) -> None:
    """Write a header line, then one row per index of the equal-length columns.

    Float columns are written ``%.17g``, which reads back to the same double,
    by the exact vectorized formatter of the module docstring (the float
    columns of a block in one call); a bytes column (numpy ``S``) is taken as
    its cells' text, and any other column is written with ``str`` (a StrEnum
    as its value). Rows are written CSV_BLOCK_ROWS at a time, each block one
    byte matrix of NUL-padded cells and separators with the NULs dropped (so
    a text cell cannot carry one). The blocks' text is built on up to
    ``_WORKERS`` threads and written in order by the calling thread, so the
    bytes do not depend on the thread count, and memory stays bounded by
    ``2 * _WORKERS`` blocks however long the columns are. A header whose
    width differs from the number of columns, or columns of different
    lengths, raise ValueError before anything is written.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(header) != len(columns) or len(set(lengths)) > 1:
        raise ValueError(
            f"csv header has {len(header)} names for {len(columns)} columns of lengths {lengths}"
        )
    f.write(",".join(header) + "\n")
    starts = range(0, lengths[0] if columns else 0, CSV_BLOCK_ROWS)
    texts = _in_order(lambda start: _block_text(columns, start), starts)
    with contextlib.closing(texts):  # a failed write joins the threads before it propagates
        for text in texts:
            f.write(text)


def _block_text(columns: list[np.ndarray], start: int) -> str:
    """The CSV rows of the block of CSV_BLOCK_ROWS rows from ``start`` (write_csv)."""
    block = [c[start : start + CSV_BLOCK_ROWS] for c in columns]
    text = iter(_float_cells([c for c in block if c.dtype.kind == "f"]))
    cells = [next(text) if c.dtype.kind == "f" else _text_cells(c) for c in block]
    cells = [np.ascontiguousarray(c).view(np.uint8).reshape(len(c), -1) for c in cells]
    ends = np.cumsum([c.shape[1] + 1 for c in cells])
    out = np.full((len(cells[0]), ends[-1]), ord(","), np.uint8)
    out[:, -1] = ord("\n")
    for c, end in zip(cells, ends):
        out[:, end - 1 - c.shape[1] : end - 1] = c
    return out[out != 0].tobytes().decode()


def _in_order(fn, items):
    """Yield ``fn(item)`` for each item of the sequence ``items``, in order.

    The results are computed on up to ``_WORKERS`` threads, which take tasks
    from one FIFO queue: a task is an item and the queue its result is put
    on, so an idle thread takes the first item not yet taken. The caller
    keeps ``2 * _WORKERS`` tasks submitted, takes each result from its
    item's own queue in item order, and then submits the next item, so at
    most ``2 * _WORKERS`` items are in flight (taken by a thread and not yet
    yielded). numpy releases the GIL inside its ufuncs and matmul, so the
    threads overlap there; the caller combines the results in item order,
    so every float operation and summation order is that of a plain loop.
    With fewer than two items or one worker it is ``map``, and no thread
    starts. An exception ``fn`` raises is raised to the caller at its item.
    Closing the generator, as ``contextlib.closing`` does when the loop body
    raises, drops the tasks no thread has taken, lets the threads finish
    their current items and joins them.

    ``fn`` runs in a copy of the caller's context, so an ``np.errstate`` the
    caller set holds in it. It must not use ``warnings.catch_warnings``,
    which is process-global.
    """
    workers = min(_WORKERS, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    import queue  # here, so that a command that starts no thread does not load it

    tasks = queue.SimpleQueue()  # (item, the queue of its result); None stops a thread

    def work(context):
        for item, result in iter(tasks.get, None):
            try:
                result.put((context.run(fn, item), None))
            except BaseException as exc:  # raised again in the caller's thread
                result.put((None, exc))

    def submit(item):
        tasks.put((item, result := queue.SimpleQueue()))
        return result

    threads = [threading.Thread(target=work, args=(contextvars.copy_context(),), daemon=True)
               for _ in range(workers)]
    for t in threads:
        t.start()
    ahead = 2 * workers
    pending = collections.deque(map(submit, items[:ahead]))
    try:
        for k in range(len(items)):
            value, exc = pending.popleft().get()
            if k + ahead < len(items):
                pending.append(submit(items[k + ahead]))
            if exc is not None:
                raise exc
            yield value
    finally:
        with contextlib.suppress(queue.Empty):
            while True:  # drop the tasks no thread has taken
                tasks.get_nowait()
        for _ in threads:
            tasks.put(None)
        for t in threads:
            t.join()


def _text_cells(column: np.ndarray) -> np.ndarray:
    """A bytes column as it is, any other column as the encoded ``str`` of each cell."""
    if column.dtype.kind == "S":
        return column
    return np.array([str(v).encode() for v in column.tolist()], dtype=bytes)


def _float_cells(values) -> np.ndarray:
    """``CSV_FLOAT % v`` of each value, as an ``S24`` array of the same shape
    (module docstring)."""
    shape = np.shape(values)
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 16.0 - np.floor(np.log10(a))
    exact = (k >= 0) & (k <= 22)
    k = np.where(exact, k, 0).astype(np.intp)
    a = np.where(exact, a, 1.0)
    hi, lo = _two_product(a, _POW10[k])
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero((low | high) & exact)  # log10 missed E by one
    if off.size:
        k[off] += low[off].astype(np.intp) - high[off]
        exact[off] = (k[off] >= 0) & (k[off] <= 22)
        k[off] = np.clip(k[off], 0, 22)
        hi[off], lo[off] = _two_product(a[off], _POW10[k[off]])
    # No significand rounds up to 10**17: that takes a double within 5e-18
    # (relative) below a power of ten, but 1e0..1e17 are doubles, the next
    # double below each is 1.1e-16 away, and 1e-5..1e-1 round upwards.
    sig = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    cells = _layout(sig, 16 - k, np.signbit(v))
    rest = np.flatnonzero(~exact)
    if rest.size:
        bits, which = np.unique(v[rest].view(np.uint64), return_inverse=True)
        cells[rest] = _percent_cells(bits.view(float))[which]
    return cells.reshape(shape)


def _percent_cells(v: np.ndarray) -> np.ndarray:
    return np.array([CSV_FLOAT % x for x in v.tolist()], _CELL)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p = fl(a * b)`` and ``a * b = p + e`` exactly (Dekker),
    barring overflow and underflow, in the float type of ``a``. Its p-bit
    mantissa gives Veltkamp's splitter ``2^ceil(p / 2) + 1``: 2^27 + 1 for
    doubles, 2^32 + 1 for the x86 long double."""
    split = a.dtype.type(2 ** ((np.finfo(a.dtype).nmant + 2) // 2) + 1)
    p = a * b
    t = split * a
    ah = t - (t - a)
    al = a - ah
    t = split * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _layout(sig: np.ndarray, exp10: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of ``±sig * 10**(exp10 - 16)`` for 17-digit ``sig``
    and ``-6 <= exp10 <= 16``.

    The text is ``[-][0.00]<digits>[.<digits>][e-0X]``: the digits with
    trailing zeros stripped (but not those left of the point), a point
    inserted, then moved past the sign and the leading zeros.
    """
    head = sig // 10**9
    tail = sig - head * 10**9
    mid = tail // 10
    last = tail - mid * 10
    words = np.stack([_digits8(head), _digits8(mid), last.astype("<u8")])  # digit values
    # A word of digit values is below 16 * 2**(8 * its top byte), so its float
    # rounds to a value with the same top byte, which frexp gives.
    top = (np.frexp(words[:2].astype(float))[1] - 1) >> 3
    kept = np.where(last != 0, 17, np.where(words[1] != 0, 9 + top[1], 1 + top[0]))
    words += _ZEROS
    sci = exp10 < -4  # 1e-6 <= |v| < 1e-4: d.ddde-0X
    small = ~sci & (exp10 < 0)
    point = np.where(sci, 1, exp10 + 1)  # digits left of the point; <= 0 when small
    used = np.maximum(kept, point)  # digits written
    dot = (used > point) & ~small
    lead = np.where(small, 1 - exp10, 0)  # the length of "0.00"
    words &= _first(used)
    before = words & (upto := _first(point))
    dots = dot.astype("<u8") * _DOTS & (_first(point + 1) ^ upto)
    text = before | _shift(words ^ before, dot) | dots
    text = _shift(text, neg + lead)
    sign = neg.astype("<u8")
    zeros = (_first(lead)[0] & _ZEROS) ^ small.astype("<u8") * 0x1E00  # "0.00": '0' to '.'
    text[0] |= zeros << 8 * sign | sign * ord("-")
    cells = np.ascontiguousarray(text.T, dtype="<u8").view(_CELL).ravel()
    sci = np.flatnonzero(sci)
    if sci.size:
        at = (neg + used + dot)[sci, None] + np.arange(4)
        suffix = np.frombuffer(b"e-00", np.uint8) + np.outer(-exp10[sci], [0, 0, 0, 1])
        cells.view(np.uint8).reshape(-1, 24)[sci[:, None], at] = suffix
    return cells


def _digits8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``0 <= x < 10**8``, most significant
    first, as the byte values of a little-endian word: split into 4-, then
    2-, then 1-digit lanes, dividing by 100 and by 10 with multiply-shifts
    that are exact in those ranges."""
    upper = x // 10**4
    w = (upper | (x - upper * 10**4) << 32).astype("<u8")
    q = (w * 5243 >> 19) & 0x0000007F0000007F
    w = q | (w - q * 100) << 16
    q = (w * 103 >> 10) & 0x000F000F000F000F
    return q | (w - q * 10) << 8


def _first(n: np.ndarray) -> np.ndarray:
    """Masks of the first ``n`` bytes of each text, as (3, len(n)) words."""
    keep = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype="<u8")
    return keep.take(n - np.array([[0], [8], [16]]), mode="clip")


def _shift(words: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The texts in ``words`` moved ``n`` bytes later, ``0 <= n < 8``."""
    bits = 8 * n.astype("<u8")
    out = words << bits
    out[1:] |= words[:-1] >> 1 >> (63 - bits)  # no shift by 64, whose result C leaves open
    return out


def write_json(f: io.TextIOBase, obj) -> None:
    """Write ``obj`` as JSON indented by two spaces, ending with a newline."""
    json.dump(obj, f, indent=2)
    f.write("\n")


def _csv_float(cell: str, where: str, kind=float):
    """``kind(cell)`` under the rules of numpy's parser: ASCII, no underscores."""
    if cell.isascii() and "_" not in cell:
        with contextlib.suppress(ValueError):
            return kind(cell)
    raise ValueError(f"{where}: not a number: {cell.strip()!r}")


# The reader's zero bytes before the body: a cell's 24 bytes start up to 28
# bytes before the cell's end.
_PAD = 32
# _KEEP[n]: the mask of the last n of a cell's 24 bytes.
_KEEP = np.array([[0] * (24 - n) + [0xFF] * n for n in range(25)], np.uint8)
# A byte 1 at byte b of word j, times _POINT_AT[j], gives 8 * j + b + 1 as the top byte.
_POINT_AT = np.array([sum((8 * j + 8 - b) << 8 * b for b in range(8)) for j in range(3)], "<u8")
_E05 = int.from_bytes(b"e-05", "little")
# By the point's place d in a cell's 24 bytes (1-based, 0 for no point): the
# digits after it, and the divisor and factor that take its slot out of the
# value of the 24 digit slots. A divisor of 2**63 exceeds every such value.
_FRAC = np.array([0] + [24 - d for d in range(1, 25)])
_SLOT = np.array([2**63] + [min(10 ** (25 - d), 2**63) for d in range(1, 25)], np.uint64)
_NINES = _SLOT // 10 * 9


def _read_csv(f: io.TextIOBase, what: str) -> tuple[list[str], np.ndarray]:
    """The header cells and the body of a CSV of floats as wide as its header,
    the header read without one leading byte-order mark.

    :func:`_exact_body` parses the body in numpy by blocks (module
    docstring). Where it declines, ``np.loadtxt`` (numpy's C parser,
    correctly rounded like ``float``) reads the body; blank lines are
    skipped. Only if that fails, or the body has the wrong width or a
    non-finite value, does a line scan run to raise ValueError naming the
    first bad line.
    """
    if not f.seekable():  # a pipe: the scan needs to read the body again
        f = io.StringIO(f.read())
    # A UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports begin, is
    # not part of the first name; str.strip keeps it.
    line = f.readline().removeprefix("\ufeff")
    header = [c.strip() for c in line.rstrip("\r\n").split(",")]
    width, start = len(header), f.tell()
    body = _exact_body(f, start, width)
    if body is not None:
        return header, body
    f.seek(start)
    body = _loadtxt(f, width)
    if body is not None:
        return header, body
    f.seek(start)
    for line_no, line in enumerate(f, start=2):
        cells = line.rstrip("\r\n").split(",")
        where = f"{what} csv line {line_no}"
        if cells == [""]:
            continue
        if len(cells) != width:
            raise ValueError(f"{where}: expected {width} cells, got {len(cells)}")
        if not all(math.isfinite(_csv_float(c, where)) for c in cells):
            raise ValueError(f"{where}: non-finite value")
    raise ValueError(f"{what} csv: unreadable body")


def _exact_body(f: io.TextIOBase, start: int, width: int) -> np.ndarray | None:
    """The body of ``f`` from ``start`` as an (n, width) array, parsed by
    blocks of _READ_ROWS lines (module docstring), or None if
    ``np.loadtxt`` must read it whole."""
    body = _body_bytes(f, start)
    if body is None:
        return None
    raw, size = body
    # A cell and its separator take 2 bytes or more. Pages of `out` that no
    # row reaches are never touched, and the resize at the end returns them.
    try:
        out = np.empty((size // (2 * width), width))
    except MemoryError:  # no address space for 4 times the body's bytes
        return None
    row = np.array([ord(",")] * (width - 1) + [ord("\n")], np.uint8)
    need = _READ_ROWS * width  # separators per block
    # A line of the writer's form takes at most 25 bytes per cell, so a
    # block's bytes fit in the window after the _PAD zero bytes.
    buf = np.zeros(_PAD + 25 * need, np.uint8)
    cells = np.ndarray((len(buf) - 23,), "V24", buf, 0, (1,))  # cells[i]: bytes i to i + 23
    n, end = 0, _PAD  # rows parsed; buf[_PAD:end]: bytes read and not yet parsed
    while True:
        # The bytes after the window's last newline, a partial line, are
        # carried over to the next window, or, at the end, make it decline.
        end += raw.readinto(memoryview(buf)[end:])
        if end == _PAD:
            break
        ends = np.flatnonzero(buf[_PAD:end] < ord("-"))[:need] + _PAD
        kind = buf[ends]
        if len(ends) == 0 or len(ends) % width or not (kind.reshape(-1, width) == row).all():
            return None
        starts, rows = np.concatenate(([_PAD], ends[:-1] + 1)), len(ends) // width
        # An empty cell, a blank line if width is 1, or more rows than the
        # file had bytes for when `out` was sized.
        if not (ends > starts).all() or n + rows > len(out):
            return None
        values = _block_values(buf, cells, starts, ends)
        if values is None:
            text = buf[_PAD : ends[-1] + 1].tobytes()
            values = _loadtxt(io.StringIO(text.decode()), width) if text.isascii() else None
            if values is None:
                return None
        out[n : n + rows] = values.reshape(-1, width)
        n += rows
        rest = buf[ends[-1] + 1 : end]
        buf[_PAD : _PAD + len(rest)] = rest  # numpy copies an overlapping slice first
        end = _PAD + len(rest)
    out.resize((n, width), refcheck=False)
    return out


def _body_bytes(f: io.TextIOBase, start: int) -> tuple[io.BufferedIOBase, int] | None:
    """The rest of ``f`` from ``start`` as a binary stream, and its size in
    bytes; None if ``start`` is no byte offset or those bytes may differ
    from the text ``f`` reads, when the file is not UTF-8 or ASCII or the
    text is not ASCII."""
    raw = getattr(f, "buffer", None)
    if raw is None:  # a text stream with no bytes below it, such as io.StringIO
        text = f.read()
        return (io.BytesIO(text.encode()), len(text)) if text.isascii() else None
    size = raw.seek(0, io.SEEK_END) - start
    # A start beyond the end is a position cookie that carries decoder
    # state: a "\r" held back at the end of the file, after the header.
    if codecs.lookup(f.encoding).name not in ("utf-8", "ascii") or size < 0:
        return None
    raw.seek(start)
    return raw, size


def _block_values(buf: np.ndarray, cells: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray | None:
    """The values of one block's cells, each from its entry of ``starts`` to
    the byte before its separator at ``ends``; None unless every cell is in
    the writer's form and passes the guard (module docstring).

    Each cell's text, less its sign and exponent, is taken right-aligned in
    24 bytes; the bytes become digit values (the point 0) in three words, and
    three multiply-shifts, the inverse of :func:`_digits8`, turn each word
    into an 8-digit number. One division then takes the point's slot out of
    the value of the 24 slots.
    """
    x = cells[ends - 24].view(np.uint8).reshape(-1, 24)  # each cell's last byte at 23
    tail = (x.view("<u8")[:, 2] >> 32) - _E05  # 0 for "e-05", 1 << 24 for "e-06"
    sci = (tail | 1 << 24) == 1 << 24
    exp = 0
    if sci.any():
        i = np.flatnonzero(sci)
        x[i] = cells[ends[i] - 28].view(np.uint8).reshape(-1, 24)
        exp = np.where(sci, 5 + (tail >> 24).astype(np.intp), 0)
    neg = buf[starts] == ord("-")
    length = ends - starts - 4 * sci - neg  # the bytes of digits and point
    if not ((length > 0) & (length <= 24)).all():
        return None
    keep = _KEEP.take(length, axis=0)
    x &= keep
    point = x == ord(".")
    one = point.view(np.uint8)
    x -= ord("0")
    x += one
    x += one  # "." is "0" - 2: the point's slot reads 0
    x &= keep
    flags = one.view("<u8")
    at = sum((flags[:, j] * _POINT_AT[j]) >> 56 for j in range(3)).astype(np.intp)
    # Every byte a digit, at most one point in a cell (else `at` misses one),
    # and a point with a digit on each side.
    if (x.max() > 9 or np.count_nonzero(point) != np.count_nonzero(at)
            or not ((at == 0) | ((at >= 26 - length) & (at <= 23))).all()):
        return None
    w = x.view("<u8")
    w = (w * (10 << 8 | 1)) >> 8 & 0x00FF00FF00FF00FF
    w = (w * (100 << 16 | 1)) >> 16 & 0x0000FFFF0000FFFF
    w = (w * (10000 << 32 | 1)) >> 32
    slots = w[:, 0] * 10**16 + w[:, 1] * 10**8 + w[:, 2]  # below 10**18 if w[:, 0] < 100
    sig = slots - slots // _SLOT.take(at) * _NINES.take(at)
    k = _FRAC.take(at) + exp
    if not ((w[:, 0] < 100) & (sig < 10**17) & (k <= 22)).all():
        return None
    sig = sig.astype(np.int64)
    p = _POW10.take(k)
    hi = sig.astype(float)
    lo = (sig - hi.astype(np.int64)).astype(float)  # sig = hi + lo exactly
    c = hi / p
    prod, err = _two_product(c, p)
    r = (hi - prod) + lo - err  # sig - c * p
    fixed = c + r / p
    r -= (fixed - c) * p
    c = fixed
    below = c - (c.view(np.uint64) - 1).view(float)  # the gap to the next double toward 0
    if not ((r == 0) | (np.abs(r) < below * p * (0.5 - 2.0**-41))).all():
        return None
    return np.copysign(c, 0.5 - neg)


def _loadtxt(f: io.TextIOBase, width: int) -> np.ndarray | None:
    """The lines of ``f`` as ``np.loadtxt`` reads comma-separated floats, an
    (n, width) array, or None unless it reads them, each as ``width`` values,
    and every value is finite. No lines at all give a (0, width) array."""
    with contextlib.suppress(ValueError), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        body = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        if body.size == 0 or (body.shape[1] == width and np.isfinite(body).all()):
            return body.reshape(-1, width)
    return None


def _sample_pairs(samples, name: str) -> np.ndarray:
    """``samples`` as a float array; ValueError naming ``name`` unless it has
    shape (n, 2) and every value is finite, as :func:`read_samples_csv` gives."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must have shape (n, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite: a coordinate is NaN or infinite")
    return pts


def _pair(value, name: str) -> tuple[float, float]:
    """``value`` as two floats; ValueError naming ``name`` unless it is a
    pair of numbers (shape (2,)). The callers check the range."""
    with contextlib.suppress(TypeError, ValueError):  # non-numeric cells or ragged rows
        pair = np.asarray(value, dtype=float)
        if pair.shape == (2,):
            return float(pair[0]), float(pair[1])
    raise ValueError(f"{name} must be a pair of numbers, got {value!r}")


def _count(value, name: str, least: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer
    (``operator.index``: no float, string or None) of at least ``least``."""
    with contextlib.suppress(TypeError):
        n = operator.index(value)
        if n >= least:
            return n
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def write_samples_csv(f: io.TextIOBase, samples: np.ndarray) -> None:
    """Write ``x,y`` rows; ValueError, writing nothing, unless ``samples``
    is what :func:`read_samples_csv` gives: (n, 2) and finite."""
    samples = _sample_pairs(samples, "samples")
    write_csv(f, ("x", "y"), samples[:, 0], samples[:, 1])


def read_samples_csv(f: io.TextIOBase) -> np.ndarray:
    """Parse ``x,y`` sample rows into an (n, 2) array; blank lines are skipped.

    A row without exactly two cells, a cell that is not a number, or a
    non-finite value raises ValueError naming its line.
    """
    header, body = _read_csv(f, "sample")
    if header != ["x", "y"]:
        raise ValueError("sample csv must start with header 'x,y'")
    return body
