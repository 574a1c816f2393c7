"""File formats: the one CSV writer and reader, and the JSON writer.

Every CSV the package writes goes through :func:`write_csv`, which writes
floats ``%.17g`` (they read back to the same double), and every CSV it reads
through one reader that names the first bad line. The sample pair files
(header ``x,y``) are read and written here; the pmf tables, which build a
``DiscreteJoint``, are read and written in :mod:`liftdep.distributions` on
top of this module. The module needs numpy only, so the ``scaling`` and
``weierstrass`` commands load none of the distribution code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from itertools import chain

import numpy as np

__all__ = [
    "CSV_BLOCK_ROWS",
    "CSV_FLOAT",
    "write_csv",
    "csv_floats",
    "write_json",
    "read_samples_csv",
    "write_samples_csv",
]

CSV_BLOCK_ROWS = 65536
CSV_FLOAT = "%.17g"


def write_csv(f: io.TextIOBase, header, *columns) -> None:
    """Write a header line, then one row per index of the equal-length columns.

    Float columns are written ``%.17g``, which reads back to the same double;
    any other column is written with ``str`` (a StrEnum as its value). Rows
    are formatted CSV_BLOCK_ROWS at a time, one ``%`` per block, so memory
    stays bounded however long the columns are.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join(CSV_FLOAT if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    f.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [c[start : start + CSV_BLOCK_ROWS].tolist() for c in columns]
        f.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def csv_floats(values) -> np.ndarray:
    """The ``write_csv`` text of each float, as an object column that it writes
    as is, so a value repeated over many rows is formatted once."""
    return np.array([CSV_FLOAT % v for v in np.asarray(values, dtype=float).tolist()], dtype=object)


def write_json(f: io.TextIOBase, obj) -> None:
    """Write ``obj`` as JSON indented by two spaces, ending with a newline."""
    json.dump(obj, f, indent=2)
    f.write("\n")


def _csv_float(cell: str, where: str) -> float:
    """``float(cell)`` under the rules of numpy's parser: ASCII, no underscores."""
    if cell.isascii() and "_" not in cell:
        with contextlib.suppress(ValueError):
            return float(cell)
    raise ValueError(f"{where}: not a number: {cell.strip()!r}")


def _read_csv(f: io.TextIOBase, what: str) -> tuple[list[str], np.ndarray]:
    """The header cells and the body of a CSV of floats as wide as its header.

    ``np.loadtxt`` (numpy's C parser, correctly rounded like ``float``) reads
    the body; blank lines are skipped. Only if it fails, or the body has the
    wrong width or a non-finite value, does a line scan run to raise
    ValueError naming the first bad line.
    """
    if not f.seekable():  # a pipe: the scan needs to read the body again
        f = io.StringIO(f.read())
    header = [c.strip() for c in f.readline().rstrip("\r\n").split(",")]
    width, start = len(header), f.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        if body.size == 0 or (body.shape[1] == width and np.isfinite(body).all()):
            return header, body.reshape(-1, width)
    except ValueError:
        pass
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


def write_samples_csv(f: io.TextIOBase, samples: np.ndarray) -> None:
    samples = np.asarray(samples, dtype=float)
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
