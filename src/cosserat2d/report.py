"""CSV output: the writers every artifact goes through, and the named
verification checks that are written with them.

Every CSV file of the package is written here, so the number format is
defined here once: a string column prints as is, an integer column as
integers (``%d``), and any other column as floats with the bytes of
``"%.17g" % v``, negative zero printing as ``0``.  Every file is started by
:func:`write_csv` (a snapshot by way of :func:`write_grid_csv`), and
:func:`append_csv` adds rows to its end.

Floats are formatted a block of :data:`BLOCK_VALUES` values at a time with
numpy (:func:`_float_cells`): each value is scaled by a power of ten as an
exact double-double product (Dekker, 1971) and rounded to a 17-digit
integer.  A value whose rounding that product cannot decide (an exact or
near tie, such as ``2**-25``), or whose decimal exponent lies outside the
table of powers of ten, is formatted by Python's correctly rounded
``"%.17g" %`` instead, so every byte is that of ``"%.17g" % v``.

A cell is its text, NUL-padded, with its separator in its last byte: a
comma, or a newline at the end of a row.  Adjacent float columns are
formatted together, row-major, so each row's cells of a run come out
contiguous, and a block's lines are its pieces side by side with the NUL
bytes dropped (:func:`_csv_blocks`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import IoError

#: Rows per block of the callers that stream a table or solve a sweep a
#: block at a time (``cli``'s time series, ``waves``' dispersion sweep).
BLOCK_ROWS = 1024

#: Float values formatted per block (a block has at least one row); bounds
#: the memory a write holds.
BLOCK_VALUES = 2**14

#: Text bytes of a float cell, NUL-padded: the longest ``%.17g`` text,
#: such as ``-2.2250738585072014e-308``.
_WIDTH = 24
#: Bytes of a float cell: its text, then the separator after it.
_CELL = _WIDTH + 1

#: Decimal exponents of the power-of-ten table.  A value takes the array
#: path when ``floor(log10 |v|)`` lies strictly inside, so that its exponent,
#: corrected by one, still has an entry.  Inside, ``|v| < 1e300`` keeps the
#: Veltkamp split ``2**27 * |v|`` finite and ``10**(16 - e)`` and its tail
#: are normal doubles.
_E_MIN, _E_MAX = -292, 300

#: How close to half a unit the rounded-off part may come before the
#: rounding counts as undecided.  ``hi + lo`` of :func:`_scaled` is within
#: ``2**-104`` of the exact scaled value relative to it, and that value is
#: below ``2**57``: within ``2**-47`` absolute.
_TIE = 2.0 ** -40


class _Tables(NamedTuple):
    """The tables of :func:`_float_cells`, indexed by ``e - _E_MIN`` for the
    decimal exponent ``e`` of a value."""

    #: ``10**(16 - e) ~ head + mid + tail``: ``head + mid`` is the double
    #: nearest the power, split into two 26-bit halves, and ``tail`` the
    #: double nearest the rest.
    head: np.ndarray
    mid: np.ndarray
    tail: np.ndarray
    #: At ``2 * (e - _E_MIN) + negative``: the sign, then ``0.`` and the
    #: zeros after the point for ``-4 <= e < 0``, NUL-padded to 8 bytes.
    lead: np.ndarray
    #: ``e±XX`` for ``e < -4`` and ``e >= 17``, NUL-padded to 5 bytes.
    suffix: np.ndarray
    #: At ``g``: the 4 digits of ``g < 10**4``; at ``10**4 + g``: the same
    #: without their trailing zeros, NUL-padded.
    groups: np.ndarray


def _split26(x: float) -> tuple[float, float]:
    """``x`` as a sum of two doubles of 26 significant bits each."""
    mantissa, exponent = math.frexp(x)
    head = math.ldexp(round(mantissa * 2**26), exponent - 26)
    return head, x - head


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    """Build the tables exactly from integers, on first use."""
    head, mid, tail, lead, suffix = [], [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        # 10**(16 - e) = num / den; nearest = n / d with d a power of two.
        num, den = (10**(16 - e), 1) if e <= 16 else (1, 10**(e - 16))
        nearest = num / den  # int division rounds correctly
        n, d = nearest.as_integer_ratio()
        halves = _split26(nearest)
        head.append(halves[0])
        mid.append(halves[1])
        tail.append((num * d - n * den) / (den * d))
        fixed = -4 <= e < 17
        zeros = b"0." + b"0" * (-e - 1) if fixed and e < 0 else b""
        lead += [zeros, b"-" + zeros]
        suffix.append(b"" if fixed else b"e%+03d" % e)
    quads = (np.arange(10**4, dtype=np.int16)[:, None]
             // np.array([1000, 100, 10, 1], np.int16) % 10
             + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(quads[:, ::-1] == ord("0"),
                                         axis=1)[:, ::-1]
    return _Tables(
        np.array(head), np.array(mid), np.array(tail),
        np.frombuffer(b"".join(s.ljust(8, b"\0") for s in lead), np.uint64),
        np.array(suffix, dtype="S5").view(np.uint8).reshape(-1, 5),
        np.concatenate([quads, np.where(trailing, 0, quads).astype(np.uint8)])
        .view(np.uint32).ravel())


def _scaled(a, e, t: _Tables):
    """``a * 10**(16 - e)`` as a double-double ``(hi, lo)``: the product of
    ``a`` and the table's leading double is exact (Dekker's two-product,
    ``a`` split by Veltkamp), only the tail's product rounds."""
    index = e - _E_MIN
    head, mid = np.take(t.head, index), np.take(t.mid, index)
    c = 134217729.0 * a  # 2**27 + 1
    a_head = c - (c - a)
    a_mid = a - a_head
    p = a * (head + mid)
    error = ((a_head * head - p) + a_head * mid + a_mid * head) + a_mid * mid
    rest = error + a * np.take(t.tail, index)
    hi = p + rest
    return hi, (p - hi) + rest


def _exponent_step(hi, lo):
    """+1 where ``hi + lo`` lies at or above ``10**17 + 1/2``, -1 where it
    lies below ``10**16``, else 0: the correction to the exponent."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.5))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return above.astype(np.int64) - below.astype(np.int64)


def _padded(text: bytes) -> np.ndarray:
    return np.frombuffer(text.ljust(_WIDTH, b"\0"), np.uint8)


def _rounded(v):
    """``|v|`` as ``digits * 10**(e - 16)``: ``digits`` the 17-digit integer
    nearest ``|v| * 10**(16 - e)``, and where the array path ``decided`` it.
    Zeros, nan and inf, values whose exponent is outside the table and
    values whose rounding the error bound cannot decide are not decided;
    their ``digits`` and ``e`` are placeholders."""
    t = _tables()
    a = np.abs(v)
    regular = np.isfinite(a) & (a != 0.0)
    e = np.floor(np.log10(np.where(regular, a, 1.0))).astype(np.int64)
    decided = regular & (e > _E_MIN) & (e < _E_MAX)
    a[~decided] = 1.0
    e[~decided] = 0
    hi, lo = _scaled(a, e, t)
    # Next to a power of ten, log10 may miss the exponent by one.
    step = _exponent_step(hi, lo)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        hi[moved], lo[moved] = _scaled(a[moved], e[moved], t)
        decided[moved] &= _exponent_step(hi[moved], lo[moved]) == 0
    # hi >= 10**16 > 2**53 is an even integer, so lo alone rounds.
    decided &= np.abs(lo - np.floor(lo) - 0.5) > _TIE
    e[~decided] = 0
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    e[carry] += 1
    return digits, e, decided


def _float_cells(values) -> np.ndarray:
    """The ``"%.17g" % v`` text of each of ``values``, NUL-padded to
    ``_WIDTH`` bytes and followed by a comma, as a row of ``_CELL`` bytes;
    negative zero prints as ``0``."""
    v = np.asarray(values, dtype=np.float64).ravel()
    t = _tables()
    n = len(v)
    digits, e, decided = _rounded(v)

    # The first digit, then two int32 halves of 8 digits in groups of 4.
    high = digits // 10**8
    first = high // 10**8
    halves = np.empty((2, n), np.int32)
    halves[0] = high - first * 10**8
    halves[1] = digits - high * 10**8
    quads = np.empty((4, n), np.int32)
    quads[0::2] = halves // 10**4
    quads[1::2] = halves - quads[0::2] * 10**4
    zero = quads == 0
    # A group followed by zero groups only loses its trailing zeros.
    trim = np.ones((4, n), bool)
    trim[2] = zero[3]
    trim[1] = trim[2] & zero[2]
    trim[0] = trim[1] & zero[1]

    # Lay out [sign, "0." and zeros][first digit][point][16 digits], the
    # text for -4 <= e <= 0; the other exponents are moved below.
    index = e - _E_MIN
    cells = np.empty((n, _CELL), np.uint8)
    cells[:, :8].view(np.uint64)[:, 0] = np.take(t.lead,
                                                 2 * index + (v < 0))
    cells[:, 6] = first + ord("0")
    cells[:, 7] = np.where((trim[0] & zero[0]) | ((e < 0) & (e >= -4)),
                           0, ord("."))
    groups = np.take(t.groups, quads + trim * np.int32(10**4))
    for k, column in enumerate(groups):
        cells[:, 8 + 4 * k:12 + 4 * k].view(np.uint32)[:, 0] = column
    cells[:, _WIDTH] = ord(",")
    scientific = np.flatnonzero((e < -4) | (e >= 17))
    if scientific.size:
        rows = cells[scientific]
        cells[scientific, :_WIDTH] = np.concatenate(
            [rows[:, :1], rows[:, 6:_WIDTH],
             np.take(t.suffix, index[scientific], axis=0)], axis=1)
    wide = np.flatnonzero((e >= 1) & (e < 17))
    if wide.size:
        cells[wide, :_WIDTH] = _fixed_cells(
            cells[wide, 0], first[wide], np.take(t.groups, quads[:, wide]),
            e[wide])

    if not decided.all():
        for text, special in ((b"0", v == 0.0), (b"nan", np.isnan(v)),
                              (b"inf", v == np.inf), (b"-inf", v == -np.inf)):
            cells[special, :_WIDTH] = _padded(text)
        undecided = ~decided & np.isfinite(v) & (v != 0.0)
        for i in np.flatnonzero(undecided).tolist():
            cells[i, :_WIDTH] = _padded(b"%.17g" % v[i])
    return cells


def _fixed_cells(sign, first, groups, e) -> np.ndarray:
    """Cells for ``1 <= e < 17`` from the sign, the first digit and the
    four groups of the other 16 digits: the ``e + 1`` integer digits, then
    the point and the fraction digits up to the last nonzero one."""
    n = len(e)
    digits = np.zeros((n, 18), np.uint8)  # 17 digits and a NUL
    digits[:, 0] = first + ord("0")
    digits[:, 1:17] = np.ascontiguousarray(groups.T).view(np.uint8)
    point = e[:, None] + 1
    column = np.arange(18)
    zeros = np.logical_and.accumulate(digits[:, 16::-1] == ord("0"),
                                      axis=1)[:, ::-1]
    digits[:, :17][zeros & (column[:17] >= point)] = 0
    body = np.where(column < point, digits, 0)
    body[:, 1:] += np.where(column[1:] > point, digits[:, :17], 0)
    fraction = np.take_along_axis(digits, point, axis=1) != 0
    np.put_along_axis(body, point, np.where(fraction, ord("."), 0), axis=1)
    cells = np.zeros((n, _WIDTH), np.uint8)
    cells[:, 0] = sign
    cells[:, 1:19] = body
    return cells


def _text_cells(texts) -> np.ndarray:
    """Each of the byte strings ``texts``, NUL-padded to the longest and
    followed by a comma, as a row."""
    array = np.array(texts, dtype=bytes)
    cells = np.empty((len(array), array.itemsize + 1), np.uint8)
    cells[:, :-1] = array.view(np.uint8).reshape(len(array), -1)
    cells[:, -1] = ord(",")
    return cells


def _text_column_cells(column: np.ndarray) -> np.ndarray:
    """The cells of a string column (as is) or an integer column (``%d``)."""
    if column.dtype.kind == "U":
        return _text_cells([s.encode("utf-8") for s in column.tolist()])
    return _text_cells([b"%d" % i for i in column.tolist()])


def _is_float(column: np.ndarray) -> bool:
    return column.ndim == 1 and column.dtype.kind not in "Uiu"


def _csv_blocks(columns):
    """The CSV lines of equal-length ``columns``, a block of rows at a
    time.  Each cell ends in its separator, so a row is its cells side by
    side with the NUL padding dropped: adjacent float columns are formatted
    together, row-major, and so come out as one piece per run.  A
    two-dimensional column, never the last, is taken as its rows' cells,
    already formatted and each ending in its comma."""
    arrays = [np.asarray(column) for column in columns]
    runs = [(floats, list(run))
            for floats, run in itertools.groupby(arrays, _is_float)]
    n_rows = len(arrays[0]) if arrays else 0
    rows = max(1, BLOCK_VALUES // max(1, sum(map(_is_float, arrays))))
    for start in range(0, n_rows, rows):
        pieces = []
        for floats, run in runs:
            block = [a[start:start + rows] for a in run]
            if floats:
                pieces.append(_float_cells(np.stack(block, axis=-1))
                              .reshape(len(block[0]), -1))
            else:
                pieces += [column if column.ndim == 2
                           else _text_column_cells(column)
                           for column in block]
        pieces[-1][:, -1] = ord("\n")  # the last cell's comma ends the line
        yield np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")


def _write(path, mode: str, chunks) -> None:
    """Write ``chunks`` to ``path`` opened in ``mode``."""
    try:
        with open(path, mode) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def write_csv(path, header: str, columns) -> None:
    """Write equal-length ``columns`` as CSV rows under the ``header``
    line."""
    _write(path, "wb", itertools.chain(
        [header.encode("utf-8") + b"\n"], _csv_blocks(columns)))


def append_csv(path, columns) -> None:
    """Append equal-length ``columns`` as CSV rows to a file that
    :func:`write_csv` started."""
    _write(path, "ab", _csv_blocks(columns))


def _trimmed(cells: np.ndarray) -> np.ndarray:
    """``cells`` without the bytes that are NUL in every row."""
    return cells[:, cells.any(axis=0)]


def _grid_columns(x, y, fields, first: int = 0):
    """The columns of the rows ``i,j,x[i],y[j]`` and ``f[i, j]`` for each
    of ``fields``, one row per node, ``i``-major, for the grid rows ``i =
    first, ..., first + len(x) - 1``: ``x`` holds their coordinates, ``y``
    those of the grid columns and ``fields`` those rows.

    The cells of ``i``, ``j``, ``x`` and ``y`` are formatted once per call,
    trimmed to their widest entry and repeated for every node as one
    two-dimensional column, so a block of nodes formats only its field
    values.
    """
    nx, ny = len(x), len(y)
    return [
        np.concatenate([
            np.repeat(_text_cells([b"%d" % i
                                   for i in range(first, first + nx)]),
                      ny, axis=0),
            np.tile(_text_cells([b"%d" % j for j in range(ny)]), (nx, 1)),
            np.repeat(_trimmed(_float_cells(x)), ny, axis=0),
            np.tile(_trimmed(_float_cells(y)), (nx, 1))], axis=1),
        *(np.ravel(f) for f in fields)]


def grid_csv_lines(x, y, fields, first: int = 0):
    """The CSV lines of the grid rows from ``first`` on, a block of nodes
    at a time, with no header: rows of :func:`write_grid_csv`."""
    return _csv_blocks(_grid_columns(x, y, fields, first))


def write_grid_csv(path, header: str, x, y, fields) -> None:
    """Write one row ``i,j,x[i],y[j]`` followed by ``f[i, j]`` for each of
    ``fields`` per grid node, ``i``-major, under the ``header`` line, with
    :func:`write_csv`."""
    write_csv(path, header, _grid_columns(x, y, fields))


@dataclass(frozen=True)
class ReportCheck:
    """One named check: passes iff ``max_abs_error <= tolerance``."""

    name: str
    max_abs_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_abs_error) and self.max_abs_error <= self.tolerance


@dataclass
class VerificationReport:
    checks: list[ReportCheck] = field(default_factory=list)

    def add(self, name: str, max_abs_error: float, tolerance: float) -> ReportCheck:
        check = ReportCheck(name, float(max_abs_error), float(tolerance))
        self.checks.append(check)
        return check

    def add_maxima(self, errors, tolerance: float, prefix: str = "",
                   **tolerances: float) -> None:
        """Add one check per entry of ``errors``, which maps each name, in
        report order, to its errors at every sample point (an array of any
        shape): the name after ``prefix``, the largest error (nan if any is
        nan), and ``tolerances[name]`` or else ``tolerance``."""
        for name, values in errors.items():
            self.add(prefix + name, float(np.max(values)),
                     tolerances.get(name, tolerance))

    def flag(self, name: str, ok: bool) -> ReportCheck:
        """Add a binary flag: error 0 if ``ok`` else 1, tolerance 0, so no
        :meth:`scaled` factor can change its verdict."""
        return self.add(name, 0.0 if ok else 1.0, 0.0)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def scaled(self, factor: float) -> "VerificationReport":
        """Copy with every tolerance multiplied by ``factor``: a numeric
        check's tolerance grows with it, a flag's stays 0."""
        return VerificationReport(
            [ReportCheck(c.name, c.max_abs_error, c.tolerance * factor)
             for c in self.checks])

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ReportCheck]:
        return [c for c in self.checks if not c.passed]

    def to_csv(self, path) -> None:
        """Write one row per check under
        ``check_name,max_abs_error,tolerance,pass``."""
        write_csv(path, "check_name,max_abs_error,tolerance,pass", [
            [c.name for c in self.checks],
            [c.max_abs_error for c in self.checks],
            [c.tolerance for c in self.checks],
            ["true" if c.passed else "false" for c in self.checks]])
