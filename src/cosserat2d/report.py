"""CSV output: the one writer every artifact goes through, and the named
verification checks that are written with it.

Every CSV file of the package is written here, so the number format is
defined here once: a string column prints as is, an integer column as
integers (``%d``), and any other column as floats with ``%.17g``, negative
zero printing as ``0``.  The snapshots go through :func:`write_grid_csv`,
every other file (time series, dispersion branches, the ratio/velocity law,
the homogeneous table and the verification reports) through
:func:`write_csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError

#: Rows formatted per block; bounds the Python values alive during a write.
BLOCK_ROWS = 1024

#: The number formats of every CSV; :func:`_floats` folds negative zero.
_INT = "%d"
_FLOAT = "%.17g"


def _floats(values) -> list:
    """``values`` as Python floats, negative zero folded to zero."""
    return (np.asarray(values) + 0.0).tolist()


def write_csv(path, header: str, columns) -> None:
    """Write equal-length ``columns`` as CSV rows under the ``header`` line."""
    arrays = [np.asarray(column) for column in columns]
    kinds = [a.dtype.kind for a in arrays]
    row_format = ",".join("%s" if kind == "U" else _INT if kind in "iu"
                          else _FLOAT for kind in kinds) + "\n"
    n_rows = len(arrays[0]) if arrays else 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for start in range(0, n_rows, BLOCK_ROWS):
                block = [a[start:start + BLOCK_ROWS] for a in arrays]
                block = [b.tolist() if kind in "Uiu" else _floats(b)
                         for b, kind in zip(block, kinds)]
                fh.write("".join([row_format % row for row in zip(*block)]))
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def write_grid_csv(path, header: str, x, y, fields) -> None:
    """Write one row ``i,j,x[i],y[j]`` followed by ``f[i, j]`` for each of
    ``fields`` per grid node, ``i``-major, under the ``header`` line: the
    bytes :func:`write_csv` writes for those columns.

    Each line of constant ``i`` is formatted from one template, in which
    ``j`` and ``y[j]`` are formatted once per call and ``i`` and ``x[i]`` once
    per line, so a row formats only its field values.
    """
    tail = ("," + _FLOAT) * len(fields) + "\n"
    # "\0" and "\1" stand for i and x[i]; no formatted number holds either.
    line = "".join([f"\0,{_INT % j},\1,{_FLOAT % yj}{tail}"
                    for j, yj in enumerate(_floats(y))])
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for i, xi in enumerate(_floats(x)):
                template = line.replace("\0", _INT % i).replace(
                    "\1", _FLOAT % xi)
                values = np.stack([f[i] for f in fields], axis=-1).ravel()
                fh.write(template % tuple(_floats(values)))
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


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

    def add_maxima(self, rows, tolerance: float, prefix: str = "",
                   **tolerances: float) -> None:
        """Add one check per named error of ``rows``, which hold the errors
        of one sample point each under the same names in report order: the
        name after ``prefix``, the largest error over the rows (nan if any
        is nan), and ``tolerances[name]`` or else ``tolerance``."""
        names = list(rows[0])
        worst = np.max([[row[name] for name in names] for row in rows], axis=0)
        for name, error in zip(names, worst.tolist()):
            self.add(prefix + name, error, tolerances.get(name, tolerance))

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
