"""CSV output: the one writer every artifact goes through, and the named
verification checks that are written with it.

Every CSV file of the package (time series, snapshots, dispersion branches,
the ratio/velocity law, the homogeneous table and the verification reports)
is written by :func:`write_csv`, so the number format is defined here once:
a string column prints as is, an integer column as integers, and any other
column as floats with ``%.17g``, negative zero printing as ``0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError

#: Rows formatted per block; bounds the Python values alive during a write.
BLOCK_ROWS = 1024


def write_csv(path, header: str, columns) -> None:
    """Write equal-length ``columns`` as CSV rows under the ``header`` line."""
    arrays = [np.asarray(column) for column in columns]
    kinds = [a.dtype.kind for a in arrays]
    row_format = ",".join("%s" if kind == "U" else "%d" if kind in "iu"
                          else "%.17g" for kind in kinds) + "\n"
    n_rows = len(arrays[0]) if arrays else 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for start in range(0, n_rows, BLOCK_ROWS):
                block = [a[start:start + BLOCK_ROWS] for a in arrays]
                # + 0.0 folds negative zero in the float columns
                block = [(b if kind in "Uiu" else b + 0.0).tolist()
                         for b, kind in zip(block, kinds)]
                fh.write("".join([row_format % row for row in zip(*block)]))
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

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def scaled(self, factor: float) -> "VerificationReport":
        """Copy with every tolerance multiplied by ``factor``."""
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
