"""The CSV float format: every float the writers print is byte for byte
Python's ``"%.17g" % v``, negative zero printing as ``0``; and the file
writer under every output, which appends only to a file that exists."""

import numpy as np
import pytest

from cosserat2d import report
from cosserat2d.errors import IoError
from cosserat2d.report import write_csv


def exact_ties(rng, per_k=120):
    """Doubles ``m * 2**-k`` (``m`` odd) whose decimal expansion has 18
    significant digits, the last a 5: exact ties at 17 digits.  Such a value
    has ``k`` decimals, its digits those of ``m * 5**k``."""
    ties = [2.0**-25]
    for k in range(2, 26):
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        for m in rng.integers(low, high, per_k).tolist():
            m |= 1
            if m < high and len(str(m * 5**k)) == 18:
                ties.append(m * 2.0**-k)
    return np.array(ties)


def powers_of_ten():
    """The double nearest each power of ten from 1e-323 to 1e308, and its
    two neighbours."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)])


def assert_formats_like_python(tmp_path, values):
    write_csv(tmp_path / "values.csv", "v", [values])
    expected = "".join(["v\n"] + ["%.17g\n" % (v + 0.0)
                                  for v in values.tolist()])
    written = (tmp_path / "values.csv").read_bytes().decode()
    if written != expected:
        mismatches = [(v, got, want) for v, got, want in zip(
            values.tolist(), written.split("\n")[1:],
            expected.split("\n")[1:]) if got != want]
        raise AssertionError(f"{len(mismatches)} values differ from "
                             f"%.17g, first {mismatches[:5]}")


def test_floats_match_percent_17g_byte_for_byte(tmp_path):
    rng = np.random.default_rng(2024)
    n = 300_000
    uniform = rng.uniform(-0.01, 0.01, n)
    log_uniform = (rng.choice([-1.0, 1.0], n)
                   * 10.0 ** rng.uniform(-320.0, 308.0, n))
    # Raw bit patterns: subnormals and nan payloads of both signs among them.
    raw = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    integers = np.concatenate([
        rng.integers(-2**60, 2**60, n // 2).astype(np.float64),
        np.arange(-1000.0, 1000.0), 2.0 ** np.arange(61)])
    ties = exact_ties(rng)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16,
                         1e17, 0.0001, 9.999999999999999e-05, 2.0**-25,
                         3 * 2.0**-26, 2.0**60, 1.7976931348623157e308,
                         2.2250738585072014e-308])
    values = np.concatenate([uniform, log_uniform, raw, integers,
                             powers_of_ten(), ties, -ties, specials])
    assert len(values) >= 1_000_000
    assert_formats_like_python(tmp_path, values)


def test_ties_and_exponents_outside_the_table_take_the_fallback():
    rng = np.random.default_rng(5)
    ties = exact_ties(rng)
    assert len(ties) > 1000
    outside = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                        1e301, 1.7976931348623157e308])
    assert not report._rounded(np.concatenate([ties, -ties, outside]))[2].any()
    # Values that are no tie take the array path: the uniform draws, values
    # below 1e-8 or above 1e17 (too many or too few fraction bits for an
    # 18-digit expansion), and those that round to a power of ten or next
    # to one.
    ordinary = np.concatenate([rng.uniform(-0.01, 0.01, 10_000),
                               10.0 ** rng.uniform(-290.0, -8.0, 10_000),
                               10.0 ** rng.uniform(17.0, 299.0, 10_000),
                               [1e16, 1e17, 0.0001, 9.999999999999999e-05,
                                3 * 2.0**-26, 2.0**60]])
    assert report._rounded(ordinary)[2].all()


def test_float_blocks_with_specials_only(tmp_path):
    # A block of zeros, nan and inf alone (a zero state's snapshot, say)
    # takes no rounding at all.
    values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf] * 300)
    assert_formats_like_python(tmp_path, values)


def test_cells_carry_their_separators_in_every_column_position(tmp_path):
    # Float columns first, in a run of two in the middle and last, around an
    # integer and a text column; each draws values from every formatter
    # path, and the rows leave a partial last block.
    paths = [
        0.5, -0.001234, 1e-4, -9.999999999999999e-05,  # fixed, -4 <= e <= 0
        12.5, -123456789.01234567, 1e16, 9007199254740993.0,  # 1 <= e < 17
        1.5e-7, -3e20, 1e17,  # scientific, two-digit exponents
        1.234e-150, -6.02e200,  # three-digit exponents
        -2.2250738585072014e-308, 5e-324, 1.7976931348623157e308,
        2.0**-25, -3 * 2.0**-26,  # exact ties
        0.0, -0.0, np.nan, np.inf, -np.inf]
    floats_per_row = 4
    n = 2 * (report.BLOCK_VALUES // floats_per_row) + 37
    pool = np.array(paths)
    floats = [np.resize(np.roll(pool, 5 * k), n)
              for k in range(floats_per_row)]
    integers = np.arange(n) - n // 2
    texts = [("", "a", "é,b", "längerer text")[m % 4] for m in range(n)]
    columns = [(floats[0], "%.17g"), (integers, "%d"), (floats[1], "%.17g"),
               (floats[2], "%.17g"), (texts, "%s"), (floats[3], "%.17g")]
    # As listed, and turned round by one so that the text column ends the
    # line.
    for name, order in (("listed", columns),
                        ("turned", columns[-1:] + columns[:-1])):
        write_csv(tmp_path / f"{name}.csv", "h", [c for c, _ in order])
        lines = ["h\n"]
        for row in zip(*(np.asarray(c).tolist() for c, _ in order)):
            lines.append(",".join(
                f % (v + 0.0 if f == "%.17g" else v)
                for (_, f), v in zip(order, row)) + "\n")
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == "".join(lines).encode())
    assert n % (report.BLOCK_VALUES // floats_per_row)
    assert max(len("%.17g" % v) for v in paths) == report._WIDTH


def test_an_append_never_creates_a_file(tmp_path):
    path = str(tmp_path / "timeseries.csv")
    with pytest.raises(IoError) as info:
        report.append_csv(path, [[1.0], [2.0]])
    assert str(info.value).startswith(
        f"cannot write {path!r}: [Errno 2] No such file or directory")
    assert not list(tmp_path.iterdir())


def test_write_lines_replaces_a_file_and_appends_after_its_bytes(tmp_path):
    path = str(tmp_path / "lines.txt")
    report.write_lines(path, [b"old\n"])
    report.write_lines(path, [b"head\n"])
    report.write_lines(path, [b"a,", b"b\n"], append=True)
    with open(path, "rb") as fh:
        assert fh.read() == b"head\na,b\n"
