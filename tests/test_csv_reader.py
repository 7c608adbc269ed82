"""`registry.read_float_csv` against the csv-only reader it replaced.

The reader parses a CSV body with numpy's C text reader and falls back to a
csv scan only where numpy rejects the body.  `_csv_reader` below is the
csv-only reader verbatim; every input must read to its array bits or fail
with its message.
"""

import csv
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copkern.cli import _emit_csv, _read_sample_csv
from copkern.registry import read_float_csv


def _float_rows(rows, k: int) -> np.ndarray:
    if set(map(len, rows)) - {k}:
        raise ValueError
    return np.fromiter(map(float, chain.from_iterable(rows)), float, k * len(rows)).reshape(-1, k)


def _csv_reader(path, header, what):
    k = len(header)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if [f.strip() for f in next(reader, [])] != list(header):
            raise ValueError(f"{what} CSV must have header '{','.join(header)}'")
        try:
            return _float_rows(list(filter(None, reader)), k)
        except ValueError:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            for row in filter(None, reader):
                try:
                    _float_rows([row], k)
                except ValueError:
                    raise ValueError(
                        f"{what} CSV line {reader.line_num}: expected {k} numbers, "
                        f"got '{','.join(row)}'"
                    ) from None
            raise


def _outcome(read, path):
    """('ok', shape, dtype, bytes) of the array `read` returns, or ('error', message).

    Comparing bytes compares bits, so NaNs compare by their bits too.
    """
    try:
        a = read(path, ("x", "y"), "sample")
    except ValueError as exc:
        return "error", str(exc)
    return "ok", a.shape, a.dtype, a.tobytes()


def _assert_reads_as_csv_reader(path, text):
    path.write_bytes(text.encode())
    assert _outcome(read_float_csv, path) == _outcome(_csv_reader, path), text


_BODY = st.text(alphabet='0123456789.eE+-_, \n\r"naif', max_size=40)


@settings(max_examples=500, deadline=None)
@given(head=st.sampled_from(["x,y\n", "x,y\r\n", "﻿x,y\n", 'x,"y\n', "x,y"]), body=_BODY)
def test_reader_gives_the_csv_readers_array_or_message(tmp_path_factory, head, body):
    _assert_reads_as_csv_reader(tmp_path_factory.mktemp("csv") / "s.csv", head + body)


@pytest.mark.parametrize("body,expected", [
    ("   \n", "sample CSV line 2: expected 2 numbers, got '   '"),
    ("0.1,0.2\n0.1,0.2,\n", "sample CSV line 3: expected 2 numbers, got '0.1,0.2,'"),
    ('"0.5",1\n', [[0.5, 1.0]]),
    ("1_0,0.25\n", [[10.0, 0.25]]),
    # ASCII separators: numpy's parser strips them as whitespace, float() does not
    ("0.5,1\n1\x1c,2\n", "sample CSV line 3: expected 2 numbers, got '1\x1c,2'"),
    ("\x1f0.5,1\n", "sample CSV line 2: expected 2 numbers, got '\x1f0.5,1'"),
    # non-ASCII whitespace is stripped by both, non-ASCII digits read only by float()
    ("\xa00.5,1　\n", [[0.5, 1.0]]),
    ("١,1\n", [[1.0, 1.0]]),
    ("0x1p3,1\n", "sample CSV line 2: expected 2 numbers, got '0x1p3,1'"),
    ("nan,inf\n-Infinity,+NaN\n1e999,5e-324\n",
     [[np.nan, np.inf], [-np.inf, np.nan], [np.inf, 5e-324]]),
], ids=["whitespace-only-line", "trailing-comma", "quoted-field", "digit-separator",
        "file-separator", "unit-separator", "unicode-space", "unicode-digit", "hex", "nan-inf"])
def test_reader_named_cases(tmp_path, body, expected):
    path = tmp_path / "s.csv"
    _assert_reads_as_csv_reader(path, "x,y\n" + body)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            read_float_csv(path, ("x", "y"), "sample")
        assert str(exc.value) == expected
    else:
        np.testing.assert_array_equal(read_float_csv(path, ("x", "y"), "sample"), expected)


@pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n\r\n", "x,y"])
def test_header_only_reads_as_zero_rows_quietly(tmp_path, capsys, text):
    # numpy warns "input contained no data"; the reader takes that as a rejection
    path = tmp_path / "s.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = read_float_csv(path, ("x", "y"), "sample")
    assert rows.shape == (0, 2) and rows.dtype == np.float64
    assert caught == []
    assert capsys.readouterr().err == ""


def test_sample_round_trip_past_the_parsers_chunks(tmp_path):
    # numpy reads a file in chunks of about 50 000 lines: 120 001 rows cross two
    # boundaries.  Random bits cover every exponent, subnormals included; NaNs
    # are replaced, as %.17g writes every NaN as the same "nan"
    bits = np.random.default_rng(7).integers(0, 2 ** 64, size=(2, 120_001), dtype=np.uint64)
    x, y = bits.view(np.float64)
    x[np.isnan(x)], y[np.isnan(y)] = 0.5, -0.0
    x[:4] = np.inf, -np.inf, -0.0, 5e-324
    out = tmp_path / "s.csv"
    _emit_csv(["x", "y"], (x, y), str(out))
    read = _read_sample_csv(str(out))
    assert read.x.tobytes() == x.tobytes()
    assert read.y.tobytes() == y.tobytes()
