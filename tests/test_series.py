import struct

import numpy as np
import pytest

from eigenwave.series import (BINARY_MAGIC, check_series, read_series_binary,
                              read_series_csv, write_csv, write_series_binary,
                              write_series_csv)

SERIES = np.arange(12.0).reshape(3, 4) / 7.0


def test_round_trips(tmp_path):
    write_series_binary(SERIES, tmp_path / "y.bin")
    write_series_csv(SERIES, tmp_path / "y.csv")
    assert read_series_binary(tmp_path / "y.bin").tobytes() == SERIES.tobytes()
    assert read_series_csv(tmp_path / "y.csv").tobytes() == SERIES.tobytes()


@pytest.mark.parametrize("p, n", [
    (2 ** 20, 2 ** 20),      # would allocate 8 TiB
    (2 ** 32 - 1, 2 ** 64 - 1),  # 8 * p * n overflows 64 bits
    (3, 5),                  # three values short: truncated data
])
def test_binary_header_must_match_file_size(tmp_path, p, n):
    path = tmp_path / "y.bin"
    path.write_bytes(struct.pack("<4sIQ", BINARY_MAGIC, p, n) + SERIES.tobytes())
    with pytest.raises(ValueError, match="header claims"):
        read_series_binary(path)


def test_binary_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "y.bin"
    write_series_binary(SERIES, path)
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(ValueError, match="header claims"):
        read_series_binary(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("t,y_1,y_2\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_series_csv(path)


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [("", 3, 0.1, np.float64(2.5)), ("x", -1, float("-inf"), np.float64(-np.inf)),
               ("y", 0, 1e-300, np.float64(1) / 3)])
    assert path.read_bytes() == (b"a,b,c,d\n"
                                 b",3,0.1,2.5\n"
                                 b"x,-1,-inf,-inf\n"
                                 b"y,0,1e-300,0.3333333333333333\n")


@pytest.mark.parametrize("values, message", [
    ([[1.0, np.nan]], "series contains non-finite entries"),
    ([[1.0, 2.0], [np.inf, 0.0]], "series contains non-finite entries"),
    ([[-np.inf, 1.0]], "series contains non-finite entries"),
    ([1.0, 2.0], r"series must be a 2-d array, got shape \(2,\)"),
    (np.zeros((0, 3)), r"series must be non-empty, got shape \(0, 3\)"),
    (np.zeros((2, 0)), r"series must be non-empty, got shape \(2, 0\)"),
], ids=["nan", "+inf", "-inf", "1-d", "no-rows", "no-columns"])
def test_check_series_rejects(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_series(values)


def test_check_series_gives_float64():
    checked = check_series([[1, 2], [3, 4]])
    assert checked.dtype == np.float64
    assert checked.tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()


def test_readers_return_non_finite_values_as_stored(tmp_path):
    # the readers only parse; estimate_series checks the values it is given
    csv_path, bin_path = tmp_path / "y.csv", tmp_path / "y.bin"
    csv_path.write_text("t,y_1,y_2\n0,1.5,2.5\n1,nan,-inf\n")
    bin_path.write_bytes(struct.pack("<4sIQ", BINARY_MAGIC, 2, 2)
                         + np.array([1.0, 2.0, np.inf, np.nan]).tobytes())
    stored = np.array([[1.5, np.nan], [2.5, -np.inf]])
    assert read_series_csv(csv_path).tobytes() == stored.tobytes()
    assert read_series_binary(bin_path).tobytes() == np.array(
        [[1.0, 2.0], [np.inf, np.nan]]).tobytes()
