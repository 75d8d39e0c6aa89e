import struct

import numpy as np
import pytest

from eigenwave.series import (BINARY_MAGIC, MultivariateSeries, read_series_binary,
                              read_series_csv, write_csv, write_series_binary,
                              write_series_csv)

SERIES = MultivariateSeries(np.arange(12.0).reshape(3, 4) / 7.0)


def test_round_trips(tmp_path):
    write_series_binary(SERIES, tmp_path / "y.bin")
    write_series_csv(SERIES, tmp_path / "y.csv")
    assert read_series_binary(tmp_path / "y.bin").values.tobytes() == SERIES.values.tobytes()
    assert read_series_csv(tmp_path / "y.csv").values.tobytes() == SERIES.values.tobytes()


@pytest.mark.parametrize("p, n", [
    (2 ** 20, 2 ** 20),      # would allocate 8 TiB
    (2 ** 32 - 1, 2 ** 64 - 1),  # 8 * p * n overflows 64 bits
    (3, 5),                  # three values short: truncated data
])
def test_binary_header_must_match_file_size(tmp_path, p, n):
    path = tmp_path / "y.bin"
    path.write_bytes(struct.pack("<4sIQ", BINARY_MAGIC, p, n) + SERIES.values.tobytes())
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
