import numpy as np
import pytest

from drivemon.errors import DataError, OrderingError, SchemaError
from drivemon.telemetry import (
    CSV_HEADER,
    SENSOR_CHANNELS,
    WHEELS,
    TelemetryStream,
    channel_unit,
    read_stream,
    uniform_time_axis,
    write_stream,
)

from conftest import make_stream

EXPECTED_HEADER = (
    "t,sol,current_LF,current_LM,current_LR,current_RF,current_RM,current_RR,"
    "rate_LF,rate_LM,rate_LR,rate_RF,rate_RM,rate_RR,"
    "voltage_LF,voltage_LM,voltage_LR,voltage_RF,voltage_RM,voltage_RR,"
    "accel_X,accel_Y,accel_Z,rot_X,rot_Y,rot_Z,bogie_L,bogie_R,diff_L,diff_R"
)


def test_channel_inventory():
    assert len(WHEELS) == 6
    assert WHEELS == ("LF", "LM", "LR", "RF", "RM", "RR")
    assert len(SENSOR_CHANNELS) == 28
    assert ",".join(CSV_HEADER) == EXPECTED_HEADER


def test_channel_units():
    assert channel_unit("current_LF") == "A"
    assert channel_unit("rate_RM") == "rad/s"
    assert channel_unit("voltage_LR") == "V"
    assert channel_unit("accel_Z") == "m/s^2"
    assert channel_unit("bogie_L") == "rad"
    assert channel_unit("diff_R") == "rad"


def test_roundtrip_exact(tmp_path):
    stream = make_stream(32, seed=5)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    back = read_stream(path)
    assert np.array_equal(back.values, stream.values)
    assert np.array_equal(back.t, stream.t)
    assert np.array_equal(back.sol, stream.sol)


def test_32_rows_span(tmp_path):
    stream = make_stream(32)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    back = read_stream(path)
    assert len(back) == 32
    assert back.span_s == pytest.approx(3.875, abs=1e-9)
    assert abs(back.duration_s - 32 * 0.125) < 1e-6


def test_missing_column_named(tmp_path):
    stream = make_stream(8)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    lines = path.read_text().splitlines()
    drop = CSV_HEADER.index("current_LF")
    rewritten = [",".join(c for i, c in enumerate(l.split(",")) if i != drop) for l in lines]
    path.write_text("\n".join(rewritten) + "\n")
    with pytest.raises(SchemaError, match="current_LF"):
        read_stream(path)


def test_extra_column_named(tmp_path):
    stream = make_stream(8)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    lines = path.read_text().splitlines()
    lines[0] += ",bogus"
    lines[1:] = [l + ",0.0" for l in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="bogus"):
        read_stream(path)


def test_reordered_columns_rejected(tmp_path):
    stream = make_stream(4)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    lines = path.read_text().splitlines()
    cols = lines[0].split(",")
    cols[2], cols[3] = cols[3], cols[2]
    lines[0] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="order"):
        read_stream(path)


def _write_rows(path, rows):
    path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n")


def _row(t, sol=1000, fill=0.5):
    return ",".join([repr(t), str(sol)] + [repr(fill)] * len(SENSOR_CHANNELS))


def test_decreasing_time_cites_row(tmp_path):
    path = tmp_path / "s.csv"
    ts = [0.0, 0.125, 0.25, 0.375, 0.5, 0.375, 0.75]
    _write_rows(path, [_row(t) for t in ts])
    with pytest.raises(OrderingError, match="row 5"):
        read_stream(path)


def test_offgrid_spacing_rejected(tmp_path):
    path = tmp_path / "s.csv"
    _write_rows(path, [_row(0.0), _row(0.125), _row(0.3)])
    with pytest.raises(OrderingError, match="row 2"):
        read_stream(path)


def test_unparsable_cell_cites_row(tmp_path):
    path = tmp_path / "s.csv"
    rows = [_row(i * 0.125) for i in range(4)]
    rows[2] = rows[2].replace("0.5", "oops", 1)
    _write_rows(path, rows)
    with pytest.raises(DataError, match="row 2"):
        read_stream(path)


def test_nonfinite_cell_cites_row(tmp_path):
    path = tmp_path / "s.csv"
    rows = [_row(i * 0.125) for i in range(4)]
    rows[3] = rows[3].replace("0.5", "nan", 1)
    _write_rows(path, rows)
    with pytest.raises(DataError, match="row 3"):
        read_stream(path)


def test_fractional_sol_rejected(tmp_path):
    path = tmp_path / "s.csv"
    _write_rows(path, [_row(0.0, sol=1000), _row(0.125).replace("1000", "1000.5", 1)])
    with pytest.raises(DataError, match="sol"):
        read_stream(path)


def test_decreasing_sol_rejected(tmp_path):
    path = tmp_path / "s.csv"
    _write_rows(path, [_row(0.0, sol=1001), _row(0.125, sol=1000)])
    with pytest.raises(DataError, match="sol"):
        read_stream(path)


def test_empty_stream_is_an_error(tmp_path):
    with pytest.raises(DataError, match="empty stream"):
        TelemetryStream(
            t=np.empty(0), sol=np.empty(0, dtype=np.int64),
            values=np.empty((0, len(SENSOR_CHANNELS))),
        )
    path = tmp_path / "s.csv"
    path.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(DataError, match="empty stream"):
        read_stream(path)


def test_single_frame_writes_two_lines(tmp_path):
    stream = make_stream(1)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    assert len(path.read_text().splitlines()) == 2
    assert len(read_stream(path)) == 1


def test_streams_are_read_only():
    stream = make_stream(4)
    with pytest.raises(ValueError):
        stream.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        stream.t[0] = -1.0


def test_uniform_time_axis_is_exact():
    t = uniform_time_axis(1000)
    assert np.array_equal(np.diff(t), np.full(999, 0.125))
