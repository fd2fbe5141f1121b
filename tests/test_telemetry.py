import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    # the stream's own error, with the file named in front
    with pytest.raises(OrderingError,
                       match=re.escape(f"{path}: time not strictly increasing at row 5")):
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


def _body(rows, eol="\n"):
    return (",".join(CSV_HEADER) + eol + eol.join(rows) + eol).encode()


_ROWS = [_row(i * 0.125) for i in range(4)]


@pytest.mark.parametrize("body", [
    _body(_ROWS, eol="\r\n"),
    _body([r.replace(",", " , ") for r in _ROWS]),
    _body([r.replace(",", "\t,") for r in _ROWS]),
    _body(_ROWS)[:-1],
], ids=["crlf", "spaces", "tabs", "no-final-newline"])
def test_csv_grammar_accepts(tmp_path, body):
    path = tmp_path / "s.csv"
    path.write_bytes(body)
    back = read_stream(path)
    assert np.array_equal(back.t, [0.0, 0.125, 0.25, 0.375])
    assert np.all(back.values == 0.5)


@pytest.mark.parametrize("row,message", [
    ("", "row 2 has 0 cells"),
    (_ROWS[2] + "#", "unparsable cell at row 2"),
    (_ROWS[2].replace("0.5", '"0.5"', 1), "unparsable cell at row 2"),
    (_ROWS[2].replace("0.5", "1_0", 1), "unparsable cell at row 2"),
    (_ROWS[2] + ",0.5", "row 2 has 31 cells"),
    (_ROWS[2].rsplit(",", 1)[0], "row 2 has 29 cells"),
    (_ROWS[2].replace("0.5", "", 1), "unparsable cell at row 2"),
    (_ROWS[2].replace("0.5", "inf", 1), "non-finite value at row 2"),
    (_ROWS[2].replace("0.5", "0x1p-1", 1), "unparsable cell at row 2"),
    (_ROWS[2].replace(",", "\r", 1), "row 2 has 29 cells"),
], ids=["blank-line", "hash", "quoted", "underscore", "long-row", "short-row",
        "empty-cell", "non-finite", "hex", "bare-cr"])
def test_csv_grammar_rejects_naming_row(tmp_path, row, message):
    """A bad third row is a DataError naming row 2, wherever it sits in the line."""
    path = tmp_path / "s.csv"
    _write_rows(path, _ROWS[:2] + [row] + _ROWS[2:])
    with pytest.raises(DataError, match=message):
        read_stream(path)


def test_non_utf8_bytes(tmp_path):
    path = tmp_path / "s.csv"
    rows = [r.encode() for r in _ROWS]
    rows[1] = rows[1].replace(b"0.5", b"0.5\xff", 1)
    path.write_bytes(",".join(CSV_HEADER).encode() + b"\n" + b"\n".join(rows) + b"\n")
    with pytest.raises(DataError, match="unparsable cell at row 1"):
        read_stream(path)
    path.write_bytes(b"t\xff" + _body(_ROWS)[1:])
    with pytest.raises(SchemaError, match="missing column"):
        read_stream(path)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300).map(lambda b: b.replace(b"\n", b" ")))
def test_any_bytes_in_a_row_are_a_data_error(tmp_path_factory, junk):
    """The row locator never raises anything but the DataError naming the row."""
    path = tmp_path_factory.getbasetemp() / "junk.csv"
    path.write_bytes(_body(_ROWS[:1]) + junk + b"\n" + _body(_ROWS[1:]).split(b"\n", 1)[1])
    with pytest.raises(DataError, match="row 1"):
        read_stream(path)


@pytest.mark.parametrize("sol", ["nan", "inf", "-inf", "1000.5", "1e19"])
def test_bad_sol_cites_row(tmp_path, sol):
    path = tmp_path / "s.csv"
    _write_rows(path, [_row(0.0), _row(0.125).replace("1000", sol, 1), _row(0.25)])
    with pytest.raises(DataError, match="sol .* at row 1"):
        read_stream(path)


@pytest.mark.parametrize("sol", [[1000.5, 1000.9], [1000.0, 1000.5], [1000.0, np.nan]],
                         ids=["fractional-first", "fractional", "nan"])
def test_stream_rejects_non_integral_sol(sol):
    """A float sol is checked before the int64 cast, which would truncate it."""
    row = 0 if sol[0] % 1 else 1
    with pytest.raises(DataError, match=f"sol is not an integer at row {row}"):
        TelemetryStream(t=[0.0, 0.125], sol=sol, values=np.zeros((2, len(SENSOR_CHANNELS))))


def test_non_finite_time_cites_row(tmp_path):
    t = [0.0, 0.125, np.nan, 0.375]
    with pytest.raises(DataError, match="non-finite timestamp at row 2"):
        TelemetryStream(t=t, sol=np.full(4, 1000), values=np.zeros((4, len(SENSOR_CHANNELS))))
    path = tmp_path / "s.csv"
    _write_rows(path, [_row(x) for x in t])
    with pytest.raises(DataError, match="non-finite timestamp at row 2"):
        read_stream(path)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
             1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.one_of(st.sampled_from(_EXTREMES),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=len(SENSOR_CHANNELS), max_size=len(SENSOR_CHANNELS)),
             min_size=1, max_size=6),
    st.integers(min_value=-2**40, max_value=2**40),
    st.integers(min_value=-2**53, max_value=2**53),
)
def test_write_read_roundtrip_is_bitwise(tmp_path_factory, rows, t0_frames, sol):
    stream = TelemetryStream(t=uniform_time_axis(len(rows), t0=t0_frames * 0.125),
                             sol=np.full(len(rows), sol), values=np.array(rows))
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_stream(stream, path)
    back = read_stream(path)
    for name in ("t", "sol", "values"):
        a, b = getattr(stream, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def test_read_stream_memory_holds_no_copy_of_the_file(tmp_path):
    """The parse reads lines from the file: an 1 800 s drive peaks under 3x the parsed
    table, where holding the 8 MB body as bytes as well would pass 4x."""
    stream = make_stream(14400, seed=8)
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    table_bytes = len(stream) * len(CSV_HEADER) * 8
    tracemalloc.start()
    try:
        back = read_stream(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, stream.values)
    assert peak < 3 * table_bytes, f"peak {peak / 1e6:.1f} MB for a {table_bytes / 1e6:.1f} MB table"


@pytest.mark.parametrize("row,fault,message", [
    (9000, "bad-cell", "unparsable cell at row 9000"),
    (13999, "short", "row 13999 has 29 cells"),
    (14399, "blank", "row 14399 has 0 cells"),
])
def test_row_fault_past_the_first_read_chunk(tmp_path, row, fault, message):
    """Faults megabytes into the file are still named by their data row."""
    path = tmp_path / "s.csv"
    write_stream(make_stream(14400, seed=8), path)
    lines = path.read_text().split("\n")
    cells = lines[1 + row].split(",")
    lines[1 + row] = {"bad-cell": ",".join(cells[:-1] + ["x"]),
                      "short": ",".join(cells[:-1]), "blank": ""}[fault]
    path.write_text("\n".join(lines))
    with pytest.raises(DataError, match=message):
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
