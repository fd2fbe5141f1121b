import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivemon import telemetry
from drivemon.detect import read_scores_csv
from drivemon.errors import ArtifactError, DataError, OrderingError, SchemaError
from drivemon.parallel import FORK_MIN_ROWS
from drivemon.telemetry import (
    CSV_HEADER,
    SENSOR_CHANNELS,
    SOL_LIMIT,
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


@pytest.mark.parametrize("sol", ["nan", "inf", "-inf", "1000.5", "1e19",
                                 # 2^53 + 1 parses to 2^53, so it cannot be read exactly
                                 str(2**53 + 1), str(-2**53)])
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


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_stream_rejects_sol_beyond_2_53(dtype):
    """Integer and float sols meet one bound: a sol a float64 CSV cell cannot hold exactly
    is refused, whatever array it comes in."""
    sol = np.array([SOL_LIMIT - 1, SOL_LIMIT], dtype=dtype)
    with pytest.raises(DataError, match="sol does not fit in 53 bits at row 1"):
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
    st.integers(min_value=1 - SOL_LIMIT, max_value=SOL_LIMIT - 1),
)
def test_write_read_roundtrip_is_bitwise(tmp_path_factory, rows, t0_frames, sol):
    stream = TelemetryStream(t=t0_frames * 0.125 + uniform_time_axis(len(rows)),
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


def test_byte_order_mark_is_named(tmp_path):
    """A BOM before the header is reported as one, not as a missing column 't'; a
    telemetry file raises SchemaError, a score file ArtifactError."""
    path = tmp_path / "s.csv"
    path.write_bytes(b"\xef\xbb\xbf" + _body(_ROWS))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: file starts with a UTF-8 "
                                                    "byte-order mark")):
        read_stream(path)
    scores = tmp_path / "scores.csv"
    scores.write_bytes(b"\xef\xbb\xbfsol,start_t,score\n1000,0.0,1.5\n")
    with pytest.raises(ArtifactError, match="byte-order mark"):
        read_scores_csv(scores)


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_forked_write_matches_one_process(tmp_path, monkeypatch, four_cpus, blocks, extra):
    """Each block of at least FORK_MIN_ROWS rows goes to its own process, and the file
    is byte for byte what one process writes."""
    n = FORK_MIN_ROWS * blocks + extra
    stream = make_stream(n, seed=blocks)
    forked = tmp_path / "forked.csv"
    write_stream(stream, forked)
    assert len(four_cpus) == max(1, n // FORK_MIN_ROWS) - 1
    _assert_no_children_left()
    monkeypatch.delattr(os, "fork")
    single = tmp_path / "single.csv"
    write_stream(stream, single)
    assert forked.read_bytes() == single.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["forked.csv", "single.csv"]


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_write_without_fork_is_one_process(tmp_path, monkeypatch, four_cpus, missing):
    stream = make_stream(3 * FORK_MIN_ROWS, seed=4)
    write_stream(stream, tmp_path / "forked.csv")
    assert len(four_cpus) == 2
    monkeypatch.delattr(os, missing)
    four_cpus.clear()
    write_stream(stream, tmp_path / "single.csv")
    assert four_cpus == []
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()


def test_failed_block_writer_names_the_file(tmp_path, monkeypatch, four_cpus):
    """A child that cannot write its rows fails the call with the OSError the CLI maps
    to exit 3, and leaves no process and no file behind, not even a partial output."""
    write_rows = telemetry._write_rows

    def failing(fh, stream, lo, hi):
        if lo > 0:
            raise OSError("disk full")
        write_rows(fh, stream, lo, hi)

    monkeypatch.setattr(telemetry, "_write_rows", failing)
    path = tmp_path / "s.csv"
    with pytest.raises(OSError, match=re.escape(f"failed writing stream to {path}: writer of "
                                                f"rows {FORK_MIN_ROWS}-")):
        write_stream(make_stream(2 * FORK_MIN_ROWS, seed=5), path)
    assert len(four_cpus) == 1
    _assert_no_children_left()
    assert list(tmp_path.iterdir()) == []


def test_interrupted_write_kills_its_children(tmp_path, monkeypatch, four_cpus):
    """An exception in this process, KeyboardInterrupt included, kills and reaps every
    child at once, even one that would run for a minute, and leaves no file behind."""
    def interrupted(fh, stream, lo, hi):
        if lo > 0:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(telemetry, "_write_rows", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_stream(make_stream(4 * FORK_MIN_ROWS, seed=6), tmp_path / "s.csv")
    assert time.monotonic() - start < 30
    assert len(four_cpus) == 3
    _assert_no_children_left()
    assert list(tmp_path.iterdir()) == []


# -- _Body's line count, read into one reused buffer --------------------------

def _sized_body(size: int, eol: bytes = b"\n", final_eol: bool = True) -> bytes:
    """A two-column body of `size` bytes: lines "1.5,2.5", the last "2.5,1.5", the
    first padded with zeros to make up the size."""
    line = b"1.5,2.5" + eol
    count = size // len(line)
    lines = [line] * count
    lines[-1] = b"2.5,1.5" + eol
    body = b"".join(lines)
    if not final_eol:
        body = body[:-len(eol)]
    short = size - len(body)
    assert 0 <= short < len(line) + len(eol)
    return b"1.5" + b"0" * short + body[3:]


CHUNK = telemetry._READ_CHUNK


@pytest.mark.parametrize("size,eol,final_eol,lines", [
    (0, b"\n", True, 0),
    (CHUNK, b"\n", True, CHUNK // 8),
    (CHUNK + 1, b"\n", True, CHUNK // 8),
    (CHUNK + 1, b"\r\n", True, (CHUNK + 1) // 9),
    (CHUNK + 1, b"\n", False, CHUNK // 8),
    (4 * CHUNK - 3, b"\r\n", False, (4 * CHUNK - 3) // 9),
    (1 << 20, b"\n", True, (1 << 20) // 8),
    ((1 << 20) + 1, b"\n", True, (1 << 20) // 8),
], ids=["header-only", "one-read", "one-read-plus-1", "crlf", "no-final-newline",
        "crlf-no-final-newline", "1-MiB", "1-MiB-plus-1"])
def test_body_line_count_edges(tmp_path, size, eol, final_eol, lines):
    """Bodies of exactly one read of the line count (or 1 MiB) and one byte more, with
    CRLF line endings or no final newline, count their lines, and give their first and last
    rows, as loadtxt reads them; a header with no body has no lines."""
    body = _sized_body(size, eol, final_eol) if size else b""
    assert len(body) == size
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b" + eol + body)
    parsed = telemetry._Body(path, ("a", "b"))
    assert parsed.lines == lines
    if lines:
        want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert want.shape == (lines, 2)
        assert parsed.parse(0, 1).tobytes() == want[:1].tobytes()
        assert parsed.parse(lines - 1, lines).tobytes() == want[-1:].tobytes()
        assert parsed.parse(0, lines).tobytes() == want.tobytes()
