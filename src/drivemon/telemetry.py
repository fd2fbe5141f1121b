"""Telemetry data model and CSV ingestion for 8 Hz rover mobility streams.

A stream carries the 28 raw sensor channels: per-wheel drive-actuator
current, angular rate, and voltage, the three-axis IMU accelerations and
rotation rates, and the four suspension resolver angles (bogie and
differential, left/right). Values are SI (amps, rad/s, volts, m/s^2, rad).
Timestamps are float seconds on a strict 8 Hz grid; `sol` is the integer
mission day, constant or increasing within a file.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, OrderingError, SchemaError

SAMPLE_RATE_HZ = 8.0
FRAME_DT_S = 1.0 / SAMPLE_RATE_HZ
#: Allowed deviation from the nominal 0.125 s frame spacing.
DT_TOLERANCE_S = 1e-6

#: Canonical wheel order: left front/mid/rear, then right front/mid/rear.
WHEELS = ("LF", "LM", "LR", "RF", "RM", "RR")

#: The 28 sensor channels in CSV column order (grouped by signal kind).
SENSOR_CHANNELS = (
    tuple(f"current_{w}" for w in WHEELS)
    + tuple(f"rate_{w}" for w in WHEELS)
    + tuple(f"voltage_{w}" for w in WHEELS)
    + ("accel_X", "accel_Y", "accel_Z")
    + ("rot_X", "rot_Y", "rot_Z")
    + ("bogie_L", "bogie_R")
    + ("diff_L", "diff_R")
)

CSV_HEADER = ("t", "sol") + SENSOR_CHANNELS

#: Fewest rows write_stream hands to a forked writer: 4 096 rows are about 50 ms of
#: formatting, so a fork costs little beside them.
WRITE_MIN_ROWS = 4096

#: Every sol is below this in magnitude, so that a float64 CSV cell holds it exactly.
SOL_LIMIT = 2**53

_UNITS = {"current": "A", "rate": "rad/s", "voltage": "V",
          "accel": "m/s^2", "rot": "rad/s", "bogie": "rad", "diff": "rad"}


def channel_unit(channel: str) -> str:
    """SI unit string for a sensor channel name."""
    return _UNITS[channel.split("_", 1)[0]]


def channel_index(channel: str) -> int:
    """Column index of `channel` within SENSOR_CHANNELS."""
    try:
        return SENSOR_CHANNELS.index(channel)
    except ValueError:
        raise KeyError(f"unknown sensor channel {channel!r}") from None


@dataclass(frozen=True)
class TelemetryStream:
    """Time-ordered 8 Hz frames over the 28 sensor channels.

    `values[i, j]` is channel SENSOR_CHANNELS[j] at time `t[i]`. Arrays are
    locked read-only after validation, so streams are safe to share across
    threads.
    """

    t: np.ndarray
    sol: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=np.float64)
        sol = np.asarray(self.sol)
        values = np.array(self.values, dtype=np.float64)
        if t.ndim != 1 or sol.shape != t.shape:
            raise DataError("t and sol must be 1-D arrays of equal length")
        # checked as the float64s read_table parses, where every sol below 2^53 is exact
        sol = sol.astype(np.float64)
        whole = sol == np.floor(sol)
        bad = np.flatnonzero(~(whole & (np.abs(sol) < SOL_LIMIT)))
        if len(bad):
            why = "does not fit in 53 bits" if whole[bad[0]] else "is not an integer"
            raise DataError(f"sol {why} at row {bad[0]}")
        sol = sol.astype(np.int64)
        if values.shape != (len(t), len(SENSOR_CHANNELS)):
            raise DataError(
                f"values must have shape (n, {len(SENSOR_CHANNELS)}); got {values.shape}"
            )
        if len(t) == 0:
            raise DataError("empty stream")
        if not np.isfinite(values).all():
            bad = int(np.argwhere(~np.isfinite(values))[0, 0])
            raise DataError(f"non-finite value at row {bad}")
        _check_grid(t)
        dec = np.flatnonzero(np.diff(sol) < 0)
        if len(dec):
            raise DataError(f"sol decreases at row {int(dec[0]) + 1}")
        for arr, name in ((t, "t"), (sol, "sol"), (values, "values")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration_s(self) -> float:
        """Total signal coverage: frame count times the 0.125 s frame period."""
        return len(self.t) * FRAME_DT_S

    @property
    def span_s(self) -> float:
        """Elapsed time between first and last frame."""
        return float(self.t[-1] - self.t[0])

    def channel(self, name: str) -> np.ndarray:
        """Full time series of one sensor channel."""
        return self.values[:, channel_index(name)]


def _check_grid(t: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(t))
    if len(bad):
        raise DataError(f"non-finite timestamp at row {int(bad[0])}")
    if len(t) < 2:
        return
    dt = np.diff(t)
    nonmono = np.where(dt <= 0)[0]
    if len(nonmono):
        raise OrderingError(f"time not strictly increasing at row {int(nonmono[0]) + 1}")
    offgrid = np.where(np.abs(dt - FRAME_DT_S) > DT_TOLERANCE_S)[0]
    if len(offgrid):
        raise OrderingError(
            f"frame spacing deviates from {FRAME_DT_S} s at row {int(offgrid[0]) + 1}"
        )


def read_stream(path: str | Path) -> TelemetryStream:
    """Read a telemetry CSV into a validated stream: read_table's errors, then the
    stream's (DataError, OrderingError for off-grid timestamps) with the file named."""
    table = read_table(path, CSV_HEADER)
    try:
        return TelemetryStream(t=table[:, 0], sol=table[:, 1], values=table[:, 2:])
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_table(path: str | Path, header: tuple[str, ...]) -> np.ndarray:
    """The (rows, len(header)) float64 table of a CSV file (grammar in the README).

    The header is checked first; every later line is one row of len(header)
    comma-separated numbers. Raises SchemaError for a header mismatch and
    DataError naming the first bad 0-based data row (the header is not
    counted). A header with no rows gives an empty table.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise SchemaError(f"{path}: file is empty, expected header")
        cells = head.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8", errors="replace")
        _check_header(path, cells.split(","), header)
        body_start = fh.tell()
        n_rows = _count_lines(fh)
        if n_rows == 0:
            return np.empty((0, len(header)))
        # the parser reads the lines from the file, so the body is never held as bytes
        fh.seek(body_start)
        try:
            with warnings.catch_warnings():
                # a body of blank lines parses to no rows; the shape check reports it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                table = _parse_rows(fh)
        except ValueError:
            raise _row_fault(path, len(header)) from None
    # loadtxt skips blank lines, so a row count short of the line count is a fault
    if table.shape != (n_rows, len(header)):
        raise _row_fault(path, len(header))
    return table


def _count_lines(fh) -> int:
    """Lines from fh's position to its end, read 1 MiB at a time; the last line
    counts without its line ending."""
    n, last = 0, b"\n"
    while chunk := fh.read(1 << 20):
        n += chunk.count(b"\n")
        last = chunk[-1:]
    return n + (last != b"\n")


def _parse_rows(source) -> np.ndarray:
    """numpy's C reader over comma-separated lines of floats; ValueError on a bad cell."""
    return np.loadtxt(source, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _row_fault(path: Path, n_columns: int) -> DataError:
    """The DataError naming the first data row of the file that does not parse.

    Re-reads the file to diagnose a failed table parse line by line with the
    same parser, so both agree on the grammar; it never returns data.
    """
    with open(path, "rb") as fh:
        fh.readline()
        for i, line in enumerate(fh):
            line = line.removesuffix(b"\n").removesuffix(b"\r")
            n_cells = line.count(b",") + 1 if line else 0
            if n_cells != n_columns:
                return DataError(f"{path}: row {i} has {n_cells} cells, expected {n_columns}")
            try:
                _parse_rows([line])
            except ValueError:
                return DataError(f"{path}: unparsable cell at row {i}")
    return DataError(f"{path}: unparsable table")


def _check_header(path: Path, header: list[str], expected: tuple[str, ...]) -> None:
    expected = list(expected)
    if header == expected:
        return
    if header[0].startswith("\ufeff"):
        raise SchemaError(f"{path}: file starts with a UTF-8 byte-order mark; "
                          "save it without one")
    missing = [c for c in expected if c not in header]
    extra = [c for c in header if c not in expected]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
    if extra:
        raise SchemaError(f"{path}: unexpected column(s) {', '.join(extra)}")
    raise SchemaError(f"{path}: columns out of order; expected {','.join(expected)}")


def write_stream(stream: TelemetryStream, path: str | Path) -> None:
    """Write a stream as CSV; values use repr so read_stream round-trips exactly.

    The rows are split into one contiguous block per writer (`_writer_count`). A
    forked child formats each block after the first into an unlinked temporary
    file, while this process writes the header and block 0, then appends the
    children's bytes in order, so the file is the same bytes as one writer's.
    """
    if not isinstance(stream, TelemetryStream):
        raise DataError("write_stream expects a TelemetryStream")
    path = Path(path)
    n_writers = _writer_count(len(stream))
    bounds = [len(stream) * i // n_writers for i in range(n_writers + 1)]
    parts, pids = [], []  # each child's block file and pid, in row order
    reaped = 0
    try:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                parts.append(tempfile.TemporaryFile(dir=path.parent))
                pids.append(_fork_writer(parts[-1], stream, lo, hi))
            with open(path, "w", newline="") as fh:
                fh.write(",".join(CSV_HEADER) + "\n")
                _write_rows(fh, stream, 0, bounds[1])
                fh.flush()  # the children's bytes go to fh.buffer, after block 0
                for pid, part, lo, hi in zip(pids, parts, bounds[1:-1], bounds[2:]):
                    status = os.waitpid(pid, 0)[1]
                    reaped += 1
                    if status:
                        raise OSError(f"writer of rows {lo}-{hi - 1} exited with "
                                      f"status {os.waitstatus_to_exitcode(status)}")
                    part.seek(0)
                    shutil.copyfileobj(part, fh.buffer)
        except OSError as exc:
            raise OSError(f"failed writing stream to {path}: {exc}") from exc
    finally:
        # no child outlives the call, whatever stopped it
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


def _writer_count(n_rows: int) -> int:
    """Processes that write_stream splits n_rows over: one per CPU this process may
    run on, each with at least WRITE_MIN_ROWS rows; one without fork or affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_rows // WRITE_MIN_ROWS))


def _fork_writer(part, stream: TelemetryStream, lo: int, hi: int) -> int:
    """Fork a child that writes rows lo:hi into the binary file `part` and exits 0, or
    1 on any exception; the child never returns to the caller. Returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        with open(part.fileno(), "w", newline="", closefd=False) as out:
            _write_rows(out, stream, lo, hi)
        code = 0
    finally:
        os._exit(code)


def _write_rows(fh, stream: TelemetryStream, lo: int, hi: int) -> None:
    """Write rows lo:hi of the stream as CSV lines to the text file fh."""
    # one row's tolist at a time: Python floats format fast, and a whole
    # table of them would take about 30 bytes per cell
    for t, sol, row in zip(stream.t[lo:hi], stream.sol[lo:hi], stream.values[lo:hi]):
        fh.write(f"{float(t)!r},{int(sol)},{','.join(map(repr, row.tolist()))}\n")


def uniform_time_axis(n_frames: int, t0: float = 0.0) -> np.ndarray:
    """8 Hz time axis of length n_frames starting at t0 (exact 0.125 s steps)."""
    if n_frames < 1:
        raise DataError("n_frames must be >= 1")
    # k * 0.125 is exact in binary, so the grid carries no accumulation error
    return t0 + np.arange(n_frames, dtype=np.float64) * FRAME_DT_S


def is_frame_aligned(duration_s: float) -> bool:
    """True when duration_s is a whole number of 0.125 s frames."""
    frames = duration_s * SAMPLE_RATE_HZ
    return math.isfinite(frames) and math.isclose(frames, round(frames), abs_tol=1e-9)
