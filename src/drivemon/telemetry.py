"""Telemetry data model and CSV ingestion for 8 Hz rover mobility streams.

A stream carries the 28 raw sensor channels: per-wheel drive-actuator
current, angular rate, and voltage, the three-axis IMU accelerations and
rotation rates, and the four suspension resolver angles (bogie and
differential, left/right). Values are SI (amps, rad/s, volts, m/s^2, rad).
Timestamps are float seconds on a strict 8 Hz grid; `sol` is the integer
mission day, constant or increasing within a file.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, OrderingError, SchemaError
from .parallel import block_bounds, named, run_blocks

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
        _check_frames(t, sol, values)
        # the sol checked is the float64 read_table parses, so it converts exactly
        sol = sol.astype(np.float64).astype(np.int64)
        for arr, name in ((t, "t"), (sol, "sol"), (values, "values")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.t)

    def channel(self, name: str) -> np.ndarray:
        """Full time series of one sensor channel."""
        return self.values[:, channel_index(name)]


def _check_frames(t: np.ndarray, sol: np.ndarray, values: np.ndarray) -> None:
    """Raise the DataError (OrderingError for the time grid) of a stream's first fault,
    reading t, sol and values where they lie: no array is copied."""
    if t.ndim != 1 or sol.shape != t.shape:
        raise DataError("t and sol must be 1-D arrays of equal length")
    # checked as the float64s read_table parses, where every sol below 2^53 is exact
    sol = np.asarray(sol, dtype=np.float64)
    whole = sol == np.floor(sol)
    bad = np.flatnonzero(~(whole & (np.abs(sol) < SOL_LIMIT)))
    if len(bad):
        why = "does not fit in 53 bits" if whole[bad[0]] else "is not an integer"
        raise DataError(f"sol {why} at row {bad[0]}")
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
    dec = np.flatnonzero(sol[1:] < sol[:-1])
    if len(dec):
        raise DataError(f"sol decreases at row {int(dec[0]) + 1}")


def _check_grid(t: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(t))
    if len(bad):
        raise DataError(f"non-finite timestamp at row {int(bad[0])}")
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
    body = _Body(path, header)
    if body.lines == 0:
        return np.empty((0, len(header)))
    try:
        return body.parse(0, body.lines)
    except DataError:
        raise _row_fault(path, len(header)) from None


#: Bytes per read of the line count. A read and its newline mask stay in a core's L2
#: cache: the 40 drives of bench detect's queue (125 MB) counted in 15 ms at 256 KiB
#: against 37 ms at 1 MiB.
_READ_CHUNK = 1 << 18


class _Body:
    """The data lines of a CSV file whose header checks out: how many there are, and
    each block of them parsed from its own file handle."""

    def __init__(self, path: Path, header: tuple[str, ...]):
        self.path, self.columns = path, len(header)
        with open(path, "rb") as fh:
            head = fh.readline()
            if not head:
                raise SchemaError(f"{path}: file is empty, expected header")
            cells = head.removesuffix(b"\n").removesuffix(b"\r")
            _check_header(path, cells.decode("utf-8", errors="replace").split(","), header)
            self.start = fh.tell()
            self.lines, self._newlines = _count_lines(fh)

    def parse(self, lo: int, hi: int) -> np.ndarray:
        """Data rows lo:hi; DataError when they do not parse to (hi - lo, columns),
        which _row_fault then names."""
        # the parser reads the lines from the file, so the body is never held as bytes
        with open(self.path, "rb") as part, warnings.catch_warnings():
            # a block of blank lines parses to no rows; the shape check reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            part.seek(self._line_start(part, lo))
            try:
                rows = _parse_rows(itertools.islice(part, hi - lo))
            except ValueError:
                raise DataError(f"{self.path}: unparsable rows {lo}-{hi - 1}") from None
        # loadtxt skips blank lines, so a row count short of the line count is a fault
        if rows.shape != (hi - lo, self.columns):
            raise DataError(f"{self.path}: rows {lo}-{hi - 1} parse to shape {rows.shape}")
        return rows

    def _line_start(self, fh, row: int) -> int:
        """File offset of data line `row` (below self.lines): for row > 0, one re-read
        of the chunk of _count_lines that holds the newline ending line row - 1."""
        if row == 0:
            return self.start
        ends = np.cumsum(self._newlines)
        j = int(np.searchsorted(ends, row))
        fh.seek(self.start + j * _READ_CHUNK)
        at = np.flatnonzero(np.frombuffer(fh.read(_READ_CHUNK), np.uint8) == ord("\n"))
        return self.start + j * _READ_CHUNK + int(at[row - (ends[j] - self._newlines[j]) - 1]) + 1


def _count_lines(fh) -> tuple[int, list[int]]:
    """Lines from fh's position to its end, read _READ_CHUNK bytes at a time, and the
    newlines in each read; the last line counts without its line ending."""
    # every read lands in the same two buffers, so the count makes no fresh pages; no
    # mmap, which would kill the process with SIGBUS if the file shrank under it
    chunk, is_newline = np.empty(_READ_CHUNK, np.uint8), np.empty(_READ_CHUNK, bool)
    newlines, last = [], ord("\n")
    while size := fh.readinto(chunk):
        newlines.append(int(np.count_nonzero(
            np.equal(chunk[:size], ord("\n"), out=is_newline[:size]))))
        last = chunk[size - 1]
    return sum(newlines) + (last != ord("\n")), newlines


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

    The rows are split into one contiguous block per process (`block_bounds`). A
    forked child formats each block after the first into an unlinked temporary
    file, while this process writes the header and block 0, then appends the
    children's bytes in order, so the file is the same bytes as one writer's. It
    is written under a temporary name in the output's directory and renamed into
    place once whole, so a failed write leaves no partial file behind.
    """
    if not isinstance(stream, TelemetryStream):
        raise DataError("write_stream expects a TelemetryStream")
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    bounds = block_bounds(len(stream))
    parts = {}  # each child's block file, by its first row
    try:
        try:
            for lo in bounds[1:-1]:
                parts[lo] = tempfile.TemporaryFile(dir=path.parent)
            with open(partial, "w", newline="") as fh:
                fh.write(",".join(CSV_HEADER) + "\n")

                def write(lo: int, hi: int) -> None:
                    if lo in parts:
                        with open(parts[lo].fileno(), "w", newline="", closefd=False) as out:
                            _write_rows(out, stream, lo, hi)
                    else:
                        _write_rows(fh, stream, lo, hi)
                        fh.flush()  # the children's bytes go to fh.buffer, after block 0

                run_blocks(bounds, [(named("writer of rows"), write)])
                for part in parts.values():  # in row order
                    part.seek(0)
                    shutil.copyfileobj(part, fh.buffer)
            os.replace(partial, path)
        except OSError as exc:
            raise OSError(f"failed writing stream to {path}: {exc}") from exc
    finally:
        partial.unlink(missing_ok=True)
        for part in parts.values():
            part.close()


def _write_rows(fh, stream: TelemetryStream, lo: int, hi: int) -> None:
    """Write rows lo:hi of the stream as CSV lines to the text file fh."""
    # one row's tolist at a time: Python floats format fast, and a whole
    # table of them would take about 30 bytes per cell
    for t, sol, row in zip(stream.t[lo:hi], stream.sol[lo:hi], stream.values[lo:hi]):
        fh.write(f"{float(t)!r},{int(sol)},{','.join(map(repr, row.tolist()))}\n")


def uniform_time_axis(n_frames: int) -> np.ndarray:
    """8 Hz time axis of length n_frames starting at 0 (exact 0.125 s steps)."""
    if n_frames < 1:
        raise DataError("n_frames must be >= 1")
    # k * 0.125 is exact in binary, so the grid carries no accumulation error
    return np.arange(n_frames, dtype=np.float64) * FRAME_DT_S


def is_frame_aligned(duration_s: float) -> bool:
    """True when duration_s is a whole number of 0.125 s frames."""
    frames = duration_s * SAMPLE_RATE_HZ
    return math.isfinite(frames) and math.isclose(frames, round(frames), abs_tol=1e-9)
