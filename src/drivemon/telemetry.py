"""Telemetry data model and CSV ingestion for 8 Hz rover mobility streams.

A stream carries the 28 raw sensor channels: per-wheel drive-actuator
current, angular rate, and voltage, the three-axis IMU accelerations and
rotation rates, and the four suspension resolver angles (bogie and
differential, left/right). Values are SI (amps, rad/s, volts, m/s^2, rad).
Timestamps are float seconds on a strict 8 Hz grid; `sol` is the integer
mission day, constant or increasing within a file.
"""

from __future__ import annotations

import csv
import math
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

    sample_rate_hz = SAMPLE_RATE_HZ

    def __post_init__(self):
        t = np.array(self.t, dtype=np.float64)
        sol = np.array(self.sol, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        if t.ndim != 1 or sol.shape != t.shape:
            raise DataError("t and sol must be 1-D arrays of equal length")
        if values.shape != (len(t), len(SENSOR_CHANNELS)):
            raise DataError(
                f"values must have shape (n, {len(SENSOR_CHANNELS)}); got {values.shape}"
            )
        if len(t) == 0:
            raise DataError("empty stream")
        _check_grid(t)
        _check_sol(sol)
        if not np.isfinite(values).all():
            bad = int(np.argwhere(~np.isfinite(values))[0, 0])
            raise DataError(f"non-finite value at row {bad}")
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


def _check_sol(sol: np.ndarray) -> None:
    if len(sol) < 2:
        return
    dec = np.where(np.diff(sol) < 0)[0]
    if len(dec):
        raise DataError(f"sol decreases at row {int(dec[0]) + 1}")


def read_stream(path: str | Path) -> TelemetryStream:
    """Read a telemetry CSV into a validated stream.

    Row indices in error messages are 0-based data rows (the header is not
    counted). Raises SchemaError for header mismatches, DataError for
    unparsable/non-finite cells or bad sol values, OrderingError for
    non-monotone or off-grid timestamps.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected header") from None
        _check_header(path, header)
        t_list: list[float] = []
        sol_list: list[int] = []
        rows: list[list[float]] = []
        for i, row in enumerate(reader):
            if len(row) != len(CSV_HEADER):
                raise DataError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(CSV_HEADER)}"
                )
            try:
                cells = [float(c) for c in row]
            except ValueError:
                raise DataError(f"{path}: unparsable cell at row {i}") from None
            sol_f = cells[1]
            if sol_f != int(sol_f):
                raise DataError(f"{path}: sol is not an integer at row {i}")
            t_list.append(cells[0])
            sol_list.append(int(sol_f))
            rows.append(cells[2:])
    if not rows:
        raise DataError(f"{path}: empty stream")
    values = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        bad = int(np.argwhere(~np.isfinite(values))[0, 0])
        raise DataError(f"{path}: non-finite value at row {bad}")
    return TelemetryStream(t=np.asarray(t_list), sol=np.asarray(sol_list), values=values)


def _check_header(path: Path, header: list[str]) -> None:
    expected = list(CSV_HEADER)
    if header == expected:
        return
    missing = [c for c in expected if c not in header]
    extra = [c for c in header if c not in expected]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
    if extra:
        raise SchemaError(f"{path}: unexpected column(s) {', '.join(extra)}")
    raise SchemaError(f"{path}: columns out of order; expected {','.join(expected)}")


def write_stream(stream: TelemetryStream, path: str | Path) -> None:
    """Write a stream as CSV; values use repr so read_stream round-trips exactly."""
    if not isinstance(stream, TelemetryStream):
        raise DataError("write_stream expects a TelemetryStream")
    if len(stream) == 0:
        raise DataError("empty stream")
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for i in range(len(stream)):
                cells = [repr(float(stream.t[i])), str(int(stream.sol[i]))]
                cells += [repr(float(v)) for v in stream.values[i]]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing stream to {path}: {exc}") from exc


def stream_from_channels(
    t: np.ndarray, sol: np.ndarray, channels: dict[str, np.ndarray]
) -> TelemetryStream:
    """Assemble a stream from per-channel arrays; every channel must be present."""
    missing = [c for c in SENSOR_CHANNELS if c not in channels]
    if missing:
        raise SchemaError(f"missing channel(s) {', '.join(missing)}")
    values = np.column_stack([np.asarray(channels[c], dtype=np.float64) for c in SENSOR_CHANNELS])
    return TelemetryStream(t=t, sol=sol, values=values)


def uniform_time_axis(n_frames: int, t0: float = 0.0) -> np.ndarray:
    """8 Hz time axis of length n_frames starting at t0 (exact 0.125 s steps)."""
    if n_frames < 1:
        raise DataError("n_frames must be >= 1")
    # k * 0.125 is exact in binary, so the grid carries no accumulation error
    return t0 + np.arange(n_frames, dtype=np.float64) * FRAME_DT_S


def is_frame_aligned(duration_s: float) -> bool:
    """True when duration_s is a whole number of 0.125 s frames."""
    frames = duration_s * SAMPLE_RATE_HZ
    return math.isclose(frames, round(frames), abs_tol=1e-9)
