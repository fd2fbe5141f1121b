"""Seeded synthetic telemetry: nominal straight drives plus injected anomalies.

Signal magnitudes are module constants chosen so injected events separate
cleanly (several sigma) from nominal sensor noise; they are not calibrated
against any real vehicle. Five anomaly archetypes are supported:

- RockDrop: damped vertical-acceleration oscillation with suspension coupling.
- MTSC: brief current spike on one wheel (mid-traverse actuator calibration).
- Wheelie: one wheel unloads (current dips toward 20%) while its bogie ramps.
- HighSlip: heavy-tailed current noise and rate ripple across all wheels.
- IntenseTerrain: one wheel's current surges while its rate collapses and the
  suspension oscillates.

Injection is pure superposition: outside the event interval every channel
is bit-identical to the nominal stream.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, nullable, read_fields, read_json, strict_float, strict_str
from .telemetry import (
    FRAME_DT_S,
    SAMPLE_RATE_HZ,
    SENSOR_CHANNELS,
    SOL_LIMIT,
    WHEELS,
    TelemetryStream,
    channel_index,
    uniform_time_axis,
)

EVENT_KINDS = ("RockDrop", "Wheelie", "MTSC", "HighSlip", "IntenseTerrain")
#: Kinds that target a single wheel.
WHEEL_KINDS = frozenset({"MTSC", "Wheelie", "IntenseTerrain"})

DEFAULT_DURATION_S = {
    "RockDrop": 4.0,   # drop oscillations settle within one window
    "MTSC": 1.5,
    "Wheelie": 3.0,
    "HighSlip": 6.0,
    "IntenseTerrain": 4.0,
}
#: Seconds at each end of a test drive that plan_events keeps free of events.
EVENT_MARGIN_S = 10.0
#: Every drive is shorter (2^50 s, about 1.13e15 s), so it has fewer than SOL_LIMIT
#: frames and every frame index is exact as a float64.
MAX_DRIVE_S = SOL_LIMIT * FRAME_DT_S


# Nominal signal magnitudes, the same for every drive.
BASE_CURRENT_A = 0.5
#: Fixed per-wheel offsets on the base current, in WHEELS order.
WHEEL_CURRENT_OFFSETS_A = (0.02, -0.015, 0.01, -0.02, 0.025, -0.01)
CURRENT_NOISE_A = 0.02
BUS_VOLTAGE_V = 28.0
VOLTAGE_NOISE_V = 0.05
WHEEL_RATE_RAD_S = 0.6
RATE_NOISE_RAD_S = 0.01
ACCEL_XY_NOISE_MS2 = 0.05
ACCEL_Z_NOISE_MS2 = 0.08
ROT_NOISE_RAD_S = 0.005
SUSPENSION_STEP_RAD = 1e-4
SUSPENSION_CLAMP_RAD = 0.15
# weak pull toward zero keeps the walk stationary, so a fresh seed's
# suspension envelope matches the training envelope
SUSPENSION_REVERSION = 0.01


@dataclass(frozen=True)
class NominalProfile:
    """A nominal straight drive's length and mission day."""

    duration_s: float
    sol: int = 1000

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is false
        if not 4.0 <= self.duration_s < MAX_DRIVE_S:
            raise DataError("duration must be finite, at least one 4 s window and under "
                            "2^53 frames")
        # np.full would truncate a fractional sol without a word
        if isinstance(self.sol, bool) or not isinstance(self.sol, numbers.Integral):
            raise DataError(f"field 'sol' is {self.sol!r}; it must be an integer")
        if not -SOL_LIMIT < self.sol < SOL_LIMIT:
            raise DataError(f"field 'sol' is {self.sol}; it must fit in 53 bits")


@dataclass(frozen=True)
class AnomalyEvent:
    """One injected anomaly; severity linearly scales its signature."""

    kind: str
    t0: float
    duration_s: float | None = None
    wheel: str | None = None
    severity: float = 1.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise DataError(f"unknown anomaly kind {self.kind!r}")
        # written so that NaN fails: every comparison with NaN is false
        if not 0.0 < self.severity < math.inf:
            raise DataError(f"field 'severity' is {self.severity}; it must be finite and > 0")
        if not math.isfinite(self.t0):
            raise DataError(f"field 't0' is {self.t0}; it must be finite")
        if self.kind in WHEEL_KINDS:
            if self.wheel not in WHEELS:
                raise DataError(f"field 'wheel' is {self.wheel!r}; {self.kind} requires one "
                                f"of {WHEELS}")
        elif self.wheel is not None:
            raise DataError(f"field 'wheel' is {self.wheel!r}; {self.kind} does not target "
                            "a single wheel")
        resolved = DEFAULT_DURATION_S[self.kind] if self.duration_s is None else self.duration_s
        if not 0.0 < resolved < math.inf:
            raise DataError(f"field 'duration' is {resolved}; it must be finite and > 0")
        object.__setattr__(self, "duration_s", float(resolved))

    @property
    def end_t(self) -> float:
        return self.t0 + self.duration_s


@dataclass(frozen=True)
class LabeledStream:
    """Test stream plus its injected ground truth."""

    stream: TelemetryStream
    events: tuple[AnomalyEvent, ...]

    def __post_init__(self):
        events = tuple(sorted(self.events, key=lambda e: e.t0))
        _check_events(events, float(self.stream.t[0]), float(self.stream.t[-1]) + FRAME_DT_S)
        object.__setattr__(self, "events", events)


def _check_events(events, t_lo: float, t_hi: float) -> None:
    prev_end = None
    for ev in events:
        if ev.t0 < t_lo or ev.end_t > t_hi:
            raise DataError(f"event {ev.kind} at t0={ev.t0} falls outside the stream")
        if prev_end is not None and ev.t0 < prev_end:
            raise DataError(f"event {ev.kind} at t0={ev.t0} overlaps the previous event")
        prev_end = ev.end_t


# steps of _bounded_walk per list of Python floats
_WALK_BLOCK = 4096


def _bounded_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    steps = rng.normal(0.0, SUSPENSION_STEP_RAD, n)
    keep = 1.0 - SUSPENSION_REVERSION
    clamp = SUSPENSION_CLAMP_RAD
    out = np.empty(n)
    x = 0.0
    # Python floats step several times faster than numpy scalars, with the same
    # IEEE arithmetic; a block at a time bounds the lists
    for lo in range(0, n, _WALK_BLOCK):
        walk = []
        for step in steps[lo:lo + _WALK_BLOCK].tolist():
            x = x * keep + step
            if x > clamp:
                x = clamp
            elif x < -clamp:
                x = -clamp
            walk.append(x)
        out[lo:lo + _WALK_BLOCK] = walk
    return out


def generate_nominal(profile: NominalProfile, seed) -> TelemetryStream:
    """Nominal 8 Hz straight drive; bit-identical for identical seeds."""
    return _drive(profile, seed)


def _drive(profile: NominalProfile, seed, seeded_events=()) -> TelemetryStream:
    """A nominal drive plus the signature of each (event, seed) pair.

    Columns are drawn in SENSOR_CHANNELS order. The order of the draws fixes
    the bits of every generated dataset, so it must not change. The events
    are superposed on the drawn values themselves, so the drive is built once.
    """
    n = round(profile.duration_s * SAMPLE_RATE_HZ)
    rng = np.random.default_rng(seed)
    values = np.empty((n, len(SENSOR_CHANNELS)))
    for k, off in enumerate(WHEEL_CURRENT_OFFSETS_A):
        values[:, k] = (BASE_CURRENT_A + off) + rng.normal(0.0, CURRENT_NOISE_A, n)
    for k in range(6, 12):
        values[:, k] = WHEEL_RATE_RAD_S + rng.normal(0.0, RATE_NOISE_RAD_S, n)
    for k in range(12, 18):
        values[:, k] = BUS_VOLTAGE_V + rng.normal(0.0, VOLTAGE_NOISE_V, n)
    # the zero-mean IMU channels are drawn as they are: adding 0.0 would turn
    # a -0.0 draw into +0.0
    imu_noise = (ACCEL_XY_NOISE_MS2,) * 2 + (ACCEL_Z_NOISE_MS2,) + (ROT_NOISE_RAD_S,) * 3
    for k, scale in enumerate(imu_noise, 18):
        values[:, k] = rng.normal(0.0, scale, n)
    for k in range(24, 28):
        values[:, k] = _bounded_walk(rng, n)
    t = uniform_time_axis(n)
    for event, event_seed in seeded_events:
        _superpose(values, t, event, event_seed)
    return TelemetryStream(t=t, sol=np.full(n, profile.sol, dtype=np.int64), values=values)


def _triangle(tau: np.ndarray, duration: float) -> np.ndarray:
    """Unit triangle over [0, duration): 0 at the edges, 1 at the midpoint."""
    u = tau / duration
    return 1.0 - np.abs(2.0 * u - 1.0)


def inject(stream: TelemetryStream, event: AnomalyEvent, seed) -> TelemetryStream:
    """Superpose one anomaly signature on a copy; untouched samples stay bit-identical."""
    _check_events((event,), float(stream.t[0]), float(stream.t[-1]) + FRAME_DT_S)
    values = stream.values.copy()
    _superpose(values, stream.t, event, seed)
    return TelemetryStream(t=stream.t, sol=stream.sol, values=values)


def _superpose(values: np.ndarray, t: np.ndarray, event: AnomalyEvent, seed) -> None:
    """Add one anomaly signature to `values` in place, over the frames of t in the event."""
    idx = np.flatnonzero((t >= event.t0) & (t < event.end_t))
    if len(idx) == 0:
        raise DataError(f"event {event.kind} at t0={event.t0} covers no frames")
    # anchor the waveform phase at the first in-event frame: a 4 Hz tone is at
    # the Nyquist frequency of the 8 Hz grid, so an unanchored sine would
    # sample to zero everywhere
    tau = t[idx] - t[idx[0]]
    col = channel_index
    sev = event.severity
    rng = np.random.default_rng(seed)
    if event.kind == "RockDrop":
        ring = np.exp(-tau / 0.8) * np.cos(2.0 * np.pi * 4.0 * tau)
        values[idx, col("accel_Z")] += 3.0 * sev * ring
        values[idx, col("accel_X")] += 0.3 * (3.0 * sev * ring)
        sus = 0.02 * sev * np.exp(-tau / 0.8) * np.sin(2.0 * np.pi * 2.0 * tau + np.pi / 4)
        values[idx, col("bogie_L")] += sus
        values[idx, col("bogie_R")] += sus
    elif event.kind == "MTSC":
        values[idx, col(f"current_{event.wheel}")] *= 3.0 + sev
    elif event.kind == "Wheelie":
        tri = _triangle(tau, event.duration_s)
        values[idx, col(f"current_{event.wheel}")] *= 1.0 - 0.8 * tri
        values[idx, col(f"bogie_{event.wheel[0]}")] += 0.08 * sev * tri
    elif event.kind == "HighSlip":
        # Student-t(3) scaled to std 4*severity*nominal current noise
        t_scale = 4.0 * sev * CURRENT_NOISE_A / np.sqrt(3.0)
        for k, w in enumerate(WHEELS):
            values[idx, col(f"current_{w}")] += t_scale * rng.standard_t(3, len(idx))
            ripple = 0.04 * sev * np.sin(2.0 * np.pi * 1.5 * tau + k * np.pi / 3.0)
            values[idx, col(f"rate_{w}")] += ripple
    elif event.kind == "IntenseTerrain":
        tri = _triangle(tau, event.duration_s)
        values[idx, col(f"current_{event.wheel}")] *= 1.0 + (4.0 * sev - 1.0) * tri
        values[idx, col(f"rate_{event.wheel}")] *= 1.0 - 0.9 * tri
        osc = np.sin(2.0 * np.pi * 1.5 * tau + np.pi / 6.0)
        values[idx, col(f"bogie_{event.wheel[0]}")] += 0.05 * sev * tri * osc
        values[idx, col(f"diff_{event.wheel[0]}")] += 0.03 * sev * tri * osc


def make_dataset(
    train_s: float,
    test_s: float,
    events: list[AnomalyEvent],
    seed: int,
    profile: NominalProfile | None = None,
) -> tuple[TelemetryStream, LabeledStream]:
    """Clean training stream plus a labeled test stream with injected events.

    The profile, whose duration must be train_s, gives the training sol; the test
    drive is the next sol. Every sub-stream and injection draws from a child of the
    given seed, so train and test never share noise and the dataset is reproducible.
    """
    if profile is not None and profile.duration_s != train_s:
        raise DataError(f"profile duration_s {profile.duration_s} differs from train_s {train_s}")
    sol = 1000 if profile is None else profile.sol
    events = sorted(events, key=lambda e: e.t0)
    _check_events(events, 0.0, test_s)
    children = np.random.SeedSequence(seed).spawn(2 + len(events))
    train = generate_nominal(NominalProfile(duration_s=train_s, sol=sol), children[0])
    test = _drive(NominalProfile(duration_s=test_s, sol=sol + 1), children[1],
                  zip(events, children[2:]))
    return train, LabeledStream(stream=test, events=tuple(events))


def plan_events(mix: str, test_s: float, seed: int, severity: float = 1.0) -> list[AnomalyEvent]:
    """Expand an event-mix string into non-overlapping scheduled events.

    The string is comma-separated `<kind><count>` tokens, e.g.
    "rockdrop10,mtsc10,wheelie10,highslip5,intenseterrain5", or "mixedN" to
    cycle through all five kinds, or "none". Events are shuffled, placed in
    equal slots across the usable span with seeded jitter, and assigned
    wheels round-robin. A mix with events for a test drive whose values cannot
    be allocated raises MemoryError before any event is listed.
    """
    usable = test_s - 2.0 * EVENT_MARGIN_S
    tokens = _parse_event_mix(mix)
    # each event needs a slot of more than 1 s, so more events than whole usable seconds
    # never fit (a NaN or infinite span fits none); a count with more digits than that
    # is larger, and is never parsed, so no list is built for a mix that cannot fit
    room = max(math.floor(usable), 0) if math.isfinite(usable) else 0
    counts = [int(digits) if len(digits) <= len(str(room)) else room + 1
              for _, digits in tokens]
    if sum(counts) > room:
        raise DataError(f"more than {room} events do not fit in {test_s} s "
                        "(each needs a slot of more than 1 s)")
    if any(counts):
        _check_drive_fits(test_s)
    kinds: list[str] = []
    for (name, _), count in zip(tokens, counts):
        if name == "mixed":
            kinds.extend(EVENT_KINDS[i % len(EVENT_KINDS)] for i in range(count))
        else:
            kinds.extend([name] * count)
    if not kinds:
        return []
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    slot = usable / len(kinds)
    events = []
    wheel_cycle = 0
    for i, kind in enumerate(kinds):
        dur = DEFAULT_DURATION_S[kind]
        slack = slot - dur - 1.0
        if slack < 0:
            raise DataError(
                f"{len(kinds)} events do not fit in {test_s} s (need {dur + 1.0:.1f} s slots)"
            )
        t0 = EVENT_MARGIN_S + i * slot + rng.uniform(0.0, slack)
        wheel = None
        if kind in WHEEL_KINDS:
            wheel = WHEELS[wheel_cycle % len(WHEELS)]
            wheel_cycle += 1
        events.append(AnomalyEvent(kind=kind, t0=float(t0), wheel=wheel, severity=severity))
    return events


def _check_drive_fits(test_s: float) -> None:
    """Refuse a test drive whose values could never be allocated, before its events are
    listed: an event takes far less memory than its slot of more than 1 s of the drive,
    so the list of a drive that can be held is smaller still."""
    if not test_s < MAX_DRIVE_S:
        raise DataError(f"a {test_s} s test drive has 2^53 frames or more")
    n = round(test_s * SAMPLE_RATE_HZ)
    try:
        np.empty((n, len(SENSOR_CHANNELS)))
    except MemoryError:
        raise MemoryError(f"a {test_s} s test drive ({n} frames of {len(SENSOR_CHANNELS)} "
                          "channels) cannot be allocated") from None


def _parse_event_mix(mix: str) -> list[tuple[str, str]]:
    """The (kind or "mixed", count) of each token of an event-mix string, in order.

    A count stays a digit string without leading zeros, so that plan_events can
    refuse one of any length without parsing it.
    """
    lookup = {k.lower(): k for k in EVENT_KINDS}
    mix = mix.strip().lower()
    if mix in ("", "none", "0"):
        return []
    tokens = []
    for token in mix.split(","):
        token = token.strip()
        name = token.rstrip("0123456789")
        if name != "mixed" and name not in lookup:
            raise DataError(f"unknown event token {token!r}")
        digits = token[len(name):]
        tokens.append((lookup.get(name, name), digits.lstrip("0") or ("0" if digits else "1")))
    return tokens


#: A labels.json event: field -> how it is read back.
LABEL_FIELDS = {"kind": strict_str, "t0": strict_float, "duration": strict_float,
                "wheel": (nullable(strict_str), None), "severity": (strict_float, 1.0)}


def write_labels(events, path: str | Path) -> None:
    doc = [
        {"kind": e.kind, "t0": e.t0, "duration": e.duration_s,
         "wheel": e.wheel, "severity": e.severity}
        for e in events
    ]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_labels(path: str | Path) -> list[AnomalyEvent]:
    doc = read_json(path, error=DataError)
    if not isinstance(doc, list):
        raise DataError(f"{path}: expected a list of events")
    events = []
    for i, e in enumerate(doc):
        where = f"{path}: event {i}"
        e = read_fields(e, LABEL_FIELDS, where, DataError)
        try:
            events.append(AnomalyEvent(kind=e["kind"], t0=e["t0"], duration_s=e["duration"],
                                       wheel=e["wheel"], severity=e["severity"]))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return events
