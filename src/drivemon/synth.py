"""Seeded synthetic telemetry: nominal straight drives plus injected anomalies.

Signal magnitudes are generator defaults chosen so injected events separate
cleanly (several sigma) from nominal sensor noise; they are not calibrated
against any real vehicle. Five anomaly archetypes are supported:

- RockDrop: damped vertical-acceleration oscillation with suspension coupling.
- MTSC: brief current spike on one wheel (mid-traverse actuator calibration).
- Wheelie: one wheel unloads (current dips toward 20%) while its bogie ramps.
- HighSlip: heavy-tailed current noise and rate ripple across all wheels.
- IntenseTerrain: one wheel's current surges while its rate collapses and the
  suspension oscillates.

Injection is pure superposition on copies: outside the event interval every
channel is bit-identical to the nominal stream.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, get_field, read_json
from .telemetry import (
    FRAME_DT_S,
    SAMPLE_RATE_HZ,
    WHEELS,
    TelemetryStream,
    channel_index,
    stream_from_channels,
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


@dataclass(frozen=True)
class NominalProfile:
    """Nominal straight-drive magnitudes; every field is configurable."""

    duration_s: float
    sol: int = 1000
    base_current_a: float = 0.5
    #: Fixed per-wheel offsets on the base current, each within +-0.05 A.
    wheel_current_offsets_a: tuple[float, ...] = (0.02, -0.015, 0.01, -0.02, 0.025, -0.01)
    current_noise_a: float = 0.02
    bus_voltage_v: float = 28.0
    voltage_noise_v: float = 0.05
    wheel_rate_rad_s: float = 0.6
    rate_noise_rad_s: float = 0.01
    accel_xy_noise_ms2: float = 0.05
    accel_z_noise_ms2: float = 0.08
    rot_noise_rad_s: float = 0.005
    suspension_step_rad: float = 1e-4
    suspension_clamp_rad: float = 0.15
    # weak pull toward zero keeps the walk stationary, so a fresh seed's
    # suspension envelope matches the training envelope
    suspension_reversion: float = 0.01

    def __post_init__(self):
        if self.duration_s < 4.0:
            raise DataError("duration must be at least one 4 s window")
        if len(self.wheel_current_offsets_a) != len(WHEELS):
            raise DataError("need one current offset per wheel")
        if max(abs(o) for o in self.wheel_current_offsets_a) > 0.05:
            raise DataError("wheel current offsets must stay within +-0.05 A")
        for name in ("current_noise_a", "voltage_noise_v", "rate_noise_rad_s",
                     "accel_xy_noise_ms2", "accel_z_noise_ms2", "rot_noise_rad_s",
                     "suspension_step_rad"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")


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
                raise DataError(f"{self.kind} requires a wheel from {WHEELS}")
        elif self.wheel is not None:
            raise DataError(f"{self.kind} does not target a single wheel")
        resolved = DEFAULT_DURATION_S[self.kind] if self.duration_s is None else self.duration_s
        if not 0.0 < resolved < math.inf:
            raise DataError(f"field 'duration' is {resolved}; it must be finite and > 0")
        object.__setattr__(self, "duration_s", float(resolved))

    @property
    def duration(self) -> float:
        return self.duration_s

    @property
    def end_t(self) -> float:
        return self.t0 + self.duration


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


def _bounded_walk(rng: np.random.Generator, n: int, profile: NominalProfile) -> np.ndarray:
    steps = rng.normal(0.0, profile.suspension_step_rad, n)
    keep = 1.0 - profile.suspension_reversion
    clamp = profile.suspension_clamp_rad
    out = np.empty(n)
    x = 0.0
    for k in range(n):
        x = x * keep + steps[k]
        if x > clamp:
            x = clamp
        elif x < -clamp:
            x = -clamp
        out[k] = x
    return out


def generate_nominal(profile: NominalProfile, seed) -> TelemetryStream:
    """Nominal 8 Hz straight drive; bit-identical for identical seeds."""
    n = round(profile.duration_s * SAMPLE_RATE_HZ)
    rng = np.random.default_rng(seed)
    channels: dict[str, np.ndarray] = {}
    for w, off in zip(WHEELS, profile.wheel_current_offsets_a):
        base = profile.base_current_a + off
        channels[f"current_{w}"] = base + rng.normal(0.0, profile.current_noise_a, n)
    for w in WHEELS:
        channels[f"rate_{w}"] = profile.wheel_rate_rad_s + rng.normal(
            0.0, profile.rate_noise_rad_s, n)
    for w in WHEELS:
        channels[f"voltage_{w}"] = profile.bus_voltage_v + rng.normal(
            0.0, profile.voltage_noise_v, n)
    channels["accel_X"] = rng.normal(0.0, profile.accel_xy_noise_ms2, n)
    channels["accel_Y"] = rng.normal(0.0, profile.accel_xy_noise_ms2, n)
    channels["accel_Z"] = rng.normal(0.0, profile.accel_z_noise_ms2, n)
    for axis in ("X", "Y", "Z"):
        channels[f"rot_{axis}"] = rng.normal(0.0, profile.rot_noise_rad_s, n)
    for name in ("bogie_L", "bogie_R", "diff_L", "diff_R"):
        channels[name] = _bounded_walk(rng, n, profile)
    return stream_from_channels(
        t=uniform_time_axis(n),
        sol=np.full(n, profile.sol, dtype=np.int64),
        channels=channels,
    )


def _bogie_channel(wheel: str) -> str:
    return "bogie_L" if wheel.startswith("L") else "bogie_R"


def _diff_channel(wheel: str) -> str:
    return "diff_L" if wheel.startswith("L") else "diff_R"


def _triangle(tau: np.ndarray, duration: float) -> np.ndarray:
    """Unit triangle over [0, duration): 0 at the edges, 1 at the midpoint."""
    u = tau / duration
    return 1.0 - np.abs(2.0 * u - 1.0)


def inject(stream: TelemetryStream, event: AnomalyEvent, seed) -> TelemetryStream:
    """Superpose one anomaly signature; untouched samples stay bit-identical."""
    _check_events((event,), float(stream.t[0]), float(stream.t[-1]) + FRAME_DT_S)
    idx = np.flatnonzero((stream.t >= event.t0) & (stream.t < event.end_t))
    if len(idx) == 0:
        raise DataError(f"event {event.kind} at t0={event.t0} covers no frames")
    # anchor the waveform phase at the first in-event frame: a 4 Hz tone is at
    # the Nyquist frequency of the 8 Hz grid, so an unanchored sine would
    # sample to zero everywhere
    tau = np.asarray(stream.t[idx] - stream.t[idx[0]])
    values = stream.values.copy()
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
        tri = _triangle(tau, event.duration)
        values[idx, col(f"current_{event.wheel}")] *= 1.0 - 0.8 * tri
        values[idx, col(_bogie_channel(event.wheel))] += 0.08 * sev * tri
    elif event.kind == "HighSlip":
        # Student-t(3) scaled to std 4*severity*nominal current noise
        t_scale = 4.0 * sev * 0.02 / np.sqrt(3.0)
        for k, w in enumerate(WHEELS):
            values[idx, col(f"current_{w}")] += t_scale * rng.standard_t(3, len(idx))
            ripple = 0.04 * sev * np.sin(2.0 * np.pi * 1.5 * tau + k * np.pi / 3.0)
            values[idx, col(f"rate_{w}")] += ripple
    elif event.kind == "IntenseTerrain":
        tri = _triangle(tau, event.duration)
        values[idx, col(f"current_{event.wheel}")] *= 1.0 + (4.0 * sev - 1.0) * tri
        values[idx, col(f"rate_{event.wheel}")] *= 1.0 - 0.9 * tri
        osc = np.sin(2.0 * np.pi * 1.5 * tau + np.pi / 6.0)
        values[idx, col(_bogie_channel(event.wheel))] += 0.05 * sev * tri * osc
        values[idx, col(_diff_channel(event.wheel))] += 0.03 * sev * tri * osc
    return TelemetryStream(t=stream.t.copy(), sol=stream.sol.copy(), values=values)


def make_dataset(
    train_s: float,
    test_s: float,
    events: list[AnomalyEvent],
    seed: int,
    profile: NominalProfile | None = None,
) -> tuple[TelemetryStream, LabeledStream]:
    """Clean training stream plus a labeled test stream with injected events.

    Every sub-stream and injection draws from a child of the given seed, so
    train and test never share noise and the whole dataset is reproducible.
    """
    if profile is None:
        profile = NominalProfile(duration_s=train_s)
    else:
        profile = dataclasses.replace(profile, duration_s=train_s)
    events = sorted(events, key=lambda e: e.t0)
    _check_events(events, 0.0, test_s)
    children = np.random.SeedSequence(seed).spawn(2 + len(events))
    train = generate_nominal(profile, children[0])
    test_profile = dataclasses.replace(profile, duration_s=test_s, sol=profile.sol + 1)
    test = generate_nominal(test_profile, children[1])
    for i, ev in enumerate(events):
        test = inject(test, ev, children[2 + i])
    return train, LabeledStream(stream=test, events=tuple(events))


def plan_events(mix: str, test_s: float, seed: int, severity: float = 1.0,
                margin_s: float = 10.0) -> list[AnomalyEvent]:
    """Expand an event-mix string into non-overlapping scheduled events.

    The string is comma-separated `<kind><count>` tokens, e.g.
    "rockdrop10,mtsc10,wheelie10,highslip5,intenseterrain5", or "mixedN" to
    cycle through all five kinds, or "none". Events are shuffled, placed in
    equal slots across the usable span with seeded jitter, and assigned
    wheels round-robin.
    """
    kinds = _parse_event_mix(mix)
    if not kinds:
        return []
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    usable = test_s - 2.0 * margin_s
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
        t0 = margin_s + i * slot + rng.uniform(0.0, slack)
        wheel = None
        if kind in WHEEL_KINDS:
            wheel = WHEELS[wheel_cycle % len(WHEELS)]
            wheel_cycle += 1
        events.append(AnomalyEvent(kind=kind, t0=float(t0), wheel=wheel, severity=severity))
    return events


def _parse_event_mix(mix: str) -> list[str]:
    lookup = {k.lower(): k for k in EVENT_KINDS}
    mix = mix.strip().lower()
    if mix in ("", "none", "0"):
        return []
    kinds: list[str] = []
    for token in mix.split(","):
        token = token.strip()
        name = token.rstrip("0123456789")
        count = token[len(name):]
        count = int(count) if count else 1
        if name == "mixed":
            kinds.extend(EVENT_KINDS[i % len(EVENT_KINDS)] for i in range(count))
        elif name in lookup:
            kinds.extend([lookup[name]] * count)
        else:
            raise DataError(f"unknown event token {token!r}")
    return kinds


def write_labels(events, path: str | Path) -> None:
    doc = [
        {"kind": e.kind, "t0": e.t0, "duration": e.duration,
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
        if not isinstance(e, dict):
            raise DataError(f"{where}: expected an object")
        fields = dict(
            kind=get_field(e, "kind", str, where, DataError),
            t0=get_field(e, "t0", float, where, DataError),
            duration_s=get_field(e, "duration", float, where, DataError),
            wheel=e.get("wheel"),
            severity=get_field(e, "severity", float, where, DataError) if "severity" in e else 1.0,
        )
        try:
            events.append(AnomalyEvent(**fields))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return events
