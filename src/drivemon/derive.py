"""Computed mobility signals: per-wheel power, current deviation, power deviation.

Each wheel contributes power P = I*U, current deviation CD = |I - mean(I)|
over the six wheels, and power deviation PD = |P - mean(P)|. Added to the 28
sensor channels this yields the 46-channel derived stream that feeds
featurization. Deviations are instantaneous (per frame), and negative powers
from back-driven actuators are kept as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .telemetry import SENSOR_CHANNELS, WHEELS, TelemetryStream

#: Per-wheel signal kinds in canonical order, with display names used in
#: feature labels (e.g. "kurt(PD[LF])").
WHEEL_SIGNALS = (("current", "C"), ("cdev", "CD"), ("rate", "Rate"), ("voltage", "V"),
                 ("power", "P"), ("pdev", "PD"))

#: The 46 derived channels: six signals per wheel in wheel order, then the
#: IMU and suspension channels.
DERIVED_CHANNELS = tuple(
    f"{kind}_{w}" for w in WHEELS for kind, _ in WHEEL_SIGNALS
) + SENSOR_CHANNELS[18:]

N_DERIVED = len(DERIVED_CHANNELS)

_DISPLAY = {}
for _w in WHEELS:
    for _kind, _short in WHEEL_SIGNALS:
        _DISPLAY[f"{_kind}_{_w}"] = f"{_short}[{_w}]"
for _name in SENSOR_CHANNELS[18:]:
    _base, _axis = _name.split("_")
    _DISPLAY[_name] = f"{_base}[{_axis}]"


def channel_display(channel: str) -> str:
    """Short display form of a derived channel, e.g. power_LF -> P[LF]."""
    return _DISPLAY[channel]


def derived_index(channel: str) -> int:
    return DERIVED_CHANNELS.index(channel)


def power(current, voltage):
    """Electrical power of drive actuators (signed; IEEE multiply, elementwise on arrays)."""
    return current * voltage


def mean_over_wheels(values) -> float:
    """Arithmetic mean over the six per-wheel values."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(WHEELS),):
        raise DataError(f"expected {len(WHEELS)} values, got shape {values.shape}")
    return float(np.mean(values))


def deviation(values) -> np.ndarray:
    """Per-wheel absolute deviation from the six-wheel mean, along the last axis.

    Takes one frame (6,) or many (..., 6). Serves both the current deviation
    and the power deviation, which share this form.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1:] != (len(WHEELS),):
        raise DataError(f"expected {len(WHEELS)} values per frame, got shape {values.shape}")
    return np.abs(values - values.mean(axis=-1, keepdims=True))


@dataclass(frozen=True)
class DerivedStream:
    """46-channel stream: sensor channels plus computed power/deviation signals.

    Shares timestamps, sols, and frame count with its source TelemetryStream.
    """

    t: np.ndarray
    sol: np.ndarray
    values: np.ndarray  # (n, 46) in DERIVED_CHANNELS order

    def __post_init__(self):
        if self.values.shape != (len(self.t), N_DERIVED):
            raise DataError(
                f"derived values must have shape (n, {N_DERIVED}); got {self.values.shape}"
            )
        for arr in (self.t, self.sol, self.values):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, derived_index(name)]


def derive_values(raw: np.ndarray) -> np.ndarray:
    """The (n, 46) derived channels of (n, 28) sensor frames, each frame on its own.

    Every value depends on its frame alone, so frames derived a block at a time
    have the bits of the whole stream derived at once.
    """
    currents = raw[:, 0:6]
    rates = raw[:, 6:12]
    voltages = raw[:, 12:18]
    powers = power(currents, voltages)
    out = np.empty((len(raw), N_DERIVED), dtype=np.float64)
    # wheel w's k-th signal in WHEEL_SIGNALS order is column 6*w + k
    for k, signal in enumerate((currents, deviation(currents), rates, voltages, powers,
                                deviation(powers))):
        out[:, k:36:6] = signal
    out[:, 36:] = raw[:, 18:]
    return out


def derive_stream(stream: TelemetryStream) -> DerivedStream:
    """Compute the 18 derived signals and assemble the 46-channel stream."""
    return DerivedStream(t=stream.t, sol=stream.sol, values=derive_values(stream.values))
