"""Rolling-window sampling, the seven window statistics, and min-max scaling.

Windows are 4 s with a 1 s stride at 8 Hz (32 frames, 8-frame hop). Each of
the 46 derived channels contributes seven statistics, giving the 322-feature
"prime" vector; the "refined" variant masks out the 21 acceleration features,
leaving 301. Feature order is fixed: index = channel_index * 7 + stat_index.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .derive import DERIVED_CHANNELS, DerivedStream, channel_display, derive_values
from .errors import (ArtifactError, DataError, list_of, read_fields, read_json, strict_float,
                     strict_str)
from .telemetry import SAMPLE_RATE_HZ, TelemetryStream, is_frame_aligned

#: Statistic names in canonical order. `index = channel*7 + stat` depends on it.
STATS = ("mean", "std", "kurt", "skew", "min", "max", "median")

PRIME = "prime"
REFINED = "refined"
#: Channels excluded from the refined variant (acceleration statistics).
REFINED_EXCLUDED_CHANNELS = ("accel_X", "accel_Y", "accel_Z")

N_PRIME_FEATURES = len(DERIVED_CHANNELS) * len(STATS)  # 322
N_REFINED_FEATURES = N_PRIME_FEATURES - len(REFINED_EXCLUDED_CHANNELS) * len(STATS)  # 301

#: Windows per _stats_block call in feature_matrix. Its temporaries are sized
#: for one block, not for the drive, and each window's arithmetic is the same.
STATS_BLOCK_WINDOWS = 64


@dataclass(frozen=True)
class WindowSpec:
    """Rolling-window geometry; both lengths must be whole frame counts."""

    window_s: float = 4.0
    stride_s: float = 1.0

    def __post_init__(self):
        for name in ("window_s", "stride_s"):
            if not is_frame_aligned(getattr(self, name)):
                raise DataError(f"{name} is {getattr(self, name)}, but window and stride "
                                "must be whole frame counts at 8 Hz")
        if self.window_frames < 2:
            raise DataError("window_s must cover at least 2 frames")
        if self.stride_frames < 1:
            raise DataError("stride_s must cover at least 1 frame")

    @property
    def window_frames(self) -> int:
        return round(self.window_s * SAMPLE_RATE_HZ)

    @property
    def stride_frames(self) -> int:
        return round(self.stride_s * SAMPLE_RATE_HZ)


@dataclass(frozen=True)
class FeatureId:
    """One scalar feature: a statistic of one derived channel."""

    channel: str
    stat: str

    @property
    def index(self) -> int:
        return DERIVED_CHANNELS.index(self.channel) * len(STATS) + STATS.index(self.stat)

    def __str__(self) -> str:
        return f"{self.stat}({channel_display(self.channel)})"


def _all_feature_ids() -> tuple[FeatureId, ...]:
    return tuple(
        FeatureId(channel=ch, stat=st) for ch in DERIVED_CHANNELS for st in STATS
    )


@dataclass(frozen=True)
class FeatureMask:
    """Ordered selection of features defining the prime or refined input space."""

    variant: str
    kept: tuple[FeatureId, ...]
    indices: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.kept)

    def names(self) -> list[str]:
        return [str(f) for f in self.kept]


@functools.cache
def feature_mask(variant: str) -> FeatureMask:
    """The canonical mask for a variant ("prime" keeps all 322 features).

    Built once per variant and shared: the mask is frozen and its indices read-only.
    """
    ids = _all_feature_ids()
    if variant == PRIME:
        kept = ids
    elif variant == REFINED:
        kept = tuple(f for f in ids if f.channel not in REFINED_EXCLUDED_CHANNELS)
    else:
        raise DataError(f"unknown variant {variant!r}; expected {PRIME!r} or {REFINED!r}")
    indices = np.array([f.index for f in kept], dtype=np.intp)
    indices.setflags(write=False)
    return FeatureMask(variant=variant, kept=kept, indices=indices)


def variant_for_length(n: int) -> str:
    if n == N_PRIME_FEATURES:
        return PRIME
    if n == N_REFINED_FEATURES:
        return REFINED
    raise DataError(f"no variant has {n} features")


def _windows(values: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """(n_windows, frames, channels) strided view of every window in (n, channels) frames.

    A view, no copy until the statistics, so frames sliced from one array keep its strides.
    """
    view = sliding_window_view(values, spec.window_frames, axis=0)[::spec.stride_frames]
    return np.swapaxes(view, 1, 2)


def _window_starts(n: int, spec: WindowSpec) -> np.ndarray:
    """First frame of every complete window of an n-frame stream."""
    return np.arange(0, n - spec.window_frames + 1, spec.stride_frames)


def window_arrays(
    stream: DerivedStream, spec: WindowSpec = WindowSpec()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized windowing: (n, frames, 46) data plus per-window start_t and sol."""
    if len(stream) < spec.window_frames:
        return (np.empty((0, spec.window_frames, stream.values.shape[1])), np.empty(0),
                np.empty(0, dtype=np.int64))
    starts = _window_starts(len(stream), spec)
    return _windows(stream.values, spec), stream.t[starts], stream.sol[starts]


def _stats_block(data: np.ndarray) -> np.ndarray:
    """Seven statistics along the frame axis of (n, frames, channels) data.

    Returns (n, channels, 7) in STATS order. Uses population (biased)
    moments; skew and excess kurtosis of a constant column are 0 by
    definition, with constancy detected exactly (min == max, or a second
    moment that is exactly zero).
    """
    x = np.swapaxes(data, 1, 2)  # (n, channels, frames)
    # min, max and median from one sort; the sorted copy is freed before the
    # moment temporaries are allocated, which keeps the peak memory down
    s = np.sort(x, axis=-1)
    h = x.shape[-1] // 2
    mn = s[..., 0].copy()
    mx = s[..., -1].copy()
    med = s[..., h].copy() if x.shape[-1] % 2 else (s[..., h - 1] + s[..., h]) / 2
    del s
    nan = np.isnan(mx)  # a NaN sorts last; min and median propagate it, as max does
    mn[nan] = med[nan] = mx[nan]
    # the moments stay on the strided view: a contiguous copy would change the
    # summation order of the mean
    mean = x.mean(axis=-1)
    d = x - mean[..., None]
    m2 = np.mean(d * d, axis=-1)
    # m2 == 0 also catches underflowed deviations of denormal-scale columns
    const = (mn == mx) | (m2 == 0.0)
    std = np.where(const, 0.0, np.sqrt(m2))
    # higher moments of the std-normalized deviations: same as m3/m2^1.5 and
    # m4/m2^2 but immune to underflow since |d/std| <= sqrt(frames)
    z = d / np.where(const, 1.0, std)[..., None]
    z3 = z * z * z
    skew = np.where(const, 0.0, np.mean(z3, axis=-1))
    kurt = np.where(const, 0.0, np.mean(z3 * z, axis=-1) - 3.0)
    return np.stack([mean, std, kurt, skew, mn, mx, med], axis=-1)


def stats7(samples) -> np.ndarray:
    """The seven statistics of one sample vector, in canonical order."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("stats7 requires at least 2 samples")
    return _stats_block(x.reshape(1, -1, 1))[0, 0]


def feature_matrix(
    stream: TelemetryStream | DerivedStream, spec: WindowSpec, mask: FeatureMask
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Featurize every window of a stream, STATS_BLOCK_WINDOWS windows at a time.

    Returns (X, start_t, sol) with X of shape (n_windows, len(mask)); row i
    holds the masked statistics of the window starting at start_t[i]. Handed
    raw telemetry, it derives each block's frames as it reaches them, so the
    drive's 46 derived channels are never held whole; X has the same bits.
    """
    w, s = spec.window_frames, spec.stride_frames
    starts = _window_starts(len(stream), spec)
    X = np.empty((len(starts), len(mask)))
    for lo in range(0, len(starts), STATS_BLOCK_WINDOWS):
        hi = min(lo + STATS_BLOCK_WINDOWS, len(starts))
        frames = stream.values[lo * s:(hi - 1) * s + w]
        if isinstance(stream, TelemetryStream):
            frames = derive_values(frames)
        # windows of one (frames, 46) array, never a copy, so each window's sums keep
        # the order they have in the whole derived stream
        block = _stats_block(_windows(frames, spec))
        X[lo:hi] = block.reshape(hi - lo, -1)[:, mask.indices]
    return X, stream.t[starts], stream.sol[starts]


#: scaler.json: field -> how it is read back; "constant" is written for people only.
SCALER_FIELDS = {"variant": strict_str, "min": list_of(strict_float),
                 "max": list_of(strict_float)}


class MinMaxScaler:
    """Per-feature min-max normalization fitted on the training windows.

    transform maps training features into [0, 1] but does NOT clamp: unseen
    data may map outside that range, which is exactly how anomalies show up.
    Features constant over the fitting set map to 0.0.
    """

    def __init__(self, variant: str, min_: np.ndarray, max_: np.ndarray):
        min_ = np.asarray(min_, dtype=np.float64)
        max_ = np.asarray(max_, dtype=np.float64)
        if min_.shape != max_.shape or min_.ndim != 1:
            raise DataError("scaler min/max must be 1-D arrays of equal length")
        for name, values in (("min", min_), ("max", max_)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise DataError(f"scaler {name} is not finite at feature {int(bad[0])}")
        if np.any(max_ < min_):
            raise DataError("scaler max must be >= min per feature")
        self.variant = variant
        self.min_ = min_
        self.max_ = max_
        self.constant_ = max_ == min_

    def __len__(self) -> int:
        return len(self.min_)

    @property
    def constant_features(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.constant_)]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """(x - min) / (max - min) per feature; accepts (d,) or (n, d)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != len(self):
            raise DataError(f"expected {len(self)} features, got {x.shape[-1]}")
        span = np.where(self.constant_, 1.0, self.max_ - self.min_)
        # one output array, divided in place: no temporary as large as x
        out = np.subtract(x, self.min_)
        out /= span
        if np.any(self.constant_):
            out[..., self.constant_] = 0.0
        return out

    def save(self, path: str | Path) -> None:
        doc = {"variant": self.variant, "min": self.min_.tolist(), "max": self.max_.tolist(),
               "constant": self.constant_features}
        Path(path).write_text(json.dumps(doc) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MinMaxScaler":
        doc = read_fields(read_json(path), SCALER_FIELDS, str(path))
        try:
            return cls(doc["variant"], doc["min"], doc["max"])
        except DataError as exc:
            raise ArtifactError(f"{path}: {exc}") from exc


def fit_scaler(X: np.ndarray, variant: str | None = None) -> MinMaxScaler:
    """Fit per-feature min/max over an (n, d) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("scaler fitting requires at least 2 samples")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values in fitting set")
    if variant is None:
        variant = variant_for_length(X.shape[1])
    return MinMaxScaler(variant, X.min(axis=0), X.max(axis=0))
