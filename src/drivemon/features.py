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
from .errors import (ArtifactError, DataError, PipelineError, list_of, read_fields, read_json,
                     strict_float, strict_str)
from .parallel import BlockError, block_bounds, block_empty, named, run_blocks
from .telemetry import (CSV_HEADER, SAMPLE_RATE_HZ, TelemetryStream, _Body, _check_frames,
                        is_frame_aligned, read_stream)

#: Statistic names in canonical order. `index = channel*7 + stat` depends on it.
STATS = ("mean", "std", "kurt", "skew", "min", "max", "median")

PRIME = "prime"
REFINED = "refined"
#: Channels excluded from the refined variant (acceleration statistics).
REFINED_EXCLUDED_CHANNELS = ("accel_X", "accel_Y", "accel_Z")

N_PRIME_FEATURES = len(DERIVED_CHANNELS) * len(STATS)  # 322
N_REFINED_FEATURES = N_PRIME_FEATURES - len(REFINED_EXCLUDED_CHANNELS) * len(STATS)  # 301

#: Windows per _stats_block call in _featurize_windows. Its temporaries are sized
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
    ids = tuple(FeatureId(channel=ch, stat=st) for ch in DERIVED_CHANNELS for st in STATS)
    if variant == PRIME:
        kept = ids
    elif variant == REFINED:
        kept = tuple(f for f in ids if f.channel not in REFINED_EXCLUDED_CHANNELS)
    else:
        raise DataError(f"unknown variant {variant!r}; expected {PRIME!r} or {REFINED!r}")
    indices = np.array([f.index for f in kept], dtype=np.intp)
    indices.setflags(write=False)
    return FeatureMask(variant=variant, kept=kept, indices=indices)


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


def _stats_scratch(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_stats_block's two buffers, laid out as np.sort's copy of swapaxes(data, 1, 2) and
    `x - mean` are: a mean sums in memory order, so another layout changes its bits."""
    x = np.swapaxes(data, 1, 2)
    return np.empty_like(x), np.empty_like(x)


def _stats_block(data: np.ndarray, scratch: tuple | None = None) -> np.ndarray:
    """Seven statistics along the frame axis of (n, frames, channels) data.

    Returns (n, channels, 7) in STATS order. Uses population (biased)
    moments; skew and excess kurtosis of a constant column are 0 by
    definition, with constancy detected exactly (min == max, or a second
    moment that is exactly zero). The sort, the deviations and their powers
    are written into `scratch`, _stats_scratch(data), made here when not given.
    """
    x = np.swapaxes(data, 1, 2)  # (n, channels, frames)
    a, b = _stats_scratch(data) if scratch is None else scratch
    # min, max and median from one sort, in place in a copy of x
    np.copyto(a, x)
    a.sort(axis=-1)
    h = x.shape[-1] // 2
    mn = a[..., 0].copy()
    mx = a[..., -1].copy()
    med = a[..., h].copy() if x.shape[-1] % 2 else (a[..., h - 1] + a[..., h]) / 2
    nan = np.isnan(mx)  # a NaN sorts last; min and median propagate it, as max does
    mn[nan] = med[nan] = mx[nan]
    # the moments stay on the strided view: a contiguous copy would change the
    # summation order of the mean
    mean = x.mean(axis=-1)
    d = np.subtract(x, mean[..., None], out=a)
    m2 = np.multiply(d, d, out=b).mean(axis=-1)
    # m2 == 0 also catches underflowed deviations of denormal-scale columns
    const = (mn == mx) | (m2 == 0.0)
    std = np.where(const, 0.0, np.sqrt(m2))
    # higher moments of the std-normalized deviations: same as m3/m2^1.5 and
    # m4/m2^2 but immune to underflow since |d/std| <= sqrt(frames)
    z = np.divide(d, np.where(const, 1.0, std)[..., None], out=a)
    z3 = np.multiply(z, z, out=b)
    z3 *= z
    skew = np.where(const, 0.0, z3.mean(axis=-1))
    z3 *= z
    kurt = np.where(const, 0.0, z3.mean(axis=-1) - 3.0)
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
    starts = _window_starts(len(stream), spec)
    X = np.empty((len(starts), len(mask)))
    raw = isinstance(stream, TelemetryStream)
    _featurize_windows(stream.values, raw, X, 0, len(starts), spec, mask)
    return X, stream.t[starts], stream.sol[starts]


def _featurize_windows(frames: np.ndarray, raw: bool, X: np.ndarray, first: int, last: int,
                       spec: WindowSpec, mask: FeatureMask) -> None:
    """Rows first:last of X, from frames whose row 0 is window first's first frame (raw
    telemetry when raw, else derived), STATS_BLOCK_WINDOWS windows at a time from
    window first, a multiple of it."""
    w, s = spec.window_frames, spec.stride_frames
    scratch = None  # _stats_block's buffers, made by the first block and a shorter last one
    for lo in range(first, last, STATS_BLOCK_WINDOWS):
        hi = min(lo + STATS_BLOCK_WINDOWS, last)
        block = frames[(lo - first) * s:(hi - 1 - first) * s + w]
        if raw:
            block = derive_values(block)
        # windows of one (frames, 46) array, never a copy, so each window's sums keep
        # the order they have in the whole derived stream
        windows = _windows(block, spec)
        if scratch is None or len(scratch[0]) != hi - lo:
            scratch = _stats_scratch(windows)
        stats = _stats_block(windows, scratch)
        # mode="clip" writes straight into X; the default mode copies through a buffer
        np.take(stats.reshape(hi - lo, -1), mask.indices, axis=1, out=X[lo:hi], mode="clip")


def featurize_csv(path: str | Path, spec: WindowSpec, mask: FeatureMask,
                  scaler: MinMaxScaler | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """feature_matrix(read_stream(path), spec, mask), scaled by scaler when given, with
    its bits and read_stream's errors, in one fork round.

    The rows are cut where a run of whole STATS_BLOCK_WINDOWS blocks of windows
    starts, one run per process (`block_bounds` over the windows). Each process
    parses its rows and the max(window_frames - stride_frames, 1) after them:
    those its last windows reach, and at least the next block's first, so that
    the step into it is checked too. It then checks them as TelemetryStream
    checks its arrays, featurizes its windows into X, notes their first t and
    sol and its first non-finite feature, and scales its rows of X in place.
    Only X, the window times and the first non-finite features are shared.

    Bad data in any process raises the error read_stream(path) raises, found by
    re-reading the file; a child that fails otherwise raises an OSError naming
    its phase: "failed reading <path>: reader of rows a-b ..." or "failed
    featurizing <path>: featurizer of windows a-b ...". Last, a non-finite
    feature, which overflowing telemetry gives, raises a DataError naming the
    first such window and feature.
    """
    name, path = path, Path(path)  # the non-finite error names the file as given
    # transform's own check, made here: a child's error would read as a bad row
    if scaler is not None and len(scaler) != len(mask):
        raise DataError(f"expected {len(scaler)} features, got {len(mask)}")
    body = _Body(path, CSV_HEADER)
    n, w, s = body.lines, spec.window_frames, spec.stride_frames
    if n == 0:
        raise _stream_fault(path)  # no process runs to find the empty stream
    n_windows, d = len(_window_starts(n, spec)), len(mask)
    # each process's first row is the first frame of its first window
    bounds = sorted({lo * s for lo in block_bounds(n_windows, n, STATS_BLOCK_WINDOWS)[:-1]}
                    | {0, n})
    X = block_empty((n_windows, d), bounds)
    times = block_empty((2, n_windows), bounds)  # each window's first t and sol
    # each process's first non-finite element of X, as a flat index, or inf
    first_bad = block_empty((len(bounds) - 1,), bounds)
    parsed = {}  # each block's rows and the rows after it that its windows reach

    def windows(lo: int, hi: int) -> tuple[int, int]:
        return lo // s, n_windows if hi == n else hi // s

    def read(lo: int, hi: int) -> None:
        parsed[lo] = body.parse(lo, min(n, hi + max(w - s, 1)))

    def featurize(lo: int, hi: int) -> None:
        table = parsed.pop(lo)
        _check_frames(table[:, 0], table[:, 1], table[:, 2:])
        first, last = windows(lo, hi)
        times[:, first:last] = table[:(last - first) * s:s, :2].T
        rows = X[first:last]
        with np.errstate(over="ignore", invalid="ignore"):
            _featurize_windows(table[:, 2:], True, X, first, last, spec, mask)
            # a finite sum needs every element finite, and costs no array
            bad = [] if np.isfinite(rows.sum()) else np.flatnonzero(~np.isfinite(rows))
        first_bad[bounds.index(lo)] = first * d + bad[0] if len(bad) else np.inf
        if scaler is not None and not len(bad):
            scaler.transform(rows, out=rows)

    featurizer = named("featurizer of windows")
    try:
        run_blocks(bounds, [(named("reader of rows"), read),
                            (lambda lo, hi: featurizer(*windows(lo, hi)), featurize)])
    except DataError:
        raise _stream_fault(path) from None
    except BlockError as exc:
        raise OSError(f"failed {('reading', 'featurizing')[exc.phase]} {path}: "
                      f"{exc}") from exc
    start_t = times[0]
    bad = first_bad.min(initial=np.inf)  # the lowest process's, so the lowest window's
    if np.isfinite(bad):
        window, feature = divmod(int(bad), d)
        raise DataError(f"{name}: window {window} (start_t {float(start_t[window])}) has "
                        f"non-finite {mask.names()[feature]}; the telemetry overflows")
    return X, start_t, times[1].astype(np.int64)


def _stream_fault(path: Path) -> PipelineError:
    """The error read_stream(path) raises, for a file in which a process found bad data.

    Re-reads the whole file in this process, as _row_fault does to name a bad row.
    """
    try:
        read_stream(path)
    except PipelineError as exc:
        return exc
    return DataError(f"{path}: unparsable table")


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

    def transform(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - min) / (max - min) per feature; accepts (d,) or (n, d). Written into
        out when given, which may be x itself."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != len(self):
            raise DataError(f"expected {len(self)} features, got {x.shape[-1]}")
        span = np.where(self.constant_, 1.0, self.max_ - self.min_)
        # one output array, divided in place: no temporary as large as x
        out = np.subtract(x, self.min_, out=out)
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


def fit_scaler(X: np.ndarray, variant: str) -> MinMaxScaler:
    """Fit per-feature min/max over an (n, d) feature matrix of the given variant."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("scaler fitting requires at least 2 samples")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values in fitting set")
    return MinMaxScaler(variant, X.min(axis=0), X.max(axis=0))
