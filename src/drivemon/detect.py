"""Reconstruction-error scoring, percentile calibration, and anomaly flagging.

A window's anomaly score is the 1-norm of the residual between its scaled
feature vector and the autoencoder's reconstruction. The flagging threshold
is the nearest-rank percentile (default 99.9) of the scores observed on the
training windows; a window is flagged only when its score strictly exceeds
the threshold.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ArtifactError, DataError, get_field, read_json, strict_float, strict_int
from .features import feature_mask
from .net import AutoencoderModel, reconstruct

#: Contributors below this fraction of the total score are not reported.
CONTRIBUTOR_FLOOR = 0.10
MAX_CONTRIBUTORS = 3


@dataclass(frozen=True)
class Threshold:
    percentile: float
    value: float
    calibration_size: int

    def save(self, path: str | Path) -> None:
        doc = {"percentile": self.percentile, "value": self.value, "n": self.calibration_size}
        Path(path).write_text(json.dumps(doc) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Threshold":
        doc, where = read_json(path), str(path)
        value = get_field(doc, "value", strict_float, where)
        percentile = get_field(doc, "percentile", strict_float, where)
        if not 0.0 < percentile < 100.0:
            raise ArtifactError(f"{where}: field 'percentile' is {percentile}, "
                                "outside (0, 100)")
        n = get_field(doc, "n", strict_int, where)
        if n < 1:
            raise ArtifactError(f"{where}: field 'n' is {n}, below 1")
        return cls(percentile=percentile, value=value, calibration_size=n)


@dataclass(frozen=True)
class FlagRecord:
    """One flagged window with its top contributing features."""

    sol: int
    start_t: float
    score: float
    threshold: float
    contributors: tuple[tuple[str, float], ...]  # (feature name, |e_i|), descending


def score_matrix(model: AutoencoderModel, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score scaled feature rows at once; returns (scores (n,), residuals (n, d)).

    Xs is MinMaxScaler.transform's output for a scaler that agrees with the
    model, as load_bundle checks; the raw rows need not be kept alive.
    """
    Xs = np.atleast_2d(Xs)
    # the residual overwrites the reconstruction, so no third (n, d) array is made
    X_hat = reconstruct(model, Xs)
    E = np.subtract(Xs, X_hat, out=X_hat)
    scores = np.sum(np.abs(E), axis=1)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ArtifactError(
            f"non-finite anomaly score at window {int(bad[0])}; check the model and scaler"
        )
    return scores, E


def nearest_rank(n: int, percentile: float) -> int:
    """1-based nearest-rank index: ceil(p/100 * n), computed exactly.

    Exact rational arithmetic avoids float spillover (0.999 * 1000 rounding
    up to rank 1000 instead of 999).
    """
    if not 0.0 < percentile < 100.0:
        raise DataError(f"percentile must be in (0, 100); got {percentile}")
    k = Fraction(str(percentile)) * n / 100
    return max(1, math.ceil(k))


def calibrate(scores, percentile: float = 99.9) -> Threshold:
    """Nearest-rank percentile of the calibration scores.

    Requires at least 100 scores when percentile >= 99, since extreme
    percentiles of tiny samples are meaningless.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise DataError("calibration requires a non-empty 1-D score collection")
    bad = np.flatnonzero(~np.isfinite(arr))
    if len(bad):
        raise DataError(f"calibration score {int(bad[0])} is {arr[bad[0]]}, not finite")
    if percentile >= 99.0 and len(arr) < 100:
        raise DataError(
            f"calibration at percentile {percentile} requires >= 100 scores; got {len(arr)}"
        )
    rank = nearest_rank(len(arr), percentile)
    value = float(np.sort(arr)[rank - 1])
    return Threshold(percentile=float(percentile), value=value, calibration_size=len(arr))


def top_contributors(
    e: np.ndarray, a: float, variant: str, names: list[str] | None = None
) -> tuple[tuple[str, float], ...]:
    """Top features by residual magnitude, at most 3, each >= 10% of the score.

    The largest contributor is always kept so a flag is never unexplained.
    Ties resolve to the lower feature index.
    """
    mags = np.abs(np.asarray(e, dtype=np.float64))
    order = np.argsort(-mags, kind="stable")[:MAX_CONTRIBUTORS]
    if names is None:
        names = feature_mask(variant).names()
    picked = []
    for rank, idx in enumerate(order):
        if rank > 0 and mags[idx] < CONTRIBUTOR_FLOOR * a:
            break
        picked.append((names[int(idx)], float(mags[idx])))
    return tuple(picked)


def flag(
    scores: np.ndarray,
    residuals: np.ndarray,
    start_t: np.ndarray,
    sol: np.ndarray,
    threshold: Threshold,
    variant: str,
) -> list[FlagRecord]:
    """Emit a record for every window whose score strictly exceeds the threshold.

    Row i of scores (n,) and residuals (n, d), as score_matrix returns them,
    and of start_t and sol, as feature_matrix returns them, is window i.
    """
    names = feature_mask(variant).names()
    n = len(scores)
    if np.shape(residuals) != (n, len(names)) or len(start_t) != n or len(sol) != n:
        raise DataError(
            f"flag inputs are misaligned: {n} scores, residuals {np.shape(residuals)}, "
            f"{len(start_t)} start times, {len(sol)} sols for {len(names)} {variant} features"
        )
    return [
        FlagRecord(
            sol=int(sol[i]), start_t=float(start_t[i]), score=float(scores[i]),
            threshold=threshold.value,
            contributors=top_contributors(residuals[i], float(scores[i]), variant, names),
        )
        for i in np.flatnonzero(np.asarray(scores) > threshold.value)
    ]


REPORT_COLUMNS = ("sol", "start_t", "score", "threshold",
                  "feature_1", "e_1", "feature_2", "e_2", "feature_3", "e_3")


def write_report_csv(records: list[FlagRecord], path: str | Path) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in records:
            row = [r.sol, repr(r.start_t), repr(r.score), repr(r.threshold)]
            for i in range(MAX_CONTRIBUTORS):
                if i < len(r.contributors):
                    name, mag = r.contributors[i]
                    row += [name, repr(mag)]
                else:
                    row += ["", ""]
            writer.writerow(row)


def write_report_json(records: list[FlagRecord], path: str | Path) -> None:
    doc = [
        {
            "sol": r.sol,
            "start_t": r.start_t,
            "score": r.score,
            "threshold": r.threshold,
            "contributors": [{"feature": n, "magnitude": m} for n, m in r.contributors],
        }
        for r in records
    ]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_report_json(path: str | Path) -> list[FlagRecord]:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ArtifactError(f"{path}: expected a list of flag records")
    records = []
    for i, r in enumerate(doc):
        where = f"{path}: record {i}"
        records.append(FlagRecord(
            sol=get_field(r, "sol", strict_int, where),
            start_t=get_field(r, "start_t", strict_float, where),
            score=get_field(r, "score", strict_float, where),
            threshold=get_field(r, "threshold", strict_float, where),
            contributors=tuple(
                (get_field(c, "feature", str, where),
                 get_field(c, "magnitude", strict_float, where))
                for c in get_field(r, "contributors", list, where)
            ),
        ))
    return records


def write_scores_csv(path: str | Path, scores: np.ndarray, start_t, sol) -> None:
    """Per-window score series, for score-vs-time plots with external tools."""
    with open(Path(path), "w", newline="") as fh:
        fh.write("sol,start_t,score\n")
        for i in range(len(scores)):
            fh.write(f"{int(sol[i])},{repr(float(start_t[i]))},{repr(float(scores[i]))}\n")


def _finite_float(v) -> float:
    """A CSV text cell as a finite float."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{v!r} is not finite")
    return x


def read_scores_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, start_t, sol) of a scores CSV; errors number the data rows from 0."""
    sols, starts, vals = [], [], []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sol", "start_t", "score"]:
            raise ArtifactError(f"{path}: unexpected scores header {header}")
        for i, row in enumerate(reader):
            cells = dict(zip(header, row))
            where = f"{path}: row {i}"
            sols.append(get_field(cells, "sol", int, where))
            starts.append(get_field(cells, "start_t", _finite_float, where))
            vals.append(get_field(cells, "score", _finite_float, where))
    return np.asarray(vals), np.asarray(starts), np.asarray(sols, dtype=np.int64)
