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

from .errors import (ArtifactError, DataError, PipelineError, list_of, read_fields, read_json,
                     strict_float, strict_int, strict_str)
from .features import feature_mask
from .net import AutoencoderModel, reconstruct
from .telemetry import SOL_LIMIT, read_table

#: Contributors below this fraction of the total score are not reported.
CONTRIBUTOR_FLOOR = 0.10
MAX_CONTRIBUTORS = 3

#: Rows per reconstruct call in score_matrix. A matmul over fewer rows can round some
#: rows differently, so a drive of more windows than this scores within an ulp or two of
#: one whole-matrix call, not bit for bit.
SCORE_BLOCK_ROWS = 2048


#: threshold.json: field -> how it is read back.
THRESHOLD_FIELDS = {"percentile": strict_float, "value": strict_float, "n": strict_int}


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
        doc = read_fields(read_json(path), THRESHOLD_FIELDS, str(path))
        if not 0.0 < doc["percentile"] < 100.0:
            raise ArtifactError(f"{path}: field 'percentile' is {doc['percentile']}, "
                                "outside (0, 100)")
        if doc["n"] < 1:
            raise ArtifactError(f"{path}: field 'n' is {doc['n']}, below 1")
        return cls(percentile=doc["percentile"], value=doc["value"], calibration_size=doc["n"])


@dataclass(frozen=True)
class FlagRecord:
    """One flagged window with its top contributing features."""

    sol: int
    start_t: float
    score: float
    threshold: float
    contributors: tuple[tuple[str, float], ...]  # (feature name, |e_i|), descending


def score_matrix(model: AutoencoderModel, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score scaled feature rows; returns (scores (n,), residuals (n, d)).

    Xs is MinMaxScaler.transform's output for a scaler that agrees with the
    model, as load_bundle checks; the raw rows need not be kept alive. Xs is
    overwritten: the residuals returned are Xs itself, written
    SCORE_BLOCK_ROWS rows at a time, so scoring holds block-sized buffers
    beside it however many rows there are.
    """
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    scores = np.empty(len(Xs))
    for lo in range(0, len(Xs), SCORE_BLOCK_ROWS):
        block = Xs[lo:lo + SCORE_BLOCK_ROWS]
        np.subtract(block, reconstruct(model, block), out=block)
        # each row sums on its own, so the block's 1-norms are the whole matrix's
        scores[lo:lo + SCORE_BLOCK_ROWS] = np.sum(np.abs(block), axis=1)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ArtifactError(
            f"non-finite anomaly score at window {int(bad[0])}; check the model and scaler"
        )
    return scores, Xs


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
    and of start_t and sol, as feature_matrix returns them, is window i. A record names at
    most MAX_CONTRIBUTORS features by residual magnitude, each at least CONTRIBUTOR_FLOOR
    of the score but the largest, which is always kept; ties go to the lower index.
    """
    names = feature_mask(variant).names()
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if np.shape(residuals) != (n, len(names)) or len(start_t) != n or len(sol) != n:
        raise DataError(
            f"flag inputs are misaligned: {n} scores, residuals {np.shape(residuals)}, "
            f"{len(start_t)} start times, {len(sol)} sols for {len(names)} {variant} features"
        )
    flagged = np.flatnonzero(scores > threshold.value)
    # every flagged row at once: argmax takes the lower index of a tie, and each pick is
    # masked out (every magnitude is >= 0) before the next
    mags = np.abs(np.asarray(residuals, dtype=np.float64)[flagged])
    floor = CONTRIBUTOR_FLOOR * scores[flagged]
    rows = np.arange(len(flagged))
    ranks = []
    for rank in range(min(MAX_CONTRIBUTORS, len(names))):
        top = np.argmax(mags, axis=1)
        value = mags[rows, top]
        kept = (value >= floor) | (rank == 0)
        ranks.append(zip(top.tolist(), value.tolist(), kept.tolist()))
        mags[rows, top] = -1.0
    return [
        FlagRecord(sol=int(s), start_t=float(t), score=a, threshold=threshold.value,
                   contributors=tuple((names[i], m) for i, m, kept in picks if kept))
        for s, t, a, picks in zip(np.asarray(sol)[flagged].tolist(),
                                  np.asarray(start_t)[flagged].tolist(),
                                  scores[flagged].tolist(), zip(*ranks))
    ]


REPORT_COLUMNS = ("sol", "start_t", "score", "threshold",
                  "feature_1", "e_1", "feature_2", "e_2", "feature_3", "e_3")


def write_report_csv(records: list[FlagRecord], path: str | Path) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in records:
            row = [r.sol, repr(r.start_t), repr(r.score), repr(r.threshold)]
            for name, mag in r.contributors[:MAX_CONTRIBUTORS]:
                row += [name, repr(mag)]
            writer.writerow(row + ["", ""] * (MAX_CONTRIBUTORS - len(r.contributors)))


#: A report.json record and each of its contributors: field -> how it is read back. The
#: contributors are read one by one, so that their errors name the record.
REPORT_FIELDS = {"sol": strict_int, "start_t": strict_float, "score": strict_float,
                 "threshold": strict_float, "contributors": list_of(lambda item: item)}
CONTRIBUTOR_FIELDS = {"feature": strict_str, "magnitude": strict_float}


def write_report_json(records: list[FlagRecord], path: str | Path) -> None:
    """The records as json.dumps(doc, indent=2) writes them, built from each scalar's
    text: that indent takes json's pure-Python encoder, several times slower."""
    names = {}  # each feature name's JSON string, encoded once
    items = []
    for r in records:
        contributors = []
        for name, magnitude in r.contributors:
            if name not in names:
                names[name] = json.dumps(name)
            contributors.append(f'      {{\n        "feature": {names[name]},\n'
                                f'        "magnitude": {_json_scalar(magnitude)}\n      }}')
        items.append(f'  {{\n    "sol": {_json_scalar(r.sol)},\n'
                     f'    "start_t": {_json_scalar(r.start_t)},\n'
                     f'    "score": {_json_scalar(r.score)},\n'
                     f'    "threshold": {_json_scalar(r.threshold)},\n'
                     f'    "contributors": {_json_list(contributors, "    ")}\n  }}')
    Path(path).write_text(_json_list(items, "") + "\n")


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already indented items, closed at indent, as json.dumps lays it out."""
    return "[\n" + ",\n".join(items) + f"\n{indent}]" if items else "[]"


def _json_scalar(x) -> str:
    """json.dumps(x): a finite float's repr directly, the one json writes, since a
    json.dumps call costs four times as much."""
    return float.__repr__(x) if type(x) is float and math.isfinite(x) else json.dumps(x)


def read_report_json(path: str | Path) -> list[FlagRecord]:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ArtifactError(f"{path}: expected a list of flag records")
    records = []
    for i, r in enumerate(doc):
        where = f"{path}: record {i}"
        r = read_fields(r, REPORT_FIELDS, where)
        contributors = [read_fields(c, CONTRIBUTOR_FIELDS, where) for c in r["contributors"]]
        r["contributors"] = tuple((c["feature"], c["magnitude"]) for c in contributors)
        records.append(FlagRecord(**r))
    return records


SCORES_HEADER = ("sol", "start_t", "score")


def write_scores_csv(path: str | Path, scores: np.ndarray, start_t, sol) -> None:
    """Per-window score series, for score-vs-time plots with external tools."""
    # Python ints and floats from tolist format faster than numpy scalars
    columns = (np.asarray(sol).tolist(), np.asarray(start_t, dtype=np.float64).tolist(),
               np.asarray(scores, dtype=np.float64).tolist())
    with open(Path(path), "w", newline="") as fh:
        fh.write(",".join(SCORES_HEADER) + "\n")
        fh.writelines(f"{int(s)},{t!r},{a!r}\n" for s, t, a in zip(*columns, strict=True))


def read_scores_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, start_t, sol) of a scores CSV, read by telemetry.read_table; every fault,
    an empty table included, raises ArtifactError naming the 0-based data row."""
    try:
        table = read_table(path, SCORES_HEADER)
    except PipelineError as exc:
        raise ArtifactError(str(exc)) from None
    if len(table) == 0:
        raise ArtifactError(f"{path}: empty table")
    sol, start_t, scores = np.ascontiguousarray(table.T)
    ok = np.stack([(sol == np.floor(sol)) & (np.abs(sol) < SOL_LIMIT),
                   np.isfinite(start_t), np.isfinite(scores)], axis=1)
    bad = np.argwhere(~ok)
    if len(bad):
        row, column = bad[0]
        raise ArtifactError(f"{path}: row {row}: bad value in field {SCORES_HEADER[column]!r}")
    return scores, start_t, sol.astype(np.int64)
