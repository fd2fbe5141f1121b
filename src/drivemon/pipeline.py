"""Library stages over one artifact directory: fit, calibrate, detect, evaluate.

Only this module knows the artifact file names and which artifacts must
agree; each format is read and written by its own module (net, features,
detect). Nothing time-dependent is written. Layer functions are
called through their modules, so wrappers installed on them see these calls.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import derive, detect, features, net, synth, telemetry
from .errors import ArtifactError, DataError, get_field, read_json

MODEL_FILE = "model.json"
SCALER_FILE = "scaler.json"
THRESHOLD_FILE = "threshold.json"
REPORT_CSV = "report.csv"
REPORT_JSON = "report.json"
SCORES_FILE = "scores.csv"
METRICS_FILE = "metrics.json"
LOSSES_FILE = "losses.csv"
CALIBRATION_SCORES_FILE = "calibration_scores.csv"
PIPELINE_FILE = "pipeline.json"


def _featurize(data, spec: features.WindowSpec, variant: str):
    """(X, start_t, sol) of a telemetry CSV's complete windows, every feature finite."""
    stream = telemetry.read_stream(data)
    mask = features.feature_mask(variant)
    # huge but finite telemetry can overflow here; the check below reports where
    with np.errstate(over="ignore", invalid="ignore"):
        derived = derive.derive_stream(stream)
        del stream  # the raw channels are all in the derived stream
        X, start_t, sol = features.feature_matrix(derived, spec, mask)
    if X.shape[0] == 0:
        raise DataError(f"{data}: no complete {spec.window_s} s windows in stream")
    bad = np.flatnonzero(~np.isfinite(X))
    if len(bad):
        window, feature = divmod(int(bad[0]), X.shape[1])
        raise DataError(f"{data}: window {window} (start_t {float(start_t[window])}) has "
                        f"non-finite {mask.names()[feature]}; the telemetry overflows")
    return X, start_t, sol


def _read_window_spec(artifacts: Path) -> features.WindowSpec:
    """The window geometry recorded in pipeline.json; 4 s windows at a 1 s stride if absent."""
    path = artifacts / PIPELINE_FILE
    doc = read_json(path) if path.exists() else {}
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    window_s = get_field(doc, "window_s", float, str(path)) if "window_s" in doc else 4.0
    stride_s = get_field(doc, "stride_s", float, str(path)) if "stride_s" in doc else 1.0
    try:
        return features.WindowSpec(window_s=window_s, stride_s=stride_s)
    except DataError as exc:
        raise ArtifactError(f"{path}: {exc}") from None


def load_bundle(artifacts, stride_s: float | None = None):
    """(model, scaler, spec) of an artifact directory, model and scaler checked to agree.

    stride_s, when given, replaces the stored stride; the window length is the trained one.
    """
    artifacts = Path(artifacts)
    model = net.load_model(artifacts / MODEL_FILE)
    scaler = features.MinMaxScaler.load(artifacts / SCALER_FILE)
    if model.variant != scaler.variant:
        raise ArtifactError(f"model variant {model.variant!r} does not match scaler "
                            f"{scaler.variant!r}")
    if model.input_dim != len(scaler):
        raise ArtifactError(f"model expects {model.input_dim} features but scaler has "
                            f"{len(scaler)}")
    spec = _read_window_spec(artifacts)
    return model, scaler, spec if stride_s is None else replace(spec, stride_s=stride_s)


def fit_pipeline(data, artifacts, variant: str, config: net.TrainConfig,
                 spec: features.WindowSpec = features.WindowSpec()):
    """Fit the scaler and train the model, seeded by config.rng_seed, on a nominal drive.

    Writes model.json, scaler.json, losses.csv and pipeline.json; returns (TrainReport, windows).
    """
    X, _, _ = _featurize(data, spec, variant)
    scaler = features.fit_scaler(X, variant=variant)
    # rebinding X frees the raw features before training starts
    X = scaler.transform(X)
    model = net.build_model(variant, seed=config.rng_seed)
    model, report = net.train(model, X, config)
    artifacts = Path(artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    net.save_model(model, artifacts / MODEL_FILE)
    scaler.save(artifacts / SCALER_FILE)
    with open(artifacts / LOSSES_FILE, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (tr, va) in enumerate(zip(report.train_losses, report.val_losses), 1):
            fh.write(f"{i},{tr!r},{va!r}\n")
    pipeline = {"variant": variant, "window_s": spec.window_s,
                "stride_s": spec.stride_s, "seed": config.rng_seed}
    (artifacts / PIPELINE_FILE).write_text(json.dumps(pipeline) + "\n")
    return report, X.shape[0]


def calibrate_pipeline(data, artifacts, percentile: float = 99.9,
                       stride_s: float | None = None) -> detect.Threshold:
    """Threshold at a nearest-rank percentile of a nominal drive's scores; writes
    threshold.json and calibration_scores.csv, which detect re-thresholds from."""
    artifacts = Path(artifacts)
    model, scaler, spec = load_bundle(artifacts, stride_s)
    X, start_t, sol = _featurize(data, spec, model.variant)
    X = scaler.transform(X)  # the raw features are freed here, before scoring
    scores, _ = detect.score_matrix(model, X)
    threshold = detect.calibrate(scores, percentile)
    threshold.save(artifacts / THRESHOLD_FILE)
    detect.write_scores_csv(artifacts / CALIBRATION_SCORES_FILE, scores, start_t, sol)
    return threshold


def detect_pipeline(data, artifacts, percentile: float | None = None,
                    stride_s: float | None = None):
    """Score a drive, write report.csv, report.json and scores.csv; return (records, scores,
    threshold). A new percentile re-thresholds from calibration_scores.csv, not threshold.json."""
    artifacts = Path(artifacts)
    model, scaler, spec = load_bundle(artifacts, stride_s)
    threshold = detect.Threshold.load(artifacts / THRESHOLD_FILE)
    if percentile is not None and percentile != threshold.percentile:
        cal_path = artifacts / CALIBRATION_SCORES_FILE
        if not cal_path.exists():
            raise ArtifactError(f"{cal_path} is required to re-threshold at a new "
                                "percentile; rerun calibrate")
        cal_scores, _, _ = detect.read_scores_csv(cal_path)
        threshold = detect.calibrate(cal_scores, percentile)
    X, start_t, sol = _featurize(data, spec, model.variant)
    X = scaler.transform(X)
    scores, E = detect.score_matrix(model, X)
    records = detect.flag(scores, E, start_t, sol, threshold, model.variant)
    detect.write_report_csv(records, artifacts / REPORT_CSV)
    detect.write_report_json(records, artifacts / REPORT_JSON)
    detect.write_scores_csv(artifacts / SCORES_FILE, scores, start_t, sol)
    return records, scores, threshold


def evaluate_metrics(artifacts, labels) -> dict:
    """Score the last detect run against labels; writes and returns metrics.json.

    Time spans that overlap match. A flag matching no event is a false positive, a
    window matching none is nominal, and an event matched by a flag is detected.
    """
    artifacts = Path(artifacts)
    for path in (artifacts / REPORT_JSON, artifacts / SCORES_FILE, labels):
        if not Path(path).exists():
            raise DataError(f"missing evaluation input {path}")
    records = detect.read_report_json(artifacts / REPORT_JSON)
    _, start_t, _ = detect.read_scores_csv(artifacts / SCORES_FILE)
    events = synth.read_labels(labels)
    window_s = _read_window_spec(artifacts).window_s
    # one overlap matrix: rows are the scored windows, then the flags; columns the events
    starts = np.concatenate([start_t, [r.start_t for r in records]])[:, None]
    end_t = np.array([ev.end_t for ev in events])
    overlap = (starts < end_t) & (np.array([ev.t0 for ev in events]) < starts + window_s)
    nominal_total = int((~overlap[:len(start_t)].any(axis=1)).sum())
    flag_hits = overlap[len(start_t):]
    flags_tp = int(flag_hits.any(axis=1).sum())
    flags_fp = len(records) - flags_tp
    detected = flag_hits.any(axis=0).tolist()
    per_kind = {}
    for kind in synth.EVENT_KINDS:
        hits = [hit for ev, hit in zip(events, detected) if ev.kind == kind]
        per_kind[kind] = {"events": len(hits), "detected": sum(hits),
                          "recall": (sum(hits) / len(hits)) if hits else None}
    metrics = {
        "windows_total": len(start_t),
        "windows_nominal": nominal_total,
        "events_total": len(events),
        "flags_total": len(records),
        "flags_true_positive": flags_tp,
        "flags_false_positive": flags_fp,
        "false_positive_rate": (flags_fp / nominal_total) if nominal_total else None,
        "overall_recall": (sum(detected) / len(events)) if events else None,
        "recall": {k: per_kind[k]["recall"] for k in synth.EVENT_KINDS},
        "per_kind": per_kind,
    }
    (artifacts / METRICS_FILE).write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics
