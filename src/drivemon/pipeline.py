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

from . import detect, features, net, synth, telemetry
from .errors import (ArtifactError, DataError, nullable, object_of, read_fields, read_json,
                     sha256_hex, strict_float)

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
    # feature_matrix derives each block's frames; huge but finite telemetry can overflow
    # there, and the check below reports where
    with np.errstate(over="ignore", invalid="ignore"):
        X, start_t, sol = features.feature_matrix(stream, spec, mask)
    if X.shape[0] == 0:
        raise DataError(f"{data}: no complete {spec.window_s} s windows in stream")
    bad = np.flatnonzero(~np.isfinite(X))
    if len(bad):
        window, feature = divmod(int(bad[0]), X.shape[1])
        raise DataError(f"{data}: window {window} (start_t {float(start_t[window])}) has "
                        f"non-finite {mask.names()[feature]}; the telemetry overflows")
    return X, start_t, sol


#: The calibration record in pipeline.json: field -> how it is read back. A record
#: written before threshold_sha256 existed reads it as None, as train writes it.
CALIBRATION_FIELDS = {"data_sha256": sha256_hex, "stride_s": strict_float,
                      "params_sha256": sha256_hex, "scaler_sha256": sha256_hex,
                      "scores_sha256": sha256_hex,
                      "threshold_sha256": (nullable(sha256_hex), None)}
#: The record field holding each vouched-for artifact's SHA-256.
DIGEST_KEYS = {CALIBRATION_SCORES_FILE: "scores_sha256", THRESHOLD_FILE: "threshold_sha256"}
#: pipeline.json: field -> how it is read back; "variant" and "seed" are written for
#: people only, from the model the record vouches for, and a missing calibration record
#: reads as None.
PIPELINE_FIELDS = {"window_s": strict_float, "stride_s": strict_float,
                   "calibration": (object_of(CALIBRATION_FIELDS), None)}


def _read_pipeline(artifacts: Path) -> tuple[dict, dict, features.WindowSpec]:
    """pipeline.json as written, its fields as read back, and the window geometry in it."""
    path = artifacts / PIPELINE_FILE
    doc = read_json(path)
    fields = read_fields(doc, PIPELINE_FIELDS, str(path))
    try:
        spec = features.WindowSpec(window_s=fields["window_s"], stride_s=fields["stride_s"])
    except DataError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    return doc, fields, spec


def _load_bundle(artifacts: Path, stride_s: float | None):
    """load_bundle's (model, scaler, spec), then pipeline.json as written and its fields
    as read back, each file read once."""
    model = net.load_model(artifacts / MODEL_FILE)
    scaler = features.MinMaxScaler.load(artifacts / SCALER_FILE)
    if model.variant != scaler.variant:
        raise ArtifactError(f"model variant {model.variant!r} does not match scaler "
                            f"{scaler.variant!r}")
    if model.input_dim != len(scaler):
        raise ArtifactError(f"model expects {model.input_dim} features but scaler has "
                            f"{len(scaler)}")
    pipeline, fields, spec = _read_pipeline(artifacts)
    if stride_s is not None:
        spec = replace(spec, stride_s=stride_s)
    return model, scaler, spec, pipeline, fields


def load_bundle(artifacts, stride_s: float | None = None):
    """(model, scaler, spec) of an artifact directory, model and scaler checked to agree.

    stride_s, when given, replaces the stored stride; the window length is the trained one.
    """
    return _load_bundle(Path(artifacts), stride_s)[:3]


def _file_sha256(path) -> str:
    """SHA-256 of a file, read 1 MiB at a time so that a large CSV is never held whole."""
    import hashlib  # loads OpenSSL, which `import drivemon` need not pay for
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _record_inputs(model: net.AutoencoderModel, artifacts: Path, **data) -> dict:
    """The calibration record fields that its artifacts' digests rest on: the data fields
    given, then the params_sha256 that save_model or load_model took, and scaler.json's."""
    return dict(data, params_sha256=model.params_sha256,
                scaler_sha256=_file_sha256(artifacts / SCALER_FILE))


def _write_record(artifacts: Path, pipeline: dict, inputs: dict, **digests) -> None:
    """Write pipeline.json with the calibration record: the inputs, then each artifact's
    digest. Every stage writes it after the artifacts, so a run cut short leaves a record
    that no longer matches them."""
    record = dict(inputs, **digests)
    (artifacts / PIPELINE_FILE).write_text(json.dumps(dict(pipeline, calibration=record)) + "\n")


def _vouched(artifacts: Path, name: str, read, record: dict | None, inputs: dict):
    """read(path) of the artifact `name`, when pipeline.json's calibration record vouches
    for these inputs and for the file's SHA-256; else an ArtifactError naming both files.
    The file is read before it is hashed, so that a bad field or row is named as such."""
    path, field = artifacts / name, DIGEST_KEYS[name]
    stale = (["calibration"] if record is None
             else [key for key, value in inputs.items() if record[key] != value])
    if not stale and path.exists():
        value = read(path)
        if _file_sha256(path) == record[field]:
            return value
    raise ArtifactError(f"{path} is missing or is not the file that {artifacts / PIPELINE_FILE} "
                        f"vouches for (field {', '.join(stale or [field])}); rerun calibrate")


def _read_scores(path) -> np.ndarray:
    return detect.read_scores_csv(path)[0]


def fit_pipeline(data, artifacts, variant: str, config: net.TrainConfig,
                 spec: features.WindowSpec = features.WindowSpec()):
    """Fit the scaler and train the model, seeded by config.rng_seed, on a nominal drive.

    Writes model.json, scaler.json, losses.csv, the training windows' scores in
    calibration_scores.csv, and pipeline.json with the calibration record that lets
    calibrate reuse them; returns (TrainReport, windows).
    """
    data_sha256 = _file_sha256(data)
    X, start_t, sol = _featurize(data, spec, variant)
    scaler = features.fit_scaler(X, variant=variant)
    # rebinding X frees the raw features before training starts
    X = scaler.transform(X)
    model = net.build_model(variant, seed=config.rng_seed)
    model, report = net.train(model, X, config)
    # the rows, order and row count calibrate would score, so the same bits
    scores, _ = detect.score_matrix(model, X)
    artifacts = Path(artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    # an earlier model's threshold and detect outputs are not this one's: detect exits 4
    # until calibrate runs, and evaluate finds no report until detect runs
    for name in (THRESHOLD_FILE, REPORT_CSV, REPORT_JSON, SCORES_FILE, METRICS_FILE):
        (artifacts / name).unlink(missing_ok=True)
    net.save_model(model, artifacts / MODEL_FILE)
    scaler.save(artifacts / SCALER_FILE)
    with open(artifacts / LOSSES_FILE, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (tr, va) in enumerate(zip(report.train_losses, report.val_losses), 1):
            fh.write(f"{i},{tr!r},{va!r}\n")
    scores_path = artifacts / CALIBRATION_SCORES_FILE
    detect.write_scores_csv(scores_path, scores, start_t, sol)
    pipeline = {"variant": variant, "window_s": spec.window_s,
                "stride_s": spec.stride_s, "seed": config.rng_seed}
    _write_record(artifacts, pipeline, _record_inputs(
        model, artifacts, data_sha256=data_sha256, stride_s=spec.stride_s),
        scores_sha256=_file_sha256(scores_path), threshold_sha256=None)
    return report, X.shape[0]


def calibrate_pipeline(data, artifacts, percentile: float = 99.9,
                       stride_s: float | None = None) -> detect.Threshold:
    """Threshold at a nearest-rank percentile of a nominal drive's scores; writes
    threshold.json and calibration_scores.csv, which detect re-thresholds from.

    The scores train stored are reused when pipeline.json's calibration record
    matches this data's SHA-256, the effective stride, the model and the scaler,
    and calibration_scores.csv has the recorded SHA-256. Otherwise the drive is
    scored afresh. Either way the record is rewritten last, with threshold.json's
    SHA-256, so that detect trusts this threshold only beside this model and scaler.
    """
    artifacts = Path(artifacts)
    model, scaler, spec, pipeline, fields = _load_bundle(artifacts, stride_s)
    inputs = _record_inputs(model, artifacts, data_sha256=_file_sha256(data),
                            stride_s=spec.stride_s)
    try:
        scores, fresh = _vouched(artifacts, CALIBRATION_SCORES_FILE, _read_scores,
                                 fields["calibration"], inputs), False
    except ArtifactError:
        fresh = True
    if fresh:
        X, start_t, sol = _featurize(data, spec, model.variant)
        X = scaler.transform(X)  # the raw features are freed here, before scoring
        scores, _ = detect.score_matrix(model, X)
    # too few scores raises here, before any file is written
    threshold = detect.calibrate(scores, percentile)
    scores_path = artifacts / CALIBRATION_SCORES_FILE
    if fresh:
        detect.write_scores_csv(scores_path, scores, start_t, sol)
    threshold.save(artifacts / THRESHOLD_FILE)
    # the record vouches for this model, which need not be the one train wrote
    pipeline = dict(pipeline, variant=model.variant, seed=model.seed)
    _write_record(artifacts, pipeline, inputs, scores_sha256=_file_sha256(scores_path),
                  threshold_sha256=_file_sha256(artifacts / THRESHOLD_FILE))
    return threshold


def detect_pipeline(data, artifacts, percentile: float | None = None,
                    stride_s: float | None = None):
    """Score a drive, write report.csv, report.json and scores.csv; return (records, scores,
    threshold).

    The run thresholds from threshold.json, or, for a new percentile, from
    calibration_scores.csv; either file is used only when pipeline.json's calibration
    record vouches for it under the model and scaler in the directory.
    """
    artifacts = Path(artifacts)
    model, scaler, spec, _, fields = _load_bundle(artifacts, stride_s)
    threshold = detect.Threshold.load(artifacts / THRESHOLD_FILE)
    record, inputs = fields["calibration"], _record_inputs(model, artifacts)
    if percentile in (None, threshold.percentile):
        _vouched(artifacts, THRESHOLD_FILE, lambda path: threshold, record, inputs)  # parsed
    else:
        scores = _vouched(artifacts, CALIBRATION_SCORES_FILE, _read_scores, record, inputs)
        threshold = detect.calibrate(scores, percentile)
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
    _, _, spec = _read_pipeline(artifacts)
    # one overlap matrix: rows are the scored windows, then the flags; columns the events
    starts = np.concatenate([start_t, [r.start_t for r in records]])[:, None]
    end_t = np.array([ev.end_t for ev in events])
    overlap = (starts < end_t) & (np.array([ev.t0 for ev in events]) < starts + spec.window_s)
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
