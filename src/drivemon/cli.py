"""Command-line pipeline: generate, train, calibrate, detect, evaluate.

Artifacts live under --artifacts with fixed names (model.json, scaler.json,
threshold.json, report.csv, report.json, scores.csv, metrics.json, plus
losses.csv, calibration_scores.csv, and pipeline.json). Identical flags and
seeds reproduce artifacts byte for byte; nothing time-dependent is written.
Exit codes: 0 success, 2 usage, 3 data error, 4 artifact mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import detect as det
from . import synth
from .derive import derive_stream
from .errors import ArtifactError, DataError, PipelineError, get_field, read_json
from .features import WindowSpec, feature_mask, feature_matrix, fit_scaler, MinMaxScaler
from .net import TrainConfig, build_model, load_model, save_model, train
from .telemetry import read_stream, write_stream

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivemon",
        description="Detect anomalous rover drive behavior from mobility telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    g = sub.add_parser("generate", help="write synthetic train/test telemetry + labels")
    g.add_argument("--out", type=Path, required=True, help="output directory")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train-s", type=float, default=4040.0, help="training drive seconds")
    g.add_argument("--test-s", type=float, default=2000.0, help="test drive seconds")
    g.add_argument("--events", default="mixed20",
                   help="event mix, e.g. 'mixed20' or 'rockdrop10,mtsc10' or 'none'")
    g.add_argument("--severity", type=float, default=1.0)
    g.add_argument("--sol", type=int, default=1000, help="sol of the training drive")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="fit scaler and autoencoder on nominal telemetry")
    t.add_argument("--data", type=Path, required=True, help="training telemetry CSV")
    t.add_argument("--artifacts", type=Path, required=True)
    t.add_argument("--variant", choices=("prime", "refined"), default="prime")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--epochs", type=int, default=200)
    t.add_argument("--batch-size", type=int, default=256)
    t.add_argument("--learning-rate", type=float, default=1e-3)
    t.add_argument("--val-fraction", type=float, default=0.2)
    t.add_argument("--window-s", type=float, default=4.0)
    t.add_argument("--stride-s", type=float, default=1.0)
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("calibrate", help="set the score threshold from training windows")
    c.add_argument("--data", type=Path, required=True, help="training telemetry CSV")
    c.add_argument("--artifacts", type=Path, required=True)
    c.add_argument("--percentile", type=float, default=99.9)
    c.add_argument("--stride-s", type=float, default=None)
    c.set_defaults(func=cmd_calibrate)

    d = sub.add_parser("detect", help="score test telemetry and report flagged windows")
    d.add_argument("--data", type=Path, required=True, help="test telemetry CSV")
    d.add_argument("--artifacts", type=Path, required=True)
    d.add_argument("--percentile", type=float, default=None,
                   help="re-threshold at this percentile using stored calibration scores")
    d.add_argument("--stride-s", type=float, default=None)
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("evaluate", help="compare the flag report against ground truth")
    e.add_argument("--artifacts", type=Path, required=True)
    e.add_argument("--labels", type=Path, required=True, help="ground-truth labels JSON")
    e.set_defaults(func=cmd_evaluate)

    for p in (g, t, c, d, e):
        p.add_argument("--config", type=Path, default=None,
                       help="plain-text key=value defaults; explicit flags win")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config key=value lines into flags; explicit flags still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        return argv  # argparse will report the missing value
    rest = argv[:i] + argv[i + 2:]
    pairs: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        pairs += ["--" + key.strip().replace("_", "-"), value.strip()]
    return rest[:1] + pairs + rest[1:]


def _window_spec(args, pipeline: dict) -> WindowSpec:
    """The trained window length, with --stride-s free to move window placement."""
    stride_s = args.stride_s if args.stride_s is not None else pipeline["stride_s"]
    return WindowSpec(window_s=pipeline["window_s"], stride_s=stride_s)


def _load_pipeline(artifacts: Path) -> dict:
    """pipeline.json, with window_s and stride_s read as numbers (4.0 and 1.0 if absent)."""
    path = artifacts / PIPELINE_FILE
    doc = read_json(path) if path.exists() else {}
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key, default in (("window_s", 4.0), ("stride_s", 1.0)):
        doc[key] = get_field(doc, key, float, str(path)) if key in doc else default
    try:
        WindowSpec(window_s=doc["window_s"], stride_s=doc["stride_s"])
    except DataError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    return doc


def _features_from_csv(data: Path, spec: WindowSpec, variant: str):
    stream = read_stream(data)
    derived = derive_stream(stream)
    mask = feature_mask(variant)
    X, start_t, sol = feature_matrix(derived, spec, mask)
    if X.shape[0] == 0:
        raise DataError(f"{data}: no complete {spec.window_s} s windows in stream")
    return X, start_t, sol


def cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    if args.train_s < 4.0 or args.test_s < 4.0:
        parser.error("--train-s and --test-s must be at least 4 (one full window)")
    if args.severity <= 0:
        parser.error("--severity must be > 0")
    try:
        events = synth.plan_events(args.events, args.test_s, args.seed,
                                   severity=args.severity)
    except DataError as exc:
        parser.error(str(exc))
    profile = synth.NominalProfile(duration_s=args.train_s, sol=args.sol)
    train_stream, labeled = synth.make_dataset(
        args.train_s, args.test_s, events, args.seed, profile=profile)
    args.out.mkdir(parents=True, exist_ok=True)
    write_stream(train_stream, args.out / "train.csv")
    write_stream(labeled.stream, args.out / "test.csv")
    synth.write_labels(labeled.events, args.out / "labels.json")
    print(f"wrote {args.out / 'train.csv'} ({len(train_stream)} frames), "
          f"{args.out / 'test.csv'} ({len(labeled.stream)} frames), "
          f"{args.out / 'labels.json'} ({len(labeled.events)} events)")
    return 0


def cmd_train(args, parser: argparse.ArgumentParser) -> int:
    spec = WindowSpec(window_s=args.window_s, stride_s=args.stride_s)
    X, _, _ = _features_from_csv(args.data, spec, args.variant)
    scaler = fit_scaler(X, variant=args.variant)
    X_scaled = scaler.transform(X)
    model = build_model(args.variant, seed=args.seed)
    config = TrainConfig(
        rng_seed=args.seed, epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, validation_fraction=args.val_fraction,
    )
    model, report = train(model, X_scaled, config)
    args.artifacts.mkdir(parents=True, exist_ok=True)
    save_model(model, args.artifacts / MODEL_FILE)
    scaler.save(args.artifacts / SCALER_FILE)
    with open(args.artifacts / LOSSES_FILE, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (tr, va) in enumerate(zip(report.train_losses, report.val_losses), 1):
            fh.write(f"{i},{tr!r},{va!r}\n")
    pipeline = {"variant": args.variant, "window_s": args.window_s,
                "stride_s": args.stride_s, "seed": args.seed}
    (args.artifacts / PIPELINE_FILE).write_text(json.dumps(pipeline) + "\n")
    print(f"trained {args.variant} on {X.shape[0]} windows: "
          f"train loss {report.final_train_loss:.3e}, "
          f"val loss {report.final_val_loss:.3e} ({report.duration_s:.1f} s)")
    return 0


def _load_artifacts(artifacts: Path):
    model = load_model(artifacts / MODEL_FILE)
    scaler = MinMaxScaler.load(artifacts / SCALER_FILE)
    if model.variant != scaler.variant:
        raise ArtifactError(
            f"model variant {model.variant!r} does not match scaler {scaler.variant!r}"
        )
    if model.input_dim != len(scaler):
        raise ArtifactError(
            f"model expects {model.input_dim} features but scaler has {len(scaler)}"
        )
    return model, scaler


def cmd_calibrate(args, parser: argparse.ArgumentParser) -> int:
    if args.percentile is not None and not 0.0 < args.percentile < 100.0:
        parser.error("--percentile must be in (0, 100)")
    model, scaler = _load_artifacts(args.artifacts)
    spec = _window_spec(args, _load_pipeline(args.artifacts))
    X, start_t, sol = _features_from_csv(args.data, spec, model.variant)
    scores, _ = det.score_matrix(model, scaler, X)
    threshold = det.calibrate(scores, args.percentile)
    threshold.save(args.artifacts / THRESHOLD_FILE)
    det.write_scores_csv(args.artifacts / CALIBRATION_SCORES_FILE, scores, start_t, sol)
    print(f"threshold {threshold.value:.6g} at percentile {threshold.percentile} "
          f"over {threshold.calibration_size} training windows")
    return 0


def cmd_detect(args, parser: argparse.ArgumentParser) -> int:
    model, scaler = _load_artifacts(args.artifacts)
    threshold = det.Threshold.load(args.artifacts / THRESHOLD_FILE)
    if args.percentile is not None and args.percentile != threshold.percentile:
        cal_path = args.artifacts / CALIBRATION_SCORES_FILE
        if not cal_path.exists():
            raise ArtifactError(
                f"{cal_path} is required to re-threshold at a new percentile; rerun calibrate"
            )
        cal_scores, _, _ = det.read_scores_csv(cal_path)
        threshold = det.calibrate(cal_scores, args.percentile)
    spec = _window_spec(args, _load_pipeline(args.artifacts))
    X, start_t, sol = _features_from_csv(args.data, spec, model.variant)
    scores, E = det.score_matrix(model, scaler, X)
    records = det.flag(scores, E, start_t, sol, threshold, model.variant)
    det.write_report_csv(records, args.artifacts / REPORT_CSV)
    det.write_report_json(records, args.artifacts / REPORT_JSON)
    det.write_scores_csv(args.artifacts / SCORES_FILE, scores, start_t, sol)
    print(f"flagged {len(records)} of {len(scores)} windows "
          f"(threshold {threshold.value:.6g} at p{threshold.percentile})")
    return 0


def _overlaps(start_t: float, window_s: float, event: synth.AnomalyEvent) -> bool:
    return start_t < event.end_t and event.t0 < start_t + window_s


def cmd_evaluate(args, parser: argparse.ArgumentParser) -> int:
    report_path = args.artifacts / REPORT_JSON
    scores_path = args.artifacts / SCORES_FILE
    for path in (report_path, scores_path, args.labels):
        if not Path(path).exists():
            raise DataError(f"missing evaluation input {path}")
    records = det.read_report_json(report_path)
    _, start_t, _ = det.read_scores_csv(scores_path)
    events = synth.read_labels(args.labels)
    window_s = _load_pipeline(args.artifacts)["window_s"]

    nominal_total = sum(
        0 if any(_overlaps(float(t0), window_s, ev) for ev in events) else 1
        for t0 in start_t
    )
    flags_tp = sum(
        1 for r in records if any(_overlaps(r.start_t, window_s, ev) for ev in events)
    )
    flags_fp = len(records) - flags_tp
    per_kind: dict[str, dict] = {}
    detected_total = 0
    for kind in synth.EVENT_KINDS:
        kind_events = [ev for ev in events if ev.kind == kind]
        detected = sum(
            1 for ev in kind_events
            if any(_overlaps(r.start_t, window_s, ev) for r in records)
        )
        detected_total += detected
        per_kind[kind] = {
            "events": len(kind_events),
            "detected": detected,
            "recall": (detected / len(kind_events)) if kind_events else None,
        }
    metrics = {
        "windows_total": int(len(start_t)),
        "windows_nominal": int(nominal_total),
        "events_total": len(events),
        "flags_total": len(records),
        "flags_true_positive": int(flags_tp),
        "flags_false_positive": int(flags_fp),
        "false_positive_rate": (flags_fp / nominal_total) if nominal_total else None,
        "overall_recall": (detected_total / len(events)) if events else None,
        "recall": {k: per_kind[k]["recall"] for k in synth.EVENT_KINDS},
        "per_kind": per_kind,
    }
    (args.artifacts / METRICS_FILE).write_text(json.dumps(metrics, indent=2) + "\n")
    fpr = metrics["false_positive_rate"]
    print(f"recall {metrics['overall_recall'] if events else 'n/a'} over "
          f"{len(events)} events; "
          f"FPR {fpr if fpr is not None else 'n/a'} on {nominal_total} nominal windows")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        argv = _apply_config_file(list(argv))
    except OSError as exc:
        print(f"drivemon: cannot read config file: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ArtifactError as exc:
        print(f"drivemon: artifact error: {exc}", file=sys.stderr)
        return 4
    except PipelineError as exc:
        print(f"drivemon: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"drivemon: i/o error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
