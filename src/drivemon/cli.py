"""Command-line interface: generate, train, calibrate, detect, evaluate.

Each command parses its flags, runs one ``pipeline`` stage and prints one line.
Exit codes: 0 success, 2 usage, 3 data error, 4 artifact mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import pipeline, synth
from .errors import ArtifactError, DataError, PipelineError
from .features import WindowSpec
from .net import TrainConfig
from .telemetry import is_frame_aligned, write_stream


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
    """Expand --config PATH (or --config=PATH) key=value lines into flags; explicit flags win."""
    argv = [part for arg in argv
            for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
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


def cmd_generate(args, parser: argparse.ArgumentParser) -> None:
    # each range is written so that NaN fails it
    if not (4.0 <= args.train_s < math.inf and 4.0 <= args.test_s < math.inf):
        parser.error("--train-s and --test-s must be finite and at least 4 (one full window)")
    if not 0.0 < args.severity < math.inf:
        parser.error("--severity must be finite and > 0")
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


def cmd_train(args, parser: argparse.ArgumentParser) -> None:
    # an out-of-range flag is a usage error (exit 2), found before any data is read
    try:
        config = TrainConfig(rng_seed=args.seed, epochs=args.epochs,
                             batch_size=args.batch_size, learning_rate=args.learning_rate,
                             validation_fraction=args.val_fraction)
        spec = WindowSpec(window_s=args.window_s, stride_s=args.stride_s)
    except DataError as exc:
        parser.error(str(exc))
    report, n_windows = pipeline.fit_pipeline(args.data, args.artifacts, args.variant, config, spec)
    print(f"trained {args.variant} on {n_windows} windows: "
          f"train loss {report.final_train_loss:.3e}, "
          f"val loss {report.final_val_loss:.3e} ({report.duration_s:.1f} s)")


def _check_scoring_flags(args, parser: argparse.ArgumentParser) -> None:
    """Reject an out-of-range --percentile or --stride-s (exit 2) before any artifact loads."""
    if args.percentile is not None and not 0.0 < args.percentile < 100.0:
        parser.error("--percentile must be in (0, 100)")
    if args.stride_s is not None and not (args.stride_s > 0 and is_frame_aligned(args.stride_s)):
        parser.error("--stride-s must be a positive whole number of 0.125 s frames")


def cmd_calibrate(args, parser: argparse.ArgumentParser) -> None:
    _check_scoring_flags(args, parser)
    threshold = pipeline.calibrate_pipeline(args.data, args.artifacts, args.percentile,
                                            args.stride_s)
    print(f"threshold {threshold.value:.6g} at percentile {threshold.percentile} "
          f"over {threshold.calibration_size} training windows")


def cmd_detect(args, parser: argparse.ArgumentParser) -> None:
    _check_scoring_flags(args, parser)
    records, scores, threshold = pipeline.detect_pipeline(args.data, args.artifacts,
                                                          args.percentile, args.stride_s)
    print(f"flagged {len(records)} of {len(scores)} windows "
          f"(threshold {threshold.value:.6g} at p{threshold.percentile})")


def cmd_evaluate(args, parser: argparse.ArgumentParser) -> None:
    metrics = pipeline.evaluate_metrics(args.artifacts, args.labels)
    recall, fpr = metrics["overall_recall"], metrics["false_positive_rate"]
    print(f"recall {recall if recall is not None else 'n/a'} over "
          f"{metrics['events_total']} events; FPR {fpr if fpr is not None else 'n/a'} "
          f"on {metrics['windows_nominal']} nominal windows")


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
        args.func(args, parser)
    except ArtifactError as exc:
        print(f"drivemon: artifact error: {exc}", file=sys.stderr)
        return 4
    except PipelineError as exc:
        print(f"drivemon: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"drivemon: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
