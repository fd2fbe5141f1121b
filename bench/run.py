"""drivemon benchmark: fit, detect and generate workloads through ``drivemon.cli.main``.

    python3 bench/run.py --workload detect --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one after another

Run from the repository root. Each step runs in its own fresh interpreter,
one at a time, with ``src`` on the path: the detect model is trained once per
source tree into ``.bench_build/`` (the build), then the workload's inputs
are generated, ``setup_s`` is measured in several fresh interpreters, and a
fresh worker runs the timed loop, so ``peak_rss_mb`` is that run's alone.
Everything a run writes stays under ``.bench_build/`` and its per-run
directory is removed at the end.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics, or with --trace 1
the per-layer metrics of a traced run. The lines before it print every
metric with its unit, the workload-specific ones too, and the environment.
See bench/README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fit", "detect", "generate")
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
JOB = {
    "fit": "train + calibrate on a 10 000 s drive",
    "detect": "one pass over the 40-drive queue",
    "generate": "one acceptance-scale generate call",
}


class BenchError(Exception):
    pass


def _child(args: list, timeout: float, capture: bool = False) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        cwd=ROOT, env=env, timeout=timeout, text=True,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise BenchError(f"step {args[0]!r} exited {proc.returncode}")
    return proc.stdout or ""


def source_key() -> str:
    """Hash of the program and of the detect model's recipe."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "recipe.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def ensure_model(key: str) -> Path:
    model_dir = BUILD / f"detect-model-{key[:16]}"
    if not model_dir.is_dir():
        BUILD.mkdir(exist_ok=True)
        _child(["build", model_dir], timeout=800)
    return model_dir


def run_workload(name: str, seed: int, seconds: float, trace: bool, model_dir: Path) -> dict:
    work = BUILD / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _child(["inputs", name, seed, work], timeout=150)
        probe = ["setup"] + ([model_dir] if name == "detect" else [])
        setup = [tuple(map(float, _child(probe, timeout=60, capture=True).split()[-2:]))
                 for _ in range(SETUP_PROBES)]
        result_path = work / "result.json"
        _child(["work", name, seed, work, seconds, int(trace), model_dir, result_path],
               timeout=2 * seconds + 150)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["end_to_end"]["setup_s"] = (statistics.median(s / speed for s, speed in setup), "s")
    result["detail"]["raw_setup_s"] = (statistics.median(s for s, _ in setup), "s")
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, seed: int, seconds: float, trace: bool, result: dict) -> None:
    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)} ==")
    notes = {
        "wall_s": f"normalized; median over {len(result['jobs'])} job(s); one job = {JOB[name]}",
        "setup_s": f"normalized; median of {SETUP_PROBES} fresh interpreters: import drivemon"
                   + (" + artifact load" if name == "detect" else ""),
        "peak_rss_mb": "max RSS of the worker process",
        "frames_per_s": "normalized; telemetry frames read or written per second of job wall",
    }
    rows = [(k, v[0], v[1], notes.get(k, "")) for k, v in result["end_to_end"].items()]
    rows += [(k, v[0], v[1], v[2] if len(v) > 2 else "") for k, v in result["detail"].items()]
    for metric, value, unit, note in rows:
        print(f"  {metric:<26} {_fmt(value):>14} {unit:<6} {note}")
    if trace:
        print("  per layer, per traced job:")
        for metric, (value, unit) in result["per_layer"].items():
            print(f"    {metric:<40} {_fmt(value):>14} {unit}")
        print(f"  absent: {', '.join(result['absent']) or 'none'}")
        if result["uncounted"]:
            print(f"  uncounted: {', '.join(result['uncounted'])}")
        print("  every traced span, per job: calls, s, self_s")
        for span, (calls, s, self_s) in result["spans"].items():
            print(f"    {span:<40} {calls:>10.4g} {s:>12.6f} {self_s:>12.6f}")
    print("  jobs (raw wall_s, speed): "
          + ", ".join(f"({wall:.4g}, {speed:.4g})" for wall, speed in result["jobs"]))
    for err in result["errors"]:
        print(f"  FAILED: {err}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def _terminate(signum, frame):
    # raising here makes subprocess.run kill and reap the running step, and
    # lets run_workload remove its directory
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "drivemon" / "__init__.py").is_file():
        print(f"bench: no drivemon package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    key = source_key()
    try:
        model_dir = ensure_model(key)
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace, model_dir)
            results[name]["env"].update(git_sha=git_sha(), source_sha256=key,
                                        workload_seed=args.seed)
            report(name, args.seed, args.seconds, trace, results[name])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, result in results.items():
        chosen = result["per_layer"] if trace else result["end_to_end"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit, *_) in chosen.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
