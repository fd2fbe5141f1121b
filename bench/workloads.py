"""The three benchmark workloads: input generation, one timed job, correctness gate.

Every timed job goes through the real entry point, ``drivemon.cli.main``,
in-process. Inputs are generated before any job runs, from the workload
seed alone, and are never timed.

- fit: ``train`` then ``calibrate`` (prime) on one 10 000 s nominal drive,
  the acceptance-scale training input. ``--seed 7`` gives exactly the
  acceptance deployment's train.csv; the training seed is always 3.
- detect: a closed loop with one client over a queue of anomalous drives,
  one ``detect`` call per drive, against the acceptance prime model that
  run.py trains once per source tree.
- generate: the ``generate`` command at acceptance scale (10 000 s train
  drive, 2 000 s test drive, the 40-event mix).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drivemon import cli, synth
from drivemon.detect import Threshold
from drivemon.errors import PipelineError
from drivemon.features import MinMaxScaler
from drivemon.net import load_model
from drivemon.telemetry import read_stream, write_stream
from recipe import (ACCEPT_EVENTS, ACCEPT_TEST_S, ACCEPT_TRAIN_S, TRAIN_SEED,
                    generate_argv, model_commands)

#: Epochs of the fit job: enough that net is most of its wall time, few
#: enough that one job fits in one run.
FIT_EPOCHS = 25

#: Window geometry of the default pipeline: 4 s windows at a 1 s stride, 8 Hz.
WINDOW_FRAMES = 32
STRIDE_FRAMES = 8
FRAMES_PER_S = 8

#: Detect queue: drive lengths log-spaced from a few minutes to half an hour,
#: so short drives show per-call cost and long drives per-frame cost. The
#: lengths are fixed; the seed sets the order, the noise and the events.
QUEUE_DRIVES = 40
QUEUE_MIN_S = 180
QUEUE_MAX_S = 1800
#: Drives between two reference-kernel samples in a detect pass.
SPEED_EVERY = 10
#: One event per this many seconds of drive, the acceptance test drive's density.
EVENT_SPACING_S = 50
#: Event kinds and weights of the acceptance mix.
EVENT_WEIGHTS = {"rockdrop": 10, "mtsc": 10, "wheelie": 10, "highslip": 5, "intenseterrain": 5}


def window_count(frames: int) -> int:
    return 0 if frames < WINDOW_FRAMES else (frames - WINDOW_FRAMES) // STRIDE_FRAMES + 1


def queue_lengths() -> list[int]:
    ratio = QUEUE_MAX_S / QUEUE_MIN_S
    return [round(QUEUE_MIN_S * ratio ** (i / (QUEUE_DRIVES - 1))) for i in range(QUEUE_DRIVES)]


@dataclass
class Job:
    """One timed job: its CLI call latencies, frames handled and gate outcome.

    ``speeds`` holds reference-kernel samples (see reference.py) taken before,
    between and after the calls; a latency divided by their median is the
    latency at nominal speed.
    """

    latencies: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    frames: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def call(self, argv: list[str]) -> int:
        """One timed CLI call; records its latency and returns its exit code."""
        started = time.perf_counter()
        code = cli.main(argv)
        self.latencies.append(time.perf_counter() - started)
        return code

    def sample_speed(self, state) -> None:
        self.speeds.append(state["reference"].speed())

    @property
    def speed(self) -> float:
        return statistics.median(self.speeds)

    def normalized(self) -> list[float]:
        return [latency / self.speed for latency in self.latencies]

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s / self.speed

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.errors.append(what)
        return ok


# -- fit ---------------------------------------------------------------------

class Fit:
    name = "fit"
    reference = ("reduce", "matmul")

    def make_inputs(self, work: Path, seed: int) -> None:
        code = cli.main(generate_argv(work / "data", seed))
        if code != 0:
            raise RuntimeError(f"fit input generation exited {code}")
        (work / "data" / "test.csv").unlink()

    def prepare(self, work: Path, seed: int, model_dir: Path):
        return {"train": work / "data" / "train.csv", "art": work / "artifacts"}

    def job(self, state) -> Job:
        job = Job(attempted=2)
        train, art = str(state["train"]), state["art"]
        shutil.rmtree(art, ignore_errors=True)  # every job writes new files
        job.sample_speed(state)
        code_t = job.call(["train", "--data", train, "--artifacts", str(art),
                           "--variant", "prime", "--seed", str(TRAIN_SEED),
                           "--epochs", str(FIT_EPOCHS)])
        job.sample_speed(state)
        code_c = job.call(["calibrate", "--data", train, "--artifacts", str(art)])
        job.sample_speed(state)
        frames = ACCEPT_TRAIN_S * FRAMES_PER_S
        job.frames = 2 * frames
        job.failed += not job.check(code_t == 0, f"train exited {code_t}")
        job.failed += not job.check(code_c == 0, f"calibrate exited {code_c}")
        if job.failed:
            return job
        windows = window_count(frames)
        losses = self._losses(art / "losses.csv")
        ok = job.check(len(losses) == FIT_EPOCHS, f"{len(losses)} loss rows, expected {FIT_EPOCHS}")
        ok &= job.check(all(math.isfinite(v) for row in losses for v in row), "non-finite loss")
        try:
            model = load_model(art / "model.json")
            scaler = MinMaxScaler.load(art / "scaler.json")
            threshold = Threshold.load(art / "threshold.json")
        except (PipelineError, OSError) as exc:
            ok = job.check(False, f"artifacts do not load back: {exc}")
        else:
            ok &= job.check(model.variant == scaler.variant == "prime", "variant mismatch")
            ok &= job.check(threshold.calibration_size == windows,
                            f"calibrated on {threshold.calibration_size} windows, "
                            f"expected {windows}")
        job.failed += not ok
        if losses:
            job.extra["val_loss"] = losses[-1][1]
        job.extra["train_window_epochs_per_s"] = windows * FIT_EPOCHS / job.normalized()[0]
        return job

    @staticmethod
    def _losses(path: Path) -> list[tuple[float, float]]:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [(float(r["train_loss"]), float(r["val_loss"])) for r in rows]

    def summarize(self, jobs: list[Job]) -> dict:
        return {
            "train_window_epochs_per_s": (statistics.median(
                j.extra["train_window_epochs_per_s"] for j in jobs), "1/s", "normalized"),
            "val_loss": (jobs[-1].extra.get("val_loss", float("nan")), "mse"),
        }


# -- detect ------------------------------------------------------------------

class Detect:
    name = "detect"
    reference = ("parse", "reduce")

    def make_inputs(self, work: Path, seed: int) -> None:
        drives = work / "drives"
        drives.mkdir(parents=True)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD7)))
        lengths = queue_lengths()
        order = rng.permutation(len(lengths))
        kinds = list(EVENT_WEIGHTS)
        weights = np.array(list(EVENT_WEIGHTS.values()), dtype=float)
        manifest = []
        for i, idx in enumerate(order):
            length = lengths[idx]
            n_events = max(1, length // EVENT_SPACING_S)
            counts = rng.multinomial(n_events, weights / weights.sum())
            mix = ",".join(f"{k}{c}" for k, c in zip(kinds, counts) if c)
            drive_seed = int(rng.integers(2**31))
            events = synth.plan_events(mix, float(length), drive_seed)
            children = np.random.SeedSequence(drive_seed).spawn(1 + len(events))
            profile = synth.NominalProfile(duration_s=float(length), sol=1001 + i)
            stream = synth.generate_nominal(profile, children[0])
            for ev, child in zip(events, children[1:]):
                stream = synth.inject(stream, ev, child)
            csv_path = drives / f"drive{i:03d}.csv"
            labels_path = drives / f"drive{i:03d}.labels.json"
            write_stream(stream, csv_path)
            synth.write_labels(events, labels_path)
            manifest.append({"csv": csv_path.name, "labels": labels_path.name,
                             "seconds": length, "frames": len(stream), "mix": mix})
        (drives / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")

    def prepare(self, work: Path, seed: int, model_dir: Path):
        art = work / "artifacts"
        shutil.copytree(model_dir, art)
        drives = work / "drives"
        manifest = json.loads((drives / "manifest.json").read_text())
        threshold = json.loads((art / "threshold.json").read_text())["value"]
        return {"art": art, "drives": drives, "queue": manifest, "threshold": threshold,
                "evaluated": False}

    def job(self, state) -> Job:
        """One pass over the queue; each call is gated, the first pass is evaluated."""
        job = Job()
        art = state["art"]
        quality = {"events": 0, "detected": 0, "rockdrop_events": 0,
                   "rockdrop_detected": 0, "nominal": 0, "false_positive": 0}
        for i, drive in enumerate(state["queue"]):
            if i % SPEED_EVERY == 0:
                job.sample_speed(state)
            csv_path = state["drives"] / drive["csv"]
            code = job.call(["detect", "--data", str(csv_path), "--artifacts", str(art)])
            job.attempted += 1
            job.frames += drive["frames"]
            ok = job.check(code == 0, f"detect {drive['csv']} exited {code}")
            if ok:
                ok = self._gate(job, art, drive, state["threshold"])
            if ok and not state["evaluated"]:
                ok = self._evaluate(job, art, state["drives"] / drive["labels"], quality)
            job.failed += not ok
        job.sample_speed(state)
        if not state["evaluated"]:
            state["evaluated"] = True
            job.extra["quality"] = quality
        return job

    @staticmethod
    def _gate(job: Job, art: Path, drive: dict, threshold: float) -> bool:
        with open(art / "scores.csv", newline="") as fh:
            rows = [(int(r["sol"]), float(r["start_t"]), float(r["score"]))
                    for r in csv.DictReader(fh)]
        expected = window_count(drive["frames"])
        if not job.check(len(rows) == expected,
                         f"{drive['csv']}: {len(rows)} windows, expected {expected}"):
            return False
        report = json.loads((art / "report.json").read_text())
        flagged = [(int(r["sol"]), float(r["start_t"]), float(r["score"])) for r in report]
        above = [row for row in rows if row[2] > threshold]
        return job.check(flagged == above,
                         f"{drive['csv']}: {len(flagged)} flags, {len(above)} scores "
                         f"strictly above the threshold")

    @staticmethod
    def _evaluate(job: Job, art: Path, labels: Path, quality: dict) -> bool:
        code = cli.main(["evaluate", "--artifacts", str(art), "--labels", str(labels)])
        if not job.check(code == 0, f"evaluate {labels.name} exited {code}"):
            return False
        m = json.loads((art / "metrics.json").read_text())
        quality["events"] += m["events_total"]
        quality["detected"] += sum(k["detected"] for k in m["per_kind"].values())
        quality["rockdrop_events"] += m["per_kind"]["RockDrop"]["events"]
        quality["rockdrop_detected"] += m["per_kind"]["RockDrop"]["detected"]
        quality["nominal"] += m["windows_nominal"]
        quality["false_positive"] += m["flags_false_positive"]
        return True

    def summarize(self, jobs: list[Job]) -> dict:
        latencies = sorted(x for j in jobs for x in j.normalized())
        tail_p = tail_percentile(QUEUE_DRIVES)
        q = jobs[0].extra["quality"]
        busy = sum(latencies)
        frames = sum(j.frames for j in jobs)
        return {
            "drive_p50_s": (statistics.median(latencies), "s", "normalized"),
            "drive_tail_s": (_percentile(latencies, tail_p), "s",
                             f"normalized; p{tail_p:g} over {len(latencies)} drive calls"),
            "telemetry_s_per_s": (frames / FRAMES_PER_S / busy, "s/s", "normalized"),
            "recall": (_ratio(q["detected"], q["events"]), "share",
                       f"{q['detected']} of {q['events']} events"),
            "rockdrop_recall": (_ratio(q["rockdrop_detected"], q["rockdrop_events"]), "share",
                                f"{q['rockdrop_detected']} of {q['rockdrop_events']} RockDrops"),
            "fpr": (_ratio(q["false_positive"], q["nominal"]), "share",
                    f"{q['false_positive']} of {q['nominal']} nominal windows"),
        }


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least 10 of n samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


# -- generate ----------------------------------------------------------------

class Generate:
    name = "generate"
    reference = ("parse", "reduce")

    def make_inputs(self, work: Path, seed: int) -> None:
        pass

    def prepare(self, work: Path, seed: int, model_dir: Path):
        """The in-memory dataset that ``generate`` must have written."""
        events = synth.plan_events(ACCEPT_EVENTS, float(ACCEPT_TEST_S), seed)
        profile = synth.NominalProfile(duration_s=float(ACCEPT_TRAIN_S))
        train, labeled = synth.make_dataset(float(ACCEPT_TRAIN_S), float(ACCEPT_TEST_S),
                                            events, seed, profile=profile)
        return {"out": work / "out", "seed": seed,
                "expected": {"train.csv": train, "test.csv": labeled.stream},
                "events": list(labeled.events), "digests": None}

    def job(self, state) -> Job:
        """One generate call. The first job's CSVs must read back equal to the
        in-memory streams; every later job's must be byte-identical to them."""
        job = Job(attempted=1)
        out = state["out"]
        shutil.rmtree(out, ignore_errors=True)  # every job writes new files
        job.sample_speed(state)
        code = job.call(generate_argv(out, state["seed"]))
        job.sample_speed(state)
        job.frames = sum(len(s) for s in state["expected"].values())
        ok = job.check(code == 0, f"generate exited {code}")
        if ok:
            digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                       for n in state["expected"]}
            if state["digests"] is None:
                for name, stream in state["expected"].items():
                    got = read_stream(out / name)
                    ok &= job.check(
                        np.array_equal(got.t, stream.t) and np.array_equal(got.sol, stream.sol)
                        and np.array_equal(got.values, stream.values),
                        f"{name} does not read back equal to the generated stream")
                state["digests"] = digests if ok else {}
            else:
                ok &= job.check(digests == state["digests"],
                                "CSVs differ from the first job's verified output")
            ok &= job.check(synth.read_labels(out / "labels.json") == state["events"],
                            "labels.json does not match the planned events")
        job.extra["bytes"] = sum((out / n).stat().st_size for n in state["expected"]) if ok else 0
        job.failed += not ok
        return job

    def summarize(self, jobs: list[Job]) -> dict:
        return {"csv_bytes": (jobs[-1].extra["bytes"], "B")}


WORKLOADS = {w.name: w for w in (Fit(), Detect(), Generate())}


# -- the detect model (built once per source tree) --------------------------

def build_model(model_dir: Path) -> None:
    """Train and calibrate the detect model into model_dir (see recipe.py)."""
    data = model_dir.parent / (model_dir.name + ".data")
    art = model_dir.parent / (model_dir.name + ".tmp")
    for stale in (data, art):  # left by an interrupted build
        shutil.rmtree(stale, ignore_errors=True)
    for argv in model_commands(data, art):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"building the detect model: {argv[0]} exited {code}")
    shutil.rmtree(data)
    art.rename(model_dir)


# -- statistics --------------------------------------------------------------

def _percentile(sorted_xs, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_xs)))
    return float(sorted_xs[k - 1])


def _ratio(a: int, b: int) -> float:
    return a / b if b else float("nan")
