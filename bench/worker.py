"""Timed loop of one workload run, plus the traced run and the environment record.

The loop runs whole jobs until the next one would pass ``seconds`` (always
at least one). A traced run spends the first half untraced and the second
half under the tracer, so its per-layer numbers come with the tracing
overhead: the traced minus the untraced median job ``wall_s``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time

import numpy as np

import drivemon
from reference import Reference
from tracer import Tracer

#: Layer functions the per-layer metrics read; a missing one is reported absent.
EXPECTED = [
    "telemetry.read_stream", "telemetry.write_stream", "derive.derive_stream",
    "features.feature_matrix", "features.fit_scaler",
    "net.forward", "net.backward", "net.adam_step", "net.train",
    "net.save_model", "net.load_model",
    "detect.score_matrix", "detect.calibrate", "detect.flag",
    "detect.write_report_csv", "detect.write_report_json", "detect.write_scores_csv",
    "synth.make_dataset", "cli.main",
]
CLI_COMMANDS = ("generate", "train", "calibrate", "detect")


def run(workload, seed, work, seconds, trace, model_dir) -> dict:
    state = workload.prepare(work, seed, model_dir)
    state["reference"] = Reference(workload.reference)
    tracer = None
    plain = _loop(workload, state, seconds / 2 if trace else seconds)
    traced = []
    if trace:
        tracer = Tracer()
        tracer.install(drivemon, EXPECTED)
        try:
            traced = _loop(workload, state, seconds / 2)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    jobs = plain + traced
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    wall = statistics.median(j.norm_wall_s for j in plain)
    frames = sum(j.frames for j in plain)
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for j in jobs for e in j.errors][:20],
        "jobs": [[j.wall_s, j.speed] for j in plain],
        "end_to_end": {
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "frames_per_s": (frames / sum(j.norm_wall_s for j in plain), "1/s"),
        },
        "detail": {
            "raw_wall_s": (statistics.median(j.wall_s for j in plain), "s"),
            "raw_frames_per_s": (frames / sum(j.wall_s for j in plain), "1/s"),
            "speed": (statistics.median(j.speed for j in plain), "x",
                      f"reference kernel ({'+'.join(workload.reference)}) time / nominal"),
            "failed_share": (failed / attempted, "share", f"{failed} of {attempted}"),
            **(workload.summarize(plain) if not failed else {}),
        },
        "env": environment(),
    }
    if trace:
        out["per_layer"] = per_layer(tracer, traced, plain)
        out["absent"] = tracer.absent
        out["uncounted"] = sorted(tracer.uncounted)
        out["spans"] = {name: [st.calls / len(traced), st.s / len(traced), st.self_s / len(traced)]
                        for name, st in sorted(tracer.stats.items())}
    return out


def _loop(workload, state, seconds: float) -> list:
    jobs = []
    started = time.perf_counter()
    while True:
        job_started = time.perf_counter()
        jobs.append(workload.job(state))
        now = time.perf_counter()
        if now - started + (now - job_started) > seconds:
            return jobs


def per_layer(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics, each per traced job, in raw (not normalized) seconds."""
    n = len(traced)

    def s(name):
        st = tracer.stats.get(name)
        return st.s / n if st else 0.0

    def calls(name):
        st = tracer.stats.get(name)
        return st.calls / n if st else 0.0

    def self_s(name):
        st = tracer.stats.get(name)
        return st.self_s / n if st else 0.0

    def count(name):
        return tracer.counts.get(name, 0) / n

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    steps = count("net.train.steps")
    m = {
        "telemetry.read_stream.s": (s("telemetry.read_stream"), "s"),
        "telemetry.read_stream.calls": (calls("telemetry.read_stream"), "count"),
        "telemetry.read_stream.rows_per_s": (
            rate(count("telemetry.read_stream.rows"), s("telemetry.read_stream")), "1/s"),
        "telemetry.write_stream.s": (s("telemetry.write_stream"), "s"),
        "telemetry.write_stream.rows_per_s": (
            rate(count("telemetry.write_stream.rows"), s("telemetry.write_stream")), "1/s"),
        "telemetry.write_stream.bytes": (count("telemetry.write_stream.bytes"), "B"),
        "derive.derive_stream.s": (s("derive.derive_stream"), "s"),
        "features.feature_matrix.s": (s("features.feature_matrix"), "s"),
        "features.feature_matrix.windows_per_s": (
            rate(count("features.feature_matrix.rows"), s("features.feature_matrix")), "1/s"),
        "features.fit_scaler.s": (s("features.fit_scaler"), "s"),
        "net.forward.s": (s("net.forward"), "s"),
        "net.forward.calls": (calls("net.forward"), "count"),
        "net.backward.s": (s("net.backward"), "s"),
        "net.adam_step.s": (s("net.adam_step"), "s"),
        "net.train.s": (s("net.train"), "s"),
        "net.train.self_s": (self_s("net.train"), "s"),
        "net.train.steps": (steps, "count"),
        "net.step_ms": (rate(1000.0 * s("net.train"), steps), "ms"),
        "net.save_model.s": (s("net.save_model"), "s"),
        "net.save_model.bytes": (count("net.save_model.bytes"), "B"),
        "net.load_model.s": (s("net.load_model"), "s"),
        "net.load_model.calls": (calls("net.load_model"), "count"),
        "detect.score_matrix.s": (s("detect.score_matrix"), "s"),
        "detect.calibrate.s": (s("detect.calibrate"), "s"),
        "detect.flag.s": (s("detect.flag"), "s"),
        "detect.flag.flags": (count("detect.flag.flags"), "count"),
        "detect.write_report_csv.s": (s("detect.write_report_csv"), "s"),
        "detect.write_report_json.s": (s("detect.write_report_json"), "s"),
        "detect.write_scores_csv.s": (s("detect.write_scores_csv"), "s"),
        "synth.make_dataset.s": (s("synth.make_dataset"), "s"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = (self_s(f"cli.{command}"), "s")
    for module, total in tracer.module_self_s().items():
        m[f"{module}.self_s"] = (total / n, "s")
    # compare at one speed, so a slow phase of the host does not pass for overhead
    m["trace.overhead_s"] = (statistics.median(j.norm_wall_s for j in traced)
                             - statistics.median(j.norm_wall_s for j in untraced), "s")
    return m


def _openblas() -> tuple[int | None, str | None]:
    """Effective thread count and build string of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    return get_threads(), get_config().decode()
    return None, None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads, config = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_config": config,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "machine": platform.machine(),
    }

