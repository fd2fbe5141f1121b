import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import settings

from drivemon.telemetry import SENSOR_CHANNELS, TelemetryStream, uniform_time_axis

# every run draws the same examples: a failure reproduces, and a pass means the same thing
# each time; derandomize also turns off the example database
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind, running or exited and unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid}" if pid else
                "the test left a child process running")


@pytest.fixture
def four_cpus(monkeypatch):
    """The forking callers see 4 CPUs; returns the pids of the children they really
    fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_stream(rng) -> TelemetryStream:
    """32 frames (exactly one window) of random but valid telemetry."""
    n = 32
    values = rng.normal(0.0, 1.0, size=(n, len(SENSOR_CHANNELS)))
    return TelemetryStream(
        t=uniform_time_axis(n),
        sol=np.full(n, 1000, dtype=np.int64),
        values=values,
    )


def make_stream(n: int, seed: int = 0, sol: int = 1000) -> TelemetryStream:
    rng = np.random.default_rng(seed)
    return TelemetryStream(
        t=uniform_time_axis(n),
        sol=np.full(n, sol, dtype=np.int64),
        values=rng.normal(0.0, 1.0, size=(n, len(SENSOR_CHANNELS))),
    )


def store_params(model_json, params) -> None:
    """Write params as the parameter file beside model_json and record its SHA-256,
    as save_model does, so the loader's later checks see a consistent pair."""
    raw = np.asarray(params, dtype="<f8").tobytes()
    model_json.with_suffix(".params").write_bytes(raw)
    doc = json.loads(model_json.read_text())
    doc["params_sha256"] = hashlib.sha256(raw).hexdigest()
    model_json.write_text(json.dumps(doc))
