"""The artifacts' bytes are pinned across versions of the code.

A small drive goes through generate, train, calibrate, detect and evaluate,
each a ``drivemon`` command in its own process, for both variants. The
SHA-256 of every artifact that C11 compares must equal the digest recorded
in ``pinned_bytes.json``. Trained and scored bits depend on the BLAS thread
count, so the commands run with one thread, and on the numpy and BLAS build,
so the test skips where the environment differs from the one recorded.

A change that alters these bytes on purpose rewrites the record with
``python tests/test_pinned_bytes.py`` and names the files that changed.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

RECORD = Path(__file__).with_name("pinned_bytes.json")
SRC = Path(__file__).resolve().parents[1] / "src"
ARTIFACTS = ("model.params", "scaler.json", "losses.csv", "threshold.json",
             "calibration_scores.csv", "scores.csv", "report.csv", "report.json")
VARIANTS = ("prime", "refined")


def _blas_core() -> str:
    """The kernel set OpenBLAS picked at run time, or "unknown" where it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_core": _blas_core()}


def _drivemon(*argv) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "drivemon.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, f"drivemon {argv[0]} exited {done.returncode}: {done.stderr}"


def run_digests(work: Path) -> dict:
    """SHA-256 of each pinned artifact, keyed "<variant>/<file>", from a fresh run in work."""
    data = work / "data"
    _drivemon("generate", "--out", data, "--seed", 5, "--train-s", 600, "--test-s", 300,
              "--events", "mixed4")
    digests = {}
    for variant in VARIANTS:
        art = work / variant
        _drivemon("train", "--data", data / "train.csv", "--artifacts", art,
                  "--variant", variant, "--seed", 2, "--epochs", 3)
        _drivemon("calibrate", "--data", data / "train.csv", "--artifacts", art)
        _drivemon("detect", "--data", data / "test.csv", "--artifacts", art)
        _drivemon("evaluate", "--artifacts", art, "--labels", data / "labels.json")
        for name in ARTIFACTS:
            digests[f"{variant}/{name}"] = hashlib.sha256((art / name).read_bytes()).hexdigest()
    return digests


def test_artifact_bytes_are_pinned(tmp_path):
    record = json.loads(RECORD.read_text())
    here = environment()
    if here != record["environment"]:
        pytest.skip(f"digests were recorded under {record['environment']}; this is {here}")
    got = run_digests(tmp_path)
    changed = sorted(k for k in record["digests"] if got.get(k) != record["digests"][k])
    assert not changed, f"artifact bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        doc = {"environment": environment(), "digests": run_digests(Path(work))}
    RECORD.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {RECORD}")
