"""The package imports nothing at runtime beyond the standard library and numpy, and
imports hashlib only where it hashes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "drivemon"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "drivemon"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    extra = {name.split(".")[0] for name in found} - ALLOWED
    assert not extra, f"{path.name} imports {sorted(extra)}"


def test_hashlib_is_imported_only_where_a_hash_is_taken(tmp_path):
    """hashlib loads OpenSSL, a few ms at every `import drivemon` if imported at the top.

    A fresh interpreter imports the package and runs `evaluate`, which reads
    pipeline.json's SHA-256 fields and two score tables but hashes nothing;
    hashlib must still be absent. (`generate` cannot show this: numpy's
    SeedSequence imports secrets, which imports hashlib.)
    """
    (tmp_path / "report.json").write_text("[]\n")
    (tmp_path / "labels.json").write_text("[]\n")
    (tmp_path / "scores.csv").write_text("sol,start_t,score\n1,0.0,0.1\n")
    (tmp_path / "pipeline.json").write_text(json.dumps(
        {"variant": "prime", "window_s": 4.0, "stride_s": 1.0, "seed": 0,
         "calibration": {"data_sha256": "0" * 64, "stride_s": 1.0, "params_sha256": "1" * 64,
                         "scaler_sha256": "2" * 64, "scores_sha256": "3" * 64}}))
    code = ("import sys, drivemon, drivemon.cli\n"
            "loaded = 'hashlib' in sys.modules\n"
            f"code = drivemon.cli.main(['evaluate', '--artifacts', {str(tmp_path)!r},"
            f" '--labels', {str(tmp_path / 'labels.json')!r}])\n"
            "print(loaded, code, 'hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split()[-3:] == ["False", "0", "False"], out.stdout + out.stderr
