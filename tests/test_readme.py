"""The README's "Library use" example runs as written, so it cannot drift from the API."""

import json
import re
from pathlib import Path

from drivemon.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    assert main(["generate", "--out", str(tmp_path / "data"), "--seed", "11",
                 "--train-s", "120", "--test-s", "80", "--events", "mixed3"]) == 0
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    art = tmp_path / "artifacts"
    for name in ("model.json", "threshold.json", "report.json", "scores.csv"):
        assert (art / name).exists()
    assert namespace["metrics"] == json.loads((art / "metrics.json").read_text())
    assert namespace["metrics"]["events_total"] == 3
    assert namespace["layer_scores"].tobytes() == namespace["scores"].tobytes()
