"""The package imports nothing at runtime beyond the standard library and numpy."""

import ast
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
