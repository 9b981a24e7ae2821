"""The package imports nothing outside itself and the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "heckeseries"


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_stdlib_only():
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"heckeseries"}
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_modules(path)
        if name not in allowed
    }
    assert not foreign, sorted(foreign)


def test_cli_import_leaves_out_dataclasses():
    # -S keeps site's own imports out of the count; src/ comes from PYTHONPATH
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    code = "import sys, heckeseries.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
