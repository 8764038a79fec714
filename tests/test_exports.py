"""Every name that a focalpo module lists in __all__ is defined in it, no
module imports another's private name, and the package runs as
`python -m focalpo`."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import focalpo

MODULES = ["focalpo"] + [
    f"focalpo.{info.name}" for info in pkgutil.iter_modules(focalpo.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    # each function lives in the module that calls it; the tests may still
    # import private names for their oracles
    crossings = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted(Path(focalpo.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert crossings == []


def test_runs_as_a_module():
    # importing focalpo.__main__ above ran nothing; running it runs the CLI
    path = [str(Path(focalpo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-m", "focalpo", "--version"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "focalpo 0.1.0\n", "")
