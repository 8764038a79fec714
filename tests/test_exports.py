"""Every name that a focalpo module lists in __all__ is defined in it."""

import importlib
import pkgutil

import pytest

import focalpo

# __main__ runs the CLI when imported and exports nothing.
MODULES = ["focalpo"] + [
    f"focalpo.{info.name}" for info in pkgutil.iter_modules(focalpo.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
