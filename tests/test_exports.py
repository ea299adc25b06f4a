"""Every name that a module of hsnct lists in ``__all__`` resolves, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hsnct

# importing __main__ runs the CLI
MODULES = ["hsnct"] + [f"hsnct.{m.name}" for m in pkgutil.iter_modules(hsnct.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
