"""The public surface: every name each ``__all__`` lists resolves."""

import importlib
import pkgutil

import pytest

import deltasolve

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(deltasolve.__path__)
                    if info.name != "__main__")


def test_package_all_resolves():
    missing = [name for name in deltasolve.__all__ if not hasattr(deltasolve, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"deltasolve.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
