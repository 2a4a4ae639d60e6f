"""The public surface: every name each ``__all__`` lists resolves, and what
importing the CLI pulls in."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import deltasolve

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(deltasolve.__path__)
                    if info.name != "__main__")


def test_package_all_resolves():
    missing = [name for name in deltasolve.__all__ if not hasattr(deltasolve, name)]
    assert missing == []


LIBRARY_MODULES = ("bernoulli", "ode", "partial_fractions", "polynomials",
                   "rationals", "spectral", "zeta")


def test_package_all_is_the_union_of_the_library_modules():
    names = [name for module in LIBRARY_MODULES
             for name in importlib.import_module(f"deltasolve.{module}").__all__]
    assert sorted(deltasolve.__all__) == sorted(names)
    assert deltasolve.bernoulli \
        is importlib.import_module("deltasolve.bernoulli").bernoulli


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"deltasolve.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_leaves_out_slow_modules():
    """Every CLI run pays for what ``deltasolve.cli`` imports; these standard
    modules cost milliseconds of start-up and nothing needs them."""
    code = ("import sys, deltasolve.cli; print(' '.join(m for m in "
            "('dataclasses', 'inspect', 'statistics') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
