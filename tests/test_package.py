"""The public surface: every name each ``__all__`` lists resolves, and what
importing the CLI pulls in."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module,
    so the package runs on a bare Python."""
    imported = []
    for path in sorted(Path(deltasolve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert ("ode.py", "cmath") in imported
    outside = [(file, name) for file, name in imported
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _package_imports(path: Path) -> set:
    """The names that ``path`` imports from the package, relative or
    absolute, anywhere in the file; a module imports as its file stem."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "deltasolve" + (f".{base}" if base else "")
            dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted
                     if name.startswith("deltasolve."))
    return found


def test_the_two_routes_stay_independent():
    """The comparison is not circular: the Bernoulli numbers never come from
    the mode sums or from zeta, and the mode sums never from Bernoulli
    numbers, not even through another module."""
    graph = {path.stem: _package_imports(path)
             for path in Path(deltasolve.__file__).parent.glob("*.py")}

    def reachable(module):
        seen, todo = set(), [module]
        while todo:
            for name in graph.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        return seen

    assert {"bernoulli", "spectral"} <= graph["zeta"]
    assert reachable("bernoulli") & {"zeta", "spectral", "partial_fractions"} \
        == set()
    for module in ("spectral", "partial_fractions"):
        assert reachable(module) & {"bernoulli", "zeta"} == set(), module


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


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_RUN_AND_LIST = """
import contextlib, io, sys, types
before = set(sys.modules)
import deltasolve.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = deltasolve.cli.main({argv!r})
ran = sorted(name[len("deltasolve."):] for name, module in sys.modules.items()
             if name.startswith("deltasolve.")
             and type(module) is types.ModuleType)
stdlib = sorted(m for m in ("json", "csv")
                if m in sys.modules and m not in before)
print(code, " ".join(ran), "|", " ".join(stdlib))
"""

_EXACT = ["bernoulli", "cli", "polynomials", "rationals"]
_MODES = ["cli", "polynomials", "rationals", "spectral"]


@pytest.mark.parametrize("argv, ran, stdlib", [
    (["bernoulli", "5"], _EXACT, []),
    (["faulhaber", "3"], _EXACT, []),
    (["antidiff", "--g", "x^2"], _EXACT, []),
    (["bernoulli", "5", "--format", "json"], _EXACT, ["json"]),
    (["spectral", "--g", "x", "--K", "10"], _MODES, []),
    (["euler-gap", "--g", "x", "--x", "1", "--K", "10"], _MODES, []),
    (["pfd", "--z", "1", "--K", "10"], sorted(_MODES + ["partial_fractions"]), []),
    (["zeta", "--j", "2", "--oracle-N", "10"],
     sorted(_MODES + ["bernoulli", "zeta"]), []),
    (["ode", "--coeffs=-1,0,1", "--g", "1"], sorted(_MODES + ["ode"]), []),
    (["report", "ab-comparison", "--n-max", "2", "--K-list", "10"],
     sorted(_MODES + ["bernoulli", "partial_fractions", "reports", "zeta"]),
     ["csv"]),
], ids=["bernoulli", "faulhaber", "antidiff", "json", "spectral", "euler-gap",
        "pfd", "zeta", "ode", "report"])
def test_subcommand_runs_only_its_modules(argv, ran, stdlib, tmp_path):
    """The package registers its modules without running them; a
    subcommand runs only those it calls, and json/csv only when used."""
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "ab.csv")]
    code, got, loaded = _fresh(_RUN_AND_LIST.format(argv=argv)).partition("|")
    assert code.split() == ["0"] + ran
    assert loaded.split() == stdlib


def test_every_module_is_registered_and_loads_on_access():
    """What an outside tool that patches the modules relies on: after
    importing the package, ``deltasolve.bernoulli`` and ``deltasolve.cli``,
    every module is in ``sys.modules``, and an attribute lookup runs the
    module and returns its real object."""
    code = """
import json, sys, types
import deltasolve, deltasolve.bernoulli, deltasolve.cli
names = %r
modules = [sys.modules["deltasolve." + name] for name in names]
lazy = [type(module) is not types.ModuleType for module in modules]
owners = [sorted({obj.__module__ for obj in map(module.__getattribute__,
                                                 module.__all__)
                  if callable(obj)}) for module in modules]
loaded = [type(module) is types.ModuleType for module in modules]
print(json.dumps([lazy, owners, loaded]))
""" % (LIBRARY_MODULES + ("reports",),)
    lazy, owners, loaded = json.loads(_fresh(code))
    names = LIBRARY_MODULES + ("reports",)
    # deltasolve.bernoulli ran, and with it the two modules it imports
    assert [name for name, flag in zip(names, lazy) if not flag] \
        == ["bernoulli", "polynomials", "rationals"]
    for name, defined_in in zip(names, owners):
        assert f"deltasolve.{name}" in defined_in
    assert all(loaded)


def test_package_names_resolve_on_first_access():
    code = ("import sys, types, deltasolve\n"
            "lazy = type(sys.modules['deltasolve.ode']) is not types.ModuleType\n"
            "solve = deltasolve.solve_linear_ode\n"
            "print(lazy, solve is sys.modules['deltasolve.ode'].solve_linear_ode,"
            " deltasolve.bernoulli(4), len(deltasolve.__all__) > 40)")
    assert _fresh(code).split() == ["True", "True", "-1/30", "True"]


def test_domain_errors_share_one_base():
    from deltasolve.ode import MultipleRootUnsupported, RootFindingError
    from deltasolve.partial_fractions import PoleProximityError
    from deltasolve.polynomials import CoefficientOverflowError
    from deltasolve.rationals import DeltasolveError
    from deltasolve.spectral import DegreeOverflowError

    assert deltasolve.DeltasolveError is DeltasolveError
    for error in (PoleProximityError, MultipleRootUnsupported,
                  DegreeOverflowError, CoefficientOverflowError):
        assert issubclass(error, DeltasolveError)
        assert issubclass(error, ValueError)
    assert issubclass(RootFindingError, DeltasolveError)
    assert issubclass(RootFindingError, RuntimeError)
    assert not issubclass(DeltasolveError, ValueError)
