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


MODULES = ("bernoulli", "ode", "partial_fractions", "polynomials",
           "rationals", "reports", "spectral", "zeta")


def test_package_binds_its_registered_modules_and_nothing_else():
    """After ``import deltasolve`` each name is the registered module, none
    of them has run, and no ``__getattr__`` maps a name to anything else."""
    code = """
import sys, types, deltasolve
names = %r
print(all(getattr(deltasolve, name) is sys.modules["deltasolve." + name]
          for name in names),
      [name for name in names
       if type(sys.modules["deltasolve." + name]) is types.ModuleType],
      hasattr(deltasolve, "__getattr__"), deltasolve.bernoulli.bernoulli(4))
""" % (MODULES,)
    assert _fresh(code).split() == ["True", "[]", "False", "-1/30"]


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


def test_the_cli_defers_imports_only_through_the_package():
    """The package's lazy registration is the only way the CLI delays an
    import of its own modules: no function in ``cli.py`` imports one, and
    no line reads ``sys.modules``."""
    path = Path(deltasolve.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "modules"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"] == []
    late = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["deltasolve"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            late += [(function.name, name) for name in names
                     if name.split(".")[0] == "deltasolve"]
    assert late == []


def test_the_two_routes_stay_independent():
    """The comparison is not circular: the Bernoulli numbers never come from
    the mode sums or from zeta, and the mode sums never from Bernoulli
    numbers, not even through another module.  The ODE solver stands on
    ``polynomials`` beside the spectral solver, not on it."""
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
    assert reachable("ode") & {"spectral", "partial_fractions", "bernoulli",
                               "zeta"} == set()


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

_NUMBERS = ["bernoulli", "cli", "rationals"]
_EXACT = sorted(_NUMBERS + ["polynomials"])
_MODES = ["cli", "polynomials", "rationals", "spectral"]


@pytest.mark.parametrize("argv, exit_code, ran, stdlib", [
    (["bernoulli", "5"], 0, _NUMBERS, []),
    (["faulhaber", "3"], 0, _EXACT, []),
    (["antidiff", "--g", "x^2"], 0, _EXACT, []),
    (["bernoulli", "5", "--format", "json"], 0, _NUMBERS, ["json"]),
    (["spectral", "--g", "x", "--K", "10"], 0, _MODES, []),
    (["euler-gap", "--g", "x", "--x", "1", "--K", "10"], 0, _MODES, []),
    (["pfd", "--z", "1", "--K", "10"], 0,
     sorted(_MODES + ["partial_fractions"]), []),
    (["zeta", "--j", "2"], 0, sorted(_NUMBERS + ["zeta"]), []),
    (["zeta", "--j", "2", "--oracle-N", "10"], 0,
     sorted(_MODES + ["bernoulli", "zeta"]), []),
    (["ode", "--coeffs=-1,0,1", "--g", "1"], 0,
     ["cli", "ode", "polynomials", "rationals"], []),
    (["report", "ab-comparison", "--n-max", "2", "--K-list", "10"], 0,
     sorted(_MODES + ["bernoulli", "reports", "zeta"]), ["csv"]),
    (["report", "residual-decay", "--g", "x", "--K-list", "10"], 0,
     sorted(_MODES + ["reports"]), ["csv"]),
    (["bernoulli", "1001"], 2, ["cli", "rationals"], []),
], ids=["bernoulli", "faulhaber", "antidiff", "json", "spectral", "euler-gap",
        "pfd", "zeta-closed-form", "zeta", "ode", "report",
        "report-residual-decay", "refused"])
def test_subcommand_runs_only_its_modules(argv, exit_code, ran, stdlib,
                                          tmp_path):
    """The package registers its modules without running them; a
    subcommand runs only those it calls, and json/csv only when used.  A
    module reaches its siblings through the package's module objects, so
    importing one runs none of them: ``bernoulli N`` never runs
    ``polynomials``, the closed form never runs ``spectral``, and no
    report but ``pfd-convergence`` runs ``partial_fractions``.  An
    argument refused while parsing runs none of the library."""
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "ab.csv")]
    code, got, loaded = _fresh(_RUN_AND_LIST.format(argv=argv)).partition("|")
    assert code.split() == [str(exit_code)] + ran
    assert loaded.split() == stdlib


def test_every_module_is_registered_and_loads_on_access():
    """What an outside tool that patches the modules relies on: after
    importing the package, ``deltasolve.bernoulli`` and ``deltasolve.cli``,
    every module is in ``sys.modules`` as the object the package binds; an
    ``import`` statement runs none of them, and the first attribute read
    runs the module and returns its real object."""
    code = """
import json, sys, types
import deltasolve, deltasolve.bernoulli, deltasolve.cli
names = %r
modules = [sys.modules["deltasolve." + name] for name in names]
bound = [getattr(deltasolve, name) is module
         for name, module in zip(names, modules)]
ran = [type(module) is types.ModuleType for module in modules]
owners = [sorted({obj.__module__ for obj in map(module.__getattribute__,
                                                 module.__all__)
                  if callable(obj)}) for module in modules]
loaded = [type(module) is types.ModuleType for module in modules]
print(json.dumps([bound, ran, owners, loaded]))
""" % (MODULES,)
    bound, ran, owners, loaded = json.loads(_fresh(code))
    names = MODULES
    assert all(bound)
    # only rationals ran, for the error classes that cli binds at import
    assert [name for name, flag in zip(names, ran) if flag] == ["rationals"]
    for name, defined_in in zip(names, owners):
        assert f"deltasolve.{name}" in defined_in
    assert all(loaded)


def test_two_threads_first_reading_a_module_both_see_it_whole():
    """Two threads whose first read of ``deltasolve.ode`` comes at once both
    get ``solve_linear_ode``: the second waits for the module's code to
    finish instead of reading a half-run module."""
    code = """
import sys, threading
import deltasolve
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(2)
got = []
def read():
    barrier.wait()
    try:
        got.append(deltasolve.ode.solve_linear_ode.__name__)
    except AttributeError as exc:
        got.append(repr(exc))
threads = [threading.Thread(target=read, daemon=True) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(30)
print(sum(thread.is_alive() for thread in threads), *got)
"""
    assert _fresh(code).split() == ["0"] + ["solve_linear_ode"] * 2


def test_domain_errors_share_one_base():
    from deltasolve.ode import MultipleRootUnsupported, RootFindingError
    from deltasolve.partial_fractions import PoleProximityError
    from deltasolve.polynomials import CoefficientOverflowError
    from deltasolve.rationals import DeltasolveError
    from deltasolve.spectral import DegreeOverflowError, TruncationOrderError

    for error in (PoleProximityError, MultipleRootUnsupported,
                  DegreeOverflowError, CoefficientOverflowError,
                  TruncationOrderError):
        assert issubclass(error, DeltasolveError)
        assert issubclass(error, ValueError)
    assert issubclass(RootFindingError, DeltasolveError)
    assert issubclass(RootFindingError, RuntimeError)
    assert not issubclass(DeltasolveError, ValueError)
