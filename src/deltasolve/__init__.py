"""Exact and spectral solvers for the difference equation f(x+1) - f(x) = g(x).

Two independent routes to the same particular solution: an exact
antidifference built from Bernoulli/Faulhaber polynomials, and a truncated
spectral mode sum over the zeros of e^z - 1 with the -g/2 correction term.
Their agreement reproduces the partial fraction expansion of 1/(e^z - 1)
and the closed forms for zeta at even integers; the same mode machinery also
solves constant-coefficient linear ODEs with simple characteristic roots.

The package re-exports every library module's ``__all__``; ``bernoulli``
is the function, not the module.

Importing the package executes none of its modules.  Each one is put in
``sys.modules`` behind ``importlib.util.LazyLoader`` and runs on its first
attribute access, so a CLI subcommand compiles only the modules it calls.
The first lookup of a re-exported name, or of ``__all__``, loads the seven
library modules (PEP 562 ``__getattr__``).

Threads: the ``LazyLoader`` of Python 3.10 and 3.11 takes no lock (CPython
added one later, gh-114763).  It marks a module loaded before running its
code, so a second thread whose first access to the same module comes while
that code runs sees it half run: with Python 3.11, two threads reading
``deltasolve.ode.solve_linear_ode`` at once raised ``AttributeError`` in
one of them in 40 runs out of 40.  An ``import`` statement runs the module
in the importing thread, so import what a threaded program uses, e.g.
``from deltasolve.ode import solve_linear_ode``, before starting threads.
The CLI runs in one thread.
"""

import sys as _sys
from importlib.machinery import PathFinder as _PathFinder
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import module_from_spec as _module_from_spec

__version__ = "0.1.0"

# Largest forcing degree of the A/B coefficient tables in ``zeta``.  It is
# defined here, so that the CLI parser can bound --n-max without loading zeta.
MAX_TABLE_ORDER = 12

_LIBRARY = ("bernoulli", "ode", "partial_fractions", "polynomials",
            "rationals", "spectral", "zeta")


def _register_lazily(name: str):
    """``deltasolve.<name>`` in ``sys.modules``, its code not yet run."""
    spec = _PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = _LazyLoader(spec.loader)
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LIBRARY + ("reports",):
    _module = _register_lazily(_name)
    if _name != "bernoulli":  # the package's ``bernoulli`` is the function
        globals()[_name] = _module
del _name, _module


def __getattr__(name: str):
    """Binds the library modules' ``__all__`` names, and ``__all__`` as
    their union, on the first lookup of a name not bound yet."""
    namespace = globals()
    if "__all__" not in namespace:
        exported = []
        for module_name in _LIBRARY:
            module = _sys.modules[f"{__name__}.{module_name}"]
            exported += module.__all__
            namespace.update((attr, getattr(module, attr))
                             for attr in module.__all__)
        namespace["__all__"] = exported
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
