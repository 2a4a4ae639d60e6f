"""Exact and spectral solvers for the difference equation f(x+1) - f(x) = g(x).

Two independent routes to the same particular solution: an exact
antidifference built from Bernoulli/Faulhaber polynomials, and a truncated
spectral mode sum over the zeros of e^z - 1 with the -g/2 correction term.
Their agreement reproduces the partial fraction expansion of 1/(e^z - 1)
and the closed forms for zeta at even integers; the same mode machinery also
solves constant-coefficient linear ODEs with simple characteristic roots.

Importing the package executes none of its modules.  Each but ``cli`` is
put in ``sys.modules`` behind ``importlib.util.LazyLoader``, bound as
``deltasolve.<name>``, and runs on its first attribute access, so a CLI
subcommand compiles only the modules it calls.  Besides its modules the
package holds only ``MAX_TABLE_ORDER``, ``MAX_BERNOULLI_INDEX``,
``MAX_TERMS`` and ``__version__``: ``deltasolve.bernoulli`` is the module,
and the function is ``deltasolve.bernoulli.bernoulli``.

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

# Largest forcing degree of the A/B coefficient tables in ``zeta``, the
# largest Bernoulli index that ``bernoulli`` grows its table to, and the
# largest truncation order K (or term count N) that ``spectral.power_sums``,
# ``spectral.SpectralConfig`` and ``partial_fractions.pfd_eval`` accept;
# ``pfd_eval``, the slowest sum, takes about 0.11 s at 10^6 terms.  They are
# defined here, so that the CLI parser can bound --n-max, n and K without
# loading zeta, bernoulli or spectral.
MAX_TABLE_ORDER = 12
MAX_BERNOULLI_INDEX = 1000
MAX_TERMS = 10 ** 6


def _register_lazily(name: str):
    """``deltasolve.<name>`` in ``sys.modules``, its code not yet run."""
    spec = _PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = _LazyLoader(spec.loader)
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("bernoulli", "ode", "partial_fractions", "polynomials",
              "rationals", "reports", "spectral", "zeta"):
    globals()[_name] = _register_lazily(_name)
del _name
