"""Exact and spectral solvers for the difference equation f(x+1) - f(x) = g(x).

Two independent routes to the same particular solution: an exact
antidifference built from Bernoulli/Faulhaber polynomials, and a truncated
spectral mode sum over the zeros of e^z - 1 with the -g/2 correction term.
Their agreement reproduces the partial fraction expansion of 1/(e^z - 1)
and the closed forms for zeta at even integers; the same mode machinery also
solves constant-coefficient linear ODEs with simple characteristic roots.

Importing the package executes none of its modules.  Each but ``cli`` is
put in ``sys.modules`` unrun, bound as ``deltasolve.<name>``, and runs on
its first attribute read, so a CLI subcommand compiles only the modules it
calls.  That first read takes one package lock, so a second thread reading
the same module waits for its code to finish rather than seeing it half
run.  Besides its modules the package holds only ``MAX_TABLE_ORDER``,
``MAX_BERNOULLI_INDEX``, ``MAX_TERMS``, ``MAX_OPERATOR_DEGREE`` and
``__version__``: ``deltasolve.bernoulli`` is the module, and the function
is ``deltasolve.bernoulli.bernoulli``.
"""

import sys as _sys
import threading as _threading
from importlib.machinery import PathFinder as _PathFinder
from importlib.util import module_from_spec as _module_from_spec

__version__ = "0.1.0"

# Largest forcing degree of the A/B coefficient tables in ``zeta``, the
# largest Bernoulli index that ``bernoulli`` grows its table to, the largest
# truncation order K (or term count N) that ``spectral.power_sums``,
# ``spectral.SpectralConfig`` and ``partial_fractions.pfd_eval`` accept, and
# the largest ``ode.CharacteristicPolynomial`` degree.  They live here so
# that the CLI parser checks --n-max, n, K and --coeffs before loading one.
MAX_TABLE_ORDER = 12
MAX_BERNOULLI_INDEX = 1000
MAX_TERMS = 10 ** 6
MAX_OPERATOR_DEGREE = 90

_LOADING = _threading.RLock()


class _Pending(type(_sys)):
    """A registered module whose code has not run: the first read of a name
    it lacks runs it, under ``_LOADING``, then looks the name up again."""

    def __getattr__(self, name):
        with _LOADING:
            if type(self) is _Pending:
                self.__spec__.loader.exec_module(self)
                self.__class__ = type(_sys)
        return getattr(self, name)


def _register_lazily(name: str):
    """``deltasolve.<name>`` in ``sys.modules``, its code not yet run."""
    spec = _PathFinder.find_spec(f"{__name__}.{name}", __path__)
    module = _module_from_spec(spec)
    module.__class__ = _Pending
    _sys.modules[spec.name] = module
    return module


for _name in ("bernoulli", "ode", "partial_fractions", "polynomials",
              "rationals", "reports", "spectral", "zeta"):
    globals()[_name] = _register_lazily(_name)
del _name
