"""Exact and spectral solvers for the difference equation f(x+1) - f(x) = g(x).

Two independent routes to the same particular solution: an exact
antidifference built from Bernoulli/Faulhaber polynomials, and a truncated
spectral mode sum over the zeros of e^z - 1 with the -g/2 correction term.
Their agreement reproduces the partial fraction expansion of 1/(e^z - 1)
and the closed forms for zeta at even integers; the same mode machinery also
solves constant-coefficient linear ODEs with simple characteristic roots.

The package re-exports every library module's ``__all__``; ``bernoulli``
is the function, not the module.
"""

import sys as _sys

from .bernoulli import *  # noqa: F403
from .ode import *  # noqa: F403
from .partial_fractions import *  # noqa: F403
from .polynomials import *  # noqa: F403
from .rationals import *  # noqa: F403
from .spectral import *  # noqa: F403
from .zeta import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in ("bernoulli", "ode", "partial_fractions",
                               "polynomials", "rationals", "spectral", "zeta")
           for name in _sys.modules[f"{__name__}.{module}"].__all__]
