"""Convergence-study tables behind the ``report`` CLI subcommand.

Each study returns plain rows for one CSV table, computed serially in input
order.  The row functions accept a ``threads`` keyword but ignore it: the
rows are pure Python, which a thread pool does not speed up, so every value
gives the same table.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from .partial_fractions import pfd_eval
from .polynomials import Polynomial, format_complex
from .spectral import SpectralConfig, difference_residual, spectral_solve
from .zeta import verify_comparison

__all__ = [
    "RESIDUAL_DECAY_HEADER",
    "PFD_CONVERGENCE_HEADER",
    "AB_COMPARISON_HEADER",
    "residual_decay_rows",
    "pfd_convergence_rows",
    "ab_comparison_rows",
]

RESIDUAL_DECAY_HEADER = ["K", "median_residual", "max_residual"]
PFD_CONVERGENCE_HEADER = ["z", "K", "abs_error", "tail_bound"]
AB_COMPARISON_HEADER = ["n", "K", "max_mismatch"]

# The residual-decay study samples its residual on this many points of [0, 1].
# The count is odd, so the median is the middle one of the sorted residuals.
_GRID_POINTS = 21


def residual_decay_rows(forcing: Polynomial, k_values: Iterable[int],
                        threads: int = 1) -> list[list]:
    """Median and max difference residual on a [0, 1] grid, per K."""
    xs = [i / (_GRID_POINTS - 1) for i in range(_GRID_POINTS)]

    def row(truncation_order: int) -> list:
        solution = spectral_solve(forcing, SpectralConfig(truncation_order))
        residuals = difference_residual(solution, forcing, xs)
        return [truncation_order, sorted(residuals)[_GRID_POINTS // 2],
                max(residuals)]

    return [row(k) for k in k_values]


def pfd_convergence_rows(z_values: Iterable[complex], k_values: Iterable[int],
                         threads: int = 1) -> list[list]:
    """Truncated partial-fraction error against direct 1/(e^z - 1), per (z, K)."""

    def row(z: complex, truncation_order: int) -> list:
        approx = pfd_eval(z, truncation_order)
        try:
            direct = 1.0 / (cmath.exp(z) - 1.0)
        except OverflowError:  # e^z leaves double range for Re z > 709.78
            decay = cmath.exp(-z)
            direct = decay / (1.0 - decay)
        bound = 2.0 * abs(z) / (math.pi ** 2 * truncation_order)
        return [format_complex(z), truncation_order, abs(approx - direct), bound]

    return [row(z, k) for z in z_values for k in k_values]


def ab_comparison_rows(n_values: Iterable[int], k_values: Iterable[int],
                       threads: int = 1) -> list[list]:
    """Worst numeric-vs-exact coefficient mismatch, per (n, K)."""
    return [[n, k, verify_comparison(n, k)] for n in n_values for k in k_values]
