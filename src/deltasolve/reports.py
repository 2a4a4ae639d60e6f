"""Convergence-study tables behind the ``report`` CLI subcommand.

Each study returns plain rows for one CSV table, computed serially in input
order.  The row functions accept a ``threads`` keyword but ignore it: the
rows are pure Python, which a thread pool does not speed up, so every value
gives the same table.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from . import partial_fractions, polynomials, spectral, zeta

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


def residual_decay_rows(forcing: polynomials.Polynomial,
                        k_values: Iterable[int],
                        threads: int = 1) -> list[list]:
    """Median and max difference residual on a [0, 1] grid, per K."""
    xs = [i / (_GRID_POINTS - 1) for i in range(_GRID_POINTS)]

    def row(truncation_order: int) -> list:
        solution = spectral.spectral_solve(
            forcing, spectral.SpectralConfig(truncation_order))
        residuals = spectral.difference_residual(solution, forcing, xs)
        return [truncation_order, sorted(residuals)[_GRID_POINTS // 2],
                max(residuals)]

    return [row(k) for k in k_values]


def _reciprocal_expm1(z: complex) -> complex:
    """1/(e^z - 1) without cancellation or overflow.

    For Re z <= 0, e^z - 1 = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y
    (z = x + iy) keeps every digit near z = 0 and cannot overflow; for
    Re z > 0, 1/(e^z - 1) = -1 - 1/(e^-z - 1).
    """
    if z.real > 0:
        return -1.0 - _reciprocal_expm1(-z)
    x, y = z.real, z.imag
    real = math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2) ** 2
    return 1.0 / complex(real, math.exp(x) * math.sin(y))


def pfd_convergence_rows(z_values: Iterable[complex], k_values: Iterable[int],
                         threads: int = 1) -> list[list]:
    """Truncated partial-fraction error against direct 1/(e^z - 1), per (z, K).

    tail_bound = 2|z|/(pi^2 K) bounds the truncation error only once
    2 pi (K+1) >= sqrt(2) |z| (``pfd_eval``); below, abs_error may exceed it."""

    def row(z: complex, truncation_order: int) -> list:
        approx = partial_fractions.pfd_eval(z, truncation_order)
        bound = 2.0 * abs(z) / (math.pi ** 2 * truncation_order)
        return [polynomials.format_complex(z), truncation_order,
                abs(approx - _reciprocal_expm1(z)), bound]

    return [row(z, k) for z in z_values for k in k_values]


def ab_comparison_rows(n_values: Iterable[int], k_values: Iterable[int],
                       threads: int = 1) -> list[list]:
    """Worst numeric-vs-exact coefficient mismatch, per (n, K): each row is
    ``verify_comparison(n, K)``.  The rows of one K share its power sums
    through the prefix sums that ``power_sums`` caches, and the rows of
    one n share the B-table that ``coefficient_tables`` keeps.
    Every n is checked before any row is computed."""
    n_values, k_values = list(n_values), list(k_values)
    for n in n_values:
        zeta.check_table_order(n)
    return [[n, k, zeta.verify_comparison(n, k)]
            for n in n_values for k in k_values]
