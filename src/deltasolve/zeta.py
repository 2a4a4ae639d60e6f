"""Even zeta values: exact closed forms, a bracketing oracle, and the
numeric-vs-exact coefficient comparison that links mode sums to Bernoulli
numbers.

The closed form is

    zeta(2j) = (-1)^(j-1) (2 pi)^(2j) B_{2j} / (2 (2j)!),

kept as an exact rational multiple of pi^(2j).  Its independent check is the
integral-test bracket around the partial sum S_N = sum_{k<=N} k^(-2j):

    S_N + integral_{N+1}^inf t^(-2j) dt  <  zeta(2j)  <  S_N + integral_N^inf,

which never touches Bernoulli numbers.  S_N comes from
``spectral.power_sums``, whose docstring bounds its error.

``coefficient_tables`` compares the two solvers coefficient by coefficient
for forcing x^n.  A(n, j) is the x^j coefficient of the truncated spectral
mode part, -(n!/j!) sum_{1<=|k|<=K} (2 k pi i)^(j-(n+1)), from
``spectral._mode_part``, which fetches the power sums it reads; B(n, j) is
the x^(n+1-j) coefficient of ``faulhaber(n)``, C(n+1, j) B_j / (n+1) for
2 <= j <= n, else 0.  A comes from power sums and B from the Bernoulli
recurrence, so the comparison is not circular.  Agreement is
A(n, n+1-j) = B(n, j).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from . import MAX_TABLE_ORDER, bernoulli, spectral

__all__ = [
    "ZetaClosedForm",
    "zeta_even_closed_form",
    "zeta_partial_sum",
    "check_table_order",
    "coefficient_tables",
    "verify_comparison",
]

# MAX_TABLE_ORDER = 12 bounds the tables: beyond n = 12 the exact B-table
# stays cheap but the numeric A-table's n!/j! prefactors start amplifying
# tail error past usefulness.

# pi truncated to 128 fractional bits: pi = _PI_SCALED / 2^128 + e,
# 0 <= e < 2^-128.
_PI_BITS = 128
_PI_SCALED = 0x3243F6A8885A308D313198A2E03707344


class ZetaClosedForm(namedtuple("ZetaClosedForm", "j coefficient pi_power")):
    """zeta(2j) = coefficient * pi^pi_power with an exact ``Fraction``
    coefficient and an integer ``pi_power``."""

    __slots__ = ()

    def value(self) -> float:
        """coefficient * pi^pi_power as a float.

        The product is formed exactly in integers, with pi scaled by 2^128,
        and rounded once, so no intermediate leaves double range (pi^620
        would) or loses bits to the subnormal range (the coefficient near
        j = 309 would).  Relative error: at most pi_power * 2^-129 from the
        truncated pi, plus half an ulp from the rounding.
        """
        n = self.pi_power
        return (self.coefficient.numerator * _PI_SCALED ** n) \
            / (self.coefficient.denominator << (_PI_BITS * n))


def zeta_even_closed_form(j: int) -> ZetaClosedForm:
    """Exact zeta(2j) for j >= 1: (|B_2j| 2^(2j-1) / (2j)!) pi^(2j)."""
    if j < 1:
        raise ValueError("zeta_even_closed_form requires j >= 1")
    coefficient = abs(bernoulli.bernoulli(2 * j)) \
        * Fraction(2 ** (2 * j - 1), math.factorial(2 * j))
    return ZetaClosedForm(j=j, coefficient=coefficient, pi_power=2 * j)


def zeta_partial_sum(j: int, n_terms: int) -> tuple[float, float]:
    """Integral-test bracket [lower, upper] around zeta(2j), N = n_terms.

    In exact arithmetic the true value lies strictly inside; the width is
    the difference of the two tail integrals, about (2j-1)/N^(2j) of the
    first omitted term scale.  The ends are doubles, each carrying the
    rounding of ``power_sums`` and of its tail, and they are not widened
    for it: once the width falls below that rounding, both ends can round
    to one double and the bracket can exclude the value, as it does for
    j = 7, N = 30.
    """
    if j < 1:
        raise ValueError("zeta_partial_sum requires j >= 1")
    if n_terms < 2:
        raise ValueError("zeta_partial_sum requires at least 2 terms")
    exponent = 2 * j
    partial = spectral.power_sums((exponent,), n_terms)[exponent]
    def tail(m: int) -> float:
        return float(m) ** (1 - exponent) / (exponent - 1)
    return (partial + tail(n_terms + 1), partial + tail(n_terms))


def check_table_order(n: int) -> None:
    """Refuse a table order n outside 1..MAX_TABLE_ORDER."""
    if not 1 <= n <= MAX_TABLE_ORDER:
        raise ValueError(f"table order must be in 1..{MAX_TABLE_ORDER}")


def coefficient_tables(n: int, truncation_order: int
                       ) -> tuple[list[float], list[Fraction]]:
    """(A, B) tables for forcing x^n, both indexed by j = 0..n (module
    docstring).  A entries with odd n+1-j are exactly 0: each +-k pair
    cancels there.  B depends on n alone: it is built once per n and the
    caller gets a copy.
    """
    check_table_order(n)
    a_table = spectral._mode_part([0.0] * n + [1.0], truncation_order)
    return a_table, list(_b_table(n))


@functools.cache
def _b_table(n: int) -> tuple[Fraction, ...]:
    """The B-table of order n, from ``faulhaber(n)``; callers check n first
    (``check_table_order``), so the memo holds at most 12 tables."""
    power_sum = bernoulli.faulhaber(n)
    return (Fraction(0),) * 2 + tuple(
        power_sum.coefficient(n + 1 - j) for j in range(2, n + 1))


def verify_comparison(n: int, truncation_order: int) -> float:
    """max_{2 <= j <= n} |A(n, n+1-j) - B(n, j)|; 0.0 when the range is empty."""
    a_table, b_table = coefficient_tables(n, truncation_order)
    worst = 0.0
    for j in range(2, n + 1):
        worst = max(worst, abs(a_table[n + 1 - j] - float(b_table[j])))
    return worst
