"""Bernoulli numbers, power-sum polynomials, and the exact antidifference.

The antidifference inverts the forward difference: given a polynomial g it
returns the unique polynomial f with f(x+1) - f(x) = g(x) and f(0) = 0.
Solutions of the difference equation are only determined up to an additive
1-periodic function, so pinning the constant term to zero is what makes the
result canonical.  This exact construction is the reference that the
truncated spectral summation is judged against.

Following Euler, the antidifference of x^n is the Bernoulli polynomial
difference (B_{n+1}(x) - B_{n+1}) / (n+1), so by linearity the x^j
coefficient of f (j >= 1) is

    (1/j) sum_{n >= j-1} g_n C(n, j-1) B_{n+1-j},

read straight off the Bernoulli table; the Faulhaber polynomial is
S_n(x) = antidifference(x^n) + x^n.  A term is nonzero only where both
g_n and B_{n+1-j} are, so the kernel visits just those pairs: each nonzero
g_n meets B_0, B_1 and the even B_i up to B_n, about n/2 terms, and the
monomial x^n behind S_n is one such n.  Every coefficient is still one
exact integer sum over a common denominator and one ``Fraction``, so
skipping the zero terms cannot change a bit of the result.

Bernoulli numbers use the B_1 = -1/2 convention.  B_0 = 1 and B_1 = -1/2
are base cases.  Odd B_n, n >= 3, are 0: t/(e^t - 1) = sum B_n t^n/n!,
and t/(e^t - 1) + t/2 = (t/2) coth(t/2) is even, so B_1 t is its only odd
term.  The table stores only B_0 and the even B_m; ``value`` answers an odd
n at once, without the lock or any growth, and odd numbers are never
stored.  The even B_2k, k >= 1, come from the integer tangent numbers T_k
(tan t = sum T_k t^(2k-1)/(2k-1)!), by the in-place triangle of Brent &
Harvey ("Fast computation of Bernoulli, Tangent and Secant numbers", 2011,
arXiv:1108.0286):

    T_1 = 1,  T_k = (k-1) T_{k-1},  then for k = 2..K and j = k..K:
    T_j = (j-k) T_{j-1} + (j-k+2) T_j,

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

Each step multiplies a big integer by a small one, O(K^2) steps in all.
The triangle does not extend in place, so each growth rebuilds the table,
to the index asked for or to twice the old top (at most
MAX_BERNOULLI_INDEX), whichever is higher, which keeps growth amortised.
The defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 is the tests'
oracle for the table.  The numbers are deliberately *not*
obtained by back-substituting zeta values: the T_k are integers and never
touch zeta, and the zeta closed forms downstream are validated against
them, so that check would be circular if the numbers came from zeta.

Indices are capped at MAX_BERNOULLI_INDEX = 1000 (a cold table up to B_1000
takes about 0.1 s): ``bernoulli``, ``BernoulliTable.value``, ``faulhaber``
and the antidifference of a forcing above degree 1000 raise
``BernoulliIndexError`` before the table grows.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from . import MAX_BERNOULLI_INDEX
from .polynomials import Polynomial
from .rationals import DeltasolveError

__all__ = [
    "BernoulliIndexError",
    "BernoulliTable",
    "bernoulli",
    "faulhaber",
    "antidifference_polynomial",
]


class BernoulliIndexError(DeltasolveError, ValueError):
    """A Bernoulli index, or a Faulhaber power, above MAX_BERNOULLI_INDEX."""


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n > MAX_BERNOULLI_INDEX:
        raise BernoulliIndexError(
            f"Bernoulli index {n} must be <= {MAX_BERNOULLI_INDEX}")


class BernoulliTable:
    """Memoised Bernoulli numbers with thread-safe on-demand extension.

    Only B_0 and the even B_2k are stored, one slot per even index: B_1 and
    the odd zeros are constants that ``value`` answers without growth."""

    def __init__(self) -> None:
        # _values[k] = B_2k; _lcms[k] = lcm(2, denominators of B_0..B_2k),
        # where 2 is B_1's denominator, so B_1 is the integer -d // 2 over
        # any prefix lcm d.
        self._values: list[Fraction] = [Fraction(1)]
        self._lcms: list[int] = [2]
        self._lock = threading.Lock()

    @property
    def computed_up_to(self) -> int:
        return 2 * (len(self._values) - 1)

    def value(self, n: int) -> Fraction:
        """B_n for 0 <= n <= MAX_BERNOULLI_INDEX.  An odd n returns B_1 or
        0 at once, without the lock or any growth; an even n above the
        table's top grows it as the module docstring says."""
        _check_index(n)
        if n % 2:
            return Fraction(-1, 2) if n == 1 else Fraction(0)
        with self._lock:
            top = self.computed_up_to
            if n > top:
                self._grow(max(n, min(2 * top, MAX_BERNOULLI_INDEX)) // 2)
            return self._values[n // 2]

    def _scaled_prefix(self, n: int) -> tuple[list[int], int]:
        """(numerators, d) with B_2k = numerators[k] / d for 2k <= n, and d
        the lcm of the denominators of B_0..B_n and 2, not of the whole
        table.  The table grows only through ``value``."""
        _check_index(n)
        self.value(n - n % 2)
        with self._lock:
            values, d = self._values[:n // 2 + 1], self._lcms[n // 2]
        return [b.numerator * (d // b.denominator) for b in values], d

    def _grow(self, half: int) -> None:
        # The tangent numbers T_1..T_half by the triangle of the module
        # docstring, in place, then B_2k from T_k; both lists are rebuilt.
        t = [0, 1] + [0] * (half - 1)
        for k in range(2, half + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, half + 1):
            for j in range(k, half + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        values, lcms = [Fraction(1)], [2]
        for k in range(1, half + 1):
            b = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
            values.append(b)
            lcms.append(math.lcm(lcms[-1], b.denominator))
        self._values, self._lcms = values, lcms


_TABLE = BernoulliTable()


def bernoulli(n: int) -> Fraction:
    """B_n in the B_1 = -1/2 convention, 0 <= n <= MAX_BERNOULLI_INDEX
    (an odd n is answered without growing the table)."""
    return _TABLE.value(n)


def _antidifference_coefficients(
        coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    """Ascending coefficients of the antidifference of sum coeffs[n] x^n,
    constant term 0, from the Bernoulli-polynomial formula in the module
    docstring; the highest index it reads is B_deg.

    It visits only the pairs (n, i = n+1-j) with g_n != 0 and B_i != 0
    (i = 0, 1 or even): for each nonzero g_n, the nonzero B_i with i <= n,
    added into the x^(n+1-i) coefficient.  Each coefficient is the exact
    integer sum of its terms over the common denominator q d of the forcing
    (q) and of B_0..B_deg (d), turned into one ``Fraction(acc, j q d)``; the
    terms it skips are exactly 0, and an integer sum does not depend on its
    order, so the result is bit-identical to the sum over every pair."""
    top = len(coeffs)
    b, d = _TABLE._scaled_prefix(max(top - 1, 0))
    q = math.lcm(*(c.denominator for c in coeffs))
    # (i, B_i d) for the nonzero B_i: i = 0, 1 and the even i below top,
    # with B_1 d = -d // 2.  The term of (n, i) is g_n C(n, j-1) B_i with
    # j = n+1-i, and C(n, j-1) = C(n, i).
    table = [(0, b[0]), (1, -d // 2)]
    table += [(2 * k, b[k]) for k in range(1, len(b))]
    acc = [0] * (top + 1)
    for n, c in enumerate(coeffs):
        if c:
            g_n = c.numerator * (q // c.denominator)
            for i, b_i in table[:min(n + 1, n // 2 + 2)]:
                acc[n + 1 - i] += g_n * math.comb(n, i) * b_i
    return [Fraction(0)] + [Fraction(acc[j], j * q * d)
                            for j in range(1, top + 1)]


def faulhaber(n: int) -> Polynomial:
    """The power-sum polynomial S_n with S_n(m) = sum_{k=1}^{m} k^n.

    For n >= 1, S_n(x) - S_n(x-1) = x^n and S_n(0) = 0, so S_n is the
    antidifference of x^n plus x^n:

        S_n(x) = x^(n+1)/(n+1) + x^n/2
                 + (1/(n+1)) sum_{j=2}^{n} C(n+1, j) B_j x^(n+1-j),

    which has no constant term.  The x^n/2 comes from B_1 = -1/2 and
    presumes n >= 1, so n = 0 is the explicit base case S_0(x) = x.
    """
    if n < 0:
        raise ValueError("faulhaber requires n >= 0")
    if n > MAX_BERNOULLI_INDEX:
        raise BernoulliIndexError(
            f"faulhaber power {n} must be <= {MAX_BERNOULLI_INDEX}")
    if n == 0:
        return Polynomial.monomial(1)
    coeffs = _antidifference_coefficients((Fraction(0),) * n + (Fraction(1),))
    coeffs[n] += 1
    return Polynomial(coeffs)


def antidifference_polynomial(forcing: Polynomial) -> Polynomial:
    """The unique f with f(x+1) - f(x) = forcing(x) and f(0) = 0.

    By linearity, the sum over n of forcing_n (B_{n+1}(x) - B_{n+1}) / (n+1);
    the coefficients come straight from the Bernoulli table, up to
    B_deg, so a forcing above degree MAX_BERNOULLI_INDEX raises
    ``BernoulliIndexError``.
    """
    return Polynomial(_antidifference_coefficients(forcing.coefficients))
