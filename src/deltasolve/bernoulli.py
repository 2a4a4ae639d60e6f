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
stored.  Each even B_m, m >= 2, comes from Ramanujan's lacunary recurrence
(Ramanujan 1911, "Some properties of Bernoulli's numbers"):

    C(m+3, 3) B_m = A_m - sum_{1 <= j <= m/6} C(m+3, m-6j) B_{m-6j},

    A_m = (m+3)/3 for m = 0 or 2 (mod 6),   A_m = -(m+3)/6 for m = 4 (mod 6).

It reads every sixth earlier entry, about m/6 products per step where the
defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 reads every even one,
about m/2; the defining recurrence is the tests' oracle for the table.  The
table keeps every stored B_m as an integer over one common denominator (the
running lcm of the stored denominators and of B_1's 2), so each step sums
plain integers.  The numbers are deliberately *not* obtained by
back-substituting zeta values: the zeta closed forms downstream are
validated against them, and that check would be circular if the numbers
came from zeta.

Indices are capped at MAX_BERNOULLI_INDEX = 1000 (a cold table up to B_1000
takes 0.7 to 0.9 s): ``bernoulli``, ``BernoulliTable.value``, ``faulhaber``
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
        # _values[k] = B_2k and _scaled[k] = B_2k * _denominator, an integer.
        self._values: list[Fraction] = [Fraction(1)]
        self._scaled: list[int] = [2]
        # The running lcm of the stored denominators.  It starts at 2, the
        # denominator of B_1, so B_1 is the integer -d // 2 over any prefix
        # lcm d.
        self._denominator = 2
        # _lcms[k]: _denominator right after B_2k was stored.
        self._lcms: list[int] = [2]
        self._lock = threading.Lock()

    @property
    def computed_up_to(self) -> int:
        return 2 * (len(self._values) - 1)

    def value(self, n: int) -> Fraction:
        """B_n for 0 <= n <= MAX_BERNOULLI_INDEX.  An odd n returns B_1 or
        0 at once, without the lock or any growth (module docstring); an
        even n grows the table to n."""
        _check_index(n)
        if n % 2:
            return Fraction(-1, 2) if n == 1 else Fraction(0)
        with self._lock:
            while len(self._values) <= n // 2:
                self._append_next()
            return self._values[n // 2]

    def _scaled_prefix(self, n: int) -> tuple[list[int], int]:
        """(numerators, d) with B_2k = numerators[k] / d for 2k <= n, and d
        the lcm of the denominators of B_0..B_n and 2, not of the whole
        table: where they differ, each stored numerator is divided exactly
        by the whole table's denominator over d.  The table grows only
        through ``value``."""
        _check_index(n)
        self.value(n - n % 2)
        with self._lock:
            scaled, d = self._scaled[:n // 2 + 1], self._lcms[n // 2]
            shrink = self._denominator // d
        if shrink != 1:
            scaled = [b_k // shrink for b_k in scaled]
        return scaled, d

    def _append_next(self) -> None:
        # Ramanujan's recurrence (module docstring) for m = 2 len(_values),
        # with A_m = r/s and acc = d sum_j C(m+3, m-6j) B_{m-6j} over the
        # common denominator d, B_{m-6j} at position m/2 - 3j; so
        # B_m = (r d - s acc) / (s d C(m+3, 3)).
        m = 2 * len(self._values)
        r, s = (-(m + 3), 6) if m % 6 == 4 else (m + 3, 3)
        acc = 0
        for k in range(m // 2 - 3, -1, -3):
            acc += math.comb(m + 3, 2 * k) * self._scaled[k]
        d = self._denominator
        b_m = Fraction(r * d - s * acc, s * d * math.comb(m + 3, 3))
        self._values.append(b_m)
        grow = b_m.denominator // math.gcd(b_m.denominator, d)
        if grow != 1:
            self._denominator *= grow
            self._scaled = [b_k * grow for b_k in self._scaled]
        self._scaled.append(
            b_m.numerator * (self._denominator // b_m.denominator))
        self._lcms.append(self._denominator)


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
