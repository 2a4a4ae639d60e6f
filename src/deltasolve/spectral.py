"""Spectral solution of f(x+1) - f(x) = g(x) by a corrected mode sum.

Writing the difference operator as e^D - 1 (D = d/dx), its characteristic
zeros are z = 2*k*pi*i for integer k.  Each nonzero mode contributes the
term e^{a x} integral(e^{-a x} g(x) dx) with a = 2*k*pi*i, which for a
monomial forcing x^n has the closed form

    e^{a x} integral(e^{-a x} x^n dx)
        = -(1/a^(n+1)) sum_{j=0}^{n} (n!/j!) a^j x^j,

a polynomial once the integration constant is dropped (``exp_poly_integral``
below).  That is the x^n case of ``mode_polynomial``, the polynomial q with
q' - a q = g, which ``ode`` also takes at each characteristic root.  The
k = 0 mode is the plain antiderivative, and the corrected solution also
subtracts g/2:

    f = -g/2 + integral(g) + sum_{k != 0} e^{2 k pi i x}
                                  integral(e^{-2 k pi i x} g dx).

Without the -g/2 term (the historical, uncorrected form) the mode sum
misses the solution by exactly g/2.

Truncation keeps modes 1 <= |k| <= K.  The x^j coefficient of mode k for
forcing x^n is k^(-m), m = n + 1 - j, times its value c_j at the unit mode
a = 2*pi*i, and the -k mode is the conjugate, so each pair adds
2 Re(c_j) k^(-m): exactly 0 for odd m.  The truncated solution is thus a
fixed combination of the power sums S_m(K) = sum_{k<=K} k^(-m), which
``power_sums`` accumulates in descending k (bit-for-bit reproducible).
For m >= 3 it starts at min(K, k1(m)), where the integral test puts the
dropped tail below 2^-54; its error is that tail plus the rounding of a
descending sum, 2^-53 (S_m + sum_{k<=min(K, k1)} k^(1-m)).
Pairing is structural: one-sided sums diverge for any linear forcing term.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .polynomials import CoefficientOverflowError, ComplexPolynomial, Polynomial
from .rationals import DeltasolveError

__all__ = [
    "MAX_FORCING_DEGREE",
    "DegreeOverflowError",
    "SpectralConfig",
    "SpectralSolution",
    "power_sums",
    "mode_polynomial",
    "exp_poly_integral",
    "spectral_solve",
    "euler_gap",
    "difference_residual",
]

TWO_PI = 2.0 * math.pi

# n!/j! factors up to 30 stay comfortably inside double range; beyond that
# the closed-form coefficients are no longer trustworthy in one pass.
MAX_FORCING_DEGREE = 30

# 2^54: power sums stop where the integral-test tail falls to 2^-54.
_TAIL_LIMIT = 1 << 54


class DegreeOverflowError(DeltasolveError, ValueError):
    """Forcing degree exceeds what the double-precision mode sum supports."""


# Records are namedtuple subclasses: importing ``dataclasses`` would cost
# every CLI start milliseconds.
class SpectralConfig(namedtuple("SpectralConfig",
                                "truncation_order include_correction")):
    """Truncation order K (modes 1 <= |k| <= K) and the -g/2 correction flag."""

    __slots__ = ()

    def __new__(cls, truncation_order: int, include_correction: bool = True):
        if truncation_order < 1:
            raise ValueError("truncation order must be >= 1")
        return super().__new__(cls, truncation_order, include_correction)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that ``_replace`` validates too


class SpectralSolution(namedtuple("SpectralSolution", "polynomial_part config")):
    """A truncated spectral solution; the mode sum collapses to a polynomial.

    ``polynomial_part`` is a ``ComplexPolynomial``, ``config`` the
    ``SpectralConfig`` it was solved with.  Each +-k pair adds a real
    multiple of x^j, so the imaginary parts are exactly 0; they are kept
    complex so that this is observable, not forced.
    """

    __slots__ = ()


def mode_polynomial(a: complex, g: ComplexPolynomial) -> ComplexPolynomial:
    """The polynomial q(x) = e^{a x} integral(e^{-a x} g(x) dx), a != 0.

    q is the polynomial solution of q' - a q = g, of the same degree as g,
    built from the top down: q_d = -g_d / a, q_j = ((j+1) q_{j+1} - g_j) / a.
    """
    a = complex(a)
    if a == 0:
        raise ValueError("the mode polynomial requires a != 0; the zero "
                         "mode is a plain antiderivative")
    coeffs = list(g.coefficients)
    q = 0j
    for j in range(len(coeffs) - 1, -1, -1):
        q = ((j + 1) * q - coeffs[j]) / a
        coeffs[j] = q
    return ComplexPolynomial(coeffs)


def exp_poly_integral(a: complex, n: int) -> ComplexPolynomial:
    """``mode_polynomial`` of the monomial x^n, a != 0.

    Its coefficients are c_j = -(n!/j!) a^(j-n-1).
    """
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    return mode_polynomial(a, ComplexPolynomial((0,) * n + (1,)))


def _tail_cutoff(m: int) -> int:
    """k1(m): the smallest k with k^(1-m)/(m-1) <= 2^-54, for m >= 3.

    By the integral test, sum_{k>k1} k^-m < k1^(1-m)/(m-1) <= 2^-54, under
    half an ulp of any S_m >= 1.  A float root only seeds the search; the
    exact integer test (m-1) k^(m-1) >= 2^54 decides.
    """
    if m - 1 >= 54:  # 2^(m-1) alone passes the test, and (m-1) 1^(m-1) fails
        return 1 if m - 1 >= _TAIL_LIMIT else 2
    k = max(1, int((_TAIL_LIMIT / (m - 1)) ** (1.0 / (m - 1))))
    while k > 1 and (m - 1) * (k - 1) ** (m - 1) >= _TAIL_LIMIT:
        k -= 1
    while (m - 1) * k ** (m - 1) < _TAIL_LIMIT:
        k += 1
    return k


def power_sums(exponents: Iterable[int],
               truncation_order: int) -> dict[int, float]:
    """{m: sum_{k=1..K} k ** -m} for each m, K = truncation_order.

    Each sum accumulates in descending k, smallest terms first, from
    n = K, or for m >= 3 from n = min(K, k1(m)) (``_tail_cutoff``: at most
    1293 terms for m >= 6, 8192 for m = 5, 181761 for m = 4).  Every
    partial sum is then a tail sum_{i=k..n} i^-m, and the error is at most

        [n < K] 2^-54 + 2^-53 (S_m(K) + sum_{k<=n} k^(1-m)):

    the dropped terms (integral test) plus the first-order rounding of
    descending summation, a few ulps of S_m that grow only like log K for
    m = 2, where ascending k allows K ulps.  For K <= k1(m) the result is
    the full descending sum, bit for bit.  A tight pass per m is faster in
    CPython than one shared pass, and the fixed order makes results
    reproducible bit for bit.  ``k ** -m`` is a float power: it underflows
    to 0.0 for large m where ``1.0 / k ** m`` would raise OverflowError.
    """
    totals = {}
    for m in exponents:
        power, total = -m, 0.0
        start = truncation_order if m < 3 \
            else min(truncation_order, _tail_cutoff(m))
        for k in range(start, 0, -1):
            total += k ** power
        totals[m] = total
    return totals


def _mode_part(forcing: Sequence[float],
               truncation_order: int) -> list[float]:
    """x^j coefficients of the paired modes 1 <= |k| <= K for the forcing
    sum_p g_p x^p, g = forcing: the terms 2 g_p Re(c_j) S_m(K), m = p+1-j even.

    Against exact arithmetic on a = TWO_PI i (2 pi i within 2^-54 relative)
    and the float S_m, a term is within (2m + 1) 2^-53 relative to first
    order: 2m - 1 roundings build c_j (-1/a, then an integer product and a
    division by a per step), two more multiply by 2 g_p and S_m.  Each term
    after the first adds 2^-53 of the terms' magnitude sum; a monomial has
    one term per coefficient.  A power whose coefficient is 0 adds nothing,
    so its unit mode is not built.
    """
    sums = power_sums(range(2, len(forcing) + 1, 2), truncation_order)
    modes = [0.0] * len(forcing)
    for p, coeff in enumerate(forcing):
        if coeff == 0:
            continue
        unit_mode = exp_poly_integral(complex(0.0, TWO_PI), p)
        for j in range(p - 1, -1, -2):
            modes[j] += 2.0 * coeff * unit_mode.coefficient(j).real \
                * sums[p + 1 - j]
    return modes


def spectral_solve(forcing: Polynomial, config: SpectralConfig) -> SpectralSolution:
    """Truncated (optionally corrected) mode-sum solution of Df = forcing.

    polynomial_part = [-forcing/2 if corrected] + antiderivative(forcing)
        + sum over p, j with p+1-j even of 2 g_p Re(c_j) S_{p+1-j}(K) x^j,
    with c_j from ``exp_poly_integral(2 pi i, p)``; ``_mode_part`` bounds
    their rounding.  All integration constants are zero, which picks one
    member of the solution family (solutions differ by 1-periodic
    functions).  A coefficient outside double range raises
    ``CoefficientOverflowError``.
    """
    if forcing.degree > MAX_FORCING_DEGREE:
        raise DegreeOverflowError(
            f"forcing degree {forcing.degree} exceeds the supported maximum "
            f"of {MAX_FORCING_DEGREE}")
    float_forcing = ComplexPolynomial.from_exact(forcing)
    acc = ComplexPolynomial.zero()
    if config.include_correction:
        acc = acc + float_forcing * (-0.5)
    acc = acc + ComplexPolynomial.from_exact(forcing.antiderivative())
    acc = acc + ComplexPolynomial(_mode_part(
        [c.real for c in float_forcing.coefficients], config.truncation_order))
    if not all(map(cmath.isfinite, acc.coefficients)):
        raise CoefficientOverflowError(
            "a solution coefficient is outside double range")
    return SpectralSolution(polynomial_part=acc, config=config)


def euler_gap(forcing: Polynomial, x: float, truncation_order: int) -> float:
    """Uncorrected minus corrected solution at x; equals forcing(x)/2.

    Both solutions share the same mode sums and differ only in the -g/2
    term, so the gap is independent of the truncation order up to rounding.
    A finite x whose gap is not finite raises ``CoefficientOverflowError``.
    """
    uncorrected = spectral_solve(
        forcing, SpectralConfig(truncation_order, include_correction=False))
    corrected = spectral_solve(
        forcing, SpectralConfig(truncation_order, include_correction=True))
    x = float(x)
    gap = (uncorrected.polynomial_part(x) - corrected.polynomial_part(x)).real
    if math.isfinite(x) and not math.isfinite(gap):
        raise CoefficientOverflowError(
            f"the gap at x = {x!r} is outside double range")
    return gap


def difference_residual(solution: SpectralSolution, forcing: Polynomial,
                        sample_points: Sequence[float]) -> list[float]:
    """|s(x+1) - s(x) - forcing(x)| at each sample point.

    A finite point whose residual is not finite raises
    ``CoefficientOverflowError``.
    """
    s = solution.polynomial_part
    out = []
    for x in sample_points:
        x = float(x)
        residual = abs(s(x + 1.0) - s(x) - forcing(x))
        if math.isfinite(x) and not math.isfinite(residual):
            raise CoefficientOverflowError(
                f"the residual at x = {x!r} is outside double range")
        out.append(residual)
    return out
