"""Spectral solution of f(x+1) - f(x) = g(x) by a corrected mode sum.

Writing the difference operator as e^D - 1 (D = d/dx), its characteristic
zeros are z = 2*k*pi*i for integer k.  Each nonzero mode contributes the
term e^{a x} integral(e^{-a x} g(x) dx) with a = 2*k*pi*i, which for a
monomial forcing x^n has the closed form

    e^{a x} integral(e^{-a x} x^n dx)
        = -(1/a^(n+1)) sum_{j=0}^{n} (n!/j!) a^j x^j,

a polynomial once the integration constant is dropped (``exp_poly_integral``
below): ``polynomials.mode_polynomial`` at g = x^n, the polynomial q with
q' - a q = g that ``ode`` also takes at each characteristic root.  The
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
fixed combination of the even-m power sums S_m(K) = sum_{k<=K} k^(-m),
which ``_mode_part`` fetches.  ``power_sums`` adds the n = min(K, k1(m))
terms (the integral test puts the dropped tail below 2^-54; n = K for
m = 2) in one fixed order: at most 31 terms in descending k, then a
compensated prefix over 32-term sub-blocks, cached per m.  The result
depends on m and n alone, never on earlier calls; its docstring bounds
the error.
Pairing is structural: one-sided sums diverge for any linear forcing term.

The solve and the residual cross from exact to double once per call
(``polynomials._rounded``): each forcing coefficient g_n and each
antiderivative coefficient g_n/(n+1) is rounded once from its exact
rational, and all that follows is double arithmetic on lists, with one
``ComplexPolynomial`` built at the end.
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import zip_longest

from . import MAX_TERMS
from .polynomials import (CoefficientOverflowError, ComplexPolynomial,
                          Polynomial, _horner, _rounded, mode_polynomial)
from .rationals import DeltasolveError

__all__ = [
    "MAX_FORCING_DEGREE",
    "DegreeOverflowError",
    "TruncationOrderError",
    "SpectralConfig",
    "SpectralSolution",
    "power_sums",
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

# Terms per sub-block of the cached prefix: a call sums at most 31 powers.
_SUB = 32

# _PREFIXES[m] = (hi, lo): hi[s] + lo[s] = S_m(32 s), the sub-block sums
# added from s = 0 up by Fast2Sum.  The arrays only grow, in place and
# under _GROWTH, lo first: a value once stored never changes, and an hi[s]
# a thread sees has its lo[s], even while another thread extends them.
_PREFIXES: dict[int, tuple[array, array]] = {}
_GROWTH = threading.Lock()


class DegreeOverflowError(DeltasolveError, ValueError):
    """Forcing degree exceeds what the double-precision mode sum supports."""


class TruncationOrderError(DeltasolveError, ValueError):
    """A truncation order K, or a term count N, above MAX_TERMS."""


def _check_truncation_order(truncation_order: int) -> None:
    """Refuse a K outside 1..MAX_TERMS, before any sum over K terms starts."""
    if truncation_order < 1:
        raise ValueError("truncation order must be >= 1")
    if truncation_order > MAX_TERMS:
        raise TruncationOrderError(
            f"truncation order {truncation_order} must be <= {MAX_TERMS}")


# Records are namedtuple subclasses: importing ``dataclasses`` would cost
# every CLI start milliseconds.
class SpectralConfig(namedtuple("SpectralConfig",
                                "truncation_order include_correction")):
    """Truncation order K (modes 1 <= |k| <= K, 1 <= K <= MAX_TERMS) and
    the -g/2 correction flag."""

    __slots__ = ()

    def __new__(cls, truncation_order: int, include_correction: bool = True):
        _check_truncation_order(truncation_order)
        return super().__new__(cls, truncation_order, include_correction)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that ``_replace`` validates too


class SpectralSolution(namedtuple("SpectralSolution", "polynomial_part config")):
    """A truncated spectral solution; the mode sum collapses to a polynomial.

    ``polynomial_part`` is a ``ComplexPolynomial``, ``config`` the
    ``SpectralConfig`` it was solved with.  Each +-k pair adds a real
    multiple of x^j, and the solve runs on real doubles (``_rounded``), so
    the imaginary parts are 0.0 by construction.
    """

    __slots__ = ()


def exp_poly_integral(a: complex, n: int) -> ComplexPolynomial:
    """``mode_polynomial`` of ``ComplexPolynomial.monomial(n)``, a != 0.

    Its coefficients are c_j = -(n!/j!) a^(j-n-1).
    """
    return mode_polynomial(a, ComplexPolynomial.monomial(n))


@functools.lru_cache(maxsize=128)
def _tail_cutoff(m: int) -> int:
    """k1(m): the smallest k with k^(1-m)/(m-1) <= 2^-54, for m >= 2.

    By the integral test, sum_{k>k1} k^-m < k1^(1-m)/(m-1) <= 2^-54, under
    half an ulp of any S_m >= 1.  The truncated float root seeds the
    search and the exact integer test (m-1) k^(m-1) >= 2^54 decides,
    counting up: for each m = 2..54 the seed is k1(m) or one below it.
    k1(2) = 2^54 is above MAX_TERMS, so S_2 is never cut short.  The memo
    is bounded, as a caller may pass any m; for m >= 55 k1 is a constant.
    """
    if m - 1 >= 54:  # 2^(m-1) alone passes the test, and (m-1) 1^(m-1) fails
        return 1 if m - 1 >= _TAIL_LIMIT else 2
    k = max(1, int((_TAIL_LIMIT / (m - 1)) ** (1.0 / (m - 1))))
    while (m - 1) * k ** (m - 1) < _TAIL_LIMIT:
        k += 1
    return k


def power_sums(exponents: Iterable[int],
               truncation_order: int) -> dict[int, float]:
    """{m: sum_{k=1..K} k ** -m} for each m >= 2, K = truncation_order.

    Each sum covers k <= n = min(K, k1(m)) (``_pass_length``: K for m = 2,
    at most 1293 terms for m >= 6, 8192 for m = 5, 181761 for m = 4).
    With s = floor(n/32), a call returns (sum_{k=n..32s+1} k^-m + lo) + hi,
    the at most 31 terms added in descending k, and hi + lo = S_m(32 s)
    from ``_prefix_sums``: each 32-term sub-block summed in descending k,
    the sub-block sums added exactly but for the rounding of lo.  The
    error is at most

        [n < K] 2^-54 + 2^-53 (2 S_m(K) + sum_{k<=n} k^(1-m)):

    the dropped terms (integral test), the rounding of the powers (one
    S_m), of the descending additions (each partial sum a tail of its
    sub-block or of the last terms, with lo added as one of them) and of
    hi (one S_m): a few ulps of S_m that grow only like log K for m = 2,
    where ascending k allows K ulps.  The rounding of lo adds at most
    s^2 2^-106 S_m, below 2^-76 S_m at n <= MAX_TERMS.  The order is fixed
    by m and n alone, so the result is the same bit for bit whatever was
    called before.  Only m = 2..11 have s >= 1; the cache holds two doubles
    per 32 terms, 1.1 MB over m = 2..7 after a call at K = MAX_TERMS.
    ``k ** -m`` is a float power: it underflows to 0.0 for large m where
    ``1.0 / k ** m`` would raise OverflowError.  An exponent below 2 or a K
    below 1 raises ``ValueError``, and a K above MAX_TERMS
    ``TruncationOrderError``, before any sum.
    """
    _check_truncation_order(truncation_order)
    exponents = tuple(exponents)
    if any(m < 2 for m in exponents):
        raise ValueError("power sum exponents must be >= 2")
    totals = {}
    for m in exponents:
        n = _pass_length(m, truncation_order)
        s = n // _SUB
        hi, lo = _prefix_sums(m, s)
        totals[m] = (_descending_sum(m, n, s * _SUB) + lo) + hi
    return totals


def _prefix_sums(m: int, s: int) -> tuple[float, float]:
    """(hi[s], lo[s]), hi[s] + lo[s] = S_m(32 s), computing and caching the
    missing sub-blocks; (0.0, 0.0) for s = 0, which caches nothing.

    Each new sub-block is summed in descending k, in this one frame, and
    added to the prefix by Fast2Sum, t = hi + sub; lo += (hi - t) + sub;
    hi = t, exact as hi is 0 or at least 1 > sub."""
    if not s:
        return 0.0, 0.0
    prefix = _PREFIXES.get(m)
    if prefix is None or len(prefix[0]) <= s:
        with _GROWTH:
            hi, lo = prefix = _PREFIXES.setdefault(
                m, (array("d", [0.0]), array("d", [0.0])))
            power, total, error = float(-m), hi[-1], lo[-1]
            steps = [float(i) for i in range(_SUB, 0, -1)]
            for low in map(float, range(_SUB * (len(hi) - 1), _SUB * s, _SUB)):
                sub = 0.0
                for step in steps:  # low + step is exact: k counts down
                    sub += (low + step) ** power
                t = total + sub
                error += (total - t) + sub
                total = t
                lo.append(error)
                hi.append(total)
    hi, lo = prefix
    return hi[s], lo[s]


def _descending_sum(m: int, high: int, low: int) -> float:
    """sum_{k=low+1..high} k ** -m, added in descending k.  k counts down
    as a double: float(k) ** float(-m) is the double that k ** -m gives,
    with one conversion less per term."""
    power, total, k = float(-m), 0.0, float(high)
    for _ in range(high - low):
        total += k ** power
        k -= 1.0
    return total


def _pass_length(m: int, truncation_order: int) -> int:
    """The number n = min(K, k1(m)) of terms that ``power_sums`` sums for
    S_m(K), m >= 2; that is K for m = 2 (``_tail_cutoff``)."""
    return min(truncation_order, _tail_cutoff(m))


def _mode_part(forcing: Sequence[float],
               truncation_order: int) -> list[float]:
    """x^j coefficients of the paired modes 1 <= |k| <= K for the forcing
    sum_p g_p x^p, g = forcing, K = truncation_order: the terms
    2 g_p Re(c_j) S_m(K), m = p+1-j even, with c_j from
    ``exp_poly_integral(2 pi i, p)`` and S_m(K) from one ``power_sums``
    call over every even m <= len(forcing), which checks K.

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
    the mode part, which ``_mode_part`` builds and bounds.  The exact side
    is crossed once, by ``_rounded``: each forcing and antiderivative
    coefficient is rounded once from its exact rational, and the rest is
    double arithmetic, added per coefficient in the order above.  All
    integration constants are zero, which picks one member of the solution
    family (solutions differ by 1-periodic functions).  A coefficient
    outside double range raises ``CoefficientOverflowError``.
    """
    if forcing.degree > MAX_FORCING_DEGREE:
        raise DegreeOverflowError(
            f"forcing degree {forcing.degree} exceeds the supported maximum "
            f"of {MAX_FORCING_DEGREE}")
    g, coeffs = _rounded(forcing)
    if config.include_correction:
        for j, c in enumerate(g):
            coeffs[j] += -0.5 * c
    for j, c in enumerate(_mode_part(g, config.truncation_order)):
        coeffs[j] += c
    if not all(map(math.isfinite, coeffs)):
        raise CoefficientOverflowError(
            "a solution coefficient is outside double range")
    return SpectralSolution(polynomial_part=ComplexPolynomial(coeffs),
                            config=config)


def euler_gap(forcing: Polynomial, x: float, truncation_order: int) -> float:
    """Uncorrected minus corrected solution at x; equals forcing(x)/2.

    Both solutions share the same mode sums and differ only in the -g/2
    term, so the gap is independent of the truncation order up to rounding.
    Their real coefficients u_j, c_j are subtracted before one ``_horner``
    at x, so to first order the error is at most 2^-53 times the sum over
    j <= deg g of (|u_j| + |c_j| + |a_j| + (deg g + 2) |g_j|) |x|^j, a_j
    the antiderivative's; no two values of size |x|^(deg g + 1) cancel.  A
    finite x whose gap is not finite raises ``CoefficientOverflowError``;
    an x that is not finite gives nan, and the zero forcing 0.0 elsewhere.
    """
    u, c = (spectral_solve(forcing, SpectralConfig(truncation_order, flag))
            .polynomial_part.real_coefficients() for flag in (False, True))
    half = [a - b for a, b in zip_longest(u, c, fillvalue=0.0)]  # about g/2
    x = float(x)
    gap = _horner(half, x) + 0.0  # + 0.0: the zero forcing gives 0.0, not -0.0
    if math.isfinite(x) and not math.isfinite(gap):
        raise CoefficientOverflowError(
            f"the gap at x = {x!r} is outside double range")
    return gap


def difference_residual(solution: SpectralSolution, forcing: Polynomial,
                        sample_points: Sequence[float]) -> list[float]:
    """|s(x+1) - s(x) - forcing(x)| at each sample point.

    Double Horner on the real parts of s (a solve's imaginary parts are
    exactly 0) and on the forcing rounded once by ``_rounded``.  Evaluating
    the exact forcing at a double adds float(g_n) at each step, as
    ``Fraction`` falls back to float arithmetic, so the values are the same.
    A finite point whose residual is not finite raises
    ``CoefficientOverflowError``; a point that is not finite gives a
    residual that is not finite.
    """
    s = solution.polynomial_part.real_coefficients()
    g, _ = _rounded(forcing)
    out = []
    for x in sample_points:
        x = float(x)
        residual = abs(_horner(s, x + 1.0) - _horner(s, x) - _horner(g, x))
        if math.isfinite(x) and not math.isfinite(residual):
            raise CoefficientOverflowError(
                f"the residual at x = {x!r} is outside double range")
        out.append(residual)
    return out
