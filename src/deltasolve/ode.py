"""Constant-coefficient linear ODEs solved through characteristic roots.

For the operator P(D) = a_0 + a_1 D + ... + a_n D^n (D = d/dx) with simple
characteristic roots, a particular solution for polynomial forcing g is

    f = sum over roots r of (1/P'(r)) e^{r x} integral(e^{-r x} g dx),

where each nonzero-root term is the polynomial ``mode_polynomial`` builds
and a zero root contributes the exact antiderivative, rounded once
(``_rounded``), divided by P'(0); both come from ``polynomials``.  The
terms are added in root order, sorted by real, then imaginary part.  With
all integration constants zero every term is a polynomial, so the returned
``ExpPoly`` is a single exponent-zero term.
Repeated or numerically near-multiple roots are outside this method and
abort with ``MultipleRootUnsupported`` rather than return something
half-right.  Roots that pass the separation tests can still be close enough
for the 1/P'(r) weights to cancel away most digits, so the solution is also
checked against the equation itself: no coefficient of P(D) f - g may exceed
SOLUTION_RESIDUAL_TOLERANCE times the largest coefficient of
sum_i |a_i f^(i)| + |g|, and a solution coefficient outside double range
raises ``CoefficientOverflowError``.

Roots come from a Weierstrass (Durand-Kerner) simultaneous iteration started
on a perturbed circle whose radius is the Cauchy bound, then polished with a
few Newton steps.  Writing P = z^s Q with Q(0) != 0, ``find_roots`` refuses
s >= 2 at once, returns a zero root as 0j exactly and runs both on Q alone.
The iteration stops once no step exceeds _TOLERANCE times (1 + the largest
estimate's magnitude), or once an estimate leaves double range, or gives up
after _MAX_ITERATIONS sweeps.  It is sequential and its starting points are
fixed, so the returned ordering (sorted by real part, then imaginary part)
and everything accumulated from it is deterministic.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import combinations

from . import MAX_OPERATOR_DEGREE
from .polynomials import (CoefficientOverflowError, ComplexPolynomial,
                          Polynomial, _rounded, mode_polynomial)
from .rationals import DeltasolveError

__all__ = [
    "MIN_ROOT_SEPARATION",
    "RootFindingError",
    "MultipleRootUnsupported",
    "CharacteristicPolynomial",
    "ExpPolyTerm",
    "ExpPoly",
    "find_roots",
    "solve_linear_ode",
    "apply_operator",
]

MIN_ROOT_SEPARATION = 1e-6
# A root is refused where |P'| is below this floor times |a_n| (a floor on
# the monic P'), so that scaling P, which keeps its roots, refuses the same.
DERIVATIVE_MAGNITUDE_FLOOR = 1e-8
RESIDUAL_SCALE = 1e-9
NEWTON_POLISH_STEPS = 3
_TOLERANCE = 1e-12
_MAX_ITERATIONS = 200
# Relative residual of the solution (see ``_check_residual``).  Over 40
# seeded operators each, roots 1e-3 apart leave up to 1.4e-6 and 1e-5 apart
# up to 0.55; roots 0.1 apart stay below 2e-12.
SOLUTION_RESIDUAL_TOLERANCE = 1e-8


class RootFindingError(DeltasolveError, RuntimeError):
    """Simultaneous iteration failed to converge or verify."""


class MultipleRootUnsupported(DeltasolveError, ValueError):
    """Repeated characteristic roots, or roots too close to solve with:
    numerically indistinguishable, or leaving a solution that misses the
    equation."""


class CharacteristicPolynomial(namedtuple("CharacteristicPolynomial",
                                          "coefficients")):
    """P(z) = a_0 + a_1 z + ... + a_n z^n with a_n != 0 and
    1 <= n <= MAX_OPERATOR_DEGREE.

    ``coefficients`` is stored as a tuple of complex a_0, ..., a_n.
    """

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = tuple(complex(c) for c in coefficients)
        if len(coeffs) < 2:
            raise ValueError("characteristic polynomial needs degree >= 1")
        if len(coeffs) > MAX_OPERATOR_DEGREE + 1:
            raise ValueError(f"operator degree {len(coeffs) - 1} must be "
                             f"<= {MAX_OPERATOR_DEGREE}")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if not all(math.isfinite(math.hypot(c.real, c.imag)) for c in coeffs):
            raise ValueError("coefficient magnitudes must be finite doubles")
        return super().__new__(cls, coeffs)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that ``_replace`` validates too

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def find_roots(polynomial: CharacteristicPolynomial) -> list[complex]:
    """All roots, sorted by (real, imaginary); simple roots only.

    For P = z^s Q with Q(0) != 0 a zero root is returned as ``0j`` exactly,
    and the iteration and polish run on Q for the others; every check below
    is made on the full P.  Raises ``MultipleRootUnsupported`` when two
    roots lie closer than MIN_ROOT_SEPARATION (for s >= 2 the pair 0j, 0j,
    before any iteration; or a root next to 0) or |P'| at a root is below
    DERIVATIVE_MAGNITUDE_FLOOR times |a_n|, and ``RootFindingError`` when
    an estimate leaves double range (or underflows to 0), on
    non-convergence, naming the closest pair of final roots, or on a failed
    residual check.
    """
    coeffs = polynomial.coefficients
    zeros = next(i for i, c in enumerate(coeffs) if c != 0)
    if zeros >= 2:
        raise MultipleRootUnsupported(
            f"roots 0j and 0j are closer than {MIN_ROOT_SEPARATION:g}")
    search = coeffs[zeros:]
    n = len(search) - 1
    leading = coeffs[-1]
    # The monic form has leading coefficient exactly 1, not leading / leading.
    monic = ComplexPolynomial([c / leading for c in search[:-1]] + [1])
    q = ComplexPolynomial(search)
    dq = q.derivative()

    # Perturbed circle: Cauchy bound radius, angles offset off the axes so
    # real-coefficient symmetry cannot trap the iteration.
    converged = False
    try:
        radius = 1.0 + max((abs(b) for b in monic.coefficients[:-1]),
                           default=0.0)
        estimates = [radius * cmath.exp(1j * (2.0 * math.pi * j / n
                                              + math.pi / (2 * n)))
                     for j in range(n)]
        for _ in range(_MAX_ITERATIONS):
            largest_step = 0.0
            for idx in range(n):
                z = estimates[idx]
                denom = 1 + 0j
                for other in range(n):
                    if other != idx:
                        denom *= z - estimates[other]
                if denom == 0:
                    # Two estimates collided; nudge off the real axis.
                    estimates[idx] = z + 1e-6j
                    largest_step = math.inf
                    continue
                step = monic(z) / denom
                estimates[idx] = z - step
                largest_step = max(largest_step, abs(step))
            if not all(map(cmath.isfinite, estimates)):
                break
            scale = 1.0 + max(map(abs, estimates), default=0.0)
            if largest_step <= _TOLERANCE * scale:
                converged = True
                break
    except OverflowError:  # abs() of a finite complex past double range
        estimates = [cmath.nan] * n

    for idx in range(n):
        z = estimates[idx]
        for _ in range(NEWTON_POLISH_STEPS):
            slope = dq(z)
            if slope == 0:
                break
            z = z - q(z) / slope
        estimates[idx] = z
    # Q(0) != 0, so an estimate of exactly 0 is one that underflowed.
    if 0 in estimates or not all(map(cmath.isfinite, estimates)):
        raise RootFindingError("a root estimate is outside double range")

    estimates += [0j] * zeros
    roots = sorted(estimates, key=lambda r: (r.real, r.imag))
    p = ComplexPolynomial(coeffs)
    dp = p.derivative()
    for a, b in combinations(roots, 2):
        if abs(a - b) < MIN_ROOT_SEPARATION:
            raise MultipleRootUnsupported(
                f"roots {a} and {b} are closer than {MIN_ROOT_SEPARATION:g}")
    for root in roots:
        if abs(dp(root)) < DERIVATIVE_MAGNITUDE_FLOOR * abs(leading):
            raise MultipleRootUnsupported(
                f"|P'({root})| is below {DERIVATIVE_MAGNITUDE_FLOOR:g} |a_n|")
    if not converged:
        # Finite estimates of a linear or constant Q converge: a pair exists.
        a, b = min(combinations(roots, 2), key=lambda ab: abs(ab[0] - ab[1]))
        raise RootFindingError(
            f"no convergence after {_MAX_ITERATIONS} iterations; the closest "
            f"estimates, {a} and {b}, are {abs(a - b):.1e} apart")
    residual_scale = max(abs(c) for c in coeffs)
    for root in roots:
        if abs(p(root)) > RESIDUAL_SCALE * residual_scale:
            raise RootFindingError(
                f"root {root} fails the residual check: "
                f"|P(root)| = {abs(p(root)):.3e}")
    return roots


class ExpPolyTerm(namedtuple("ExpPolyTerm", "exponent polynomial")):
    """e^{exponent x} times a ``ComplexPolynomial``."""

    __slots__ = ()


class ExpPoly(namedtuple("ExpPoly", "terms", defaults=((),))):
    """A finite sum of terms e^{a x} p(x), as a plain record: ``terms`` is
    a tuple of ``ExpPolyTerm``.  ``from_terms`` keeps the (exponent,
    polynomial) pairs in their order, merging none, and drops those whose
    polynomial is zero.  ``solve_linear_ode`` returns one exponent-zero
    term, or none for the zero solution.
    """

    __slots__ = ()

    @classmethod
    def from_terms(cls, pairs) -> "ExpPoly":
        return cls(tuple(ExpPolyTerm(complex(exponent), poly)
                         for exponent, poly in pairs if poly))


def solve_linear_ode(polynomial: CharacteristicPolynomial,
                     forcing: Polynomial) -> ExpPoly:
    """A particular solution of P(D) f = forcing for simple roots.

    One term per root of ``find_roots``, added in the order it returns them
    (by real, then imaginary part): the zero root's term is the exact
    antiderivative of the forcing, rounded once, and any other root's is
    ``mode_polynomial(root, forcing)``; each is weighted by 1/P'(root).
    """
    coeffs = polynomial.coefficients
    g, integral = _rounded(forcing)
    float_forcing = ComplexPolynomial(g)
    dp = ComplexPolynomial(coeffs).derivative()
    total = ComplexPolynomial.zero()
    for root in find_roots(polynomial):
        term = (ComplexPolynomial(integral)
                if root == 0 else mode_polynomial(root, float_forcing))
        total = total + term * (1.0 / dp(root))
    if not all(map(cmath.isfinite, total.coefficients)):
        raise CoefficientOverflowError(
            "a solution coefficient is outside double range")
    _check_residual(coeffs, total, float_forcing)
    return ExpPoly.from_terms([(0j, total)])


def _operator_terms(coeffs, f: ComplexPolynomial):
    """The terms a_i f^(i) of P(D) f, for i = 0..n, in that order."""
    for a in coeffs:
        yield f * a
        f = f.derivative()


def _check_residual(coeffs, solution: ComplexPolynomial,
                    forcing: ComplexPolynomial) -> None:
    """Raises ``MultipleRootUnsupported`` unless the largest coefficient of
    P(D) f - g is at most SOLUTION_RESIDUAL_TOLERANCE times the largest of
    sum_i |a_i f^(i)| + |g|, both taken coefficient by coefficient.

    The scale is the largest one, not each coefficient's own: a coefficient
    that is 0 in the exact solution comes out as rounding noise whose
    residual is as large as its own scale.
    """
    residual = [-c for c in forcing.coefficients]
    residual += [0j] * (len(solution.coefficients) - len(residual))
    scale = [abs(c) for c in residual]
    for term in _operator_terms(coeffs, solution):
        for m, c in enumerate(term.coefficients):
            residual[m] += c
            scale[m] += abs(c)
    worst = max(map(abs, residual), default=0.0)
    if not (worst <= SOLUTION_RESIDUAL_TOLERANCE * max(scale, default=0.0)):
        raise MultipleRootUnsupported(
            f"the solution misses P(D) f = g by {worst / max(scale):.1e} "
            f"relative to its terms; the characteristic roots are too close")


def apply_operator(polynomial: CharacteristicPolynomial,
                   f: ComplexPolynomial) -> ComplexPolynomial:
    """P(D) f = a_0 f + a_1 f' + ... + a_n f^(n) for a polynomial f, public
    as the oracle of criterion 8 (test_acceptance.py) and of test_ode.py's
    ``test_solutions_verify_through_the_operator``."""
    return sum(_operator_terms(polynomial.coefficients, f),
               ComplexPolynomial.zero())
