"""Constant-coefficient linear ODEs solved through characteristic roots.

For the operator P(D) = a_0 + a_1 D + ... + a_n D^n (D = d/dx) with simple
characteristic roots, a particular solution for polynomial forcing g is

    f = sum over roots r of (1/P'(r)) e^{r x} integral(e^{-r x} g dx),

where each nonzero-root term is the polynomial ``spectral.mode_polynomial``
builds and a zero root (a_0 = 0) contributes the plain
antiderivative divided by P'(0).  With all integration constants zero every
term is a polynomial, so the returned ``ExpPoly`` is a single exponent-zero
term.  Repeated or numerically near-multiple roots are outside this method
and abort with ``MultipleRootUnsupported`` rather than return something
half-right.  Roots that pass the separation tests can still be
close enough for the 1/P'(r) weights to cancel away most digits, so the
solution is also checked against the equation itself: no coefficient of
P(D) f - g may exceed SOLUTION_RESIDUAL_TOLERANCE times the largest
coefficient of sum_i |a_i f^(i)| + |g|, and a solution coefficient outside
double range raises ``CoefficientOverflowError``.

Roots come from a Weierstrass (Durand-Kerner) simultaneous iteration started
on a perturbed circle whose radius is the Cauchy bound, then polished with a
few Newton steps.  It stops once no step exceeds _TOLERANCE times (1 + the
largest estimate's magnitude), or gives up after _MAX_ITERATIONS sweeps.
The iteration is sequential and the starting points are fixed, so the
returned ordering (sorted by real part, then imaginary part) and everything
accumulated from it is deterministic.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import combinations

from .polynomials import CoefficientOverflowError, ComplexPolynomial, Polynomial
from .rationals import DeltasolveError
from .spectral import mode_polynomial

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
    """P(z) = a_0 + a_1 z + ... + a_n z^n with a_n != 0 and n >= 1.

    ``coefficients`` is stored as a tuple of complex a_0, ..., a_n.
    """

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = tuple(complex(c) for c in coefficients)
        if len(coeffs) < 2:
            raise ValueError("characteristic polynomial needs degree >= 1")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return super().__new__(cls, coeffs)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that ``_replace`` validates too

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def find_roots(polynomial: CharacteristicPolynomial) -> list[complex]:
    """All roots, sorted by (real, imaginary); simple roots only.

    Raises ``MultipleRootUnsupported`` when two estimates land closer than
    MIN_ROOT_SEPARATION or |P'| at a root is below the derivative floor,
    and ``RootFindingError`` on non-convergence, naming the closest pair of
    final estimates, or on a failed residual check.
    """
    n = polynomial.degree
    leading = polynomial.coefficients[-1]
    # The monic form has leading coefficient exactly 1, not leading / leading.
    monic = ComplexPolynomial([c / leading for c in polynomial.coefficients[:-1]]
                              + [1])
    p = ComplexPolynomial(polynomial.coefficients)
    dp = p.derivative()

    # Perturbed circle: Cauchy bound radius, angles offset off the axes so
    # real-coefficient symmetry cannot trap the iteration.
    radius = 1.0 + max(abs(b) for b in monic.coefficients[:-1])
    estimates = [radius * cmath.exp(1j * (2.0 * math.pi * j / n + math.pi / (2 * n)))
                 for j in range(n)]

    converged = False
    for _ in range(_MAX_ITERATIONS):
        largest_step = 0.0
        for idx in range(n):
            z = estimates[idx]
            denom = 1 + 0j
            for other in range(n):
                if other != idx:
                    denom *= z - estimates[other]
            if denom == 0:
                # Two estimates collided mid-flight; nudge deterministically.
                estimates[idx] = z + 1e-6
                largest_step = math.inf
                continue
            step = monic(z) / denom
            estimates[idx] = z - step
            largest_step = max(largest_step, abs(step))
        scale = 1.0 + max(abs(z) for z in estimates)
        if largest_step <= _TOLERANCE * scale:
            converged = True
            break

    for idx in range(n):
        z = estimates[idx]
        for _ in range(NEWTON_POLISH_STEPS):
            slope = dp(z)
            if slope == 0:
                break
            z = z - p(z) / slope
        estimates[idx] = z

    roots = sorted(estimates, key=lambda r: (r.real, r.imag))
    for a, b in combinations(roots, 2):
        if abs(a - b) < MIN_ROOT_SEPARATION:
            raise MultipleRootUnsupported(
                f"roots {a} and {b} are closer than {MIN_ROOT_SEPARATION:g}")
    for root in roots:
        if abs(dp(root)) < DERIVATIVE_MAGNITUDE_FLOOR:
            raise MultipleRootUnsupported(
                f"|P'({root})| is below {DERIVATIVE_MAGNITUDE_FLOOR:g}")
    if not converged:
        # A linear P converges on the second sweep, so a pair exists.
        a, b = min(combinations(roots, 2), key=lambda ab: abs(ab[0] - ab[1]))
        raise RootFindingError(
            f"no convergence after {_MAX_ITERATIONS} iterations; the closest "
            f"estimates, {a} and {b}, are {abs(a - b):.1e} apart")
    residual_scale = max(abs(c) for c in polynomial.coefficients)
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
    """A finite sum of terms e^{a x} p(x), canonicalised.

    ``terms`` is a tuple of ``ExpPolyTerm`` sorted by exponent.  Terms with
    equal exponents are merged and terms with a zero polynomial are dropped,
    so the zero function is the empty sum.
    """

    __slots__ = ()

    @classmethod
    def from_terms(cls, pairs) -> "ExpPoly":
        merged: dict[complex, ComplexPolynomial] = {}
        for exponent, poly in pairs:
            exponent = complex(exponent)
            merged[exponent] = merged.get(exponent, ComplexPolynomial()) + poly
        kept = sorted((item for item in merged.items() if not item[1].is_zero),
                      key=lambda item: (item[0].real, item[0].imag))
        return cls(tuple(ExpPolyTerm(a, p) for a, p in kept))


def solve_linear_ode(polynomial: CharacteristicPolynomial,
                     forcing: Polynomial) -> ExpPoly:
    """A particular solution of P(D) f = forcing for simple roots.

    Accumulation order is fixed: the zero root (if a_0 = 0) first, then the
    nonzero roots in the order ``find_roots`` returns them.
    """
    coeffs = polynomial.coefficients
    has_zero_root = coeffs[0] == 0
    if has_zero_root:
        if coeffs[1] == 0:
            raise MultipleRootUnsupported("zero is a repeated characteristic root")
        if len(coeffs) > 2:
            deflated = CharacteristicPolynomial(coeffs[1:])
            nonzero_roots = find_roots(deflated)
        else:
            nonzero_roots = []
        for root in nonzero_roots:
            if abs(root) < MIN_ROOT_SEPARATION:
                raise MultipleRootUnsupported(
                    f"root {root} collides with the zero root")
    else:
        nonzero_roots = find_roots(polynomial)

    float_forcing = ComplexPolynomial.from_exact(forcing)
    dp = ComplexPolynomial(coeffs).derivative()
    total = ComplexPolynomial.zero()
    if has_zero_root:
        # e^{0 x} integral(e^{0 x} g) is the plain antiderivative; P'(0) = a_1.
        total = total + ComplexPolynomial.from_exact(
            forcing.antiderivative()) * (1.0 / coeffs[1])
    for root in nonzero_roots:
        slope = dp(root)
        if abs(slope) < DERIVATIVE_MAGNITUDE_FLOOR:
            raise MultipleRootUnsupported(
                f"|P'({root})| is below {DERIVATIVE_MAGNITUDE_FLOOR:g}")
        total = total + mode_polynomial(root, float_forcing) * (1.0 / slope)
    if not all(map(cmath.isfinite, total.coefficients)):
        raise CoefficientOverflowError(
            "a solution coefficient is outside double range")
    _check_residual(coeffs, total, float_forcing)
    return ExpPoly.from_terms([(0j, total)])


def _check_residual(coeffs, solution: ComplexPolynomial,
                    forcing: ComplexPolynomial) -> None:
    """Raises ``MultipleRootUnsupported`` unless the largest coefficient of
    P(D) f - g is at most SOLUTION_RESIDUAL_TOLERANCE times the largest of
    sum_i |a_i f^(i)| + |g|, both taken coefficient by coefficient.

    The scale is the largest one, not each coefficient's own: a coefficient
    that is 0 in the exact solution comes out as rounding noise whose
    residual is as large as its own scale.
    """
    size = max(len(solution.coefficients), len(forcing.coefficients))
    residual = [-c for c in forcing.coefficients]
    residual += [0j] * (size - len(residual))
    scale = [abs(c) for c in residual]
    derivative = solution
    for a in coeffs:
        for m, c in enumerate(derivative.coefficients):
            residual[m] += a * c
            scale[m] += abs(a * c)
        derivative = derivative.derivative()
    worst = max(map(abs, residual), default=0.0)
    if not (worst <= SOLUTION_RESIDUAL_TOLERANCE * max(scale, default=0.0)):
        raise MultipleRootUnsupported(
            f"the solution misses P(D) f = g by {worst / max(scale):.1e} "
            f"relative to its terms; the characteristic roots are too close")


def apply_operator(polynomial: CharacteristicPolynomial, f: ExpPoly) -> ExpPoly:
    """P(D) applied to an ExpPoly, term by term.

    Uses (e^{a x} p)' = e^{a x} (a p + p'), so D^i maps the polynomial part
    through (a + d/dx)^i while the exponent is untouched.
    """
    out = []
    for term in f.terms:
        q = term.polynomial
        acc = ComplexPolynomial.zero()
        for coeff in polynomial.coefficients:
            if coeff != 0:
                acc = acc + q * coeff
            q = q * term.exponent + q.derivative()
        out.append((term.exponent, acc))
    return ExpPoly.from_terms(out)
