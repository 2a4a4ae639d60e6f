"""Exact and spectral solvers for the difference equation f(x+1) - f(x) = g(x).

Two independent routes to the same particular solution: an exact
antidifference built from Bernoulli/Faulhaber polynomials, and a truncated
spectral mode sum over the zeros of e^z - 1 with the -g/2 correction term.
Their agreement reproduces the partial fraction expansion of 1/(e^z - 1)
and the closed forms for zeta at even integers; the same mode machinery also
solves constant-coefficient linear ODEs with simple characteristic roots.
"""

from .bernoulli import (BernoulliTable, antidifference_polynomial, bernoulli,
                        faulhaber)
from .ode import (CharacteristicPolynomial, ExpPoly, ExpPolyTerm,
                  MultipleRootUnsupported, RootFinderSettings,
                  RootFindingError, apply_operator, find_roots,
                  solve_linear_ode)
from .partial_fractions import (POLE_EXCLUSION_RADIUS, PoleProximityError,
                                characteristic_zeros, laurent_from_modes,
                                pfd_eval)
from .polynomials import (MAX_PARSED_DEGREE, NEG_INFINITY,
                          CoefficientOverflowError, ComplexPolynomial,
                          Polynomial, format_complex, format_complex_polynomial,
                          format_polynomial, format_real_polynomial,
                          parse_complex, parse_complex_polynomial,
                          parse_polynomial, parse_real_polynomial)
from .rationals import (Rational, binomial, factorial, format_rational,
                        parse_rational, to_float)
from .spectral import (MAX_FORCING_DEGREE, DegreeOverflowError,
                       SpectralConfig, SpectralSolution, difference_residual,
                       euler_gap, exp_poly_integral, iterated_integral,
                       power_sums, spectral_solve)
from .zeta import (ZetaClosedForm, coefficient_tables, verify_comparison,
                   zeta_even_closed_form, zeta_partial_sum)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "CharacteristicPolynomial",
    "CoefficientOverflowError",
    "ComplexPolynomial",
    "DegreeOverflowError",
    "ExpPoly",
    "ExpPolyTerm",
    "MAX_FORCING_DEGREE",
    "MAX_PARSED_DEGREE",
    "MultipleRootUnsupported",
    "NEG_INFINITY",
    "POLE_EXCLUSION_RADIUS",
    "PoleProximityError",
    "Polynomial",
    "Rational",
    "RootFinderSettings",
    "RootFindingError",
    "SpectralConfig",
    "SpectralSolution",
    "ZetaClosedForm",
    "antidifference_polynomial",
    "apply_operator",
    "bernoulli",
    "binomial",
    "characteristic_zeros",
    "coefficient_tables",
    "difference_residual",
    "euler_gap",
    "exp_poly_integral",
    "factorial",
    "faulhaber",
    "find_roots",
    "format_complex",
    "format_complex_polynomial",
    "format_polynomial",
    "format_rational",
    "format_real_polynomial",
    "iterated_integral",
    "laurent_from_modes",
    "parse_complex",
    "parse_complex_polynomial",
    "parse_polynomial",
    "parse_rational",
    "parse_real_polynomial",
    "pfd_eval",
    "power_sums",
    "solve_linear_ode",
    "spectral_solve",
    "to_float",
    "verify_comparison",
    "zeta_even_closed_form",
    "zeta_partial_sum",
]
