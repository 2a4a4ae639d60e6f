"""Root finding and polynomial particular solutions for P(D) f = g."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from deltasolve import ode
from deltasolve.ode import (MIN_ROOT_SEPARATION, CharacteristicPolynomial,
                            ExpPoly, ExpPolyTerm, MultipleRootUnsupported,
                            RootFindingError, apply_operator, find_roots,
                            solve_linear_ode)
from deltasolve.polynomials import (CoefficientOverflowError, ComplexPolynomial,
                                    Polynomial)
from deltasolve.spectral import exp_poly_integral, mode_polynomial

X = Polynomial((0, 1))


def _poly_from_roots(roots: list[complex]) -> CharacteristicPolynomial:
    """Expand prod (z - r) into coefficients; the test's own oracle."""
    coeffs = [1 + 0j]
    for r in roots:
        expanded = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            expanded[i] += -r * c
            expanded[i + 1] += c
        coeffs = expanded
    return CharacteristicPolynomial(tuple(coeffs))


def _slope(operator: CharacteristicPolynomial, root: complex) -> complex:
    """P'(root)."""
    return ComplexPolynomial(operator.coefficients).derivative()(root)


def test_construction_validation():
    with pytest.raises(ValueError):
        CharacteristicPolynomial((1.0,))
    with pytest.raises(ValueError):
        CharacteristicPolynomial((1.0, 2.0, 0.0))
    p = CharacteristicPolynomial((-1, 0, 1))
    assert p.degree == 2


def test_find_roots_quadratic():
    roots = find_roots(CharacteristicPolynomial((-1, 0, 1)))
    assert len(roots) == 2
    assert abs(roots[0] - (-1.0)) <= 1e-12
    assert abs(roots[1] - 1.0) <= 1e-12


def test_find_roots_complex_pair():
    # z^2 + 1, roots +-i, sorted by imaginary part at equal real part
    roots = find_roots(CharacteristicPolynomial((1, 0, 1)))
    assert abs(roots[0] - complex(0, -1)) <= 1e-12
    assert abs(roots[1] - complex(0, 1)) <= 1e-12


def test_find_roots_against_constructed_polynomials():
    rng = random.Random(20240804)
    for _ in range(30):
        n = rng.randint(2, 6)
        true_roots = []
        while len(true_roots) < n:
            candidate = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if all(abs(candidate - r) > 0.1 for r in true_roots):
                true_roots.append(candidate)
        poly = _poly_from_roots(true_roots)
        found = find_roots(poly)
        true_sorted = sorted(true_roots, key=lambda r: (r.real, r.imag))
        for got, expected in zip(found, true_sorted):
            assert abs(got - expected) <= 1e-7, (got, expected)


def test_roots_are_sorted_and_separated():
    roots = find_roots(CharacteristicPolynomial((-6, 11, -6, 1)))  # 1, 2, 3
    assert roots == sorted(roots, key=lambda r: (r.real, r.imag))
    for a, b in combinations(roots, 2):
        assert abs(a - b) >= MIN_ROOT_SEPARATION


def test_double_root_is_refused():
    with pytest.raises(MultipleRootUnsupported):
        find_roots(CharacteristicPolynomial((1, -2, 1)))  # (z - 1)^2


def test_nearly_multiple_roots_are_refused():
    eps = 1e-8
    poly = _poly_from_roots([1.0 + 0j, 1.0 + eps + 0j])
    with pytest.raises(MultipleRootUnsupported):
        find_roots(poly)


def test_exhausted_iterations_raise(monkeypatch):
    monkeypatch.setattr(ode, "_MAX_ITERATIONS", 1)
    with pytest.raises(RootFindingError, match="after 1 iterations"):
        find_roots(CharacteristicPolynomial((-2, 0, 0, 0, 0, 1)))


def test_exhausted_iterations_name_the_closest_estimates():
    # Roots 1e-5 apart pass the separation tests but stall the iteration.
    roots = [0.5, 0.5 + 1e-5, -1.5, 2.0]
    with pytest.raises(RootFindingError) as info:
        find_roots(_poly_from_roots(roots))
    message = str(info.value)
    assert message.startswith("no convergence after 200 iterations; "
                              "the closest estimates, (0.4999")
    assert message.endswith("are 1.0e-05 apart")


def test_determinism():
    poly = CharacteristicPolynomial((-6, 11, -6, 1))
    assert find_roots(poly) == find_roots(poly)


def _as_single_polynomial(solution: ExpPoly) -> ComplexPolynomial:
    assert len(solution.terms) == 1
    assert solution.terms[0].exponent == 0j
    return solution.terms[0].polynomial


def test_ode_worked_examples():
    # f'' - f = 1  ->  f = -1
    sol = _as_single_polynomial(
        solve_linear_ode(CharacteristicPolynomial((-1, 0, 1)),
                         Polynomial.constant(1)))
    assert abs(sol.coefficient(0) - (-1.0)) <= 1e-9
    assert sol.degree <= 0

    # f' - f = x  ->  f = -x - 1
    sol = _as_single_polynomial(
        solve_linear_ode(CharacteristicPolynomial((-1, 1)), X))
    assert abs(sol.coefficient(0) - (-1.0)) <= 1e-12
    assert abs(sol.coefficient(1) - (-1.0)) <= 1e-12

    # f' = 1  ->  f = x (zero root branch)
    sol = _as_single_polynomial(
        solve_linear_ode(CharacteristicPolynomial((0, 1)),
                         Polynomial.constant(1)))
    assert abs(sol.coefficient(0)) <= 1e-15
    assert abs(sol.coefficient(1) - 1.0) <= 1e-15


def test_zero_root_with_deflation():
    # f'' + f' = x: roots 0 and -1, solution x^2/2 - x + 1 up to rounding
    sol = _as_single_polynomial(
        solve_linear_ode(CharacteristicPolynomial((0, 1, 1)), X))
    assert abs(sol.coefficient(0) - 1.0) <= 1e-9
    assert abs(sol.coefficient(1) - (-1.0)) <= 1e-9
    assert abs(sol.coefficient(2) - 0.5) <= 1e-9


def test_repeated_zero_root_is_refused():
    with pytest.raises(MultipleRootUnsupported):
        solve_linear_ode(CharacteristicPolynomial((0, 0, 1)), X)


def test_solutions_verify_through_the_operator():
    # independent check: apply P(D) back and compare with the forcing
    rng = random.Random(20240805)
    operators = [
        CharacteristicPolynomial((-1, 0, 1)),
        CharacteristicPolynomial((2, 3, 1)),
        CharacteristicPolynomial((0, 1, 1)),
        CharacteristicPolynomial((1, 0, 1)),
        CharacteristicPolynomial((-6, 11, -6, 1)),
    ]
    for operator in operators:
        for _ in range(5):
            degree = rng.randint(0, 4)
            forcing = Polynomial([rng.randint(-5, 5)
                                  for _ in range(degree + 1)])
            solution = solve_linear_ode(operator, forcing)
            if forcing.is_zero:
                assert solution == ExpPoly()
                continue
            back = apply_operator(operator, _as_single_polynomial(solution))
            for power in range(degree + 1):
                assert abs(back.coefficient(power)
                           - float(forcing.coefficient(power))) <= 1e-8
            for power in range(degree + 1, back.degree + 1 if back.degree >= 0 else 0):
                assert abs(back.coefficient(power)) <= 1e-8


def _per_power_solution(operator: CharacteristicPolynomial,
                        forcing: Polynomial) -> list[complex]:
    """sum over roots r of (1/P'(r)) sum_p g_p exp_poly_integral(r, p): the
    particular solution built power by power, by linearity; the test's own
    oracle (a_0 != 0, so every root is nonzero)."""
    g = ComplexPolynomial.from_exact(forcing).coefficients
    total = [0j] * len(g)
    for root in find_roots(operator):
        slope = _slope(operator, root)
        for power, coeff in enumerate(g):
            for i, c in enumerate(exp_poly_integral(root, power).coefficients):
                total[i] += coeff * c / slope
    return total


def test_solution_agrees_with_the_per_power_sum():
    rng = random.Random(20240809)
    for _ in range(60):
        degree, roots = rng.randint(1, 6), []
        while len(roots) < degree:
            candidate = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if abs(candidate) >= 0.3 and all(abs(candidate - r) >= 0.5
                                             for r in roots):
                roots.append(candidate)
        operator = _poly_from_roots(roots)
        forcing = Polynomial([Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                              for _ in range(rng.randint(0, 8))] + [1])
        expected = _per_power_solution(operator, forcing)
        got = _as_single_polynomial(solve_linear_ode(operator, forcing))
        scale = max(abs(c) for c in expected)
        for power, c in enumerate(expected):
            assert abs(got.coefficient(power) - c) <= 1e-12 * scale, \
                (roots, forcing, power)
        assert got.degree < len(expected)


def test_apply_operator_sums_the_derivative_terms():
    # f = x^2 + x: 2 f = 2x^2 + 2x, 3 f' = 6x + 3 and f'' = 2.
    operator = CharacteristicPolynomial((2, 3, 1))
    result = apply_operator(operator, ComplexPolynomial((0.0, 1.0, 1.0)))
    assert result == ComplexPolynomial((5.0, 8.0, 2.0))
    assert apply_operator(operator, ComplexPolynomial.zero()).is_zero


def test_exp_poly_canonicalisation():
    # from_terms keeps the pairs in order, merges no exponents and drops
    # zero polynomials, so the zero function is the empty sum.
    p = ComplexPolynomial((1.0,))
    kept = ExpPoly.from_terms([(1.0, p), (2j, p), (1, p)])
    assert kept.terms == (ExpPolyTerm(1 + 0j, p), ExpPolyTerm(2j, p),
                          ExpPolyTerm(1 + 0j, p))
    assert all(type(term.exponent) is complex for term in kept.terms)
    dropped = ExpPoly.from_terms([(0j, ComplexPolynomial.zero()), (1j, p),
                                  (2j, p * 0)])
    assert dropped == ExpPoly((ExpPolyTerm(1j, p),))
    assert ExpPoly.from_terms([(0j, ComplexPolynomial.zero())]) == ExpPoly()


def test_exp_poly_term_fields():
    term = ExpPolyTerm(1j, ComplexPolynomial((1.0,)))
    assert term.exponent == 1j
    assert math.isclose(abs(term.polynomial(0.0)), 1.0)


@pytest.mark.parametrize("gap", [1e-5, 1e-3])
@pytest.mark.parametrize("roots", [
    [2.0],
    [2.0, complex(-1.1, 0.7)],
    [2.0, complex(-1.1, 0.7), complex(1.4, -0.9)],
    [complex(-1, 2)],
    [complex(-1, 2), complex(-1.1, 0.7)],
], ids=["2", "2-one-more", "2-two-more", "-1+2i", "-1+2i-one-more"])
def test_too_close_roots_are_refused_by_the_residual(roots, gap):
    """Roots farther apart than MIN_ROOT_SEPARATION but close enough for
    the 1/P'(r) weights to cancel away the answer: the separation tests
    pass, and the check of P(D) f - g refuses the solution."""
    operator = _poly_from_roots([roots[0] + gap] + roots)
    assert len(find_roots(operator)) == len(roots) + 1
    with pytest.raises(MultipleRootUnsupported, match="misses P"):
        solve_linear_ode(operator, Polynomial((1, -2, 0, 1)))


def test_residual_check_leaves_solutions_untouched():
    """The check only reads: the solution is the root sum, bit for bit."""
    rng = random.Random(20241018)
    for _ in range(40):
        degree, roots = rng.randint(1, 6), []
        while len(roots) < degree:
            candidate = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if abs(candidate) >= 0.3 and all(abs(candidate - r) >= 0.5
                                             for r in roots):
                roots.append(candidate)
        operator = _poly_from_roots(roots)
        forcing = Polynomial([Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                              for _ in range(rng.randint(0, 8))] + [1])
        g = ComplexPolynomial.from_exact(forcing)
        expected = ComplexPolynomial.zero()
        for root in find_roots(operator):
            expected = expected + mode_polynomial(root, g) \
                * (1.0 / _slope(operator, root))
        got = _as_single_polynomial(solve_linear_ode(operator, forcing))
        assert got.coefficients == expected.coefficients


def test_solution_outside_double_range_is_refused():
    # With x^400 the mode polynomial's coefficients grow like 400!, overflow
    # to inf and turn into NaN.
    with pytest.raises(CoefficientOverflowError, match="double range"):
        solve_linear_ode(CharacteristicPolynomial((1, 1, 1)),
                         Polynomial.monomial(400))


def test_non_finite_residual_is_refused():
    """A NaN residual fails the check: it is written so that a comparison
    with NaN, which is always False, refuses."""
    nan = float("nan")
    with pytest.raises(MultipleRootUnsupported, match="misses P"):
        ode._check_residual((1 + 0j, 1 + 0j), ComplexPolynomial((nan,)),
                            ComplexPolynomial((1.0,)))
