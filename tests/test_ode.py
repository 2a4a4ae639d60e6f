"""Root finding and polynomial particular solutions for P(D) f = g."""

import cmath
import math
import random
import types
from fractions import Fraction
from itertools import combinations

import pytest

from deltasolve import MAX_OPERATOR_DEGREE, ode, polynomials
from deltasolve.ode import (MIN_ROOT_SEPARATION, CharacteristicPolynomial,
                            ExpPoly, ExpPolyTerm, MultipleRootUnsupported,
                            RootFindingError, apply_operator, find_roots,
                            solve_linear_ode)
from deltasolve.polynomials import (CoefficientOverflowError, ComplexPolynomial,
                                    Polynomial, mode_polynomial)
from deltasolve.spectral import exp_poly_integral

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


def _separated_roots(rng: random.Random) -> list[complex]:
    """1 to 6 roots with |r| >= 0.3 in the square |Re|, |Im| <= 2.5, pairwise
    at least 0.5 apart."""
    degree, roots = rng.randint(1, 6), []
    while len(roots) < degree:
        candidate = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(candidate) >= 0.3 and all(abs(candidate - r) >= 0.5
                                         for r in roots):
            roots.append(candidate)
    return roots


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
    # Each component is finite but |a_1| is not: abs() would overflow.
    with pytest.raises(ValueError, match="magnitudes must be finite"):
        CharacteristicPolynomial((0.5, complex(1.7e308, 1.7e308)))


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


def test_root_residual_is_checked(monkeypatch):
    monkeypatch.setattr(ode, "RESIDUAL_SCALE", 0.0)
    with pytest.raises(RootFindingError,
                       match=r"^root \(-1\.414\d*\+0j\) fails the residual "
                             r"check: \|P\(root\)\| = "):
        find_roots(CharacteristicPolynomial((-2, 0, 1)))


def test_colliding_starts_are_nudged_apart(monkeypatch):
    # With cmath.exp returning 1, every start is the same point, radius + 0j,
    # so the first sweep divides by zero unless the collision is nudged.
    starts = []
    def exp(z):
        starts.append(z)
        return 1 + 0j
    monkeypatch.setattr(ode, "cmath", types.SimpleNamespace(
        exp=exp, nan=cmath.nan, isfinite=cmath.isfinite))
    for roots in ([1.0, 2.0], [1.0, 2.0, 3.0]):
        found = find_roots(_poly_from_roots(roots))
        assert found == pytest.approx(roots, rel=1e-12, abs=0.0), roots
    # z^4 + 1, z^2 + 1 and z^3 - 1 have roots off the real axis, which real
    # estimates nudged along it could never reach.
    for n, half in ((4, 0.5), (2, 0.5), (3, 0.0)):
        expected = [cmath.exp(2j * math.pi * (k + half) / n) for k in range(n)]
        found = find_roots(CharacteristicPolynomial(
            (1 if half else -1,) + (0,) * (n - 1) + (1,)))
        assert all(min(abs(r - z) for z in found) <= 1e-12
                   for r in expected), n
    assert len(starts) == 14


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
                         Polynomial.monomial(0, 1)))
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
                         Polynomial.monomial(0, 1)))
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
    # z^2: the root of P(z)/z = z is 0 as well, and the separation refuses
    with pytest.raises(MultipleRootUnsupported,
                       match=r"^roots 0j and 0j are closer than 1e-06$"):
        solve_linear_ode(CharacteristicPolynomial((0, 0, 1)), X)


def test_root_next_to_the_zero_root_is_refused():
    # z (z + 1e-7): the root -1e-7 is closer to 0 than the separation
    with pytest.raises(MultipleRootUnsupported,
                       match=r"^roots \(-1e-07\+0j\) and 0j are closer"):
        solve_linear_ode(CharacteristicPolynomial((0, 1e-7, 1)), X)


def test_every_zero_root_is_exact():
    """P = z^s Q: the s roots 0 come back as 0j exactly, so for s >= 2 the
    separation names the pair 0j, 0j; the iteration never sees them."""
    rng = random.Random(20261020)
    for _ in range(200):
        roots = _separated_roots(rng)
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        q = [lead * c for c in _poly_from_roots(roots).coefficients]
        zeros = [0] * rng.choice((2, 3))
        with pytest.raises(MultipleRootUnsupported,
                           match=r"^roots 0j and 0j are closer than 1e-06$"):
            find_roots(CharacteristicPolynomial(zeros + q))
    with pytest.raises(MultipleRootUnsupported, match=r"^roots 0j and 0j "):
        find_roots(CharacteristicPolynomial([0] * 90 + [1]))


@pytest.mark.parametrize("coeffs", [
    (0, 0, 1, 5e-324),
    (0, 0, 1 + 1e-7, 2 + 1e-7, 1),
], ids=["cofactor-outside-double-range", "cofactor-with-a-close-pair"])
def test_repeated_zero_root_is_refused_before_any_sweep(coeffs):
    """For s >= 2 the pair 0j, 0j is refused before Q is searched: Q's own
    failure, a root outside double range or the close pair -1, -1 - 1e-7,
    which sorts first, was named instead."""
    with pytest.raises(MultipleRootUnsupported,
                       match=r"^roots 0j and 0j are closer than 1e-06$"):
        find_roots(CharacteristicPolynomial(coeffs))


@pytest.mark.parametrize("coeffs", [(1, 5e-324), (1.7e308, 1), (1, 0, 1e-300),
                                    (1, 1e308 + 1e308j)],
                         ids=["a0-over-a1-overflows", "step-overflows",
                              "square-overflows", "root-underflows"])
def test_estimate_outside_double_range_is_refused(coeffs):
    """A NaN estimate, or an abs() past double range, once escaped as a
    ValueError or OverflowError, or named NaN estimates as the closest.  The
    root -1/c of 1 + c z, about 5e-309 for c = 1e308 + 1e308j, rounds to 0,
    which Q(0) != 0 rules out; it was taken for a zero root."""
    with pytest.raises(RootFindingError,
                       match=r"^a root estimate is outside double range$"):
        find_roots(CharacteristicPolynomial(coeffs))


def test_sweeps_stop_once_an_estimate_leaves_double_range(monkeypatch):
    """(z-1)^90 from its integer coefficients starts on a circle of radius
    about 1e26, and its estimates are non-finite after the first sweep.  They
    never come back, so the other 199 sweeps (18,540 evaluations in all) are
    skipped: one sweep of 90 evaluations and a polish of 90 * 3 * 2 remain."""
    calls = []
    horner = polynomials._horner

    def counted(coeffs, x):
        calls.append(x)
        return horner(coeffs, x)

    monkeypatch.setattr(polynomials, "_horner", counted)
    n = MAX_OPERATOR_DEGREE
    operator = CharacteristicPolynomial(
        [math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)])
    with pytest.raises(RootFindingError,
                       match=r"^a root estimate is outside double range$"):
        find_roots(operator)
    assert len(calls) <= 700


def test_operator_degree_is_capped():
    CharacteristicPolynomial([1] * (MAX_OPERATOR_DEGREE + 1))
    with pytest.raises(ValueError, match=r"^operator degree 91 must be <= 90$"):
        CharacteristicPolynomial([1] * (MAX_OPERATOR_DEGREE + 2))


def test_root_near_the_top_of_double_range_is_found():
    assert find_roots(CharacteristicPolynomial((9e307, 1))) == [-9e307 + 0j]


def test_zero_root_is_exact_and_leaves_the_other_roots_alone():
    """For a_0 = 0 the root 0 comes back as 0j, and the others are those of
    P(z)/z, bit for bit."""
    rng = random.Random(20261019)
    for _ in range(200):
        roots = _separated_roots(rng)
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        q = [lead * c for c in _poly_from_roots(roots).coefficients]
        expected = sorted([0j] + find_roots(CharacteristicPolynomial(q)),
                          key=lambda r: (r.real, r.imag))
        assert find_roots(CharacteristicPolynomial([0] + q)) == expected, roots
    assert find_roots(CharacteristicPolynomial((0, 3))) == [0j]


@pytest.mark.parametrize("scale", [1e-9, 1e9])
@pytest.mark.parametrize("coeffs", [(1, 1), (2, 3, 1), (0, 1, 1)],
                         ids=["D+1", "D^2+3D+2", "D^2+D"])
def test_scaling_the_operator_scales_the_solution(coeffs, scale):
    """s P(D) has the roots of P(D), and its solution is 1/s times P's; the
    derivative floor is relative to |a_n|, so it refuses neither."""
    forcing = Polynomial((3, -2, 1))
    base = _as_single_polynomial(
        solve_linear_ode(CharacteristicPolynomial(coeffs), forcing))
    scaled = _as_single_polynomial(solve_linear_ode(
        CharacteristicPolynomial([scale * c for c in coeffs]), forcing))
    assert scaled.degree == base.degree
    for got, expected in zip(scaled.coefficients, base.coefficients):
        assert abs(got * scale - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_derivative_floor_refuses_the_same_roots_at_any_scale(scale):
    # Three roots 3e-6 apart pass the separation test, but |P'| is ~1e-11.
    coeffs = _poly_from_roots([0.5, 0.5 + 3e-6, 0.5 + 6e-6]).coefficients
    with pytest.raises(MultipleRootUnsupported, match="is below 1e-08"):
        solve_linear_ode(CharacteristicPolynomial([scale * c for c in coeffs]), X)


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
            if not forcing:
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
    oracle.  A zero root (a_0 = 0) adds antiderivative(g) / P'(0), with
    P'(0) = a_1, and the other roots are those of P(z) / z."""
    g = ComplexPolynomial.from_exact(forcing).coefficients
    coeffs = operator.coefficients
    total = [0j] * len(g)
    nonzero = operator
    if coeffs[0] == 0:
        total = [float(c) / coeffs[1]
                 for c in forcing.antiderivative().coefficients]
        nonzero = CharacteristicPolynomial(coeffs[1:])
    for root in find_roots(nonzero):
        slope = _slope(operator, root)
        for power, coeff in enumerate(g):
            for i, c in enumerate(exp_poly_integral(root, power).coefficients):
                total[i] += coeff * c / slope
    return total


def test_solution_agrees_with_the_per_power_sum():
    rng = random.Random(20240809)
    for case in range(60):
        roots = _separated_roots(rng)
        operator = _poly_from_roots(roots)
        if case % 3 == 0:  # z P(z): a zero root, and a_1 = P(0)
            operator = CharacteristicPolynomial((0,) + operator.coefficients)
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
    assert not apply_operator(operator, ComplexPolynomial.zero())


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
        roots = _separated_roots(rng)
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
