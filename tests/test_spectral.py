"""Corrected mode-sum solver: power sums, mode polynomials, truncation,
residuals, and the mode-by-mode pair sum as the reference oracle."""

import math
import random
from fractions import Fraction

import pytest

from deltasolve.bernoulli import antidifference_polynomial
from deltasolve.polynomials import (CoefficientOverflowError, ComplexPolynomial,
                                    Polynomial)
from deltasolve.spectral import (MAX_FORCING_DEGREE, DegreeOverflowError,
                                 SpectralConfig, difference_residual,
                                 euler_gap, exp_poly_integral,
                                 mode_polynomial, power_sums, spectral_solve)
from deltasolve.spectral import _tail_cutoff

X = Polynomial((0, 1))
TWO_PI = 2.0 * math.pi


def test_exp_poly_integral_examples():
    # a = 1, n = 1: q = -x - 1; a = 1, n = 2: q = -x^2 - 2x - 2
    assert exp_poly_integral(1.0, 1) == ComplexPolynomial((-1, -1))
    assert exp_poly_integral(1.0, 2) == ComplexPolynomial((-2, -2, -1))


def test_exp_poly_integral_closed_form():
    rng = random.Random(20240803)
    for _ in range(25):
        n = rng.randint(0, 8)
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if a == 0:
            a = 1.0
        q = exp_poly_integral(a, n)
        assert q.degree == n
        for j, c in enumerate(q.coefficients):
            expected = -(math.factorial(n) / math.factorial(j)) \
                * a ** (j - n - 1)
            assert abs(c - expected) <= 1e-12 * abs(expected), (a, n, j)


def test_exp_poly_integral_defining_property():
    # q' - a*q = x^n, checked coefficientwise
    for a in (1.0, -2.5, complex(0.0, TWO_PI), complex(1.0, -3.0)):
        for n in range(6):
            q = exp_poly_integral(a, n)
            lhs = q.derivative() + q * (-a)
            for power in range(n + 1):
                target = 1.0 if power == n else 0.0
                assert abs(lhs.coefficient(power) - target) <= 1e-9, (a, n)
    # mode_polynomial: q' - a*q = g for complex forcings of degree 0..12
    rng = random.Random(20240808)
    for degree in range(13):
        for _ in range(4):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            g = ComplexPolynomial([complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                                   for _ in range(degree + 1)])
            q = mode_polynomial(a, g)
            assert q.degree == degree
            lhs = q.derivative() + q * (-a)
            scale = max(abs(c) for c in q.coefficients) * max(1.0, abs(a))
            for power in range(degree + 1):
                assert abs(lhs.coefficient(power) - g.coefficient(power)) \
                    <= 1e-13 * scale, (a, degree, power)
    with pytest.raises(ValueError):
        mode_polynomial(0j, ComplexPolynomial((1.0, 2.0)))


def test_exp_poly_integral_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        exp_poly_integral(0.0, 3)
    with pytest.raises(ValueError):
        exp_poly_integral(1.0, -1)


def test_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(0)
    assert SpectralConfig(5).include_correction is True


def test_degree_cap():
    too_big = Polynomial.monomial(MAX_FORCING_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        spectral_solve(too_big, SpectralConfig(4))
    spectral_solve(Polynomial.monomial(MAX_FORCING_DEGREE), SpectralConfig(1))


def _pair_sum_oracle(forcing, config):
    """The paper's mode sum taken literally: -g/2 (if corrected) plus the
    antiderivative plus, for k = 1..K ascending, the +k and -k modes
    exp_poly_integral(+-2 pi i k, p) of every forcing power p, each pair
    summed before it is accumulated.  Also returns, per coefficient, the sum
    of the magnitudes of the real parts added into it: the scale that the
    rounding of either route is measured against."""
    g = [float(c) for c in forcing.coefficients]
    base = ComplexPolynomial.from_exact(forcing.antiderivative())
    if config.include_correction:
        base = ComplexPolynomial.from_exact(forcing) * (-0.5) + base
    acc = [base.coefficient(j) for j in range(len(g) + 1)]
    scale = [abs(c) for c in acc]
    for k in range(1, config.truncation_order + 1):
        pair = [0j] * len(g)
        for a in (complex(0.0, TWO_PI * k), complex(0.0, -TWO_PI * k)):
            for p, coeff in enumerate(g):
                for j, c in enumerate(exp_poly_integral(a, p).coefficients):
                    pair[j] += coeff * c
                    scale[j] += abs((coeff * c).real)
        for j, c in enumerate(pair):
            acc[j] += c
    return acc, scale


@pytest.mark.parametrize("include_correction", [True, False])
def test_agrees_with_the_mode_by_mode_pair_sum(include_correction):
    rng = random.Random(20261018)
    # zero (degree -inf) and constant forcings have no surviving mode
    forcings = [Polynomial.zero(), Polynomial((Fraction(-7, 3),))]
    for degree in range(1, 13):
        forcings.append(Polynomial(tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(degree)) + (rng.choice((-1, 1)),)))
    for forcing in forcings:
        for K in (1, 2, 9, 40):
            config = SpectralConfig(K, include_correction)
            solution = spectral_solve(forcing, config).polynomial_part
            assert solution.max_abs_imag() == 0.0, (forcing, K)
            oracle, scale = _pair_sum_oracle(forcing, config)
            assert solution.degree <= len(oracle) - 1
            for j, (want, size) in enumerate(zip(oracle, scale)):
                got = solution.coefficient(j)
                assert abs(got - want.real) <= 1e-12 * size, (forcing, K, j)
                assert abs(want.imag) <= 1e-12 * size, (forcing, K, j)


def _exact_coefficients(forcing, config):
    """Per coefficient j of ``spectral_solve``: its formula evaluated in
    Fractions on the float forcing, the float TWO_PI and the float S_m, the
    magnitude sum of its terms, and the constant c of its rounding bound.

    c follows the ``_mode_part`` docstring, (2m + 1) per mode term with m
    at most its largest m and 1 per further mode term, plus 4 for the rest
    of the solve: the rounded antiderivative (2, as the forcing was rounded
    too) and the two additions that join -g/2, it and the mode part."""
    g = [Fraction(float(c)) for c in forcing.coefficients]
    sums = power_sums(range(2, len(g) + 1, 2), config.truncation_order)
    two_pi = Fraction(TWO_PI)
    rows = []
    for j in range(len(g) + 1):
        terms = []
        if config.include_correction and j < len(g):
            terms.append(-g[j] / 2)
        if j >= 1:
            terms.append(g[j - 1] / j)
        modes, top = [], 0
        for p in range(j + 1, len(g), 2):
            if g[p]:
                m = p + 1 - j
                c = -Fraction(math.factorial(p), math.factorial(j)) \
                    * (-1) ** (m // 2) / two_pi ** m
                modes.append(2 * g[p] * c * Fraction(sums[m]))
                top = m
        c = 4 + (2 * top + len(modes) if modes else 0)
        terms += modes
        rows.append((sum(terms), sum(map(abs, terms)), c))
    return rows


def test_rounding_stays_within_the_stated_bound():
    """Each coefficient lies within c 2^-53 sum|terms| of exact arithmetic
    on the same floats; the worst case here uses 0.33 of the bound."""
    rng = random.Random(20261019)
    for _ in range(120):
        degree = rng.randint(0, MAX_FORCING_DEGREE)
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 50))
                  if rng.random() < 0.7 else 0 for _ in range(degree)]
        forcing = Polynomial(coeffs + [rng.choice((-1, 1, Fraction(7, 3)))])
        config = SpectralConfig(rng.choice((1, 2, 3, 7, 50, 1000)),
                                rng.random() < 0.5)
        solution = spectral_solve(forcing, config).polynomial_part
        for j, (want, size, c) in enumerate(_exact_coefficients(forcing,
                                                                config)):
            got = solution.coefficient(j)
            assert got.imag == 0.0
            assert abs(Fraction(got.real) - want) \
                <= c * Fraction(1, 2 ** 53) * size, (forcing, config, j)


def test_power_sums_match_hurwitz_zeta():
    mpmath = pytest.importorskip("mpmath")
    exponents = range(2, 33)
    with mpmath.workdps(40):
        for K in (1, 2, 10, 999, 10 ** 4):
            sums = power_sums(exponents, K)
            assert list(sums) == list(exponents)
            for m in exponents:
                exact = mpmath.zeta(m) - mpmath.zeta(m, K + 1)
                # Descending k: each addition rounds, by half an ulp, a
                # partial sum that is a tail sum_{i=k..K} i^-m, and those
                # tails add up to sum_{k<=K} k^(1-m); each term's power
                # rounds once more.  Never above the K ulps of any order.
                tails = math.fsum(k ** (1 - m) for k in range(1, K + 1))
                bound = 2.0 ** -53 * (exact + tails)
                assert abs(sums[m] - exact) <= bound, (m, K)


def _full_descending_sum(m: int, truncation_order: int) -> float:
    total = 0.0
    for k in range(truncation_order, 0, -1):
        total += k ** -m
    return total


def test_tail_cutoff_is_the_smallest_order_with_a_small_tail():
    # k1(m) is the first k whose integral-test tail bound k^(1-m)/(m-1)
    # is at most 2^-54, decided in exact arithmetic
    limit = Fraction(1, 2 ** 54)
    for m in list(range(3, 33)) + [54, 55, 56, 2000]:
        k1 = _tail_cutoff(m)
        assert Fraction(1, (m - 1) * k1 ** (m - 1)) <= limit, m
        assert k1 == 1 or Fraction(1, (m - 1) * (k1 - 1) ** (m - 1)) > limit, m
    assert _tail_cutoff(3) == 94906266 and _tail_cutoff(6) == 1293


def test_power_sums_stop_early_within_the_stated_bound():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for m in range(3, 33):
            k1 = _tail_cutoff(m)
            # k1(3) = 94906266: a pass near it takes seconds in pure Python
            orders = [10 ** 5] if m == 3 \
                else sorted({k1 - 1, k1, k1 + 1, 10 * k1, 10 ** 5})
            for K in orders:
                value = power_sums((m,), K)[m]
                n = min(K, k1)
                if K <= k1:
                    assert value == _full_descending_sum(m, K), (m, K)
                exact = mpmath.zeta(m) - mpmath.zeta(m, K + 1)
                tails = math.fsum(k ** (1 - m) for k in range(1, n + 1))
                bound = (2.0 ** -54 if n < K else 0.0) \
                    + 2.0 ** -53 * (float(exact) + tails)
                assert abs(value - exact) <= bound, (m, K)


def test_power_sums_underflow_instead_of_overflowing():
    # 2 ** 2000 is not a double; 2.0 ** -2000 rounds to 0.0
    assert power_sums((2000, 2), 3) == {2000: 1.0, 2: 1.0 + 0.25 + 1.0 / 9.0}
    assert power_sums((), 10) == {}


def test_imaginary_parts_cancel_exactly():
    # each +-k pair adds 2 Re(c_j) k^-m, a real number
    for forcing in (X, Polynomial((2, 0, 1)), Polynomial((0, 1, 1, 1))):
        sol = spectral_solve(forcing, SpectralConfig(50))
        assert sol.polynomial_part.max_abs_imag() == 0.0


def test_constant_term_for_linear_forcing():
    # For forcing x each +-k pair contributes the constant 1/(2 pi^2 k^2);
    # the full series sums to zeta(2)/(2 pi^2) = 1/12 and the truncation
    # tail is bracketed by the integral test.
    K = 2000
    sol = spectral_solve(X, SpectralConfig(K))
    const = sol.polynomial_part.coefficient(0).real
    gap = 1.0 / 12.0 - const
    assert 1.0 / (2.0 * math.pi ** 2 * (K + 1)) <= gap
    assert gap <= 1.0 / (2.0 * math.pi ** 2 * K)


def test_agreement_with_exact_antidifference():
    # For forcing x^2 the pair constants cancel and the truncated mode sum
    # differs from the exact antidifference by x times the series tail,
    # which the integral test caps at 1/(pi^2 K).
    forcing = Polynomial.monomial(2)
    exact = antidifference_polynomial(forcing)
    K = 2000
    sol = spectral_solve(forcing, SpectralConfig(K))
    tail_cap = 1.0 / (math.pi ** 2 * K)
    for x in (0.0, 0.3, 1.0, 2.5):
        expected = float(exact(Fraction(x)))
        assert abs(sol.polynomial_part(x) - expected) <= abs(x) * tail_cap + 1e-12, x


def test_euler_gap_is_half_the_forcing():
    assert abs(euler_gap(X, 3.0, 10) - 1.5) <= 1e-12
    quadratic = Polynomial((1, 0, 1))
    assert abs(euler_gap(quadratic, 2.0, 25) - 2.5) <= 1e-12
    # the gap does not depend on the truncation order
    assert abs(euler_gap(X, 0.7, 10) - euler_gap(X, 0.7, 80)) <= 1e-12


def test_difference_residual_decays_with_truncation():
    forcing = Polynomial.monomial(2)
    grid = [i / 20.0 for i in range(21)]
    residuals = {}
    for k in (10, 100, 1000):
        sol = spectral_solve(forcing, SpectralConfig(k))
        residuals[k] = max(difference_residual(sol, forcing, grid))
    assert residuals[100] <= residuals[10] / 3.0
    assert residuals[1000] <= residuals[100] / 3.0


def test_uncorrected_solution_misses_by_half_g():
    # the historical mode sum without -g/2 solves Df = g only up to g/2
    forcing = X
    sol = spectral_solve(forcing, SpectralConfig(500, include_correction=False))
    x = 0.25
    wrong = sol.polynomial_part(x + 1.0) - sol.polynomial_part(x)
    assert abs(wrong.real - (forcing(x) + 0.5)) <= 1e-3


def test_overflowing_solution_is_refused():
    """A forcing within double range whose mode coefficients are not; the
    solve once returned inf and nan coefficients."""
    with pytest.raises(CoefficientOverflowError, match="outside double range"):
        spectral_solve(Polynomial((0,) * 30 + (10 ** 300,)), SpectralConfig(5))
    spectral_solve(Polynomial((0,) * 30 + (10 ** 200,)), SpectralConfig(5))


def test_overflowing_residual_is_refused():
    forcing = Polynomial.monomial(30)
    solution = spectral_solve(forcing, SpectralConfig(5))
    with pytest.raises(CoefficientOverflowError, match=r"x = 1e\+308 "):
        difference_residual(solution, forcing, [0.5, 1e308])
    # a point that is not finite is no finite input, and is not refused
    (residual,) = difference_residual(solution, forcing, [math.inf])
    assert not math.isfinite(residual)
