"""Even zeta closed forms, the bracketing oracle, coefficient tables."""

import math
from fractions import Fraction

import pytest

from deltasolve import spectral
from deltasolve.bernoulli import bernoulli
from deltasolve.polynomials import Polynomial
from deltasolve.rationals import binomial
from deltasolve.spectral import SpectralConfig, power_sums, spectral_solve
from deltasolve.zeta import (MAX_TABLE_ORDER, coefficient_tables,
                             verify_comparison, zeta_even_closed_form,
                             zeta_partial_sum)

# zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945,
# zeta(8) = pi^8/9450, zeta(10) = pi^10/93555
KNOWN_COEFFICIENTS = {
    1: Fraction(1, 6),
    2: Fraction(1, 90),
    3: Fraction(1, 945),
    4: Fraction(1, 9450),
    5: Fraction(1, 93555),
}


def test_closed_form_known_values():
    for j, coefficient in KNOWN_COEFFICIENTS.items():
        form = zeta_even_closed_form(j)
        assert form.coefficient == coefficient, j
        assert form.pi_power == 2 * j
        assert form.j == j


def test_closed_form_coefficient_is_positive():
    for j in range(1, 20):
        assert zeta_even_closed_form(j).coefficient > 0, j


def test_closed_form_value():
    assert math.isclose(zeta_even_closed_form(1).value(), math.pi ** 2 / 6,
                        rel_tol=1e-15)


def test_closed_form_rejects_zero():
    with pytest.raises(ValueError):
        zeta_even_closed_form(0)


def test_bracket_contains_closed_form():
    # the integral-test bracket is an oracle that never touches Bernoulli
    # numbers, so containment is a genuine cross-check; N is capped per j so
    # the bracket width N^(-2j) stays well above double rounding
    plans = {1: (10, 100, 1000), 2: (10, 100), 3: (5, 30),
             4: (5, 20), 5: (5, 10), 6: (5, 10)}
    for j, terms in plans.items():
        value = zeta_even_closed_form(j).value()
        for n_terms in terms:
            lower, upper = zeta_partial_sum(j, n_terms)
            assert lower < value < upper, (j, n_terms)


def test_bracket_width_shrinks():
    lower_a, upper_a = zeta_partial_sum(1, 100)
    lower_b, upper_b = zeta_partial_sum(1, 10000)
    assert (upper_b - lower_b) < (upper_a - lower_a) / 100.0


def test_bracket_validation():
    with pytest.raises(ValueError):
        zeta_partial_sum(0, 10)
    with pytest.raises(ValueError):
        zeta_partial_sum(1, 1)


def test_b_table_is_the_faulhaber_tail():
    # exact side: B(n, j) = C(n+1, j) B_j / (n+1) for 2 <= j <= n, else 0
    for n in (2, 5, 12):
        _, b_table = coefficient_tables(n, 1)
        assert b_table[0] == 0
        assert b_table[1] == 0
        for j in range(2, n + 1):
            assert b_table[j] == binomial(n + 1, j) * bernoulli(j) / (n + 1)


def _closed_form_a_table(n, order):
    """A(n, j) = -(n!/j!) 2 (-1)^(m/2) (2 pi)^-m S_m(K) for even m = n+1-j,
    else 0: the pair sum of the mode polynomials written out."""
    table = [0.0] * (n + 1)
    for m, total in power_sums(range(2, n + 2, 2), order).items():
        prefactor = float(math.factorial(n)) / float(math.factorial(n + 1 - m))
        table[n + 1 - m] = -prefactor * 2.0 * (-1) ** (m // 2) \
            * (2.0 * math.pi) ** -m * total
    return table


@pytest.mark.parametrize("order", [1, 2, 10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5])
def test_a_table_matches_its_closed_form(order):
    # both sides round: the mode part within (2m + 1) 2^-53 relative
    # (m <= 12), the closed form within about 4 2^-53; the largest gap
    # seen over these cases is 5.2 2^-53
    for n in range(1, MAX_TABLE_ORDER + 1):
        a_table, _ = coefficient_tables(n, order)
        for j, want in enumerate(_closed_form_a_table(n, order)):
            assert abs(a_table[j] - want) <= 16 * 2.0 ** -53 * abs(want), \
                (n, j)


def test_a_table_is_the_mode_part_of_the_uncorrected_solve():
    # x^n has the antiderivative x^(n+1)/(n+1), so below x^(n+1) the
    # uncorrected solution is its mode part alone, bit for bit
    for n in range(1, MAX_TABLE_ORDER + 1):
        for order in (1, 7, 300):
            a_table, _ = coefficient_tables(n, order)
            solution = spectral_solve(Polynomial.monomial(n),
                                      SpectralConfig(order, False))
            assert a_table == [solution.polynomial_part.coefficient(j).real
                               for j in range(n + 1)], (n, order)


def test_a_table_builds_one_unit_mode(monkeypatch):
    # x^n has one nonzero coefficient, so only its unit mode is needed
    built = []
    unit_mode = spectral.exp_poly_integral
    def counted(a, p):
        built.append(p)
        return unit_mode(a, p)
    monkeypatch.setattr(spectral, "exp_poly_integral", counted)
    for n in range(1, MAX_TABLE_ORDER + 1):
        built.clear()
        coefficient_tables(n, 10)
        assert built == [n], n


def test_a_table_odd_entries_vanish():
    for n in (2, 3, 6):
        a_table, _ = coefficient_tables(n, 50)
        for j in range(n + 1):
            if (j - (n + 1)) % 2 != 0:
                assert a_table[j] == 0.0, (n, j)


def test_a_table_matches_brute_force_mode_sum():
    # oracle: the same sums accumulated in raw complex arithmetic
    for n in (1, 2, 4):
        order = 40
        a_table, _ = coefficient_tables(n, order)
        for j in range(n + 1):
            acc = 0j
            for k in range(1, order + 1):
                for signed in (k, -k):
                    acc += complex(0.0, 2.0 * math.pi * signed) ** (j - (n + 1))
            expected = -float(math.factorial(n)) / float(math.factorial(j)) * acc
            assert abs(a_table[j] - expected.real) <= 1e-12 * (1 + abs(expected)), \
                (n, j)
            assert abs(expected.imag) <= 1e-12


def test_tables_agree_at_modest_order():
    # the slowest column is j = 2 (A index n-1, prefactor n!/(n-1)! = n,
    # mode exponent -2), so the worst mismatch is capped by n/(2 pi^2 K)
    for n in (2, 4, 6):
        worst = verify_comparison(n, 10 ** 4)
        cap = n / (2.0 * math.pi ** 2 * 10 ** 4)
        assert worst <= cap * 1.01, n


def test_verify_comparison_is_tail_limited():
    # the n = 2 mismatch is exactly the zeta(2) tail times 2!, bracketed by
    # the integral test on both sides
    order = 10 ** 4
    worst = verify_comparison(2, order)
    assert 2.0 / (2.0 * math.pi ** 2 * (order + 1)) <= worst
    assert worst <= 2.0 / (2.0 * math.pi ** 2 * order)


def test_verify_comparison_improves_with_order():
    assert verify_comparison(3, 1000) <= verify_comparison(3, 100) / 3.0


def test_table_order_validation():
    with pytest.raises(ValueError):
        coefficient_tables(0, 10)
    with pytest.raises(ValueError):
        coefficient_tables(MAX_TABLE_ORDER + 1, 10)
    with pytest.raises(ValueError):
        coefficient_tables(3, 0)
    coefficient_tables(MAX_TABLE_ORDER, 2)


def test_verify_order_one_has_empty_range():
    assert verify_comparison(1, 100) == 0.0


@pytest.mark.parametrize("j", [1, 30, 300, 309, 310, 320])
def test_closed_form_value_against_mpmath(j):
    """pi^(2j) alone leaves double range from j = 310, and the coefficient
    nears the subnormal range at j = 309; the value stays within 4 ulps."""
    mpmath = pytest.importorskip("mpmath")
    value = zeta_even_closed_form(j).value()
    with mpmath.workprec(200):
        exact = mpmath.zeta(2 * j)
        assert abs(mpmath.mpf(value) - exact) <= 4 * math.ulp(float(exact))


def test_closed_form_coefficients_against_sympy():
    sympy = pytest.importorskip("sympy")
    for j in range(1, 51):
        expected = sympy.zeta(2 * j) / sympy.pi ** (2 * j)
        assert zeta_even_closed_form(j).coefficient \
            == Fraction(int(expected.p), int(expected.q)), j
