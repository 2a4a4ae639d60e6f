"""Even zeta closed forms, the bracketing oracle, coefficient tables."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from deltasolve import spectral
from deltasolve import zeta as zeta_module
from deltasolve.bernoulli import BernoulliIndexError, bernoulli, faulhaber
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


def test_closed_form_past_the_bernoulli_cap_is_refused_first():
    """B_2j is read, and refused, before 2^(2j) or (2j)! is built: those
    took about 1 s and 93 MB at j = 10^8."""
    tracemalloc.start()
    try:
        with pytest.raises(BernoulliIndexError):
            zeta_even_closed_form(10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


def test_bracket_is_finite():
    """Both tail integrals underflow towards 0 as j grows; none overflows."""
    for j in (1, 28, 300, 10 ** 6):
        for n_terms in (2, 1000):
            lower, upper = zeta_partial_sum(j, n_terms)
            assert math.isfinite(lower) and math.isfinite(upper), (j, n_terms)
            assert 1.0 <= lower <= upper


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


def _fresh_b_table(n):
    """The B-table of order n, built from a new ``faulhaber(n)``."""
    power_sum = faulhaber(n)
    return [Fraction(0)] * 2 + [power_sum.coefficient(n + 1 - j)
                                for j in range(2, n + 1)]


def test_b_table_is_built_once_per_order(monkeypatch):
    zeta_module._b_table.cache_clear()
    for n in range(1, MAX_TABLE_ORDER + 1):
        _, first = coefficient_tables(n, 1)
        assert first == _fresh_b_table(n), n
    # later calls, at any K, read the cached tables
    def no_faulhaber(n):
        raise AssertionError("a B-table was built again")
    monkeypatch.setattr(zeta_module.bernoulli, "faulhaber", no_faulhaber)
    for n in range(1, MAX_TABLE_ORDER + 1):
        for order in (1, 256, 4000):
            assert coefficient_tables(n, order)[1] == _fresh_b_table(n), n
    assert zeta_module._b_table.cache_info().currsize == MAX_TABLE_ORDER


def test_a_returned_b_table_is_a_copy():
    zeta_module._b_table.cache_clear()
    for n in (2, 7, MAX_TABLE_ORDER):
        want = verify_comparison(n, 100)
        _, b_table = coefficient_tables(n, 100)
        b_table[:] = [Fraction(99)] * len(b_table)
        b_table.append(Fraction(1))
        assert coefficient_tables(n, 100)[1] == _fresh_b_table(n), n
        assert verify_comparison(n, 100) == want, n


def test_first_b_tables_from_two_threads_are_equal():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (3, 8, MAX_TABLE_ORDER):
            zeta_module._b_table.cache_clear()
            with ThreadPoolExecutor(max_workers=2) as pool:
                first, second = pool.map(
                    lambda order: coefficient_tables(n, order)[1], (50, 60),
                    timeout=120)
            assert first == second == _fresh_b_table(n), n
    finally:
        sys.setswitchinterval(interval)


# verify_comparison(n, K) before the B-table was cached and the power sums
# gained their sub-block level, for K = 1, 255, 256, 4000, 10^5; a float's
# repr reads back as the same double, so == compares bits
_EARLIER_MISMATCHES = {
    1: (0.0, 0.0, 0.0, 0.0, 0.0),
    2: (0.06534548302432888, 0.00039655989941969616, 0.0003950138608509457,
        2.5327129887425803e-05, 1.0132067703449987e-06),
    3: (0.09801822453649334, 0.0005948398491295581, 0.0005925207912764185,
        3.799069483115258e-05, 1.5198101555591315e-06),
    4: (0.13069096604865776, 0.0007931197988393923, 0.0007900277217018914,
        5.0654259774851607e-05, 2.0264135406899975e-06),
    5: (0.16336370756082225, 0.000991399748549282, 0.0009875346521274198,
        6.33178247186339e-05, 2.5330169259318858e-06),
    6: (0.19603644907298667, 0.0011896796982591162, 0.001185041582552837,
        7.598138966230517e-05, 3.039620311118263e-06),
    7: (0.2287091905851511, 0.001387959647968895, 0.0013825485129782544,
        8.864495460603194e-05, 3.546223696249129e-06),
    8: (0.26138193209731553, 0.0015862395976787846, 0.0015800554434037828,
        0.00010130851954970321, 4.052827081379995e-06),
    9: (0.29405467360948, 0.0017845195473886744, 0.0017775623738293111,
        0.0001139720844934855, 4.559430466621883e-06),
    10: (0.3267274151216445, 0.001982799497098564, 0.0019750693042548395,
         0.0001266356494372678, 5.0660338518637715e-06),
    11: (0.35940015663380886, 0.0021810794468083428, 0.002172576234680146,
         0.00013929921438093906, 5.5726372369946375e-06),
    12: (0.39207289814597335, 0.0023793593965182325, 0.002370083165105674,
         0.00015196277932461033, 6.079240622236526e-06),
}


def test_verify_comparison_keeps_its_earlier_bits():
    for n, mismatches in _EARLIER_MISMATCHES.items():
        got = tuple(verify_comparison(n, order)
                    for order in (1, 255, 256, 4000, 10 ** 5))
        assert got == mismatches, n


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
