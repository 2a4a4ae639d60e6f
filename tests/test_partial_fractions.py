"""Pole expansion of 1/(e^z - 1): evaluation, guard radius, Laurent data."""

import cmath
import math
import random
import struct
from fractions import Fraction

import pytest

from deltasolve import MAX_TERMS
from deltasolve.bernoulli import bernoulli
from deltasolve.partial_fractions import (POLE_EXCLUSION_RADIUS,
                                          PoleProximityError,
                                          laurent_from_modes, pfd_eval)
from deltasolve.polynomials import CoefficientOverflowError
from deltasolve.spectral import TruncationOrderError

TWO_PI = 2.0 * math.pi


def _direct(z: complex) -> complex:
    return 1.0 / (cmath.exp(z) - 1.0)


def _ascending_pfd(z: complex, truncation_order: int) -> complex:
    """Reference oracle: each paired term 2z/(z^2 + (2 pi k)^2) in full,
    accumulated in ascending k (pfd_eval sums 1/d_k descending and
    multiplies by 2z once)."""
    total = -0.5 + 1.0 / z
    z_squared = z * z
    for k in range(1, truncation_order + 1):
        total += 2.0 * z / (z_squared + (TWO_PI * k) ** 2)
    return total


def _tail_bound(z: complex, truncation_order: int) -> float:
    # |sum_{k > K} 2z/(z^2 + 4 pi^2 k^2)| <= 2|z| sum_{k > K} 1/(4 pi^2 k^2 - |z|^2)
    # <= 2|z|/(pi^2 K) once 4 pi^2 (K+1)^2 >= 2|z|^2, comfortably true here.
    return 2.0 * abs(z) / (math.pi ** 2 * truncation_order)


def test_matches_direct_evaluation():
    points = [1.0, -1.0, 0.5 + 0.5j, complex(0.0, math.pi), 2.7, -0.3 + 2j]
    for z in points:
        for order in (100, 1000):
            err = abs(pfd_eval(z, order) - _direct(z))
            assert err <= _tail_bound(z, order), (z, order)


def test_convergence_is_monotone_in_order():
    z = 1.0
    errors = [abs(pfd_eval(z, K) - _direct(z)) for K in (10, 100, 1000)]
    assert errors[1] <= errors[0] / 3.0
    assert errors[2] <= errors[1] / 3.0


def test_pole_guard():
    with pytest.raises(PoleProximityError) as info:
        pfd_eval(0.0, 10)
    assert info.value.k == 0
    with pytest.raises(PoleProximityError) as info:
        pfd_eval(complex(0.0, TWO_PI) + 1e-8, 10)
    assert info.value.k == 1
    with pytest.raises(PoleProximityError) as info:
        pfd_eval(complex(0.0, -2.0 * TWO_PI), 10)
    assert info.value.k == -2
    # the first omitted pole (|k| = K+1) is guarded as well
    with pytest.raises(PoleProximityError) as info:
        pfd_eval(complex(0.0, 11.0 * TWO_PI), 10)
    assert info.value.k == 11
    with pytest.raises(PoleProximityError) as info:
        pfd_eval(complex(0.0, -11.0 * TWO_PI) - 1e-8, 10)
    assert info.value.k == -11
    # ... but beyond it evaluation proceeds, on a pole as well as between
    pfd_eval(complex(0.0, 12.5 * TWO_PI), 10)
    assert isinstance(pfd_eval(complex(0.0, 12.0 * TWO_PI), 10), complex)
    assert isinstance(pfd_eval(complex(0.0, -12.0 * TWO_PI), 10), complex)


def test_pole_guard_message_names_the_pole():
    with pytest.raises(PoleProximityError,
                       match=r"within 1e-06 of the pole 2\*pi\*i\*k at k=3"):
        pfd_eval(complex(0.0, 3.0 * TWO_PI), 5)


def test_guard_radius_is_a_boundary():
    z = POLE_EXCLUSION_RADIUS * 0.99
    with pytest.raises(PoleProximityError):
        pfd_eval(z, 5)
    assert isinstance(pfd_eval(POLE_EXCLUSION_RADIUS * 1.01, 5), complex)


def test_order_validation():
    with pytest.raises(ValueError):
        pfd_eval(1.0, 0)
    with pytest.raises(ValueError):
        laurent_from_modes(1, 0)
    with pytest.raises(ValueError):
        laurent_from_modes(-1, 10)


def test_truncation_order_cap():
    # z = 0 is a pole: at the cap the pole guard refuses it, above the cap
    # the cap check comes first, so the K-term sum never starts
    with pytest.raises(PoleProximityError):
        pfd_eval(0.0, MAX_TERMS)
    with pytest.raises(TruncationOrderError,
                       match=f"{MAX_TERMS + 1} must be <= {MAX_TERMS}"):
        pfd_eval(0.0, MAX_TERMS + 1)
    with pytest.raises(TruncationOrderError):
        laurent_from_modes(1, MAX_TERMS + 1)


def test_laurent_even_powers_cancel_exactly():
    for j in (0, 2, 4, 10):
        assert laurent_from_modes(j, 100) == 0j


def test_laurent_values_are_finite():
    """(2 pi)^-m underflows to 0 for large m instead of overflowing, and the
    power sum stays at most zeta(2), so no j gives a non-finite value."""
    for j in (1, 3, 53, 55, 10 ** 6 - 1, 10 ** 6 + 1):
        for order in (1, 1000):
            value = laurent_from_modes(j, order)
            assert math.isfinite(value.real) and value.imag == 0.0, (j, order)


def test_laurent_odd_powers_recover_bernoulli_ratios():
    # coefficient of z^j converges to B_{j+1}/(j+1)!; the j = 1 truncation
    # error is the zeta(2) tail 1/(2 pi^2 K), higher j converge much faster
    value = laurent_from_modes(1, 10 ** 4)
    target = float(Fraction(bernoulli(2), math.factorial(2)))
    gap = target - value.real
    assert value.imag == 0.0
    assert 1.0 / (2.0 * math.pi ** 2 * (10 ** 4 + 1)) <= gap
    assert gap <= 1.0 / (2.0 * math.pi ** 2 * 10 ** 4)
    for j, order, tolerance in ((3, 1000, 1e-8), (5, 100, 1e-10)):
        target = float(Fraction(bernoulli(j + 1), math.factorial(j + 1)))
        assert abs(laurent_from_modes(j, order).real - target) <= tolerance


def test_laurent_matches_brute_force_mode_sum():
    # independent oracle: accumulate -(2 k pi i)^(-(j+1)) over 1 <= |k| <= K
    # in complex arithmetic, without the algebraic pair combination; polar
    # powers leave ~1e-16 residue per term, hence the loose tolerance
    for j in range(7):
        for order in (5, 50):
            acc = 0j
            for k in range(1, order + 1):
                for signed in (k, -k):
                    acc -= complex(0.0, TWO_PI * signed) ** (-(j + 1))
            assert abs(laurent_from_modes(j, order) - acc) <= 1e-13, (j, order)


def _truncated_sum_and_rounding_bound(mpmath, z: complex, truncation_order: int):
    """T_K(z) at the working precision, and pfd_eval's stated rounding bound
    2^-49 (1/2 + 1/|z| + 2|z| sum_k (k + (|z|^2 + (2 pi k)^2)/|d_k|)/|d_k|)."""
    exact_z = mpmath.mpc(z)
    z_squared = exact_z * exact_z
    four_pi_squared = (2 * mpmath.pi) ** 2
    total = 0
    terms = []
    for k in range(1, truncation_order + 1):
        d = z_squared + four_pi_squared * (k * k)
        total += 1 / d
        size = abs(z) ** 2 + (TWO_PI * k) ** 2
        magnitude = float(abs(d))
        terms.append((k + size / magnitude) / magnitude)
    value = -0.5 + 1 / exact_z + 2 * exact_z * total
    bound = 2.0 ** -49 * (0.5 + 1 / abs(z) + 2 * abs(z) * math.fsum(terms))
    return value, bound


def test_pfd_eval_within_stated_rounding_bound():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    cases = [(complex(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)),
              round(10.0 ** rng.uniform(0.0, math.log10(20000))))
             for _ in range(8)]
    cases += [(complex(0.5, 0.5), 1), (complex(-29.5, 30.0), 20000)]
    # near a pole 2 pi i k, just outside the guard radius, inside and
    # beyond the truncation, where d_k is ill-conditioned
    for k, order, offset in ((1, 5, 2e-6), (3, 40, -1e-4j), (4, 2, 3e-6 + 3e-6j)):
        cases.append((complex(0.0, TWO_PI * k) + offset, order))
    with mpmath.workdps(30):
        for z, order in cases:
            exact, bound = _truncated_sum_and_rounding_bound(mpmath, z, order)
            assert abs(pfd_eval(z, order) - exact) <= bound, (z, order)


def _outcome(evaluate, z: complex, truncation_order: int):
    try:
        value = evaluate(z, truncation_order)
    except (ArithmeticError, CoefficientOverflowError) as exc:
        return type(exc)
    return math.isfinite(value.real), math.isfinite(value.imag)


def _extreme_points() -> list[complex]:
    """|z| from 1e150 to 1e300: z^2 overflows, 1/d_k underflows."""
    rng = random.Random(1150)
    points = [complex(sign * 10.0 ** e, 0.0) for sign in (1, -1)
              for e in (150, 154, 155, 300)]
    points += [complex(0.0, sign * 10.0 ** e) for sign in (1, -1)
               for e in (150, 155, 300)]
    points += [cmath.rect(10.0 ** rng.uniform(150.0, 300.0),
                          rng.uniform(-math.pi, math.pi)) for _ in range(40)]
    points += [complex(1e154, 1e154), complex(1e200, -1e200), complex(1e-3, 1e200)]
    return points


def test_extreme_points_match_the_ascending_loop():
    # pfd_eval must raise the same ArithmeticError, or give a finite value,
    # exactly where the ascending loop does, and refuse where that loop's
    # value has a non-finite part
    for z in _extreme_points():
        for order in (1, 7, 50):
            expected = _outcome(_ascending_pfd, z, order)
            if expected in ((True, False), (False, True), (False, False)):
                expected = CoefficientOverflowError
            assert _outcome(pfd_eval, z, order) == expected, (z, order)


def _reference(z: complex) -> complex:
    """1/(e^z - 1), with e^x cos y - 1 written as expm1(x) cos y - 2 sin^2(y/2)
    so that nothing cancels near z = 0."""
    x, y = z.real, z.imag
    return 1.0 / complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2) ** 2,
                         math.exp(x) * math.sin(y))


def test_pfd_tail_bound_property():
    """|T_K(z) - 1/(e^z - 1)| <= 2|z|/(pi^2 K) wherever the docstring claims
    it: 2 pi (K+1) >= sqrt(2) |z|, here with Re z <= 700 so that e^z stays
    in double range and z at least 1e-3 from every pole."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        order = draw(st.integers(1, 2000))
        radius = TWO_PI * (order + 1) / math.sqrt(2.0)
        z = complex(draw(st.floats(-radius, min(radius, 700.0))),
                    draw(st.floats(-radius, radius)))
        pole = complex(0.0, TWO_PI * round(z.imag / TWO_PI))
        hypothesis.assume(TWO_PI * (order + 1) >= math.sqrt(2.0) * abs(z)
                          and abs(z - pole) >= 1e-3)
        return z, order

    @hypothesis.settings(max_examples=300, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(cases())
    @hypothesis.example((complex(0.0, TWO_PI) + 1e-3, 1))
    @hypothesis.example((complex(-6.0, 6.0), 1))
    def tail_bound(case):
        z, order = case
        bound = 2.0 * abs(z) / (math.pi ** 2 * order)
        assert abs(pfd_eval(z, order) - _reference(z)) <= bound

    tail_bound()


def _integer_k_pfd(z: complex, truncation_order: int) -> complex:
    """Reference oracle: the plain descending loop over integer k, each
    term 1.0 / d_k, as pfd_eval summed before it counted k as a double and
    took two terms per pass; the same refusal of a non-finite value."""
    z_squared = z * z
    four_pi_squared = TWO_PI * TWO_PI
    total = 0j
    for k in range(truncation_order, 0, -1):
        total += 1.0 / (z_squared + four_pi_squared * (k * k))
    value = -0.5 + 1.0 / z + 2.0 * z * total
    if not cmath.isfinite(value):
        raise CoefficientOverflowError("outside double range")
    return value


def _bits(evaluate, z: complex, truncation_order: int):
    """The exception type raised, or the value's two parts as raw bytes,
    so that 0.0 and -0.0 differ."""
    try:
        value = evaluate(z, truncation_order)
    except (ArithmeticError, CoefficientOverflowError) as exc:
        return type(exc)
    return struct.pack("<dd", value.real, value.imag)


def test_pfd_eval_is_bit_identical_to_the_integer_k_loop():
    """Every addition and its order are the plain loop's, so every bit of
    the value is too: for odd and even K, just outside the pole guard, and
    at every extreme point, where the same exception is raised."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def near_pole(draw):
        k = draw(st.integers(-3001, 3001))
        radius = POLE_EXCLUSION_RADIUS * draw(st.floats(1.001, 4.0))
        offset = cmath.rect(radius, draw(st.floats(-math.pi, math.pi)))
        return complex(0.0, TWO_PI * k) + offset

    points = st.one_of(
        st.complex_numbers(max_magnitude=1e4, allow_nan=False,
                           allow_infinity=False).filter(
            lambda z: abs(z) > POLE_EXCLUSION_RADIUS),
        near_pole())
    orders = st.one_of(st.integers(1, 3), st.integers(1, 3000))

    @hypothesis.settings(max_examples=300, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(points, orders)
    @hypothesis.example(complex(2.1, 1.9), 1)
    @hypothesis.example(complex(2.1, 1.9), 2)
    @hypothesis.example(complex(-0.3, 0.0), 3)
    @hypothesis.example(complex(0.0, TWO_PI) + 2e-6, 1)
    @hypothesis.example(complex(0.0, -TWO_PI * 4) + 2e-6j, 2)
    def same_bits(z, order):
        # the oracle has no pole guard, so every point drawn clears it
        k = round(z.imag / TWO_PI)
        assert abs(k) > order + 1 \
            or abs(z - complex(0.0, TWO_PI * k)) > POLE_EXCLUSION_RADIUS
        assert _bits(pfd_eval, z, order) == _bits(_integer_k_pfd, z, order)

    same_bits()

    for z in _extreme_points():
        for order in (1, 2, 3, 50, 1001):
            expected = _bits(_integer_k_pfd, z, order)
            assert _bits(pfd_eval, z, order) == expected, (z, order)
