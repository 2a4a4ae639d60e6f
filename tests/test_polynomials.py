"""Polynomial calculus and the shared text grammar."""

import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from deltasolve.polynomials import (MAX_PARSED_DEGREE, NEG_INFINITY,
                                    ComplexPolynomial, Polynomial,
                                    format_complex,
                                    format_complex_polynomial,
                                    format_polynomial,
                                    format_real_polynomial, parse_complex,
                                    parse_complex_polynomial,
                                    parse_polynomial, parse_real_polynomial)
from deltasolve.polynomials import _horner

X = Polynomial((0, 1))


def _random_poly(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(degree + 1)])


def _check_property(check, strategy, cases):
    """Run ``check`` on every fixed case as an ``@example`` and on
    derandomized draws from ``strategy(st)``."""
    hypothesis = pytest.importorskip("hypothesis")
    prop = hypothesis.given(strategy(hypothesis.strategies))(check)
    for case in cases:
        prop = hypothesis.example(case)(prop)
    hypothesis.settings(max_examples=200, deadline=None, database=None,
                        derandomize=True)(prop)()


def _rationals(st):
    return st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                     st.integers(1, 10 ** 6))


def _finite_floats(st):
    # Includes -0.0 and subnormals.  Non-finite values do not round-trip:
    # inf renders as "inf", which the float grammar rejects.
    return st.floats(allow_nan=False, allow_infinity=False)


def _finite_complexes(st):
    return st.builds(complex, _finite_floats(st), _finite_floats(st))


def _signs(z: complex) -> tuple[float, float]:
    """The sign bits of both components, which ``==`` ignores for zeros."""
    return math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def _same_nonzero_signs(got: ComplexPolynomial, expected: ComplexPolynomial):
    """Every nonzero coefficient keeps the signs of both its components; a
    zero one is not rendered, so its signs cannot survive."""
    return all(_signs(a) == _signs(b) for a, b in
               zip(got.coefficients, expected.coefficients) if b != 0)


def test_canonical_form_and_degree():
    assert Polynomial((1, 2, 0, 0)).coefficients == (Fraction(1), Fraction(2))
    assert Polynomial().degree == NEG_INFINITY
    assert not Polynomial((0,))
    assert Polynomial((0, 0, 3)).degree == 2
    assert Polynomial((1, 2)) == Polynomial((Fraction(1), Fraction(2), Fraction(0)))


class _Rational(Fraction):
    """A Fraction subclass: the constructor converts it to a Fraction."""


class _Complex(complex):
    """A complex subclass: the constructor converts it to a complex."""


def test_constructor_keeps_exact_scalars_and_converts_the_rest():
    half, z = Fraction(1, 2), 1 - 2j
    exact = Polynomial([3, True, half, _Rational(3, 4), False, Fraction(0),
                        _Rational(0)])
    assert exact.coefficients == (3, 1, half, Fraction(3, 4))
    assert [type(c) for c in exact.coefficients] == [Fraction] * 4
    assert exact.coefficients[2] is half  # stored as it is, not rebuilt
    assert exact == Polynomial((3, 1, half, Fraction(3, 4)))
    assert hash(exact) == hash(Polynomial((3, 1, half, Fraction(3, 4))))

    floating = ComplexPolynomial([2, 1.5, z, _Complex(0, 3), 0.0, -0j,
                                  _Complex(0)])
    assert floating.coefficients == (2, 1.5, z, 3j)
    assert [type(c) for c in floating.coefficients] == [complex] * 4
    assert floating.coefficients[2] is z
    assert floating == ComplexPolynomial((2, 1.5, z, 3j))
    assert hash(floating) == hash(ComplexPolynomial((2, 1.5, z, 3j)))


def test_constructor_matches_converting_every_coefficient():
    """Against the constructor that converts every coefficient: the same
    coefficients, each of the exact scalar type, the same equality and
    hash."""
    def exact_inputs(st):
        return st.lists(st.one_of(
            st.integers(-9, 9), st.booleans(), _rationals(st),
            _rationals(st).map(lambda c: _Rational(c.numerator,
                                                   c.denominator))),
            max_size=12)

    def check_exact(coeffs):
        got = Polynomial(coeffs)
        want = Polynomial([Fraction(c) for c in coeffs])
        assert got.coefficients == want.coefficients
        assert all(type(c) is Fraction for c in got.coefficients)
        assert got == want and hash(got) == hash(want)

    _check_property(check_exact, exact_inputs,
                    [[], [0], [False, True], [_Rational(1, 3), 0, False]])

    def complex_inputs(st):
        return st.lists(st.one_of(
            st.integers(-9, 9), _finite_floats(st), _finite_complexes(st),
            _finite_complexes(st).map(_Complex)), max_size=12)

    def check_complex(coeffs):
        got = ComplexPolynomial(coeffs)
        want = ComplexPolynomial([complex(c) for c in coeffs])
        assert got.coefficients == want.coefficients
        assert all(type(c) is complex for c in got.coefficients)
        assert list(map(_signs, got.coefficients)) \
            == list(map(_signs, want.coefficients))
        assert got == want and hash(got) == hash(want)

    _check_property(check_complex, complex_inputs,
                    [[], [0.0], [-0.0, _Complex(1, -0.0)], [1j, 0, -0j]])


def test_shift_examples():
    # Derived by expanding p(x+1); cross-checked by evaluation below.
    assert Polynomial((0, 0, 1)).translate(1) == Polynomial((1, 2, 1))
    assert Polynomial.monomial(0, 5).translate(1) == Polynomial.monomial(0, 5)
    cubic = Polynomial((0, -1, 0, 1))  # x^3 - x
    assert cubic.translate(1) == Polynomial((0, 2, 3, 1))


def test_shift_agrees_with_evaluation():
    rng = random.Random(11)
    for case in range(60):
        p = _random_poly(rng, 40)
        offset = 1 if case < 10 else Fraction(rng.randint(-50, 50),
                                               rng.randint(1, 12))
        q = p.translate(offset)
        assert q.degree == p.degree
        for x in (Fraction(-3), Fraction(0), Fraction(2, 7), Fraction(5)):
            assert q(x) == p(x + offset), (p, offset, x)


def test_shift_is_a_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(25):
        p = _random_poly(rng, 5)
        q = _random_poly(rng, 5)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (p + q).translate(1) == p.translate(1) + q.translate(1)
        assert (c * p).translate(1) == c * p.translate(1)


def test_forward_difference_examples():
    half = Fraction(1, 2)
    assert Polynomial((0, -half, half)).forward_difference() == X
    assert Polynomial.monomial(0, 9).forward_difference() == Polynomial.zero()
    assert Polynomial.monomial(3).forward_difference() == Polynomial((1, 3, 3))


def test_forward_difference_drops_degree_by_one():
    rng = random.Random(17)
    for _ in range(25):
        p = _random_poly(rng)
        if p.degree >= 1:
            assert p.forward_difference().degree == p.degree - 1


def test_derivative_antiderivative():
    assert X.antiderivative() == Polynomial((0, 0, Fraction(1, 2)))
    assert Polynomial.zero().antiderivative() == Polynomial.zero()
    p = Polynomial((-2, 0, 3))  # 3x^2 - 2
    assert p.antiderivative() == Polynomial((0, -2, 0, 1))
    rng = random.Random(19)
    for _ in range(25):
        q = _random_poly(rng)
        assert q.antiderivative().derivative() == q
        assert q.antiderivative().coefficient(0) == 0


def test_evaluation_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(20):
        p = _random_poly(rng, 6)
        q = _random_poly(rng, 6)
        for x in (Fraction(-3), Fraction(0), Fraction(5, 7)):
            assert (p + q)(x) == p(x) + q(x)
    # both classes evaluate by _horner, bit for bit at finite points, and a
    # point that is not finite gives a value that is not finite, the zero
    # polynomial included
    exact = [Polynomial(()), Polynomial((Fraction(-7, 3),)),
             _random_poly(rng, 6), Polynomial((0, Fraction(-1, 2), 0, 3))]
    floats = [ComplexPolynomial.from_exact(p) for p in exact]
    for p in exact + floats + [ComplexPolynomial((1j, -0.0, 2 - 3j))]:
        for x in (0.0, -0.0, 1.5, -2.25, 1e10, 0.5 + 2j):
            assert repr(p(x)) == repr(_horner(p.coefficients, x)), (p, x)
        for x in (math.inf, -math.inf, math.nan):
            assert not cmath.isfinite(p(x)), (p, x)


def test_translate():
    p = Polynomial((0, 0, 1))
    assert p.translate(-1) == Polynomial((1, -2, 1))
    assert p.translate(1) == Polynomial((1, 2, 1))


def test_format_examples():
    half = Fraction(1, 2)
    assert format_polynomial(Polynomial((0, -half, half))) == "1/2*x^2 - 1/2*x"
    assert format_polynomial(Polynomial.zero()) == "0"
    assert format_polynomial(X) == "x"
    assert format_polynomial(Polynomial((1, -1))) == "-x + 1"
    assert format_polynomial(Polynomial((Fraction(-2, 3),))) == "-2/3"
    for p in (Polynomial((0, -half, half)), Polynomial.zero(), X):
        assert str(p) == format_polynomial(p)


def test_parse_polynomial_forms():
    assert parse_polynomial("x") == X
    assert parse_polynomial("2*x^3 - 1") == Polynomial((-1, 0, 0, 2))
    assert parse_polynomial("-x + 1/2") == Polynomial((Fraction(1, 2), -1))
    assert parse_polynomial("x + x") == Polynomial((0, 2))
    assert parse_polynomial("0") == Polynomial.zero()


def test_parse_format_round_trip():
    def check(coeffs):
        p = Polynomial(coeffs)
        assert parse_polynomial(format_polynomial(p)) == p

    rng = random.Random(29)
    _check_property(check, lambda st: st.lists(_rationals(st), max_size=10),
                    [_random_poly(rng).coefficients for _ in range(50)])


def test_parse_rejects_garbage():
    for bad in ("", "x^", "1/2*", "y", "x^-1", "x^2^3", "1.5*x"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


@pytest.mark.parametrize("bad, message", [
    ("x)", "unbalanced parentheses in 'x)'"),
    ("x2", "malformed term 'x2'"),
])
def test_parse_names_the_grammar_error(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_polynomial(bad)


def test_real_polynomial_round_trip():
    def check(coeffs):
        rendered = format_real_polynomial(coeffs)
        parsed = parse_real_polynomial(rendered) if rendered != "0" else ()
        stripped = list(coeffs)
        while stripped and stripped[-1] == 0:
            stripped.pop()
        assert list(parsed) == stripped, (coeffs, rendered)

    cases = [
        (0.5, -0.5, 0.083),
        (5e-05, 0.0, -1.25e3),
        (1.0,),
        (),
    ]
    _check_property(check, lambda st: st.lists(_finite_floats(st), max_size=10)
                    .map(tuple), cases)


def test_real_polynomial_rejects_rational_and_complex_tokens():
    with pytest.raises(ValueError):
        parse_real_polynomial("1/2*x")
    with pytest.raises(ValueError):
        parse_real_polynomial("2i*x")


def test_non_finite_float_literals_are_refused():
    for bad in ("1e400", "-1e400", "nan", "1+nani", "1e400i"):
        with pytest.raises(ValueError):
            parse_complex(bad)
    for bad in ("nan", "1e400*x", "x - nan"):
        with pytest.raises(ValueError):
            parse_real_polynomial(bad)


def test_complex_literal_round_trip():
    def check(z):
        back = parse_complex(format_complex(z))
        assert back == z
        assert _signs(back) == _signs(z)

    values = [complex(1.5, -2.25), complex(0, 1), complex(-3, 0),
              complex(5e-7, -5e-7), complex(0, 0), complex(-1.0, -0.0),
              complex(-0.0, -0.0)]
    _check_property(check, _finite_complexes, values)
    assert format_complex(complex(-1.0, -0.0)) == "-1.0-0.0i"


def test_complex_literal_forms():
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == complex(1, 2)
    assert parse_complex("2e-3i") == complex(0, 2e-3)


def test_complex_literal_rejects_garbage():
    for bad in ("", "+", "1+2i+3i", "1+1", "2j", "(1+2i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_complex_polynomial_round_trip():
    def check(coeffs):
        p = ComplexPolynomial(coeffs)
        back = parse_complex_polynomial(format_complex_polynomial(p))
        assert back == p
        assert _same_nonzero_signs(back, p)

    _check_property(check, lambda st: st.lists(_finite_complexes(st), max_size=8)
                    .map(tuple), [(complex(-1, 0.5), 0j, complex(0, -2))])
    assert format_complex_polynomial(ComplexPolynomial.zero()) == "0"
    # Every term is joined by " + ": a literal carries its own signs.
    exact = [
        ((complex(0.0, 2.5), 0j, 0j, complex(-1.0, -0.5)),
         "(-1.0-0.5i)*x^3 + (0.0+2.5i)"),
        ((complex(-0.0, -3.0), complex(-2.0, 0.0)),
         "(-2.0+0.0i)*x + (-0.0-3.0i)"),
        ((0j, 0j, complex(-0.0, -1e-300), 0j, complex(-7.5, 1.0)),
         "(-7.5+1.0i)*x^4 + (-0.0-1e-300i)*x^2"),
    ]
    for coeffs, text in exact:
        p = ComplexPolynomial(coeffs)
        assert format_complex_polynomial(p) == text
        assert parse_complex_polynomial(text) == p
        assert _same_nonzero_signs(parse_complex_polynomial(text), p)


def test_scalar_multiplication_accepts_only_its_scalars():
    p = Polynomial((1, Fraction(-1, 2)))
    assert 2 * p == p * 2 == Polynomial((2, -1))
    assert Fraction(2, 3) * p == Polynomial((Fraction(2, 3), Fraction(-1, 3)))
    c = ComplexPolynomial((1, 2j))
    assert 2 * c == c * 2.0 == ComplexPolynomial((2, 4j))
    assert 1j * c == ComplexPolynomial((1j, -2))
    # The exact/float boundary is never crossed implicitly, and no class
    # multiplies two polynomials.
    for a, b in ((p, 0.5), (p, 1j), (c, Fraction(1, 2)), (p, p), (c, c), (p, c)):
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            b * a
    # nor does any class add or subtract a polynomial of the other class
    for a, b in ((p, c), (c, p)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


def test_parsed_power_is_capped():
    cap = MAX_PARSED_DEGREE
    for parse in (parse_polynomial, parse_real_polynomial,
                  parse_complex_polynomial):
        for text in (f"x^{cap}", f"2*x^{cap} + 1"):
            parsed = parse(text)
            coeffs = parsed if isinstance(parsed, tuple) else parsed.coefficients
            assert len(coeffs) == cap + 1, (parse, text)
        for text in (f"x^{cap + 1}", f"1 + x^{cap + 1}", f"x^0{cap + 1}"):
            with pytest.raises(ValueError, match="exceeds the maximum"):
                parse(text)


def test_complex_polynomial_basics():
    p = ComplexPolynomial.from_exact(Polynomial((Fraction(1, 2), 0, 1)))
    assert p.coefficients == (0.5 + 0j, 0j, 1 + 0j)
    assert p.derivative().coefficients == (0j, 2 + 0j)
    assert p(2.0) == 4.5 + 0j
    assert not p - p
    assert (p * 2.0).coefficient(0) == 1 + 0j
    assert p.max_abs_imag() == 0.0
    assert p.real_coefficients() == (0.5, 0.0, 1.0)
