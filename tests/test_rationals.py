"""Exact scalar layer: the binomial coefficient and the rational text contract."""

import random
from fractions import Fraction

import pytest

from deltasolve.rationals import binomial, format_rational, parse_rational


def _pascal_rows(count):
    """Independent oracle: Pascal's triangle built by row addition only."""
    rows = [[1]]
    for _ in range(count - 1):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def test_binomial_matches_pascal_triangle():
    rows = _pascal_rows(13)
    for n, row in enumerate(rows):
        for k, expected in enumerate(row):
            assert binomial(n, k) == Fraction(expected)


def test_binomial_frozen_values():
    assert binomial(5, 2) == Fraction(10)
    assert binomial(7, 0) == Fraction(1)
    assert binomial(4, 6) == Fraction(0)
    assert binomial(4, -1) == Fraction(0)


def test_binomial_addition_recurrence():
    for n in range(1, 20):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_arithmetic_is_exact():
    rng = random.Random(20240801)
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_canonical_form():
    q = Fraction(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert Fraction(0, 7) == Fraction(0)


def test_format_examples():
    assert format_rational(Fraction(-691, 2730)) == "-691/2730"
    assert format_rational(Fraction(10)) == "10"
    assert format_rational(Fraction(0)) == "0"


def test_parse_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


def test_parse_accepts_grammar_only():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational("+2/4") == Fraction(1, 2)
    for bad in ("1.5", "1e3", "3/4/5", "x", "", "1/-2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_zero_denominator_is_reported():
    for text in ("1/0", "-3/00", "0/0"):
        with pytest.raises(ValueError, match=f"zero denominator in '{text}'"):
            parse_rational(text)
