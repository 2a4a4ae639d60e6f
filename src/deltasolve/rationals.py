"""Exact rational scalars, the binomial coefficient and the ``p/q`` grammar.

Exact values are ``fractions.Fraction``: arbitrary precision, always kept
in canonical form (positive denominator, gcd(|p|, q) = 1), with structural
equality.  The textual contract is ``p/q`` with the ``/q`` part omitted when
q == 1, which is exactly what ``str()`` on a Fraction produces;
``parse_rational`` accepts that grammar and nothing else.  Exact values
become doubles through a plain ``float()``, and n! is ``math.factorial``.
The package itself no longer calls ``binomial``: the exact side sums
``math.comb`` integers.  It stays public because the tests use it as an
independent oracle for the Faulhaber coefficients, and the benchmark's
tracer counts its calls.

``DeltasolveError`` lives here, in the module every other one imports, so
that it is loaded whatever part of the package runs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "DeltasolveError",
    "binomial",
    "format_rational",
    "parse_rational",
]


class DeltasolveError(Exception):
    """Base of the package's domain errors: an input the method cannot
    handle (a pole, close roots, a degree or coefficient out of range).
    The CLI reports these with exit code 1."""


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/(\d+))?\Z")


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k) as an exact Fraction.

    Defined for n >= 0 with any integer k; values outside 0 <= k <= n are 0.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def format_rational(value: Fraction) -> str:
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or ``p`` (integer p, positive integer q).

    Decimal and scientific literals are rejected: the exact side of the
    package never constructs a Fraction from a rounded value.  Every
    refusal, a zero q included, is a ``ValueError``.
    """
    cleaned = text.strip()
    match = _RATIONAL_RE.match(cleaned)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    if match[1] is not None and int(match[1]) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(cleaned)
