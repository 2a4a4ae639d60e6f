"""Dense univariate polynomials over exact rationals and over complex doubles.

Coefficients are stored ascending: index i holds the coefficient of x^i.
Both classes keep a canonical form with no trailing zero coefficient, so the
zero polynomial has an empty coefficient tuple and its degree is -inf.

A private base class holds everything the two classes do identically:
canonical storage, comparison and hashing, the additive group operations
and the derivative.  It is parameterised only by the coefficient type, so
the subclasses keep just what differs.  ``Polynomial`` (exact ``Rational``
coefficients) adds the operator calculus used on the exact side:
translation p(x) -> p(x+c), forward difference p(x+1) - p(x) and
antiderivative, all computed without rounding.  ``ComplexPolynomial`` is the
double-precision sibling that truncated mode sums accumulate into.  The
exact/float boundary is crossed only through ``ComplexPolynomial.from_exact``
or an explicit float()/complex() call, never implicitly; ``from_exact``
refuses a coefficient outside double range with ``CoefficientOverflowError``.

This module also owns the textual polynomial grammar shared by the CLI and
the tests::

    polynomial := [sign] term ((`+` | `-`) term)*
    term       := coeff | [coeff `*`] `x` [`^` power]

with coefficients written as ``p/q`` rationals (exact polynomials), plain
float literals (real polynomials), or parenthesised ``(a+bi)`` literals
(complex polynomials), and ``power`` at most ``MAX_PARSED_DEGREE``.
Rendering is in descending powers, e.g. ``1/2*x^2 - 1/2*x``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from .rationals import DeltasolveError, Rational, format_rational, parse_rational

__all__ = [
    "NEG_INFINITY",
    "MAX_PARSED_DEGREE",
    "CoefficientOverflowError",
    "Polynomial",
    "ComplexPolynomial",
    "format_polynomial",
    "parse_polynomial",
    "format_real_polynomial",
    "parse_real_polynomial",
    "format_complex_polynomial",
    "parse_complex_polynomial",
    "format_complex",
    "parse_complex",
]

# Degree of the zero polynomial.  Compares below every integer degree.
NEG_INFINITY = float("-inf")

# Largest power the polynomial grammars accept.  A term's power sizes the
# dense coefficient list, so it is checked before that list is built.
MAX_PARSED_DEGREE = 1000


class CoefficientOverflowError(DeltasolveError, ValueError):
    """A value outside double range: an exact coefficient too large to become
    a double, or a float result that overflowed although its inputs were
    finite."""


def _trimmed(coeffs: list) -> tuple:
    """``coeffs`` without trailing zero coefficients, as a tuple."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class _DensePolynomial:
    """Immutable dense polynomial over the coefficient type ``_scalar``."""

    __slots__ = ("_coeffs",)
    _scalar: type

    def __init__(self, coefficients: Iterable = ()):
        scalar = self._scalar
        self._coeffs: tuple = _trimmed([scalar(c) for c in coefficients])

    @classmethod
    def zero(cls):
        return cls()

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int):
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return self._scalar(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self):
        return type(self)(tuple(-c for c in self._coeffs))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return type(self)(merged)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def derivative(self):
        return type(self)(tuple(c * i for i, c in enumerate(self._coeffs) if i))


class Polynomial(_DensePolynomial):
    """Immutable dense polynomial with exact Rational coefficients."""

    __slots__ = ()
    _scalar = Fraction

    @classmethod
    def constant(cls, value: Rational | int) -> "Polynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient: Rational | int = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (coefficient,))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        return format_polynomial(self)

    def __mul__(self, other: "Polynomial | Rational | int") -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; the result type follows the argument type."""
        acc = x * 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant of integration."""
        return Polynomial((Fraction(0),) + tuple(
            c / (i + 1) for i, c in enumerate(self._coeffs)))

    def translate(self, offset: Rational | int) -> "Polynomial":
        """p(x + offset), computed exactly."""
        x_plus = Polynomial((Fraction(offset), Fraction(1)))
        acc = Polynomial()
        for c in reversed(self._coeffs):
            acc = acc * x_plus + Polynomial.constant(c)
        return acc

    def forward_difference(self) -> "Polynomial":
        """p(x + 1) - p(x).  Drops the degree by exactly one."""
        return self.translate(1) - self


class ComplexPolynomial(_DensePolynomial):
    """Immutable dense polynomial with complex double coefficients."""

    __slots__ = ()
    _scalar = complex

    @classmethod
    def from_exact(cls, polynomial: Polynomial) -> "ComplexPolynomial":
        """Each rational coefficient rounded to the nearest double."""
        try:
            return cls(tuple(complex(float(c)) for c in polynomial.coefficients))
        except OverflowError:
            raise CoefficientOverflowError(
                "a coefficient is outside double range "
                "(magnitude above about 1.8e308)") from None

    def real_coefficients(self) -> tuple[float, ...]:
        return tuple(c.real for c in self._coeffs)

    def max_abs_imag(self) -> float:
        return max((abs(c.imag) for c in self._coeffs), default=0.0)

    def __repr__(self) -> str:
        return f"ComplexPolynomial({list(self._coeffs)})"

    def __mul__(self, scalar: complex | float | int) -> "ComplexPolynomial":
        if isinstance(scalar, (int, float, complex)):
            return ComplexPolynomial(tuple(c * scalar for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x) -> complex:
        acc = 0j
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc


# --------------------------------------------------------------------------
# Textual grammar.
# --------------------------------------------------------------------------

def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level +/- signs, honouring exponents and parentheses.

    A sign directly after e/E belongs to a float exponent and a sign inside
    (...) belongs to a complex literal; neither starts a new term.
    """
    cleaned = text.replace(" ", "").replace("\t", "")
    if not cleaned:
        raise ValueError("empty polynomial literal")
    terms: list[tuple[int, str]] = []
    sign = 1
    chunk: list[str] = []
    depth = 0
    prev = ""
    for ch in cleaned:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0 and prev not in ("e", "E"):
            if chunk:
                terms.append((sign, "".join(chunk)))
                chunk = []
                sign = 1
            if ch == "-":
                sign = -sign
            prev = ch
            continue
        chunk.append(ch)
        prev = ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not chunk:
        raise ValueError(f"dangling sign in {text!r}")
    terms.append((sign, "".join(chunk)))
    return terms


def _parse_term(chunk: str) -> tuple[int, str | None]:
    """Return (power, coefficient text), with None meaning coefficient 1."""
    if "x" in chunk:
        head, _, tail = chunk.partition("x")
        power = 1
        if tail:
            if not tail.startswith("^"):
                raise ValueError(f"malformed term {chunk!r}")
            exponent = tail[1:]
            if not exponent.isdigit():
                raise ValueError(f"malformed exponent in {chunk!r}")
            power = int(exponent)
            if power > MAX_PARSED_DEGREE:
                raise ValueError(f"power {power} in {chunk!r} exceeds "
                                 f"the maximum of {MAX_PARSED_DEGREE}")
        if head.endswith("*"):
            head = head[:-1]
        return power, (head if head else None)
    if not chunk:
        raise ValueError("empty term")
    return 0, chunk


def _collect_terms(text: str, parse_coeff: Callable, scalar: type) -> list:
    """Ascending coefficients of ``text``: the signed terms summed by power.

    ``parse_coeff`` reads a written coefficient; an omitted one is
    ``scalar(1)``, and powers with no term hold ``scalar(0)``.
    """
    one, zero = scalar(1), scalar(0)
    powers: dict = {}
    for sign, chunk in _split_signed_terms(text):
        power, coeff_text = _parse_term(chunk)
        coeff = one if coeff_text is None else parse_coeff(coeff_text)
        powers[power] = powers.get(power, zero) + sign * coeff
    coeffs = [zero] * (max(powers) + 1)
    for power, coeff in powers.items():
        coeffs[power] = coeff
    return coeffs


def _format_signed(coeffs: Sequence, render: Callable[[object, str], str]) -> str:
    """Nonzero terms in descending powers, joined by their signs.

    ``render(magnitude, x_part)`` writes one term's body, where ``x_part``
    is ``""``, ``"x"`` or ``"x^p"``.
    """
    parts: list[str] = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        x_part = "" if power == 0 else "x" if power == 1 else f"x^{power}"
        body = render(abs(c), x_part)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def _rational_term(magnitude: Fraction, x_part: str) -> str:
    if not x_part:
        return format_rational(magnitude)
    return x_part if magnitude == 1 else f"{format_rational(magnitude)}*{x_part}"


def _float_term(magnitude: float, x_part: str) -> str:
    return f"{magnitude!r}*{x_part}" if x_part else repr(magnitude)


def format_polynomial(polynomial: Polynomial) -> str:
    """Render in descending powers with rational coefficients."""
    return _format_signed(polynomial.coefficients, _rational_term)


def parse_polynomial(text: str) -> Polynomial:
    """Parse the polynomial grammar with exact rational coefficients."""
    return Polynomial(_collect_terms(text, parse_rational, Fraction))


def format_real_polynomial(coefficients: Sequence[float]) -> str:
    """Render a float-coefficient polynomial, descending powers, repr floats."""
    return _format_signed(list(coefficients), _float_term)


def _parse_float(token: str) -> float:
    """A finite float; a literal that overflows, or ``nan``, is refused."""
    if "/" in token or "i" in token or "(" in token:
        raise ValueError(f"not a float literal: {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"float literal {token!r} is not finite")
    return value


def parse_real_polynomial(text: str) -> tuple[float, ...]:
    """Parse the polynomial grammar with float coefficients (ascending out)."""
    return _trimmed(_collect_terms(text, _parse_float, float))


def format_complex(value: complex) -> str:
    """Canonical ``a+bi`` literal with repr components."""
    value = complex(value)
    sign = "-" if value.imag < 0 else "+"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def parse_complex(text: str) -> complex:
    """Parse ``a+bi``, ``a``, ``bi``, or ``i`` forms (float components)."""
    real_part = 0.0
    imag_part = 0.0
    seen_real = seen_imag = False
    for sign, chunk in _split_signed_terms(text):
        if chunk.endswith("i"):
            if seen_imag:
                raise ValueError(f"duplicate imaginary part in {text!r}")
            body = chunk[:-1]
            imag_part = sign * (1.0 if body == "" else _parse_float(body))
            seen_imag = True
        else:
            if seen_real:
                raise ValueError(f"duplicate real part in {text!r}")
            real_part = sign * _parse_float(chunk)
            seen_real = True
    return complex(real_part, imag_part)


def format_complex_polynomial(polynomial: ComplexPolynomial) -> str:
    """Render with parenthesised complex coefficients, descending powers."""
    if polynomial.is_zero:
        return "0"
    parts: list[str] = []
    for power in range(int(polynomial.degree), -1, -1):
        c = polynomial.coefficient(power)
        if c == 0:
            continue
        literal = f"({format_complex(c)})"
        if power == 0:
            parts.append(literal)
        elif power == 1:
            parts.append(f"{literal}*x")
        else:
            parts.append(f"{literal}*x^{power}")
    return " + ".join(parts)


def _parse_complex_coeff(text: str) -> complex:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return parse_complex(text)


def parse_complex_polynomial(text: str) -> ComplexPolynomial:
    """Parse the polynomial grammar with complex coefficients."""
    return ComplexPolynomial(_collect_terms(text, _parse_complex_coeff, complex))
