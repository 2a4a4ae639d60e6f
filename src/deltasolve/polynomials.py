"""Dense univariate polynomials over exact rationals and over complex doubles.

Coefficients are stored ascending: index i holds the coefficient of x^i.
Both classes keep a canonical form with no trailing zero coefficient, so the
zero polynomial has an empty coefficient tuple and its degree is -inf.

A private base class holds everything the two classes do identically:
canonical storage, comparison and hashing, the additive group operations,
multiplication by a scalar, the derivative, ``monomial`` and evaluation by
``_horner``, the package's one polynomial evaluator; no class multiplies
two polynomials.  ``Polynomial`` (exact ``Fraction`` coefficients) adds the
exact side's operator calculus: translation p(x) -> p(x+c) by a Taylor
shift, forward difference p(x+1) - p(x) and antiderivative, all without
rounding.  ``ComplexPolynomial`` is the double-precision sibling that
truncated mode sums are returned in.  The exact/float boundary is crossed
only through ``ComplexPolynomial.from_exact``, ``_rounded`` or an explicit
rounding of each rational, never implicitly: a ``Polynomial`` called at a
float would round each coefficient as it adds it, and nothing in the
package calls it so.  The spectral and ODE solvers cross once per call, in
``_rounded``, which rounds a forcing and its antiderivative to the same
doubles as ``from_exact``; both refuse a coefficient outside double range
with ``CoefficientOverflowError``.  Both solvers then sum
``mode_polynomial``, the q with q' - a q = g, over the zeros a of their
operators: a = 2 pi i k, or the characteristic roots.

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

from .rationals import DeltasolveError, format_rational, parse_rational

__all__ = [
    "NEG_INFINITY",
    "MAX_PARSED_DEGREE",
    "CoefficientOverflowError",
    "Polynomial",
    "ComplexPolynomial",
    "mode_polynomial",
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

# The message of a rational coefficient too large to round to a double.
_OUT_OF_RANGE = ("a coefficient is outside double range "
                 "(magnitude above about 1.8e308)")


class CoefficientOverflowError(DeltasolveError, ValueError):
    """A value outside double range: an exact coefficient too large to become
    a double, or a float result that overflowed although its inputs were
    finite."""


def _trimmed(coeffs: list) -> tuple:
    """``coeffs`` without trailing zero coefficients, as a tuple."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _horner(coeffs: Sequence, x):
    """sum_i coeffs[i] x^i by Horner's rule: the package's one polynomial
    evaluator, behind calling either class.  It starts from x * 0, so the
    result's type follows x (the zero ``ComplexPolynomial`` at a real float
    gives 0.0, not 0j), and a non-finite point gives a non-finite value:
    ``euler_gap`` of the zero forcing there is nan."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class _DensePolynomial:
    """Immutable dense polynomial over the coefficient type ``_scalar``,
    multiplied by scalars of the types ``_multipliers``."""

    __slots__ = ("_coeffs",)
    _scalar: type
    _multipliers: tuple[type, ...]

    def __init__(self, coefficients: Iterable = ()):
        scalar = self._scalar
        self._coeffs: tuple = _trimmed(
            [c if type(c) is scalar else scalar(c) for c in coefficients])

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, power: int, coefficient=1):
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (coefficient,))

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

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

    def __mul__(self, scalar):
        if isinstance(scalar, self._multipliers):
            return type(self)(tuple(c * scalar for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self):
        return type(self)(tuple(c * i for i, c in enumerate(self._coeffs) if i))

    def __call__(self, x):
        return _horner(self._coeffs, x)


class Polynomial(_DensePolynomial):
    """Immutable dense polynomial with exact Fraction coefficients."""

    __slots__ = ()
    _scalar = Fraction
    _multipliers = (int, Fraction)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        return format_polynomial(self)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant of integration, public for
        the tests that rebuild a solve from it: ``_pair_sum_oracle`` and
        ``_solve_oracle`` in test_spectral.py, ``_per_power_solution`` in
        test_ode.py."""
        return Polynomial((Fraction(0),) + tuple(
            c / (i + 1) for i, c in enumerate(self._coeffs)))

    def translate(self, offset: Fraction | int) -> "Polynomial":
        """p(x + offset), computed exactly by a Taylor shift: deg p passes of
        synthetic division by (x - offset), in place, O(deg^2) operations."""
        offset = Fraction(offset)
        c = list(self._coeffs)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += offset * c[j + 1]
        return Polynomial(c)

    def forward_difference(self) -> "Polynomial":
        """p(x + 1) - p(x).  Drops the degree by exactly one."""
        return self.translate(1) - self


class ComplexPolynomial(_DensePolynomial):
    """Immutable dense polynomial with complex double coefficients."""

    __slots__ = ()
    _scalar = complex
    _multipliers = (int, float, complex)

    @classmethod
    def from_exact(cls, polynomial: Polynomial) -> "ComplexPolynomial":
        """Each rational coefficient rounded to the nearest double, public
        for the tests that rebuild a solve with it: the oracles named at
        ``Polynomial.antiderivative`` and test_ode.py's
        ``test_residual_check_leaves_solutions_untouched``."""
        try:
            return cls(tuple(complex(float(c)) for c in polynomial.coefficients))
        except OverflowError:
            raise CoefficientOverflowError(_OUT_OF_RANGE) from None

    def real_coefficients(self) -> tuple[float, ...]:
        return tuple(c.real for c in self._coeffs)

    def max_abs_imag(self) -> float:
        return max((abs(c.imag) for c in self._coeffs), default=0.0)

    def __repr__(self) -> str:
        return f"ComplexPolynomial({list(self._coeffs)})"


def mode_polynomial(a: complex, g: ComplexPolynomial) -> ComplexPolynomial:
    """The polynomial q(x) = e^{a x} integral(e^{-a x} g(x) dx), a != 0.

    q is the polynomial solution of q' - a q = g, of the same degree as g,
    built from the top down: q_d = -g_d / a, q_j = ((j+1) q_{j+1} - g_j) / a.
    """
    a = complex(a)
    if a == 0:
        raise ValueError("the mode polynomial requires a != 0; the zero "
                         "mode is a plain antiderivative")
    coeffs = list(g.coefficients)
    q = 0j
    for j in range(len(coeffs) - 1, -1, -1):
        q = ((j + 1) * q - coeffs[j]) / a
        coeffs[j] = q
    return ComplexPolynomial(coeffs)


def _rounded(forcing: Polynomial) -> tuple[list[float], list[float]]:
    """The forcing's coefficients and its antiderivative's, each rounded
    once from the exact rational: [g_0, ..., g_d] and [0.0, g_0/1, ...,
    g_d/(d+1)], untrimmed.  Each is one correctly rounded integer division,
    numerator / (denominator (n+1)) for g_n/(n+1), so these are the doubles
    ``ComplexPolynomial.from_exact`` gives for the forcing and for
    ``forcing.antiderivative()``, without building a ``Fraction``.  A
    coefficient outside double range raises ``from_exact``'s
    ``CoefficientOverflowError``."""
    coeffs = forcing.coefficients
    try:
        return ([c.numerator / c.denominator for c in coeffs],
                [0.0] + [c.numerator / (c.denominator * n)
                         for n, c in enumerate(coeffs, 1)])
    except OverflowError:
        raise CoefficientOverflowError(_OUT_OF_RANGE) from None


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
    return 0, chunk


def _collect_terms(text: str, parse_coeff: Callable, scalar: type) -> list:
    """Ascending coefficients of ``text``: the signed terms summed by power.

    ``parse_coeff`` reads a written coefficient; an omitted one is
    ``scalar(1)``, and powers with no term hold ``scalar(0)``.  A power's
    first term is stored as it is and a sign negates, so that signed zeros
    survive: ``0j + z`` and ``-1 * z`` would turn a -0.0 into 0.0.
    """
    one, zero = scalar(1), scalar(0)
    powers: dict = {}
    for sign, chunk in _split_signed_terms(text):
        power, coeff_text = _parse_term(chunk)
        coeff = one if coeff_text is None else parse_coeff(coeff_text)
        if sign < 0:
            coeff = -coeff
        powers[power] = powers[power] + coeff if power in powers else coeff
    coeffs = [zero] * (max(powers) + 1)
    for power, coeff in powers.items():
        coeffs[power] = coeff
    return coeffs


def _format_signed(coeffs: Sequence, render: Callable) -> str:
    """Nonzero terms in descending powers, joined by their signs.

    ``render(coefficient)`` returns whether the term is negative and the
    coefficient text written after its sign; a text of ``1`` is left out
    before a power of x.
    """
    parts: list[str] = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        x_part = "" if power == 0 else "x" if power == 1 else f"x^{power}"
        negative, body = render(c)
        if x_part:
            body = x_part if body == "1" else f"{body}*{x_part}"
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts) if parts else "0"


def format_polynomial(polynomial: Polynomial) -> str:
    """Render in descending powers with rational coefficients."""
    return _format_signed(polynomial.coefficients,
                          lambda c: (c < 0, format_rational(abs(c))))


def parse_polynomial(text: str) -> Polynomial:
    """Parse the polynomial grammar with exact rational coefficients."""
    return Polynomial(_collect_terms(text, parse_rational, Fraction))


def format_real_polynomial(coefficients: Sequence[float]) -> str:
    """Render a float-coefficient polynomial, descending powers, repr floats."""
    return _format_signed(list(coefficients), lambda c: (c < 0, repr(abs(c))))


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
    sign = "-" if math.copysign(1.0, value.imag) < 0 else "+"
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
    """Render with parenthesised complex coefficients, descending powers.
    A literal carries its own signs, so no term counts as negative."""
    return _format_signed(polynomial.coefficients,
                          lambda c: (False, f"({format_complex(c)})"))


def _parse_complex_coeff(text: str) -> complex:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return parse_complex(text)


def parse_complex_polynomial(text: str) -> ComplexPolynomial:
    """Parse the polynomial grammar with complex coefficients."""
    return ComplexPolynomial(_collect_terms(text, _parse_complex_coeff, complex))
