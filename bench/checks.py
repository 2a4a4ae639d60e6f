"""Output checks computed apart from the program.

Every check takes an operation and the result the program gave for it and
returns True when the result is right.  The references come from the
benchmark's own code or from ``mpmath``, or from a property the method must
have (an antidifference's forward difference is its forcing, a truncated
mode sum sits inside its integral-test tail), never from a stored copy of
an earlier output and never from the program's own helpers.  Where the
program's text grammar is under test, its documented parsers read the CLI's
output; the numbers they yield are then checked like library results.

Import this module after ``workloads.import_program()``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath
from deltasolve.polynomials import (parse_complex, parse_complex_polynomial,
                                    parse_polynomial, parse_real_polynomial)
from deltasolve.rationals import parse_rational

from workloads import Op, OpError

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon
mpmath.mp.dps = 60


# ----------------------------------------------------------------------
# independent references
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n (B_1 = -1/2) from the integer tangent numbers.

    Brent & Harvey (arXiv:1108.0286), algorithm TangentNumbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  It shares nothing with the
    program's recurrence.
    """
    half = n // 2
    t = [0] * (half + 1)
    if half >= 1:
        t[1] = 1
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    if n >= 1:
        out[1] = Fraction(-1, 2)
    for k in range(1, half + 1):
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k],
                              4 ** k * (4 ** k - 1))
    return tuple(out)


def forward_difference(coeffs) -> list[Fraction]:
    """Ascending coefficients of f(x+1) - f(x)."""
    out = [Fraction(0)] * max(len(coeffs) - 1, 0)
    for k, c in enumerate(coeffs):
        for i in range(k):
            out[i] += c * comb(k, i)
    return out


def _trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@lru_cache(maxsize=None)
def zeta_even(j: int):
    return mpmath.zeta(2 * j)


def tail_bracket(m: int, K: int) -> tuple[float, float]:
    """Integral-test bracket of sum_{k > K} (2 pi k)^-m, m >= 2."""
    scale = TWO_PI ** -m / (m - 1)
    return scale * (K + 1) ** (1 - m), scale * K ** (1 - m)


def _spectral_terms(g, j):
    """(factor, m) for each forcing power p feeding coefficient x^j.

    The +-k mode pair for x^p adds -(p!/j!) 2 (-1)^(m/2) (2 pi k)^-m to the
    x^j coefficient, m = p + 1 - j; odd m cancels within the pair.
    """
    for p in range(j, len(g)):
        m = p + 1 - j
        if g[p] and m % 2 == 0:
            yield float(g[p]) * factorial(p) / factorial(j) * 2 * (-1) ** (m // 2), m


def spectral_deviation(g, j: int, K: int) -> tuple[float, float, float]:
    """Bracket of (truncated minus limit) for coefficient x^j, and a scale.

    The scale bounds every partial sum of that coefficient and so sizes the
    rounding allowance.
    """
    lo = hi = 0.0
    scale = abs(float(g[j])) / 2 if j < len(g) else 0.0
    if j >= 1 and j - 1 < len(g):
        scale += abs(float(g[j - 1])) / j
    for factor, m in _spectral_terms(g, j):
        t_lo, t_hi = tail_bracket(m, K)
        a, b = factor * t_lo, factor * t_hi
        lo += min(a, b)
        hi += max(a, b)
        scale += abs(factor) * TWO_PI ** -m * 2  # zeta(m) < 2
    return lo, hi, scale


def _sum_allowance(K: int, scale: float) -> float:
    """Worst-case rounding of K ascending float additions of size <= scale."""
    return 4 * (K + 50) * EPS * scale


def spectral_coefficients_ok(g, coeffs, K: int) -> bool:
    """Coefficients x^j, j >= 1, of a corrected truncated solution lie in the
    integral-test tail of the exact antidifference's coefficients."""
    exact = antidifference(g)
    for j in range(1, max(len(coeffs), len(exact))):
        lo, hi, scale = spectral_deviation(g, j, K)
        want = float(exact[j]) if j < len(exact) else 0.0
        got = coeffs[j] if j < len(coeffs) else 0.0
        slack = _sum_allowance(K, scale + abs(want))
        if not want + lo - slack <= got <= want + hi + slack:
            return False
    return True


@lru_cache(maxsize=None)
def _antidifference(g: tuple) -> tuple[Fraction, ...]:
    """The exact antidifference with f(0) = 0, by solving the triangular
    system of forward_difference coefficients from the top down."""
    n = len(g)
    f = [Fraction(0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        # coefficient of x^i in Delta f is sum_{k > i} f_k C(k, i)
        rest = sum((f[k] * comb(k, i) for k in range(i + 2, n + 1)), Fraction(0))
        f[i + 1] = (g[i] - rest) / (i + 1)
    return tuple(f)


def antidifference(g) -> tuple[Fraction, ...]:
    return _antidifference(tuple(Fraction(c) for c in g))


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def residual_bound(g, K: int, x: float) -> float:
    """Bound on |s(x+1) - s(x) - g(x)| for the corrected truncated s.

    The limit solution satisfies the equation exactly and differs from s
    only in its coefficients by the tails, so the residual is at most
    sum_j |dev_j| |(x+1)^j - x^j| plus rounding of the evaluation.
    """
    bound = 0.0
    size = 0.0
    exact = antidifference(g)
    for j in range(1, len(g) + 1):
        lo, hi, scale = spectral_deviation(g, j, K)
        weight = abs((x + 1) ** j - x ** j)
        bound += max(abs(lo), abs(hi)) * weight
        size += (scale + abs(float(exact[j]))) * (abs(x + 1) ** j + abs(x) ** j)
    lo, hi, scale = spectral_deviation(g, 0, K)
    size += 2 * (scale + max(abs(lo), abs(hi)))
    size += sum(abs(float(c)) * abs(x) ** p for p, c in enumerate(g))
    return bound + _sum_allowance(K, size)


def pfd_bound(z: complex, K: int) -> float:
    return 2 * abs(z) / (math.pi ** 2 * K)


def pfd_ok(z: complex, K: int, value: complex) -> bool:
    direct = 1 / (mpmath.exp(mpmath.mpc(z)) - 1)
    error = abs(complex(direct) - value)
    return error <= pfd_bound(z, K) + _sum_allowance(K, 1 + abs(1 / z) + abs(z))


def comparison_bracket(n: int, K: int) -> tuple[float, float, float]:
    """Bracket of verify_comparison(n, K) and its rounding allowance.

    |A(n, n+1-j) - B(n, j)| = (n!/(n+1-j)!) 2 sum_{k > K} (2 pi k)^-j for
    even j and 0 for odd j, so the maximum over j lies between the maxima
    of the lower and of the upper tails (both 0 when n < 2).
    """
    lo = hi = 0.0
    slack = EPS
    for j in range(2, n + 1, 2):
        factor = factorial(n) / factorial(n + 1 - j) * 2
        t_lo, t_hi = tail_bracket(j, K)
        lo, hi = max(lo, factor * t_lo), max(hi, factor * t_hi)
        slack = max(slack, _sum_allowance(K, factor * TWO_PI ** -j * 4))
    return lo, hi, slack


def in_bracket(value: float, lo: float, hi: float, slack: float) -> bool:
    return lo - slack <= value <= hi + slack


# ----------------------------------------------------------------------
# library results
# ----------------------------------------------------------------------

def check_antidiff(g, coeffs) -> bool:
    if coeffs and coeffs[0] != 0:
        return False
    return _trimmed(forward_difference(coeffs)) == _trimmed(g)


def check_faulhaber(n: int, coeffs) -> bool:
    """S_n(m) equals the direct power sum at m = 0..n+1, which pins down
    every polynomial of degree <= n + 1."""
    if len(coeffs) > n + 2:
        return False
    total = 0
    for m in range(n + 2):
        if m:
            total += m ** n
        if _horner(coeffs, Fraction(m)) != total:
            return False
    return True


def check_zeta_closed(j: int, c: Fraction, pi_power: int) -> bool:
    """c * pi^pi_power is zeta(2j)."""
    if pi_power != 2 * j or c <= 0:
        return False
    value = mpmath.mpf(c.numerator) / c.denominator * mpmath.pi ** (2 * j)
    return abs(value / zeta_even(j) - 1) < mpmath.mpf(10) ** -50


def check_bernoulli(n: int, value) -> bool:
    return value == bernoulli_numbers(n)[n]


def check_spectral(g, K: int, solution) -> bool:
    if solution.config.truncation_order != K:
        return False
    coeffs = solution.polynomial_part.coefficients
    scale = sum(spectral_deviation(g, j, K)[2] for j in range(len(g) + 1))
    if max((abs(c.imag) for c in coeffs), default=0.0) > _sum_allowance(K, scale):
        return False
    return spectral_coefficients_ok(g, [c.real for c in coeffs], K)


def check_residual(g, points, K: int, residuals) -> bool:
    if len(residuals) != len(points):
        return False
    return all(0 <= r <= residual_bound(g, K, x) for x, r in zip(points, residuals))


def check_euler_gap(g, x: float, K: int, gap: float) -> bool:
    want = float(_horner([Fraction(c) for c in g], Fraction(x))) / 2
    size = sum((spectral_deviation(g, j, K)[2] + abs(float(c)))
               * max(1.0, abs(x)) ** j
               for j, c in enumerate(antidifference(g)))
    return abs(gap - want) <= 2 * _sum_allowance(K, size) + EPS


def check_laurent(j: int, K: int, value: complex) -> bool:
    if value.imag != 0:
        return False
    if j % 2 == 0:
        return value == 0
    m = j + 1
    limit = bernoulli_numbers(m)[m] / factorial(m)
    sign = (-1) ** (m // 2)
    t_lo, t_hi = tail_bracket(m, K)
    a, b = 2 * sign * t_lo, 2 * sign * t_hi
    slack = _sum_allowance(K, 4 * TWO_PI ** -m) + EPS * abs(float(limit))
    return in_bracket(value.real - float(limit), min(a, b), max(a, b), slack)


def check_verify_comparison(n: int, K: int, worst: float) -> bool:
    return in_bracket(worst, *comparison_bracket(n, K))


def check_zeta_partial(j: int, bracket) -> bool:
    lower, upper = bracket
    return lower < upper and lower <= zeta_even(j) <= upper


def ode_residual_ok(coeffs, g, f_coeffs) -> bool:
    """|P(D) f - g| coefficient-wise, with f differentiated here."""
    size = max(len(g), len(f_coeffs))
    total = [0j] * size
    scale = [abs(float(c)) for c in g] + [0.0] * (size - len(g))
    deriv = list(f_coeffs)
    for a in coeffs:
        for i, c in enumerate(deriv):
            total[i] += a * c
            scale[i] += abs(a * c)
        deriv = [c * i for i, c in enumerate(deriv)][1:]
    for i in range(size):
        want = float(g[i]) if i < len(g) else 0.0
        if abs(total[i] - want) > 1e-9 * scale[i] + 1e-300:
            return False
    return True


def check_ode(coeffs, g, solution) -> bool:
    if not solution.terms:
        return not any(g)
    if len(solution.terms) != 1 or solution.terms[0].exponent != 0:
        return False
    return ode_residual_ok(coeffs, g, solution.terms[0].polynomial.coefficients)


# ----------------------------------------------------------------------
# CLI results: (exit code, stdout[, report CSV, paired CSV])
# ----------------------------------------------------------------------

def _flag(argv, name, cast=str):
    """The value of ``name`` given as ``name value`` or ``name=value``."""
    for i, word in enumerate(argv):
        if word == name:
            return cast(argv[i + 1])
        if word.startswith(name + "="):
            return cast(word[len(name) + 1:])
    return None


def _parse_forcing(text):
    return parse_polynomial(text).coefficients


def _envelope(stdout, command, K):
    """The JSON envelope's result, or None if the envelope is malformed."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    env = json.loads(lines[0])
    if list(env) != ["command", "inputs", "result", "meta"]:
        return None
    if env["command"] != command or env["meta"] != {"K": K}:
        return None
    return env["result"]


def _single_line(stdout):
    lines = stdout.splitlines()
    return lines[0] if len(lines) == 1 else None


def check_cli(op: Op, result) -> bool:
    argv = list(op.args)
    code, stdout = result[0], result[1]
    if code != 0:
        return False
    fmt = _flag(argv, "--format")
    command = argv[0]
    K = _flag(argv, "--K", int)
    if command == "report":
        return _check_report(argv, fmt, stdout, *result[2:])
    if command == "zeta":
        return _check_cli_zeta(argv, fmt, stdout)
    if fmt == "json":
        payload = _envelope(stdout, command, K)
        if payload is None:
            return False
        text = next(iter(payload.values()))
    else:
        text = _single_line(stdout)
        if text is None:
            return False
    if command == "bernoulli":
        return check_bernoulli(int(argv[1]), parse_rational(text))
    if command == "faulhaber":
        n = int(argv[1])
        return check_faulhaber(n, parse_polynomial(text).coefficients)
    g_text = _flag(argv, "--g")
    g = None if g_text is None else _parse_forcing(g_text)
    if command == "antidiff":
        return check_antidiff(g, parse_polynomial(text).coefficients)
    if command == "spectral":
        coeffs = parse_real_polynomial(text)
        return spectral_coefficients_ok(g, list(coeffs), K)
    if command == "euler-gap":
        return check_euler_gap(g, _flag(argv, "--x", float), K, float(text))
    if command == "pfd":
        return pfd_ok(parse_complex(_flag(argv, "--z")), K, parse_complex(text))
    if command == "ode":
        coeffs = [parse_complex(c) for c in argv[1].split("=", 1)[1].split(",")]
        f = parse_complex_polynomial(text).coefficients
        return ode_residual_ok(coeffs, g, f)
    return False


def _check_cli_zeta(argv, fmt, stdout) -> bool:
    j = _flag(argv, "--j", int)
    oracle = _flag(argv, "--oracle-N", int)
    if fmt == "json":
        res = _envelope(stdout, "zeta", None)
        if res is None:
            return False
        coefficient, power, value = (parse_rational(res["coefficient"]),
                                     res["pi_power"], res["value"])
        bracket = res.get("bracket")
        contains = res.get("contains")
    else:
        lines = stdout.splitlines()
        if len(lines) != (1 if oracle is None else 2):
            return False
        head, _, value_text = lines[0].partition(" = ")
        coeff_text, _, power_text = head.partition("*pi^")
        coefficient, power, value = (parse_rational(coeff_text),
                                     int(power_text), float(value_text))
        bracket = contains = None
        if oracle is not None:
            prefix = f"bracket N={oracle}: ["
            if not lines[1].startswith(prefix):
                return False
            inner, _, flag = lines[1][len(prefix):].partition("] contains=")
            bracket = [float(v) for v in inner.split(", ")]
            contains = {"true": True, "false": False}.get(flag)
    if not check_zeta_closed(j, coefficient, power):
        return False
    if abs(value / float(zeta_even(j)) - 1) > 4 * EPS:
        return False
    if oracle is None:
        return bracket is None
    return contains is True and check_zeta_partial(j, bracket)


def _check_report(argv, fmt, stdout, csv_text, paired_csv) -> bool:
    study = argv[1]
    out = _flag(argv, "--out")
    if fmt == "json":
        res = _envelope(stdout, "report", None)
        if res is None or res["study"] != study or res["out"] != out:
            return False
        expected_rows = res["rows"]
    else:
        if stdout != "":
            return False
        expected_rows = None
    if csv_text is None:
        return False
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = rows[0], rows[1:]
    if expected_rows is not None and len(body) != expected_rows:
        return False
    ks = [int(k) for k in _flag(argv, "--K-list").split(",")]
    if study == "residual-decay":
        if paired_csv is not None and paired_csv != csv_text:
            return False
        if header != ["K", "median_residual", "max_residual"]:
            return False
        g = _parse_forcing(_flag(argv, "--g"))
        grid = [i / 20 for i in range(21)]
        if [int(r[0]) for r in body] != ks:
            return False
        for K, (_, med, worst) in zip(ks, body):
            bound = max(residual_bound(g, K, x) for x in grid)
            if not 0 <= float(med) <= float(worst) <= bound:
                return False
        return True
    if study == "pfd-convergence":
        zs = [parse_complex(z) for z in _flag(argv, "--z-list").split(",")]
        if header != ["z", "K", "abs_error", "tail_bound"]:
            return False
        combos = [(z, K) for z in zs for K in ks]
        if len(body) != len(combos):
            return False
        for (z, K), (z_text, k_text, err, bound) in zip(combos, body):
            if parse_complex(z_text) != z or int(k_text) != K:
                return False
            if abs(float(bound) / pfd_bound(z, K) - 1) > 4 * EPS:
                return False
            if not 0 <= float(err) <= float(bound):
                return False
        return True
    if study == "ab-comparison":
        n_max = _flag(argv, "--n-max", int)
        combos = [(n, K) for n in range(1, n_max + 1) for K in ks]
        if header != ["n", "K", "max_mismatch"] or len(body) != len(combos):
            return False
        for (n, K), (n_text, k_text, worst) in zip(combos, body):
            if int(n_text) != n or int(k_text) != K:
                return False
            if not check_verify_comparison(n, K, float(worst)):
                return False
        return True
    return False


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def check(op: Op, result) -> bool:
    """True when ``result`` is a correct answer to ``op``."""
    if isinstance(result, OpError):
        return False
    a = op.args
    kind = op.kind
    if kind == "antidiff":
        return check_antidiff(a[0], result.coefficients)
    if kind == "faulhaber":
        return check_faulhaber(a[0], result.coefficients)
    if kind == "zeta_closed":
        return result.j == a[0] and check_zeta_closed(
            a[0], result.coefficient, result.pi_power)
    if kind == "bernoulli_cold":
        return check_bernoulli(a[0], result)
    if kind == "spectral":
        return check_spectral(a[0], a[1], result)
    if kind == "residual":
        return check_residual(*a, result)
    if kind == "euler_gap":
        return check_euler_gap(*a, result)
    if kind == "pfd":
        return pfd_ok(a[0], a[1], result)
    if kind == "laurent":
        return check_laurent(a[0], a[1], result)
    if kind == "verify_comparison":
        return check_verify_comparison(a[0], a[1], result)
    if kind == "zeta_partial":
        return check_zeta_partial(a[0], result)
    if kind == "ode":
        return check_ode(a[0], a[1], result)
    if kind == "cli":
        return check_cli(op, result)
    return False
