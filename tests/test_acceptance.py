"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

The printed lines bypass pytest capture so every run shows the verdict per
criterion; each test then asserts, so a red criterion fails the suite.
"""

import cmath
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from statistics import median

import pytest

from deltasolve.bernoulli import (antidifference_polynomial, bernoulli,
                                  faulhaber)
from deltasolve.ode import (CharacteristicPolynomial, apply_operator,
                            solve_linear_ode)
from deltasolve.partial_fractions import laurent_from_modes, pfd_eval
from deltasolve.polynomials import ComplexPolynomial, Polynomial
from deltasolve.rationals import binomial
from deltasolve.spectral import (SpectralConfig, difference_residual,
                                 euler_gap, spectral_solve)
from deltasolve.zeta import (verify_comparison, zeta_even_closed_form,
                             zeta_partial_sum)

X = Polynomial((0, 1))


@pytest.fixture(name="report")
def _report_fixture(capsys):
    def report(number: int, name: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] criterion {number:02d} {name}: "
                  f"{status} ({detail})")
        assert ok, f"criterion {number:02d} {name}: {detail}"
    return report


def test_criterion_01_zeta2_closed_form(report):
    start = time.perf_counter()
    form = zeta_even_closed_form(1)
    exact_ok = form.coefficient == Fraction(1, 6) and form.pi_power == 2
    value = form.value()
    lower, upper = zeta_partial_sum(1, 10 ** 4)
    width = upper - lower
    bracket_ok = lower <= value <= upper and width <= 1e-8
    elapsed = time.perf_counter() - start
    report(1, "zeta(2) closed form", exact_ok and bracket_ok and elapsed < 1.0,
           f"coefficient {form.coefficient}, bracket width {width:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_euler_gap(report):
    start = time.perf_counter()
    xs = [3.0 * i / 20.0 for i in range(21)]
    worst = 0.0
    for n in (1, 2, 3):
        forcing = Polynomial.monomial(n)
        for x in xs:
            expected = forcing(x) / 2.0
            worst = max(worst, abs(euler_gap(forcing, x, 10) - expected))
    elapsed = time.perf_counter() - start
    report(2, "correction gap is g/2", worst <= 1e-12 and elapsed < 1.0,
           f"worst |gap - g(x)/2| = {worst:.2e} over x, x^2, x^3 on [0,3], "
           f"{elapsed:.2f}s")


def test_criterion_03_one_twelfth_constant(report):
    order = 10 ** 4
    solution = spectral_solve(X, SpectralConfig(order))
    const = solution.polynomial_part.coefficient(0)
    formula = 0.0
    for k in range(1, order + 1):
        t = 2.0 * math.pi * k
        formula += 2.0 * ((1.0 / t) / t)
    structural_diff = abs(const.real - formula)
    structural_ok = structural_diff <= 1e-12 and const.imag == 0.0
    gap = abs(const.real - 1.0 / 12.0)
    limit_ok = gap <= 3e-6
    report(3, "constant term reaches 1/12",
           structural_ok and limit_ok,
           f"pair-sum formula diff {structural_diff:.1e}; "
           f"|const - 1/12| = {gap:.4e} vs required <= 3.0e-06 at K={order} "
           f"(the k > K tail is 1/(2 pi^2 K) = {1.0 / (2.0 * math.pi ** 2 * order):.4e})")


def test_criterion_04_partial_fraction_bound(report):
    points = [complex(1.0), complex(-1.0), complex(0.5, 0.5),
              complex(0.0, math.pi), complex(2.7)]
    orders = [10 ** 2, 10 ** 3, 10 ** 4]
    bound_ok = True
    monotone_ok = True
    worst_ratio = 0.0
    for z in points:
        direct = 1.0 / (cmath.exp(z) - 1.0)
        errors = []
        for order in orders:
            err = abs(pfd_eval(z, order) - direct)
            bound = 2.0 * abs(z) / (math.pi ** 2 * order)
            bound_ok = bound_ok and err <= bound
            worst_ratio = max(worst_ratio, err / bound)
            errors.append(err)
        monotone_ok = monotone_ok and errors[0] > errors[1] > errors[2]
    report(4, "partial fraction error bound", bound_ok and monotone_ok,
           f"worst error/bound = {worst_ratio:.3f}, "
           f"errors strictly decrease in K at all 5 points")


def test_criterion_05_laurent_coefficients(report):
    v1 = laurent_from_modes(1, 10 ** 4)
    e1 = abs(v1 - 1.0 / 12.0)
    v3 = laurent_from_modes(3, 10 ** 3)
    e3 = abs(v3 - (-1.0 / 720.0))
    zero_worst = max(abs(laurent_from_modes(0, order))
                     for order in (10, 100, 1000, 10 ** 4))
    ok = e1 <= 1e-5 and e3 <= 1e-8 and zero_worst <= 1e-12
    report(5, "Laurent data recovers B_2/2! and B_4/4!", ok,
           f"|c_1 - 1/12| = {e1:.2e}, |c_3 + 1/720| = {e3:.2e}, "
           f"worst |c_0-ish z^0 term| = {zero_worst:.1e}")


def test_criterion_06_coefficient_identity(report):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for n in range(2, 7):
        at_1e4 = verify_comparison(n, 10 ** 4)
        at_1e5 = verify_comparison(n, 10 ** 5)
        ok = ok and at_1e4 <= 1e-4 and at_1e5 < at_1e4
        worst = max(worst, at_1e4)
    elapsed = time.perf_counter() - start
    report(6, "numeric vs exact coefficient tables",
           ok and elapsed < 30.0,
           f"worst mismatch at K=1e4 is {worst:.2e} <= 1e-4, "
           f"all shrink at K=1e5, {elapsed:.1f}s")


def test_criterion_07_exact_side_properties(report):
    rng = random.Random(20240807)
    round_trip_ok = True
    for _ in range(50):
        degree = rng.randint(0, 8)
        g = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(degree + 1)])
        if antidifference_polynomial(g).forward_difference() != g:
            round_trip_ok = False
    faulhaber_ok = True
    for n in range(9):
        p = faulhaber(n)
        total = Fraction(0)
        for m in range(51):
            if m:
                total += Fraction(m) ** n
            if p(Fraction(m)) != total:
                faulhaber_ok = False
    recurrence_ok = True
    for n in range(1, 31):
        if sum(binomial(n + 1, k) * bernoulli(k) for k in range(n + 1)) != 0:
            recurrence_ok = False
        if n % 2 == 1 and n >= 3 and bernoulli(n) != 0:
            recurrence_ok = False
    report(7, "exact-side property suite",
           round_trip_ok and faulhaber_ok and recurrence_ok,
           "50 exact antidifference round-trips, brute-force power sums to "
           "n=8 m=50, Bernoulli recurrence to n=30")


def _solution_polynomial(solution) -> ComplexPolynomial:
    if not solution.terms:
        return ComplexPolynomial.zero()
    assert len(solution.terms) == 1
    assert solution.terms[0].exponent == 0j
    return solution.terms[0].polynomial


def test_criterion_08_ode_round_trip(report):
    rng = random.Random(20240808)
    worst = 0.0
    cases = 0
    while cases < 25:
        degree = rng.randint(1, 5)
        roots: list[complex] = []
        attempts = 0
        while len(roots) < degree and attempts < 200:
            attempts += 1
            candidate = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(candidate) < 0.6:
                continue
            if all(abs(candidate - r) >= 0.6 for r in roots):
                roots.append(candidate)
        if len(roots) < degree:
            continue
        coeffs = [1 + 0j]
        for r in roots:
            expanded = [0j] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                expanded[i] += -r * c
                expanded[i + 1] += c
            coeffs = expanded
        operator = CharacteristicPolynomial(tuple(coeffs))
        g_degree = rng.randint(0, 4)
        g_coeffs = [rng.randint(-5, 5) for _ in range(g_degree + 1)]
        while g_coeffs[-1] == 0:
            g_coeffs[-1] = rng.randint(-5, 5)
        forcing = Polynomial(g_coeffs)
        solution = solve_linear_ode(operator, forcing)
        recovered = apply_operator(operator, _solution_polynomial(solution))
        scale = max(1.0, max(abs(float(c)) for c in forcing.coefficients))
        top = max(int(recovered.degree) if recovered else 0,
                  int(forcing.degree))
        mismatch = max(abs(recovered.coefficient(p)
                           - float(forcing.coefficient(p)))
                       for p in range(top + 1))
        worst = max(worst, mismatch / scale)
        cases += 1
    random_ok = worst <= 1e-9

    first = _solution_polynomial(solve_linear_ode(
        CharacteristicPolynomial((-1, 0, 1)), Polynomial.monomial(0, 1)))
    second = _solution_polynomial(solve_linear_ode(
        CharacteristicPolynomial((-1, 1)), X))
    third = _solution_polynomial(solve_linear_ode(
        CharacteristicPolynomial((0, 1)), Polynomial.monomial(0, 1)))
    examples_ok = (
        abs(first.coefficient(0) - (-1.0)) <= 1e-12 and first.degree <= 0
        and abs(second.coefficient(0) - (-1.0)) <= 1e-12
        and abs(second.coefficient(1) - (-1.0)) <= 1e-12
        and abs(third.coefficient(0)) <= 1e-15
        and abs(third.coefficient(1) - 1.0) <= 1e-15)
    report(8, "operator round-trip", random_ok and examples_ok,
           f"worst relative residual {worst:.2e} over 25 random operators; "
           f"worked examples -1, -x-1, x reproduced")


def test_criterion_09_spectral_convergence(report):
    xs = [i / 20.0 for i in range(21)]
    exact_ok = True
    for order in (10, 100, 1000):
        solution = spectral_solve(X, SpectralConfig(order))
        if max(difference_residual(solution, X, xs)) > 1e-12:
            exact_ok = False
    decay_ok = True
    ratios = []
    for n in (2, 3, 4):
        forcing = Polynomial.monomial(n)
        med = {}
        for order in (10 ** 2, 10 ** 3):
            solution = spectral_solve(forcing, SpectralConfig(order))
            med[order] = median(difference_residual(solution, forcing, xs))
        ratios.append(med[10 ** 2] / med[10 ** 3])
        if med[10 ** 3] > med[10 ** 2] / 3.0:
            decay_ok = False
    report(9, "spectral residual decay", exact_ok and decay_ok,
           f"residual for g=x stays <= 1e-12 at K=10,100,1000; "
           f"median decay factors K=1e2 -> 1e3: "
           + ", ".join(f"{r:.1f}" for r in ratios))


def _run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([sys.executable, "-m", "deltasolve", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_determinism(report, tmp_path):
    invocations = [
        ["bernoulli", "8", "--format", "json"],
        ["spectral", "--g", "x^2", "--K", "300"],
        ["pfd", "--z", "0.5+0.5i", "--K", "500", "--format", "json"],
        ["zeta", "--j", "3", "--oracle-N", "100"],
        ["ode", "--coeffs=-1,0,1", "--g", "x", "--format", "json"],
        ["euler-gap", "--g", "x^3", "--x", "1.25", "--K", "40"],
    ]
    repeat_ok = True
    for argv in invocations:
        first = _run_cli(argv)
        second = _run_cli(argv)
        if first != second or first[0] != 0:
            repeat_ok = False
    single = tmp_path / "threads1.csv"
    again = tmp_path / "threads1-again.csv"
    pooled = tmp_path / "threads3.csv"
    base = ["report", "pfd-convergence", "--z-list", "1,-1,0.5+0.5i",
            "--K-list", "10,100"]
    runs = [_run_cli(base + ["--out", str(path), "--threads", threads])
            for path, threads in ((single, "1"), (again, "1"), (pooled, "3"))]
    threads_ok = (all(code == 0 for code, _, _ in runs)
                  and single.read_bytes() == again.read_bytes()
                  and single.read_bytes() == pooled.read_bytes())
    report(10, "CLI determinism", repeat_ok and threads_ok,
           f"{len(invocations)} invocations bytes-identical across reruns; "
           f"report CSV identical for --threads 1 vs 3")
