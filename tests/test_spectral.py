"""Corrected mode-sum solver: power sums, mode polynomials, truncation,
residuals, and the mode-by-mode pair sum as the reference oracle."""

import cmath
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import zip_longest

import pytest

from deltasolve import MAX_TERMS
from deltasolve import spectral as spectral_module
from deltasolve.bernoulli import antidifference_polynomial
from deltasolve.partial_fractions import laurent_from_modes, pfd_eval
from deltasolve.polynomials import (CoefficientOverflowError, ComplexPolynomial,
                                    Polynomial, mode_polynomial)
from deltasolve.spectral import (MAX_FORCING_DEGREE, DegreeOverflowError,
                                 SpectralConfig, TruncationOrderError,
                                 difference_residual, euler_gap,
                                 exp_poly_integral, power_sums,
                                 spectral_solve)
from deltasolve.spectral import _SUB, _tail_cutoff
from deltasolve.zeta import coefficient_tables, zeta_partial_sum

X = Polynomial((0, 1))
TWO_PI = 2.0 * math.pi


def test_exp_poly_integral_examples():
    # a = 1, n = 1: q = -x - 1; a = 1, n = 2: q = -x^2 - 2x - 2
    assert exp_poly_integral(1.0, 1) == ComplexPolynomial((-1, -1))
    assert exp_poly_integral(1.0, 2) == ComplexPolynomial((-2, -2, -1))


def test_exp_poly_integral_closed_form():
    rng = random.Random(20240803)
    for _ in range(25):
        n = rng.randint(0, 8)
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if a == 0:
            a = 1.0
        q = exp_poly_integral(a, n)
        assert q.degree == n
        for j, c in enumerate(q.coefficients):
            expected = -(math.factorial(n) / math.factorial(j)) \
                * a ** (j - n - 1)
            assert abs(c - expected) <= 1e-12 * abs(expected), (a, n, j)


def test_exp_poly_integral_defining_property():
    # q' - a*q = x^n, checked coefficientwise
    for a in (1.0, -2.5, complex(0.0, TWO_PI), complex(1.0, -3.0)):
        for n in range(6):
            q = exp_poly_integral(a, n)
            lhs = q.derivative() + q * (-a)
            for power in range(n + 1):
                target = 1.0 if power == n else 0.0
                assert abs(lhs.coefficient(power) - target) <= 1e-9, (a, n)
    # mode_polynomial: q' - a*q = g for complex forcings of degree 0..12
    rng = random.Random(20240808)
    for degree in range(13):
        for _ in range(4):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            g = ComplexPolynomial([complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                                   for _ in range(degree + 1)])
            q = mode_polynomial(a, g)
            assert q.degree == degree
            lhs = q.derivative() + q * (-a)
            scale = max(abs(c) for c in q.coefficients) * max(1.0, abs(a))
            for power in range(degree + 1):
                assert abs(lhs.coefficient(power) - g.coefficient(power)) \
                    <= 1e-13 * scale, (a, degree, power)
    with pytest.raises(ValueError):
        mode_polynomial(0j, ComplexPolynomial((1.0, 2.0)))


def test_exp_poly_integral_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        exp_poly_integral(0.0, 3)
    with pytest.raises(ValueError):
        exp_poly_integral(1.0, -1)


def test_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(0)
    assert SpectralConfig(5).include_correction is True


def test_truncation_order_cap(monkeypatch):
    # the cap itself is accepted ...
    assert SpectralConfig(MAX_TERMS).truncation_order == MAX_TERMS
    assert power_sums((), MAX_TERMS) == {}
    # ... and one more raises before any sum starts
    def no_pass(*args):
        raise AssertionError("a power sum started")
    monkeypatch.setattr(spectral_module, "_pass_length", no_pass)
    message = f"truncation order {MAX_TERMS + 1} must be <= {MAX_TERMS}"
    with pytest.raises(TruncationOrderError, match=message):
        power_sums((2, 4), MAX_TERMS + 1)
    with pytest.raises(TruncationOrderError, match=message):
        SpectralConfig(MAX_TERMS + 1)
    with pytest.raises(TruncationOrderError, match=message):
        SpectralConfig(5)._replace(truncation_order=MAX_TERMS + 1)


def test_degree_cap():
    too_big = Polynomial.monomial(MAX_FORCING_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        spectral_solve(too_big, SpectralConfig(4))
    spectral_solve(Polynomial.monomial(MAX_FORCING_DEGREE), SpectralConfig(1))


def _pair_sum_oracle(forcing, config):
    """The paper's mode sum taken literally: -g/2 (if corrected) plus the
    antiderivative plus, for k = 1..K ascending, the +k and -k modes
    exp_poly_integral(+-2 pi i k, p) of every forcing power p, each pair
    summed before it is accumulated.  Also returns, per coefficient, the sum
    of the magnitudes of the real parts added into it: the scale that the
    rounding of either route is measured against."""
    g = [float(c) for c in forcing.coefficients]
    base = ComplexPolynomial.from_exact(forcing.antiderivative())
    if config.include_correction:
        base = ComplexPolynomial.from_exact(forcing) * (-0.5) + base
    acc = [base.coefficient(j) for j in range(len(g) + 1)]
    scale = [abs(c) for c in acc]
    for k in range(1, config.truncation_order + 1):
        pair = [0j] * len(g)
        for a in (complex(0.0, TWO_PI * k), complex(0.0, -TWO_PI * k)):
            for p, coeff in enumerate(g):
                for j, c in enumerate(exp_poly_integral(a, p).coefficients):
                    pair[j] += coeff * c
                    scale[j] += abs((coeff * c).real)
        for j, c in enumerate(pair):
            acc[j] += c
    return acc, scale


@pytest.mark.parametrize("include_correction", [True, False])
def test_agrees_with_the_mode_by_mode_pair_sum(include_correction):
    rng = random.Random(20261018)
    # zero (degree -inf) and constant forcings have no surviving mode
    forcings = [Polynomial.zero(), Polynomial((Fraction(-7, 3),))]
    for degree in range(1, 13):
        forcings.append(Polynomial(tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(degree)) + (rng.choice((-1, 1)),)))
    for forcing in forcings:
        for K in (1, 2, 9, 40):
            config = SpectralConfig(K, include_correction)
            solution = spectral_solve(forcing, config).polynomial_part
            assert solution.max_abs_imag() == 0.0, (forcing, K)
            oracle, scale = _pair_sum_oracle(forcing, config)
            assert solution.degree <= len(oracle) - 1
            for j, (want, size) in enumerate(zip(oracle, scale)):
                got = solution.coefficient(j)
                assert abs(got - want.real) <= 1e-12 * size, (forcing, K, j)
                assert abs(want.imag) <= 1e-12 * size, (forcing, K, j)


def _exact_coefficients(forcing, config):
    """Per coefficient j of ``spectral_solve``: its formula evaluated in
    Fractions on the float forcing, the float TWO_PI and the float S_m, the
    magnitude sum of its terms, and the constant c of its rounding bound.

    c follows the ``_mode_part`` docstring, (2m + 1) per mode term with m
    at most its largest m and 1 per further mode term, plus 4 for the rest
    of the solve: the rounded antiderivative (2, as the forcing was rounded
    too) and the two additions that join -g/2, it and the mode part."""
    g = [Fraction(float(c)) for c in forcing.coefficients]
    sums = power_sums(range(2, len(g) + 1, 2), config.truncation_order)
    two_pi = Fraction(TWO_PI)
    rows = []
    for j in range(len(g) + 1):
        terms = []
        if config.include_correction and j < len(g):
            terms.append(-g[j] / 2)
        if j >= 1:
            terms.append(g[j - 1] / j)
        modes, top = [], 0
        for p in range(j + 1, len(g), 2):
            if g[p]:
                m = p + 1 - j
                c = -Fraction(math.factorial(p), math.factorial(j)) \
                    * (-1) ** (m // 2) / two_pi ** m
                modes.append(2 * g[p] * c * Fraction(sums[m]))
                top = m
        c = 4 + (2 * top + len(modes) if modes else 0)
        terms += modes
        rows.append((sum(terms), sum(map(abs, terms)), c))
    return rows


def test_rounding_stays_within_the_stated_bound():
    """Each coefficient lies within c 2^-53 sum|terms| of exact arithmetic
    on the same floats; the worst case here uses 0.33 of the bound."""
    rng = random.Random(20261019)
    for _ in range(120):
        degree = rng.randint(0, MAX_FORCING_DEGREE)
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 50))
                  if rng.random() < 0.7 else 0 for _ in range(degree)]
        forcing = Polynomial(coeffs + [rng.choice((-1, 1, Fraction(7, 3)))])
        config = SpectralConfig(rng.choice((1, 2, 3, 7, 50, 1000)),
                                rng.random() < 0.5)
        solution = spectral_solve(forcing, config).polynomial_part
        for j, (want, size, c) in enumerate(_exact_coefficients(forcing,
                                                                config)):
            got = solution.coefficient(j)
            assert got.imag == 0.0
            assert abs(Fraction(got.real) - want) \
                <= c * Fraction(1, 2 ** 53) * size, (forcing, config, j)


def _descending(m, high, low):
    total = 0.0
    for k in range(high, low, -1):
        total += k ** -m
    return total


def _pass_terms(m, truncation_order):
    """n = K, or min(K, k1(m)) for m >= 3: the terms ``power_sums`` sums."""
    return truncation_order if m < 3 \
        else min(truncation_order, _tail_cutoff(m))


def _oracle_sub_block(m, s):
    """The sum of k^-m over the sub-block k in [32s + 1, 32(s+1)], added
    in descending k."""
    return _descending(m, (s + 1) * _SUB, s * _SUB)


def _oracle_prefix(m, count):
    """hi[s], lo[s] for s = 0..count: the sub-block sums added from s = 0
    up by Fast2Sum, t = hi + sub; lo += (hi - t) + sub; hi = t."""
    hi, lo = [0.0], [0.0]
    for s in range(count):
        sub = _oracle_sub_block(m, s)
        t = hi[-1] + sub
        lo.append(lo[-1] + ((hi[-1] - t) + sub))
        hi.append(t)
    return hi, lo


def _prefix_sum(m, truncation_order):
    """S_m(K) as ``power_sums`` documents it: with s = floor(n/32), the
    terms from n down to 32s + 1 in descending k, plus lo[s], plus hi[s]."""
    n = _pass_terms(m, truncation_order)
    s = n // _SUB
    hi, lo = _oracle_prefix(m, s)
    return (_descending(m, n, s * _SUB) + lo[s]) + hi[s]


def test_power_sums_match_hurwitz_zeta():
    """Each S_m(K) is within the bound ``power_sums`` states against the
    Hurwitz-zeta value: [n < K] 2^-54 + 2^-53 (2 S_m + sum_{k<=n} k^(1-m)),
    plus s^2 2^-106 S_m for the rounding of lo, s = floor(n/32)."""
    mpmath = pytest.importorskip("mpmath")
    exponents = range(2, 33)
    orders = (1, 2, 10, _SUB - 1, _SUB, _SUB + 1, 999, 1023, 1024, 1025,
              10 ** 4, 10 ** 5, MAX_TERMS)
    with mpmath.workdps(40):
        for K in orders:
            sums = power_sums(exponents, K)
            assert list(sums) == list(exponents)
            for m in exponents:
                exact = mpmath.zeta(m) - mpmath.zeta(m, K + 1)
                n = _pass_terms(m, K)
                # each descending addition rounds a partial sum that is a
                # tail of its sub-block or of the last terms; those tails
                # add up to at most sum_{k<=n} k^(1-m)
                tails = mpmath.harmonic(n) if m == 2 \
                    else mpmath.zeta(m - 1) - mpmath.zeta(m - 1, n + 1)
                bound = (2.0 ** -54 if n < K else 0.0) \
                    + 2.0 ** -53 * (2 * exact + tails) \
                    + (n // _SUB) ** 2 * 2.0 ** -106 * exact
                assert abs(sums[m] - exact) <= bound, (m, K)


def test_power_sums_do_not_depend_on_call_history(monkeypatch):
    """Each S_m(K) equals the prefix oracle bit for bit, both after any
    earlier sequence of calls and on a cleared prefix cache."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    near_boundary = st.builds(lambda s, d: max(1, s * _SUB + d),
                              st.integers(0, 320), st.integers(-1, 1))
    orders = st.one_of(near_boundary, st.integers(1, 320 * _SUB))
    exponents = st.lists(st.integers(2, 9), min_size=1, max_size=4,
                         unique=True)

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.lists(st.tuples(exponents, orders), min_size=1,
                               max_size=5))
    @hypothesis.example([([2, 3], 5 * _SUB + 1), ([2, 7], _SUB - 1),
                         ([3, 2], 2 * _SUB), ([2], 9 * _SUB - 1)])
    @hypothesis.example([([2, 5], 300 * _SUB - 1), ([5, 2], 300 * _SUB),
                         ([2], 20 * _SUB + 1), ([4], 17 * _SUB - 1)])
    def same_bits(calls):
        monkeypatch.setattr(spectral_module, "_PREFIXES", {})
        in_sequence = [power_sums(ms, K) for ms, K in calls]
        for (ms, K), sums in zip(calls, in_sequence):
            assert sums == {m: _prefix_sum(m, K) for m in ms}, (ms, K)
            monkeypatch.setattr(spectral_module, "_PREFIXES", {})
            assert power_sums(ms, K) == sums, (ms, K)

    same_bits()


def test_prefix_holds_the_exact_sum_of_its_sub_block_sums(monkeypatch):
    """For m = 2..11 at K = 10^5, hi and lo hold the oracle's doubles bit
    for bit, though one frame sums every sub-block of a growth.  For every
    stored s, hi[s] + lo[s] is the exact sum of the sub-block sums below
    32s but for lo's own rounding, at most 2^-53 |lo[j]| at each j <= s,
    which stays under the s^2 2^-106 S_m that ``power_sums`` states: each
    Fast2Sum step is exact."""
    monkeypatch.setattr(spectral_module, "_PREFIXES", {})
    power_sums(range(2, 14), 10 ** 5)
    cache = spectral_module._PREFIXES
    assert sorted(cache) == list(range(2, 12))
    for m, (hi, lo) in cache.items():
        assert len(hi) == len(lo) == _pass_terms(m, 10 ** 5) // _SUB + 1
        assert (list(hi), list(lo)) == _oracle_prefix(m, len(hi) - 1), m
        exact = slack = Fraction(0)
        for s in range(len(hi)):
            if s:
                exact += Fraction(_oracle_sub_block(m, s - 1))
            slack += Fraction(abs(lo[s])) / 2 ** 53
            assert abs(Fraction(hi[s]) + Fraction(lo[s]) - exact) <= slack
            assert slack <= Fraction(s * s, 2 ** 106) * Fraction(hi[s])


def test_prefix_cache_is_thread_safe(monkeypatch):
    exponents = (2, 3, 4, 5, 6, 7)
    orders = [1280 * _SUB + 3, 224 * _SUB, 800 * _SUB - 1, 1920 * _SUB + 20]
    expected = []
    for K in orders:
        monkeypatch.setattr(spectral_module, "_PREFIXES", {})
        expected.append(power_sums(exponents, K))
    prefix_of = {m: _oracle_prefix(m, 1920) for m in exponents}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            # four first calls on one cleared cache, switching threads often
            monkeypatch.setattr(spectral_module, "_PREFIXES", {})
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda K: power_sums(exponents, K),
                                        orders, timeout=120))
            assert results == expected
            cache = spectral_module._PREFIXES
            assert set(cache) <= set(exponents) and 2 in cache
            for m, (hi, lo) in cache.items():
                want_hi, want_lo = prefix_of[m]
                assert len(hi) == len(lo), m
                assert list(hi) == want_hi[:len(hi)], m
                assert list(lo) == want_lo[:len(lo)], m
    finally:
        sys.setswitchinterval(interval)


_CAPPED_ENTRIES = {
    "power_sums": lambda K, i, z: power_sums((2, 3, 4, 6), K),
    "SpectralConfig": lambda K, i, z: SpectralConfig(K, i % 2 == 0),
    "pfd_eval": lambda K, i, z: pfd_eval(z, K),
    "laurent_from_modes": lambda K, i, z: laurent_from_modes(i, K),
    "zeta_partial_sum": lambda K, i, z: zeta_partial_sum(i + 1, K),
    "coefficient_tables": lambda K, i, z: coefficient_tables(i + 1, K),
}


class _Untouchable:
    """An evaluation point that fails the test once anything reads it."""

    def __complex__(self):
        raise AssertionError("the point was read before the cap check")


def test_every_cap_rejects_before_any_sum(monkeypatch):
    """K = 0 and K = MAX_TERMS + 1 raise at every entry that takes a K or
    N, before any term is summed, and leave the prefix cache as it was."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(spectral_module, "_PREFIXES", {})
    power_sums(range(2, 8), 3000)
    cache = spectral_module._PREFIXES
    before = {m: (pair, [list(sums) for sums in pair])
              for m, pair in cache.items()}

    def no_sum(*args):
        raise AssertionError("a power sum started")
    monkeypatch.setattr(spectral_module, "_descending_sum", no_sum)
    monkeypatch.setattr(spectral_module, "_prefix_sums", no_sum)

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(_CAPPED_ENTRIES)),
                      st.sampled_from([0, MAX_TERMS + 1]),
                      st.integers(0, 11))
    def refused(entry, K, i):
        error = ValueError if K < 1 else TruncationOrderError
        with pytest.raises(error):
            _CAPPED_ENTRIES[entry](K, i, _Untouchable())
        assert spectral_module._PREFIXES is cache
        assert cache.keys() == before.keys()
        for m, (pair, values) in before.items():
            assert cache[m] is pair, (entry, K, m)
            assert [list(sums) for sums in pair] == values, (entry, K, m)

    refused()
    # exponents below 2 are refused the same way
    for exponents in ((2, 1), (0,), (4, -2)):
        with pytest.raises(ValueError, match="exponents must be >= 2"):
            power_sums(exponents, 10)
    assert cache.keys() == before.keys()


def test_tail_cutoff_is_the_smallest_order_with_a_small_tail():
    # k1(m) is the first k whose integral-test tail bound k^(1-m)/(m-1)
    # is at most 2^-54, decided in exact arithmetic
    limit = Fraction(1, 2 ** 54)
    for m in list(range(2, 57)) + [2000]:
        k1 = _tail_cutoff(m)
        assert Fraction(1, (m - 1) * k1 ** (m - 1)) <= limit, m
        assert k1 == 1 or Fraction(1, (m - 1) * (k1 - 1) ** (m - 1)) > limit, m
    # k1(2) is above every K, so S_2 always takes all K terms
    assert _tail_cutoff(2) == 2 ** 54 > MAX_TERMS
    assert _tail_cutoff(3) == 94906266 and _tail_cutoff(6) == 1293


def test_power_sums_stop_early_within_the_stated_bound():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for m in range(3, 33):
            k1 = _tail_cutoff(m)
            # k1(3) = 94906266: a pass near it takes seconds in pure Python;
            # 10 k1(4) is above MAX_TERMS, which power_sums refuses
            orders = [10 ** 5] if m == 3 else sorted(
                {k1 - 1, k1, k1 + 1, min(10 * k1, MAX_TERMS), 10 ** 5})
            for K in orders:
                value = power_sums((m,), K)[m]
                n = min(K, k1)
                assert value == _prefix_sum(m, K), (m, K)
                exact = mpmath.zeta(m) - mpmath.zeta(m, K + 1)
                # the single-pass bound, one S_m below the stated one
                tails = math.fsum(k ** (1 - m) for k in range(1, n + 1))
                bound = (2.0 ** -54 if n < K else 0.0) \
                    + 2.0 ** -53 * (float(exact) + tails)
                assert abs(value - exact) <= bound, (m, K)


def test_cache_holds_two_doubles_per_32_terms_at_the_cap(monkeypatch):
    """After a call at MAX_TERMS, m = 2..7 keep hi and lo for s = 0..
    floor(n/32), n = min(MAX_TERMS, k1(m)); 1,095,888 bytes in all."""
    monkeypatch.setattr(spectral_module, "_PREFIXES", {})
    power_sums(range(2, 8), MAX_TERMS)
    cache = spectral_module._PREFIXES
    entries = {2: 31251, 3: 31251, 4: 5681, 5: 257, 6: 41, 7: 12}
    assert {m: len(hi) for m, (hi, lo) in cache.items()} == entries
    assert {m: len(lo) for m, (hi, lo) in cache.items()} == entries
    stored = sum(len(sums) * sums.itemsize for pair in cache.values()
                 for sums in pair)
    assert stored == 2 * 8 * sum(entries.values()) == 1_095_888


def test_a_warm_call_at_the_cap_sums_at_most_31_powers(monkeypatch):
    """Once a call at MAX_TERMS has built the prefixes of m = 2 and 4, a
    call at any K <= MAX_TERMS sums at most 31 powers per m and grows no
    array: it adds no cached sums one by one."""
    monkeypatch.setattr(spectral_module, "_PREFIXES", {})
    power_sums((2, 4), MAX_TERMS)
    cache = spectral_module._PREFIXES
    lengths = {m: (len(hi), len(lo)) for m, (hi, lo) in cache.items()}
    spans = []
    descending = spectral_module._descending_sum

    def counted(m, high, low):
        spans.append((m, high - low))
        return descending(m, high, low)
    monkeypatch.setattr(spectral_module, "_descending_sum", counted)
    for K in (MAX_TERMS, MAX_TERMS - 1, 31 * _SUB + 31, 181761 + 30):
        spans.clear()
        assert power_sums((2, 4), K) == {2: _prefix_sum(2, K),
                                         4: _prefix_sum(4, K)}, K
        assert [m for m, _ in spans] == [2, 4], K
        assert all(0 <= count <= 31 for _, count in spans), (K, spans)
    assert max(count for _, count in spans) == 31
    assert {m: (len(hi), len(lo)) for m, (hi, lo) in cache.items()} \
        == lengths


def test_power_sums_underflow_instead_of_overflowing():
    # 2 ** 2000 is not a double; 2.0 ** -2000 rounds to 0.0
    assert power_sums((2000, 2), 3) == {2000: 1.0, 2: 1.0 + 0.25 + 1.0 / 9.0}
    assert power_sums((), 10) == {}


def test_imaginary_parts_cancel_exactly():
    # each +-k pair adds 2 Re(c_j) k^-m, a real number
    for forcing in (X, Polynomial((2, 0, 1)), Polynomial((0, 1, 1, 1))):
        sol = spectral_solve(forcing, SpectralConfig(50))
        assert sol.polynomial_part.max_abs_imag() == 0.0


def test_constant_term_for_linear_forcing():
    # For forcing x each +-k pair contributes the constant 1/(2 pi^2 k^2);
    # the full series sums to zeta(2)/(2 pi^2) = 1/12 and the truncation
    # tail is bracketed by the integral test.
    K = 2000
    sol = spectral_solve(X, SpectralConfig(K))
    const = sol.polynomial_part.coefficient(0).real
    gap = 1.0 / 12.0 - const
    assert 1.0 / (2.0 * math.pi ** 2 * (K + 1)) <= gap
    assert gap <= 1.0 / (2.0 * math.pi ** 2 * K)


def test_agreement_with_exact_antidifference():
    # For forcing x^2 the pair constants cancel and the truncated mode sum
    # differs from the exact antidifference by x times the series tail,
    # which the integral test caps at 1/(pi^2 K).
    forcing = Polynomial.monomial(2)
    exact = antidifference_polynomial(forcing)
    K = 2000
    sol = spectral_solve(forcing, SpectralConfig(K))
    tail_cap = 1.0 / (math.pi ** 2 * K)
    for x in (0.0, 0.3, 1.0, 2.5):
        expected = float(exact(Fraction(x)))
        assert abs(sol.polynomial_part(x) - expected) <= abs(x) * tail_cap + 1e-12, x


def test_euler_gap_is_half_the_forcing():
    assert abs(euler_gap(X, 3.0, 10) - 1.5) <= 1e-12
    quadratic = Polynomial((1, 0, 1))
    assert abs(euler_gap(quadratic, 2.0, 25) - 2.5) <= 1e-12
    # the gap does not depend on the truncation order
    assert abs(euler_gap(X, 0.7, 10) - euler_gap(X, 0.7, 80)) <= 1e-12


def test_euler_gap_keeps_its_digits_at_large_x():
    """The two solutions of g = x grow like x^2 while their gap is x/2, so
    subtracting their values loses every digit at x = 1e16 and overflows
    at x = 1e308; subtracting their coefficients first keeps the gap, and
    over seeded forcings it stays within 1e-13 of g(x)/2 for |x| <= 1e12."""
    assert euler_gap(X, 1e16, 3) == 5e15
    assert euler_gap(X, 1e308, 3) == 5e307
    rng = random.Random(20261020)
    for _ in range(60):
        degree = rng.randint(0, 12)
        forcing = Polynomial(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 12))
             for _ in range(degree)] + [rng.randint(1, 20)])
        x = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3, 12)
        want = forcing(Fraction(x)) / 2
        gap = euler_gap(forcing, x, rng.randint(1, 500))
        assert abs(Fraction(gap) - want) <= 1e-13 * abs(want), (forcing, x)


def test_difference_residual_decays_with_truncation():
    forcing = Polynomial.monomial(2)
    grid = [i / 20.0 for i in range(21)]
    residuals = {}
    for k in (10, 100, 1000):
        sol = spectral_solve(forcing, SpectralConfig(k))
        residuals[k] = max(difference_residual(sol, forcing, grid))
    assert residuals[100] <= residuals[10] / 3.0
    assert residuals[1000] <= residuals[100] / 3.0


def test_uncorrected_solution_misses_by_half_g():
    # the historical mode sum without -g/2 solves Df = g only up to g/2
    forcing = X
    sol = spectral_solve(forcing, SpectralConfig(500, include_correction=False))
    x = 0.25
    wrong = sol.polynomial_part(x + 1.0) - sol.polynomial_part(x)
    assert abs(wrong.real - (forcing(x) + 0.5)) <= 1e-3


def test_overflowing_solution_is_refused():
    """A forcing within double range whose mode coefficients are not; the
    solve once returned inf and nan coefficients."""
    with pytest.raises(CoefficientOverflowError, match="outside double range"):
        spectral_solve(Polynomial((0,) * 30 + (10 ** 300,)), SpectralConfig(5))
    spectral_solve(Polynomial((0,) * 30 + (10 ** 200,)), SpectralConfig(5))


def test_overflowing_residual_is_refused():
    forcing = Polynomial.monomial(30)
    solution = spectral_solve(forcing, SpectralConfig(5))
    with pytest.raises(CoefficientOverflowError, match=r"x = 1e\+308 "):
        difference_residual(solution, forcing, [0.5, 1e308])
    # a point that is not finite is no finite input, and is not refused
    (residual,) = difference_residual(solution, forcing, [math.inf])
    assert not math.isfinite(residual)


def _solve_oracle(forcing, config):
    """``spectral_solve``'s coefficients as it once assembled them: sums of
    ``ComplexPolynomial``s of -g/2, the ``Fraction`` antiderivative rounded
    by ``from_exact``, and the mode part."""
    float_forcing = ComplexPolynomial.from_exact(forcing)
    acc = ComplexPolynomial.zero()
    if config.include_correction:
        acc = acc + float_forcing * (-0.5)
    acc = acc + ComplexPolynomial.from_exact(forcing.antiderivative())
    real_forcing = [c.real for c in float_forcing.coefficients]
    acc = acc + ComplexPolynomial(spectral_module._mode_part(
        real_forcing, config.truncation_order))
    if not all(map(cmath.isfinite, acc.coefficients)):
        raise CoefficientOverflowError(
            "a solution coefficient is outside double range")
    return acc.coefficients


def _residual_oracle(solution, forcing, x):
    """The residual at x with complex Horner on the solution and
    ``Polynomial.__call__`` on the exact forcing at a float."""
    s = solution.polynomial_part
    residual = abs(s(x + 1.0) - s(x) - forcing(x))
    if math.isfinite(x) and not math.isfinite(residual):
        raise CoefficientOverflowError(
            f"the residual at x = {x!r} is outside double range")
    return [residual]


def _gap_oracle(forcing, x, truncation_order):
    """The gap on ``_solve_oracle``'s coefficients: the real parts of the
    uncorrected minus the corrected ones, the shorter padded with 0.0, by
    Horner at x, plus 0.0 so that the zero forcing gives 0.0."""
    uncorrected, corrected = ([c.real for c in _solve_oracle(
        forcing, SpectralConfig(truncation_order, flag))]
        for flag in (False, True))
    gap = x * 0
    for a, b in reversed(list(zip_longest(uncorrected, corrected,
                                          fillvalue=0.0))):
        gap = gap * x + (a - b)
    gap += 0.0
    if math.isfinite(x) and not math.isfinite(gap):
        raise CoefficientOverflowError(
            f"the gap at x = {x!r} is outside double range")
    return gap


def _outcome(fn, *args):
    """repr of what ``fn(*args)`` returns, or the class and message of the
    ``CoefficientOverflowError`` it raises."""
    try:
        return repr(fn(*args))
    except CoefficientOverflowError as error:
        return f"{type(error).__name__}: {error}"


def test_rounded_once_matches_the_polynomial_sums():
    """Coefficients, residuals and Euler gaps equal the oracle's bit for
    bit, compared by repr, for forcings whose coefficients are 0, ordinary
    rationals, or above 1e300 (some beyond double range)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficients = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                     max_denominator=10 ** 6),
        st.builds(lambda m, e: Fraction(m * 10 ** e),
                  st.integers(-999, 999).filter(bool), st.integers(300, 306)))
    forcings = st.lists(coefficients, min_size=1,
                        max_size=MAX_FORCING_DEGREE + 1).map(Polynomial)
    orders = st.one_of(st.sampled_from([1, 255, 256, 257]),
                       st.integers(1, 5 * 10 ** 4))
    points = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e10, -1e10]),
                                st.floats(-1e3, 1e3)), min_size=1, max_size=4)
    beyond = Polynomial([1, 2, 10 ** 309])

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(forcings, orders, st.booleans(), points)
    @hypothesis.example(beyond, 3, True, [0.5])
    @hypothesis.example(Polynomial(()), 1, False, [-0.0])
    @hypothesis.example(Polynomial([0] * 30 + [10 ** 300]), 5, True, [1.0])
    def same_bits(forcing, truncation_order, corrected, xs):
        config = SpectralConfig(truncation_order, corrected)
        want = _outcome(_solve_oracle, forcing, config)
        try:
            solution = spectral_solve(forcing, config)
        except CoefficientOverflowError as error:
            assert f"CoefficientOverflowError: {error}" == want
            return
        assert repr(solution.polynomial_part.coefficients) == want
        for x in xs:
            assert _outcome(difference_residual, solution, forcing, [x]) \
                == _outcome(_residual_oracle, solution, forcing, x), x
        for x in xs[:2]:
            assert _outcome(euler_gap, forcing, x, truncation_order) \
                == _outcome(_gap_oracle, forcing, x, truncation_order), x

    same_bits()
    message = ("a coefficient is outside double range "
               "(magnitude above about 1.8e308)")
    with pytest.raises(CoefficientOverflowError) as error:
        spectral_solve(beyond, SpectralConfig(3))
    assert str(error.value) == message


def test_subnormal_coefficients_may_flip_the_sign_of_a_zero():
    """Where a coefficient rounds to a subnormal that underflows when
    halved or divided, the oracle's sums skip a trailing zero that the
    single list adds: x^2 of the oracle is -0.0 here, and 0.0 from
    ``spectral_solve``.  The values still compare equal."""
    forcing = Polynomial([0, Fraction(-1, 2 ** 1074), 1])
    config = SpectralConfig(1, include_correction=False)
    got = spectral_solve(forcing, config).polynomial_part.coefficients
    want = _solve_oracle(forcing, config)
    assert got == want
    assert math.copysign(1.0, want[2].real) == -1.0
    assert math.copysign(1.0, got[2].real) == 1.0


def test_a_point_that_is_not_finite_gives_a_residual_that_is_not_finite():
    for forcing in (Polynomial(()), X, Polynomial((1, 0, 3))):
        solution = spectral_solve(forcing, SpectralConfig(3))
        residuals = difference_residual(solution, forcing,
                                        [math.inf, -math.inf, math.nan])
        assert not any(map(math.isfinite, residuals)), forcing
        # the gap too, by the same Horner rule, the zero forcing's included
        for x in (math.inf, -math.inf, math.nan):
            assert math.isnan(euler_gap(forcing, x, 3)), (forcing, x)


def test_each_solve_builds_every_unit_mode_it_uses(monkeypatch):
    """One ``exp_poly_integral`` per nonzero forcing power on every call,
    none cached, and two solves per Euler gap: the counts the benchmark's
    tracer reads."""
    built, solves = [], []
    unit_mode, solve = spectral_module.exp_poly_integral, spectral_solve

    def counted_mode(a, p):
        built.append(p)
        return unit_mode(a, p)

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)
    monkeypatch.setattr(spectral_module, "exp_poly_integral", counted_mode)
    monkeypatch.setattr(spectral_module, "spectral_solve", counted_solve)
    forcing = Polynomial([3, 0, 0, Fraction(1, 2), 0, 0, 7])
    for _ in range(2):
        built.clear()
        spectral_solve(forcing, SpectralConfig(40))
        assert built == [0, 3, 6]
    built.clear()
    euler_gap(forcing, 0.25, 40)
    assert len(solves) == 2
    assert built == [0, 3, 6] * 2
