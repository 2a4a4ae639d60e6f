"""Bernoulli numbers, Faulhaber polynomials, exact antidifference."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from deltasolve import MAX_BERNOULLI_INDEX
from deltasolve import bernoulli as bernoulli_module
from deltasolve.bernoulli import (BernoulliIndexError, BernoulliTable,
                                  antidifference_polynomial, bernoulli,
                                  faulhaber)
from deltasolve.polynomials import Polynomial
from deltasolve.rationals import binomial

X = Polynomial((0, 1))

# Recurrence solved by hand up to B_12 (B_1 = -1/2 convention).
KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_known_values():
    for n, expected in KNOWN_BERNOULLI.items():
        assert bernoulli(n) == expected, n


def test_defining_recurrence_holds():
    for n in range(1, 31):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += binomial(n + 1, k) * bernoulli(k)
        assert acc == 0, n


def test_odd_indices_vanish():
    for n in range(3, 31, 2):
        assert bernoulli(n) == 0, n


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_odd_index_answers_without_growing_the_table():
    table = BernoulliTable()
    for n in (1, 3, 5, 201, MAX_BERNOULLI_INDEX - 1):
        value = table.value(n)
        assert type(value) is Fraction, n
        assert value == (Fraction(-1, 2) if n == 1 else 0), n
    assert table.computed_up_to == 0
    # The antidifference's snapshot up to an odd n holds every stored
    # entry, B_0 and the even B_k, and grows the table to n - 1 or to twice
    # its top, whichever is higher: 12 becomes 16 and 70 becomes 120.
    for n, top in ((1, 0), (3, 2), (9, 8), (13, 16), (61, 60), (71, 120)):
        numerators, denominator = table._scaled_prefix(n)
        assert len(numerators) == n // 2 + 1
        assert [Fraction(b, denominator) for b in numerators] \
            == _defining_recurrence_table(n)[0::2]
        assert table.computed_up_to == top, n
        # the prefix built B_0..B_{n-1} and their lcms, no slot above them
        assert len(table._lcms) == n // 2 + 1
        assert [type(b) for b in table._values] \
            == [Fraction] * (n // 2 + 1) + [int] * (top // 2 - n // 2), n


def test_index_cap_is_checked_before_any_growth(monkeypatch):
    fresh = BernoulliTable()
    monkeypatch.setattr(bernoulli_module, "_TABLE", fresh)
    over = [MAX_BERNOULLI_INDEX + 1, MAX_BERNOULLI_INDEX + 2]  # odd, even
    for n in over:
        for call in (fresh.value, fresh._scaled_prefix, bernoulli, faulhaber):
            with pytest.raises(BernoulliIndexError,
                               match=f"{n} must be <= {MAX_BERNOULLI_INDEX}"):
                call(n)
        with pytest.raises(BernoulliIndexError):
            antidifference_polynomial(Polynomial.monomial(n))
    assert fresh.computed_up_to == 0


def test_antidifference_reads_the_table_up_to_its_degree(monkeypatch):
    fresh = BernoulliTable()
    monkeypatch.setattr(bernoulli_module, "_TABLE", fresh)
    antidifference_polynomial(Polynomial.monomial(9))
    assert fresh.computed_up_to == 8  # B_9 = 0 is not stored
    # at the cap, the antidifference and faulhaber both still answer
    top = Polynomial.monomial(MAX_BERNOULLI_INDEX)
    assert antidifference_polynomial(top) \
        == faulhaber(MAX_BERNOULLI_INDEX) - top
    assert fresh.computed_up_to == MAX_BERNOULLI_INDEX


def _defining_recurrence_table(n):
    """B_0..B_n by the defining recurrence sum_{k<=m} C(m+1, k) B_k = 0,
    solved for B_m over integers: every B_k is scaled[k] / denominator,
    the running lcm of the denominators so far.  Shares nothing with the
    package's tangent numbers."""
    values, scaled, denominator = [Fraction(1)], [1], 1
    for m in range(1, n + 1):
        if m >= 3 and m % 2:
            values.append(Fraction(0))
            scaled.append(0)
            continue
        acc = sum(math.comb(m + 1, k) * b_k for k, b_k in enumerate(scaled))
        b_m = Fraction(-acc, denominator * (m + 1))
        values.append(b_m)
        grow = b_m.denominator // math.gcd(b_m.denominator, denominator)
        denominator *= grow
        scaled = [b_k * grow for b_k in scaled]
        scaled.append(b_m.numerator * (denominator // b_m.denominator))
    return values


def test_table_values_match_the_defining_recurrence():
    table = BernoulliTable()
    table.value(200)
    for n, expected in enumerate(_defining_recurrence_table(200)):
        assert table.value(n) == expected, n
    for n in range(3, 201, 2):
        value = table.value(n)
        assert type(value) is Fraction and value == 0, n


def _tangent_numbers(values):
    """T_1..T_k from the even entries of B_0..B_2k, by solving
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for T_k, with 0 for k = 0;
    each must be an integer."""
    tangents = [0] + [(-1) ** (k - 1) * values[2 * k] * 4 ** k
                      * (4 ** k - 1) / (2 * k)
                      for k in range(1, len(values) // 2 + 1)]
    assert all(t.denominator == 1 for t in tangents)
    return [int(t) for t in tangents]


def test_table_is_bit_identical_to_the_defining_recurrence():
    # Every growth rebuilds the tangent numbers, so a table grown in steps
    # must match a fresh one.  The table stores B_0 and the even B_k only,
    # so it matches the dense oracle's even entries, and _lcms[k] holds
    # B_1's 2 from the start.  The stepped table grows through the
    # antidifference's snapshot, to 6, to 12 (twice 6) for B_10, then to 60
    # and 400.  The fresh one builds its entries as they are read: every
    # B_2k by ``value``, then every prefix lcm by ``_scaled_prefix``; until
    # then each unread slot holds the integer T_k it is built from.
    values = _defining_recurrence_table(401)
    lcms = [math.lcm(2, *(v.denominator for v in values[:2 * k + 1]))
            for k in range(201)]
    tangents = _tangent_numbers(values[:401])
    fresh = BernoulliTable()
    fresh.value(400)
    assert fresh._values == [values[0]] + tangents[1:200] + [values[400]]
    assert all(type(t) is int for t in fresh._values[1:200])
    stepped = BernoulliTable()
    for n, top in ((7, 6), (11, 12), (60, 60), (401, 400)):
        stepped._scaled_prefix(n)
        assert stepped.computed_up_to == top, n
    for table in (fresh, stepped):
        assert table.computed_up_to == 400
        assert len(table._values) == 201
        assert [table.value(2 * k) for k in range(201)] == values[0::2]
        numerators, d = table._scaled_prefix(400)
        assert [Fraction(b, d) for b in numerators] == values[0::2]
        assert d == lcms[-1]
        assert table._values == values[0::2]
        assert all(type(v) is Fraction for v in table._values)
        assert table._lcms == lcms


def test_cold_read_builds_only_the_entry_it_reads():
    # A cold value(200) runs the tangent triangle to T_100 and turns only
    # T_100 into a Fraction in its slot, where the other slots keep their
    # T_k; B_0 is there from the start, and no prefix lcm is built until a
    # prefix is read, which builds B_0..B_200 in order.
    table = BernoulliTable()
    values = _defining_recurrence_table(200)
    assert table.value(200) == values[200]
    assert len(table._values) == 101
    assert [k for k, b in enumerate(table._values) if type(b) is Fraction] \
        == [0, 100]
    assert table._values[1:100] == _tangent_numbers(values)[1:100]
    assert table._lcms == [2]
    numerators, d = table._scaled_prefix(200)
    assert [Fraction(b, d) for b in numerators] == values[0::2]
    assert d == math.lcm(2, *(v.denominator for v in values))
    assert table._values == values[0::2]
    assert len(table._lcms) == 101


def test_a_table_holds_one_slot_per_index():
    # No list of tangent numbers is kept beside the values: an unread slot
    # holds T_k, and a read to the cap leaves a Fraction in every slot.
    table = BernoulliTable()
    assert set(vars(table)) == {"_values", "_lcms", "_lock"}
    table._scaled_prefix(MAX_BERNOULLI_INDEX)
    assert set(vars(table)) == {"_values", "_lcms", "_lock"}
    assert len(table._values) == len(table._lcms) \
        == MAX_BERNOULLI_INDEX // 2 + 1
    assert all(type(b) is Fraction for b in table._values)


def test_stepping_up_to_the_cap_rebuilds_the_table_ten_times():
    # value(n) for every even n on a fresh table grows to n or to twice the
    # top, capped at MAX_BERNOULLI_INDEX; growing to exactly n would
    # rebuild the table once per step, 500 times.
    table = BernoulliTable()
    grow, halves = table._grow, []

    def counted(half):
        halves.append(half)
        grow(half)

    table._grow = counted
    straight = BernoulliTable()
    straight.value(MAX_BERNOULLI_INDEX)
    for n in range(0, MAX_BERNOULLI_INDEX + 1, 2):
        assert table.value(n) == straight.value(n), n
    assert halves == [1, 2, 4, 8, 16, 32, 64, 128, 256,
                      MAX_BERNOULLI_INDEX // 2]
    assert _same_table(table, straight)


def _same_table(a, b):
    """Equal B_2k read one by one, and equal scaled prefixes over the whole
    table; equal B_2k imply equal T_k, and once those reads have built every
    entry and prefix lcm, the stored lists are equal too."""
    top = a.computed_up_to
    return ([a.value(n) for n in range(0, top + 1, 2)]
            == [b.value(n) for n in range(0, top + 1, 2)]
            and a._scaled_prefix(top) == b._scaled_prefix(top)
            and (a._values, a._lcms) == (b._values, b._lcms))


def test_growth_order_does_not_change_the_table():
    """Any sequence of ``value`` and ``_scaled_prefix`` calls leaves a fresh
    table equal to one grown straight to the same top, and every prefix,
    read over its d, is the even entries of the defining recurrence, with
    d the lcm of B_0..B_n and 2."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = _defining_recurrence_table(300)
    calls = st.lists(st.tuples(st.booleans(), st.integers(0, 300)),
                     max_size=6)

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(calls)
    @hypothesis.example([(True, 0), (True, 1), (True, 2), (True, 3)])
    @hypothesis.example([(False, 1), (True, 1), (False, 300), (True, 299)])
    def same_as_straight(calls):
        table = BernoulliTable()
        # built: the slots whose B_2k some call read; half: the top prefix
        built, half = {0}, 0
        for is_prefix, n in calls:
            if is_prefix:
                half = max(half, n // 2)
                built.update(range(n // 2 + 1))
                numerators, d = table._scaled_prefix(n)
                assert [Fraction(b, d) for b in numerators] \
                    == values[:n + 1:2]
                assert d == math.lcm(2, *(v.denominator
                                          for v in values[:n + 1]))
            else:
                if n % 2 == 0:
                    built.add(n // 2)
                assert table.value(n) == values[n]
        assert len(table._lcms) == half + 1
        assert [type(b) is Fraction for b in table._values] \
            == [k in built for k in range(len(table._values))]
        straight = BernoulliTable()
        straight.value(table.computed_up_to)
        assert _same_table(table, straight)

    same_as_straight()


def test_fresh_table_answers_linear_forcings(monkeypatch):
    # Both read B_0 and B_1 from a fresh table, where the prefix's lcm
    # d = 2 is the whole table's denominator.
    monkeypatch.setattr(bernoulli_module, "_TABLE", BernoulliTable())
    assert antidifference_polynomial(X) == Polynomial(
        (0, Fraction(-1, 2), Fraction(1, 2)))
    monkeypatch.setattr(bernoulli_module, "_TABLE", BernoulliTable())
    assert faulhaber(1) == Polynomial((0, Fraction(1, 2), Fraction(1, 2)))


def test_table_extension_is_thread_safe(monkeypatch):
    table = BernoulliTable()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(table.value, [40] * 16))
    assert len(set(results)) == 1
    assert results[0] == bernoulli(40)
    assert table.computed_up_to >= 40

    # One fresh table grown to at least 150 by several threads at once,
    # read both as values and, through antidifferences, as integers over
    # prefix lcms, while other threads rebuild it.
    fresh = BernoulliTable()
    monkeypatch.setattr(bernoulli_module, "_TABLE", fresh)
    indices = list(range(150, 0, -7)) + list(range(3, 150, 11))
    forcings = [Polynomial.monomial(n - 1) for n in indices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = pool.map(fresh.value, indices, timeout=120)
            antidiffs = pool.map(antidifference_polynomial, forcings,
                                 timeout=120)
            values, antidiffs = list(values), list(antidiffs)
    finally:
        sys.setswitchinterval(interval)
    # A thread that finds the table grown part of the way may double it
    # past 150, so the top depends on the order the threads ran in.
    assert fresh.computed_up_to >= 150
    straight = BernoulliTable()
    straight.value(fresh.computed_up_to)
    assert _same_table(fresh, straight)
    expected = _defining_recurrence_table(150)
    assert values == [expected[n] for n in indices]
    monkeypatch.setattr(bernoulli_module, "_TABLE", BernoulliTable())
    assert antidiffs == [antidifference_polynomial(g) for g in forcings]


def _power_sum(n, m):
    """Brute-force oracle: sum_{k=1}^{m} k^n over exact integers."""
    return Fraction(sum(k ** n for k in range(1, m + 1)))


def test_faulhaber_examples():
    assert faulhaber(0) == X
    assert faulhaber(1) == Polynomial((0, Fraction(1, 2), Fraction(1, 2)))
    assert faulhaber(2) == Polynomial(
        (0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))


def test_faulhaber_matches_brute_force_sums():
    for n in range(9):
        p = faulhaber(n)
        for m in range(51):
            assert p(Fraction(m)) == _power_sum(n, m), (n, m)


def test_faulhaber_rejects_negative():
    with pytest.raises(ValueError):
        faulhaber(-1)


def test_antidifference_examples():
    assert antidifference_polynomial(X) == Polynomial(
        (0, Fraction(-1, 2), Fraction(1, 2)))
    assert antidifference_polynomial(Polynomial.monomial(0, 1)) == X
    x_squared = Polynomial.monomial(2)
    assert antidifference_polynomial(x_squared) == Polynomial(
        (0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)))
    assert antidifference_polynomial(Polynomial.zero()) == Polynomial.zero()


def test_antidifference_inverts_forward_difference():
    rng = random.Random(20240802)
    for _ in range(50):
        degree = rng.randint(0, 8)
        g = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(degree + 1)])
        f = antidifference_polynomial(g)
        assert f.forward_difference() == g
        assert f.coefficient(0) == 0


def test_antidifference_of_monomials_is_shifted_faulhaber():
    # For n >= 1 the shifted power sum S_n(x-1) already has f(0) = 0;
    # n = 0 needs the constant dropped (S_0(x-1) = x - 1) and is covered by
    # the example above.
    for n in range(1, 9):
        assert antidifference_polynomial(Polynomial.monomial(n)) \
            == faulhaber(n).translate(-1)
        assert faulhaber(n) - Polynomial.monomial(n) \
            == faulhaber(n).translate(-1)


def _translate_oracle(forcing):
    """The antidifference by the translate route: sum_n g_n S_n(x-1), since
    S_n(x) - S_n(x-1) = x^n, with the constant of S_0(x-1) = x - 1
    dropped."""
    acc = Polynomial.zero()
    for power, coeff in enumerate(forcing.coefficients):
        if coeff:
            acc = acc + coeff * faulhaber(power).translate(-1)
    return acc - Polynomial.monomial(0, acc.coefficient(0))


def test_antidifference_matches_translate_route():
    rng = random.Random(20261018)
    for degree in range(41):
        g = Polynomial([Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                        for _ in range(degree)]
                       + [Fraction(rng.randint(1, 99), rng.randint(1, 99))])
        assert antidifference_polynomial(g) == _translate_oracle(g), degree


def test_antidifference_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                             max_denominator=10 ** 6)

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.lists(rationals, max_size=26))
    def round_trip(coeffs):
        g = Polynomial(coeffs)
        f = antidifference_polynomial(g)
        assert f.forward_difference() == g
        assert f.coefficient(0) == 0

    round_trip()


def _dense_antidifference_coefficients(coeffs):
    """The antidifference's coefficients as the package once summed them:
    for each j, every n >= j-1 of the Bernoulli-polynomial formula, zero
    terms tested and skipped one by one.  The oracle for the kernel, which
    visits only the nonzero pairs.  It spells out B_0..B_deg over their lcm
    d from the stored prefix: B_1 d = -d // 2 and the odd B_i d, i >= 3,
    are 0."""
    top = len(coeffs)
    stored, d = bernoulli_module._TABLE._scaled_prefix(max(top - 1, 0))
    b = [stored[i // 2] if i % 2 == 0 else -d // 2 if i == 1 else 0
         for i in range(top)]
    out = [Fraction(0)] * (top + 1)
    q = math.lcm(*(c.denominator for c in coeffs))
    g = [c.numerator * (q // c.denominator) for c in coeffs]
    for j in range(1, top + 1):
        acc = 0
        for n in range(j - 1, top):
            if g[n] and b[n + 1 - j]:
                acc += g[n] * math.comb(n, j - 1) * b[n + 1 - j]
        out[j] = Fraction(acc, j * q * d)
    return out


def _same_fractions(got, want):
    return len(got) == len(want) and all(
        type(a) is Fraction and (a.numerator, a.denominator)
        == (b.numerator, b.denominator) for a, b in zip(got, want))


def test_sparse_kernel_matches_the_dense_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                             max_denominator=10 ** 6)
    # dense lists up to degree 60 with about half their coefficients 0,
    # sparse ones with at most 6 nonzero terms, monomials up to x^200, and
    # two dense degree-300 examples with every coefficient nonzero and
    # mixed signs, where the kernel's walk along each row of binomials
    # divides the most often
    mostly_zero = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                           max_size=61)
    sparse = st.dictionaries(st.integers(0, 60), rationals, max_size=6).map(
        lambda terms: [terms.get(n, Fraction(0))
                       for n in range(max(terms, default=-1) + 1)])
    monomials = st.tuples(st.integers(0, 200), rationals).map(
        lambda term: [Fraction(0)] * term[0] + [term[1]])

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.one_of(mostly_zero, sparse, monomials))
    @hypothesis.example([])
    @hypothesis.example([Fraction(-7, 3)])
    @hypothesis.example([Fraction(0)] * 200 + [Fraction(1)])
    @hypothesis.example([Fraction(0)] * 60 + [Fraction(5, 7)])
    @hypothesis.example([Fraction((n % 17 - 8) or 9, n % 7 + 1)
                         for n in range(301)])
    @hypothesis.example([Fraction((-1) ** (n // 3) * (10 ** 6 - n), n + 1)
                         for n in range(301)])
    def same_as_dense(coeffs):
        g = Polynomial(coeffs)
        want = _dense_antidifference_coefficients(g.coefficients)
        assert _same_fractions(
            bernoulli_module._antidifference_coefficients(g.coefficients),
            want)
        f = antidifference_polynomial(g)
        assert _same_fractions(f.coefficients, Polynomial(want).coefficients)
        if g.degree >= 1 and g == Polynomial.monomial(g.degree):
            want[g.degree] += 1
            assert _same_fractions(faulhaber(g.degree).coefficients,
                                   Polynomial(want).coefficients)

    same_as_dense()


def _indexed_antidifference_coefficients(coeffs):
    """The kernel as it was before it carried j down the walk: j
    recomputed from k at every step, every nonzero g_n found by
    ``Fraction.__bool__``, and every coefficient a fresh ``Fraction``, the
    zeros too.  The oracle for the running-value kernel."""
    top = len(coeffs)
    b, d = bernoulli_module._TABLE._scaled_prefix(max(top - 1, 0))
    q = math.lcm(*(c.denominator for c in coeffs))
    acc = [0] * (top + 1)
    for n, c in enumerate(coeffs):
        if c:
            g = c.numerator * (q // c.denominator)
            acc[n + 1] += g * d
            acc[n] -= g * n * (d // 2)
            for k in range(1, n // 2 + 1):
                j = n + 1 - 2 * k
                g = g * ((j + 1) * j) // ((2 * k - 1) * 2 * k)
                acc[j] += g * b[k]
    return [Fraction(0)] + [Fraction(acc[j], j * q * d)
                            for j in range(1, top + 1)]


def _indexed_tangent_numbers(half):
    """[0, T_1, ..., T_half] by the triangle with j - k recomputed at every
    step and T_{j-1} read back from the list: the oracle for ``_grow``."""
    t = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def test_running_value_kernel_matches_the_indexed_one():
    """Carrying j, testing numerators and sharing one zero change no
    coefficient: dense forcings up to degree 60 with zeros drawn often,
    and dense ones of degree 200 and 1000 (the cap), give the same
    ``Fraction``s; every zero coefficient is the module's one zero."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                             max_denominator=10 ** 6)
    often_zero = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                          max_size=61)

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(often_zero)
    @hypothesis.example([])
    @hypothesis.example([Fraction(0)] * 200 + [Fraction(1)])
    @hypothesis.example([Fraction((n % 13 - 6) * (n % 5 > 1), n % 11 + 1)
                         for n in range(200)] + [Fraction(3, 7)])
    @hypothesis.example([Fraction((-1) ** n * (10 ** 6 - n) * (n % 3 > 0),
                                  n % 97 + 1)
                         for n in range(MAX_BERNOULLI_INDEX)]
                        + [Fraction(1, 3)])
    def same_as_indexed(coeffs):
        coeffs = tuple(coeffs)
        got = bernoulli_module._antidifference_coefficients(coeffs)
        assert _same_fractions(got,
                               _indexed_antidifference_coefficients(coeffs))
        assert all(c is bernoulli_module._ZERO for c in got if not c)

    same_as_indexed()


def test_fresh_tables_match_the_indexed_triangle():
    """Every fresh table up to B_400 holds the oracle's tangent numbers."""
    for half in range(1, 201):
        table = BernoulliTable()
        table._grow(half)
        assert table._values[1:] == _indexed_tangent_numbers(half)[1:], half


def test_antidifference_reads_the_denominator_of_its_prefix(monkeypatch):
    """The kernel reads B_0..B_n over their own lcm, not the whole table's,
    so a table grown to the cap gives the same antidifferences and
    Faulhaber polynomials, Fraction for Fraction, as a fresh one."""
    grown = BernoulliTable()
    grown.value(MAX_BERNOULLI_INDEX)
    numerators, d = grown._scaled_prefix(14)
    assert d == math.lcm(*(grown.value(k).denominator for k in range(15)))
    whole = grown._scaled_prefix(MAX_BERNOULLI_INDEX)[1]
    assert d == 30030 < whole == grown._lcms[-1]
    assert [Fraction(b, d) for b in numerators] \
        == [grown.value(k) for k in range(0, 15, 2)]
    rng = random.Random(20261019)
    forcings = [Polynomial([Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                            if rng.random() < 0.7 else 0
                            for _ in range(degree + 1)])
                for degree in (0, 1, 5, 14, 14, 30, 40)]
    results = []
    for table in (grown, BernoulliTable()):
        monkeypatch.setattr(bernoulli_module, "_TABLE", table)
        results.append([antidifference_polynomial(g).coefficients
                        for g in forcings]
                       + [faulhaber(n).coefficients for n in (1, 14, 30, 40)])
    for got, want in zip(*results):
        assert _same_fractions(got, want)


def test_bernoulli_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(MAX_BERNOULLI_INDEX + 1):
        expected = sympy.bernoulli(n)
        expected = Fraction(int(expected.p), int(expected.q))
        if n == 1:  # sympy 1.14 takes B_1 = +1/2, older releases -1/2
            expected = -abs(expected)
        assert bernoulli(n) == expected, n
