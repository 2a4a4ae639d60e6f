"""Convergence-study row builders and their thread-count invariance."""

import math
import random

import pytest

from deltasolve.polynomials import Polynomial
from deltasolve.reports import (AB_COMPARISON_HEADER, PFD_CONVERGENCE_HEADER,
                                RESIDUAL_DECAY_HEADER, ab_comparison_rows,
                                pfd_convergence_rows, residual_decay_rows)
from deltasolve.reports import _reciprocal_expm1

X_SQUARED = Polynomial((0, 0, 1))


def test_headers():
    assert RESIDUAL_DECAY_HEADER == ["K", "median_residual", "max_residual"]
    assert PFD_CONVERGENCE_HEADER == ["z", "K", "abs_error", "tail_bound"]
    assert AB_COMPARISON_HEADER == ["n", "K", "max_mismatch"]


def test_residual_decay_rows():
    rows = residual_decay_rows(X_SQUARED, [10, 100])
    assert [row[0] for row in rows] == [10, 100]
    for _, med, mx in rows:
        assert 0.0 <= med <= mx
    assert rows[1][2] <= rows[0][2] / 3.0


def test_pfd_convergence_rows():
    rows = pfd_convergence_rows([complex(1.0)], [100, 1000])
    assert [row[1] for row in rows] == [100, 1000]
    for z_text, _, abs_error, tail_bound in rows:
        assert z_text == "1.0+0.0i"
        assert abs_error <= tail_bound


def test_ab_comparison_rows():
    rows = ab_comparison_rows([1, 2], [100])
    assert rows[0][:2] == [1, 100]
    assert rows[0][2] == 0.0  # n = 1 has no comparable columns
    assert rows[1][:2] == [2, 100]
    assert rows[1][2] > 0.0


def test_rows_are_thread_invariant():
    # pool.map preserves order, so any thread count gives identical tables
    z_values = [complex(1.0), complex(0.5, 0.5)]
    assert pfd_convergence_rows(z_values, [10, 100], threads=4) \
        == pfd_convergence_rows(z_values, [10, 100], threads=1)
    assert residual_decay_rows(X_SQUARED, [10, 50], threads=3) \
        == residual_decay_rows(X_SQUARED, [10, 50], threads=1)
    assert ab_comparison_rows([1, 2, 3], [50, 200], threads=5) \
        == ab_comparison_rows([1, 2, 3], [50, 200], threads=1)


def test_pfd_convergence_rows_far_from_the_imaginary_axis():
    # e^z leaves double range for Re z > 709.78; 1/(e^z - 1) does not
    rows = pfd_convergence_rows([complex(800.0), complex(-800.0),
                                 complex(710.0, 3.0)], [1000])
    for _, _, abs_error, tail_bound in rows:
        assert abs_error <= tail_bound


def test_pfd_convergence_rows_near_zero():
    # 1/(exp(z) - 1) cancels here: it put abs_error near 3e-6, above both
    # bounds (4.05e-8 and 4.05e-10)
    rows = pfd_convergence_rows([complex(2e-6)], [10, 1000])
    for _, _, abs_error, tail_bound in rows:
        assert abs_error <= tail_bound


def test_reference_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    points = [complex(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, 2.85),
                      rng.uniform(-40.0, 40.0)) for _ in range(400)]
    points += [complex(2e-6), complex(-1e-9, 3e-9), complex(800.0),
               complex(-800.0, 1.0), complex(0.0, 1e-7)]
    with mpmath.workprec(120):
        for z in points:
            want = 1 / mpmath.expm1(mpmath.mpc(z))
            got = _reciprocal_expm1(z)
            assert abs(mpmath.mpc(got) - want) \
                <= 2e-15 * max(abs(want), 1), z
