"""Convergence-study row builders and their thread-count invariance."""

from deltasolve.polynomials import Polynomial
from deltasolve.reports import (AB_COMPARISON_HEADER, PFD_CONVERGENCE_HEADER,
                                RESIDUAL_DECAY_HEADER, ab_comparison_rows,
                                pfd_convergence_rows, residual_decay_rows)

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
