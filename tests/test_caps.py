"""Each cap's worst case, run in process on cold caches, within a budget.

README's caps table is the one place that states what each worst case
costs, and how that was measured.  Here each one runs once, on a fresh
Bernoulli table with no power-sum prefixes or B-tables cached, and must
finish within a budget several times that cost, so that a loaded machine
does not fail it but a cap whose cost grows does.  The last test checks
that each row of the table ends its range at the constant it names.
"""

import cmath
import contextlib
import io
import time
from fractions import Fraction
from pathlib import Path

import pytest

from deltasolve import (MAX_BERNOULLI_INDEX, MAX_TABLE_ORDER, MAX_TERMS,
                        bernoulli, cli, partial_fractions, polynomials,
                        spectral, zeta)
from deltasolve.cli import (MAX_OPERATOR_DEGREE, MAX_REPORT_TERMS,
                            MAX_ZETA_INDEX)
from deltasolve.polynomials import MAX_PARSED_DEGREE

README = Path(__file__).resolve().parent.parent / "README.md"


def _dense(degree: int) -> str:
    """The forcing sum_{k <= degree} (k%9 + 1/(k%7+2)) x^k: every
    coefficient a nonzero rational."""
    return " + ".join(f"{Fraction(k % 9) + Fraction(1, k % 7 + 2)}*x^{k}"
                      for k in range(degree + 1))


def _main(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _within(budget: float, run, *args):
    """run(*args), failing if it takes longer than budget seconds."""
    start = time.perf_counter()
    result = run(*args)
    elapsed = time.perf_counter() - start
    assert elapsed <= budget, f"took {elapsed:.3f} s, budget {budget} s"
    return result


@pytest.fixture
def cold(monkeypatch):
    monkeypatch.setattr(bernoulli, "_TABLE", bernoulli.BernoulliTable())
    monkeypatch.setattr(spectral, "_PREFIXES", {})
    zeta._b_table.cache_clear()


def test_pfd_at_max_terms(cold):
    value = _within(0.75, partial_fractions.pfd_eval, 2.1 + 1.9j, MAX_TERMS)
    assert cmath.isfinite(value)


def test_cold_bernoulli_at_its_cap(cold):
    _within(0.4, bernoulli.bernoulli, MAX_BERNOULLI_INDEX)
    assert bernoulli._TABLE.computed_up_to == MAX_BERNOULLI_INDEX


def test_dense_antidifference_at_the_parsed_degree_cap(cold):
    """The forcing's degree reads the Bernoulli table up to its cap, and
    the antidifference's work grows with the square of the degree."""
    assert MAX_PARSED_DEGREE == MAX_BERNOULLI_INDEX
    forcing = polynomials.parse_polynomial(_dense(MAX_PARSED_DEGREE))
    f = _within(3.5, bernoulli.antidifference_polynomial, forcing)
    assert f.degree == MAX_PARSED_DEGREE + 1


def test_zeta_at_its_caps(cold):
    assert _within(0.15, _main, "zeta", "--j", str(MAX_ZETA_INDEX),
                   "--oracle-N", str(MAX_TERMS)) == 0


def test_ode_at_the_operator_degree_cap():
    """(z-1)^2 (z^88 - 1): the estimates stay finite, the root finder runs
    all its sweeps without converging on the double root, and the run exits
    1 on two close roots."""
    zeros = ["0"] * (MAX_OPERATOR_DEGREE - 5)
    coeffs = ",".join(["-1", "2", "-1", *zeros, "1", "-2", "1"])
    assert _within(1.5, _main, "ode", f"--coeffs={coeffs}", "--g", "x") == 1


@pytest.mark.parametrize("budget, argv", [
    (1.0, ["pfd-convergence", "--z-list", "2.1+1.9i",
           "--K-list", "1000000,499900"]),
    (1.0, ["pfd-convergence", "--z-list", "2.1+1.9i",
           "--K-list", ",".join(["1"] * 29411)]),
    (0.5, ["residual-decay", "--g", _dense(30),
           "--K-list", "1000000,460000"]),
    (0.5, ["residual-decay", "--g", _dense(30),
           "--K-list", ",".join(["1"] * 74)]),
    (0.5, ["ab-comparison", "--n-max", str(MAX_TABLE_ORDER),
           "--K-list", "1000000,145590"]),
    (0.5, ["ab-comparison", "--n-max", str(MAX_TABLE_ORDER),
           "--K-list", ",".join(["255"] * 115)]),
    (0.5, ["ab-comparison", "--n-max", str(MAX_TABLE_ORDER),
           "--K-list", ",".join(["1"] * 124)]),
], ids=["pfd-convergence-large-K", "pfd-convergence-K-1",
        "residual-decay-large-K", "residual-decay-K-1",
        "ab-comparison-large-K", "ab-comparison-K-255",
        "ab-comparison-K-1"])
def test_report_at_the_budget(budget, argv, cold, tmp_path):
    """Each study at MAX_REPORT_TERMS, spent on a few large K or on many
    small ones: the row charges keep the second no dearer than the first."""
    argv = ["report", *argv, "--out", str(tmp_path / "report.csv")]
    terms = cli._report_terms(cli._build_parser().parse_args(argv))
    assert 0.98 * MAX_REPORT_TERMS <= terms <= MAX_REPORT_TERMS
    assert _within(budget, _main, *argv) == 0


def _upper_end(text: str) -> Fraction:
    """The upper end of a range cell's literal: '1..10^6' -> 10^6,
    '1.5·10^6' -> 1500000, '0..1000' -> 1000."""
    top = text.rpartition("..")[2]
    mantissa, power_of_ten, exponent = top.rpartition("10^")
    if not power_of_ten:
        return Fraction(top)
    return Fraction(mantissa.rstrip("·") or 1) * 10 ** int(exponent)


def test_readme_caps_table_ends_each_range_at_its_constant():
    lines = README.read_text().splitlines()
    start = lines.index("| input | range | cap | worst case at the cap |")
    named = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        # split on the column bars, not on the \| escapes inside a cell
        cells = line.replace(r"\|", "").split("|")
        literal = cells[2].split("`")[1]
        constant = cells[3].split("`")[1].rpartition(".")[2]
        named.append((constant, _upper_end(literal)))
    constants = {"MAX_TERMS": MAX_TERMS,
                 "MAX_BERNOULLI_INDEX": MAX_BERNOULLI_INDEX,
                 "MAX_ZETA_INDEX": MAX_ZETA_INDEX,
                 "MAX_TABLE_ORDER": MAX_TABLE_ORDER,
                 "MAX_REPORT_TERMS": MAX_REPORT_TERMS,
                 "MAX_OPERATOR_DEGREE": MAX_OPERATOR_DEGREE,
                 "MAX_PARSED_DEGREE": MAX_PARSED_DEGREE}
    assert {name for name, _ in named} == set(constants)
    assert [(name, constants[name]) for name, _ in named] == named
