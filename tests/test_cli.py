"""End-to-end CLI behaviour: grammars, exit codes, JSON envelope, reports."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest

import deltasolve
from deltasolve import MAX_TABLE_ORDER
from deltasolve.cli import (MAX_BERNOULLI_INDEX, MAX_OPERATOR_DEGREE,
                            MAX_REPORT_TERMS, MAX_TERMS, MAX_ZETA_INDEX,
                            _build_parser, main)
from deltasolve.polynomials import parse_complex, parse_complex_polynomial


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bernoulli_plain(capsys):
    code, out, err = _run(["bernoulli", "12"], capsys)
    assert code == 0
    assert out == "-691/2730\n"
    assert err == ""


def test_faulhaber_plain(capsys):
    code, out, _ = _run(["faulhaber", "2"], capsys)
    assert code == 0
    assert out == "1/3*x^3 + 1/2*x^2 + 1/6*x\n"


def test_antidiff_plain(capsys):
    code, out, _ = _run(["antidiff", "--g", "x^2"], capsys)
    assert code == 0
    assert out == "1/3*x^3 - 1/2*x^2 + 1/6*x\n"
    code, out, _ = _run(["antidiff", "--g", "x"], capsys)
    assert code == 0
    assert out == "1/2*x^2 - 1/2*x\n"


def test_spectral_plain(capsys):
    code, out, _ = _run(["spectral", "--g", "x", "--K", "50"], capsys)
    assert code == 0
    assert out.startswith("0.5*x^2 - 0.5*x + 0.08")


def test_euler_gap_output_is_repr(capsys):
    code, out, _ = _run(
        ["euler-gap", "--g", "x", "--x", "3.0", "--K", "10"], capsys)
    assert code == 0
    value = float(out.strip())
    assert abs(value - 1.5) <= 1e-12
    assert out.strip() == repr(value)


def test_pfd_plain(capsys):
    code, out, _ = _run(["pfd", "--z", "1", "--K", "1000"], capsys)
    assert code == 0
    rendered = out.strip()
    assert rendered.endswith("i")
    value = parse_complex(rendered)
    assert abs(value.real - 1.0 / (math.e - 1.0)) <= 1e-3
    assert abs(value.imag) <= 1e-12


def test_zeta_plain(capsys):
    code, out, _ = _run(["zeta", "--j", "1"], capsys)
    assert code == 0
    assert out.startswith("1/6*pi^2 = ")
    assert abs(float(out.split("=")[1]) - math.pi ** 2 / 6) <= 1e-12


def test_zeta_bracket_line(capsys):
    code, out, _ = _run(["zeta", "--j", "2", "--oracle-N", "1000"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("bracket N=1000: [")
    assert lines[1].endswith("contains=true")


def test_ode_plain(capsys):
    code, out, _ = _run(["ode", "--coeffs=-1,0,1", "--g", "1"], capsys)
    assert code == 0
    solution = parse_complex_polynomial(out.strip())
    assert abs(solution.coefficient(0) - (-1.0)) <= 1e-9
    assert solution.degree <= 0


def test_json_envelope_field_order(capsys):
    code, out, _ = _run(["bernoulli", "4", "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert list(envelope) == ["command", "inputs", "result", "meta"]
    assert envelope["command"] == "bernoulli"
    assert envelope["inputs"] == {"n": 4}
    assert envelope["result"] == {"value": "-1/30"}
    assert envelope["meta"] == {"K": None}


def test_json_meta_k_for_truncated_commands(capsys):
    code, out, _ = _run(
        ["spectral", "--g", "x", "--K", "25", "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["meta"] == {"K": 25}
    assert envelope["inputs"]["include_correction"] is True


def test_json_numbers_match_plain_digits(capsys):
    argv = ["euler-gap", "--g", "x^2", "--x", "1.5", "--K", "20"]
    _, plain_out, _ = _run(argv, capsys)
    code, json_out, _ = _run(argv + ["--format", "json"], capsys)
    assert code == 0
    value = json.loads(json_out)["result"]["value"]
    assert repr(value) == plain_out.strip()


def test_domain_errors_exit_1(capsys):
    code, out, err = _run(["pfd", "--z", "1e-9", "--K", "10"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "pole" in err

    code, _, err = _run(["ode", "--coeffs=1,-2,1", "--g", "x"], capsys)
    assert code == 1
    assert err.startswith("error: ")


# A rational coefficient far outside double range.
_HUGE_X = "1" + "0" * 400 + "*x"


@pytest.mark.parametrize("argv", [
    ["spectral", "--g", _HUGE_X, "--K", "10"],
    ["euler-gap", "--g", _HUGE_X, "--x", "1", "--K", "10"],
    ["ode", "--coeffs=1,1", "--g", _HUGE_X],
    ["report", "residual-decay", "--g", _HUGE_X, "--K-list", "10"],
], ids=["spectral", "euler-gap", "ode", "residual-decay"])
def test_out_of_range_coefficient_exits_1(argv, tmp_path, capsys):
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "decay.csv")]
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "outside double range" in err
    assert not (tmp_path / "decay.csv").exists()


# A coefficient within double range whose mode coefficients are not.
_HUGE_X30 = "1" + "0" * 300 + "*x^30"


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("argv", [
    ["euler-gap", "--g", "x^30", "--x", "1e300", "--K", "3"],
    ["pfd", "--z", "1e200+1e200i", "--K", "3"],
    ["ode", "--coeffs=1,1,1", "--g", "x^400"],
    ["ode", "--coeffs=1,5e-324", "--g", "x"],
    ["ode", "--coeffs=1.7e308,1", "--g", "x"],
    ["ode", "--coeffs=1,0,1e-300", "--g", "x"],
    ["ode", "--coeffs=1,1e308+1e308i", "--g", "x"],
    ["spectral", "--g", _HUGE_X30, "--K", "5"],
    ["report", "residual-decay", "--g", _HUGE_X30, "--K-list", "10"],
], ids=["euler-gap", "pfd", "ode", "ode-root-nan", "ode-root-step",
        "ode-root-square", "ode-root-underflow", "spectral", "residual-decay"])
def test_overflow_from_finite_input_exits_1(argv, fmt, tmp_path, capsys):
    """Finite inputs whose result overflows; each once printed NaN or inf,
    exit 0, or, in the root search, exited 3, named NaN estimates or, for a
    root that underflowed to 0, blamed close roots."""
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "decay.csv")]
    code, out, err = _run(argv + ["--format", fmt], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "outside double range" in err
    assert not (tmp_path / "decay.csv").exists()


def test_out_of_range_coefficient_stays_exact_in_antidiff(capsys):
    code, out, err = _run(["antidiff", "--g", _HUGE_X], capsys)
    assert code == 0
    assert err == ""
    assert out == "5" + "0" * 399 + "*x^2 - 5" + "0" * 399 + "*x\n"


def test_usage_errors_exit_2(capsys):
    assert _run(["no-such-command"], capsys)[0] == 2
    assert _run([], capsys)[0] == 2
    assert _run(["antidiff", "--g", "1.5*x"], capsys)[0] == 2
    assert _run(["spectral", "--g", "x", "--K", "0"], capsys)[0] == 2
    assert _run(["pfd", "--z", "2j", "--K", "5"], capsys)[0] == 2
    assert _run(["ode", "--coeffs=5", "--g", "x"], capsys)[0] == 2
    assert _run(["ode", "--coeffs=1,0", "--g", "x"], capsys)[0] == 2
    assert _run(["ode", "--coeffs=0.5,1.7e308+1.7e308i", "--g", "x"],
                capsys)[0] == 2
    assert _run(["bernoulli", "-3"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["pfd", "--z", "1e400", "--K", "10"],
    ["pfd", "--z", "nan", "--K", "10"],
    ["euler-gap", "--g", "x", "--x", "1e400", "--K", "10"],
    ["euler-gap", "--g", "x", "--x", "nan", "--K", "10"],
    ["report", "pfd-convergence", "--z-list", "1e400"],
], ids=["pfd-overflow", "pfd-nan", "euler-gap-overflow", "euler-gap-nan",
        "pfd-convergence-overflow"])
def test_non_finite_float_literal_exits_2(argv, tmp_path, capsys):
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "pfd.csv")]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "not finite" in err
    assert not (tmp_path / "pfd.csv").exists()


def test_polynomial_power_over_cap_exits_2(capsys):
    code, out, err = _run(["antidiff", "--g", "x^1001"], capsys)
    assert code == 2
    assert out == ""
    assert "exceeds the maximum of 1000" in err


@pytest.mark.parametrize("argv", [
    ["zeta", "--j", "1", "--oracle-N", "1"],
    ["report", "ab-comparison", "--n-max", "13"],
    ["report", "ab-comparison", "--n-max", "0"],
], ids=["oracle-N-1", "n-max-13", "n-max-0"])
def test_bad_flag_values_exit_2(argv, tmp_path, capsys):
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "ab.csv")]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "must be" in err
    assert not (tmp_path / "ab.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["spectral", "--g", "x", "--K", "abc"], "argument --K: not an integer: 'abc'"),
    (["euler-gap", "--g", "x", "--x", "abc", "--K", "3"],
     "argument --x: not a number: 'abc'"),
], ids=["K-not-an-integer", "x-not-a-number"])
def test_unparsable_flag_values_exit_2(argv, message, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: {message}\n")


# Each capped input: argv with "{}" where the value goes, and its cap.
_CAPPED = [
    (["bernoulli", "{}"], MAX_BERNOULLI_INDEX),
    (["faulhaber", "{}"], MAX_BERNOULLI_INDEX),
    (["spectral", "--g", "x", "--K", "{}"], MAX_TERMS),
    (["euler-gap", "--g", "x", "--x", "1", "--K", "{}"], MAX_TERMS),
    (["pfd", "--z", "1", "--K", "{}"], MAX_TERMS),
    (["zeta", "--j", "{}"], MAX_ZETA_INDEX),
    (["zeta", "--j", "1", "--oracle-N", "{}"], MAX_TERMS),
    (["report", "residual-decay", "--K-list", "10,{}"], MAX_TERMS),
    (["report", "pfd-convergence", "--K-list", "{}"], MAX_TERMS),
]


@pytest.mark.parametrize("argv, cap", _CAPPED,
                         ids=["bernoulli", "faulhaber", "spectral", "euler-gap",
                              "pfd", "zeta-j", "oracle-N", "residual-decay",
                              "pfd-convergence"])
def test_size_caps_are_checked_while_parsing(argv, cap, tmp_path, capsys):
    def filled(value):
        words = [word.format(value) for word in argv]
        if words[0] == "report":
            words += ["--out", str(tmp_path / "report.csv")]
        return words

    # the cap itself parses (without running the command) ...
    parsed = vars(_build_parser().parse_args(filled(cap)))
    assert cap in [v for value in parsed.values()
                   for v in (value if isinstance(value, list) else [value])]
    # ... and one more is a usage error before anything runs
    code, out, err = _run(filled(cap + 1), capsys)
    assert code == 2
    assert out == ""
    assert f"must be <= {cap}" in err
    assert not (tmp_path / "report.csv").exists()


def test_operator_degree_cap_is_checked_while_parsing(monkeypatch, capsys):
    def argv(*coeffs):
        return ["ode", "--coeffs=" + ",".join(coeffs), "--g", "x"]

    # the cap itself parses ...
    at_cap = ["1"] * (MAX_OPERATOR_DEGREE + 1)
    parsed = _build_parser().parse_args(argv(*at_cap))
    assert parsed.coeffs.degree == MAX_OPERATOR_DEGREE
    # ... and one more coefficient is a usage error before the solver runs
    # or the literals are read
    def solver_must_not_run(*args):
        raise AssertionError("the solver ran")
    monkeypatch.setattr("deltasolve.ode.solve_linear_ode", solver_must_not_run)
    for extra in ("1", "not-a-number"):
        code, out, err = _run(argv(*at_cap, extra), capsys)
        assert code == 2
        assert out == ""
        assert f"operator degree {MAX_OPERATOR_DEGREE + 1} must be <= " \
            f"{MAX_OPERATOR_DEGREE}" in err


@pytest.mark.parametrize("study, points, within, over, terms", [
    # per K: K terms and 20000 for its row
    ("residual-decay", [], "1000000,460000", "1000000,460001", 1_500_001),
    # per z and K: K terms and 50 for its row
    ("pfd-convergence", ["--z-list", "1,-1,0.5+0.5i"], "499950",
     "499950,1", 1_500_153),
    # per K: K terms for S_2, min(K, 181761) for S_4, and 1000 for each of
    # its three rows
    ("ab-comparison", ["--n-max", "3"], "1000000,156119", "1000000,156120",
     1_500_001),
    # per K: K terms for S_2, and 1000 for its one row
    ("ab-comparison", ["--n-max", "1"], "1000000,498000", "1000000,498001",
     1_500_001),
    # many small K: the row charges fill the budget, not the terms
    ("residual-decay", [], ",".join(["1"] * 74), ",".join(["1"] * 75),
     1_500_075),
    ("pfd-convergence", ["--z-list", "0.5+0.5i"], ",".join(["1"] * 29411),
     ",".join(["1"] * 29412), 1_500_012),
], ids=["residual-decay-points0-1", "pfd-convergence-points1-3",
        "ab-comparison-points2-3", "ab-comparison-n-max-1",
        "residual-decay-many-small-K", "pfd-convergence-many-small-K"])
def test_report_budget_is_checked_before_any_row(study, points, within, over,
                                                 terms, monkeypatch, tmp_path,
                                                 capsys):
    ran = []
    for name in ("residual_decay_rows", "pfd_convergence_rows",
                 "ab_comparison_rows"):
        monkeypatch.setattr(f"deltasolve.reports.{name}",
                            lambda *args, **kwargs: ran.append(args) or [])
    out_path = tmp_path / "report.csv"

    def argv(k_list):
        return ["report", study, *points, "--K-list", k_list,
                "--out", str(out_path)]

    # a report within the budget runs ...
    code, _, err = _run(argv(within), capsys)
    assert (code, err, len(ran)) == (0, "", 1)
    assert out_path.exists()
    out_path.unlink()
    # ... and a slightly larger K is a usage error before any row runs or
    # the CSV is opened
    code, out, err = _run(argv(over), capsys)
    assert (code, out, len(ran)) == (2, "", 1)
    assert f"sums {terms} terms, more than the budget of " \
        f"{MAX_REPORT_TERMS}" in err
    assert not out_path.exists()


def test_report_residual_decay(tmp_path, capsys):
    out_path = tmp_path / "decay.csv"
    code, out, _ = _run(
        ["report", "residual-decay", "--out", str(out_path),
         "--K-list", "10,100"], capsys)
    assert code == 0
    assert out == ""  # table goes to the file, not stdout
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["K", "median_residual", "max_residual"]
    assert len(rows) == 3
    assert [row[0] for row in rows[1:]] == ["10", "100"]
    assert float(rows[2][2]) <= float(rows[1][2]) / 3.0


def test_report_pfd_convergence(tmp_path, capsys):
    out_path = tmp_path / "pfd.csv"
    code, out, _ = _run(
        ["report", "pfd-convergence", "--out", str(out_path),
         "--z-list", "1,0.5+0.5i", "--K-list", "10,100",
         "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["rows"] == 4
    assert envelope["result"]["out"] == str(out_path)
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["z", "K", "abs_error", "tail_bound"]
    for row in rows[1:]:
        assert float(row[2]) <= float(row[3])


def test_report_ab_comparison(tmp_path, capsys):
    out_path = tmp_path / "ab.csv"
    code, _, _ = _run(
        ["report", "ab-comparison", "--out", str(out_path),
         "--n-max", "3", "--K-list", "100"], capsys)
    assert code == 0
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "K", "max_mismatch"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]


def test_report_thread_invariance(tmp_path, capsys):
    base = ["report", "pfd-convergence", "--z-list", "1,2.7",
            "--K-list", "10,100"]
    single = tmp_path / "single.csv"
    pooled = tmp_path / "pooled.csv"
    assert _run(base + ["--out", str(single), "--threads", "1"], capsys)[0] == 0
    assert _run(base + ["--out", str(pooled), "--threads", "3"], capsys)[0] == 0
    assert single.read_bytes() == pooled.read_bytes()


def test_only_report_takes_threads(capsys):
    code, out, err = _run(["bernoulli", "5", "--threads", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --threads 2" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deltasolve", "bernoulli", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-1/30\n"


def test_repeated_runs_are_identical():
    argv = [sys.executable, "-m", "deltasolve", "spectral",
            "--g", "x^2", "--K", "200", "--format", "json"]
    first = subprocess.run(argv, capture_output=True).stdout
    second = subprocess.run(argv, capture_output=True).stdout
    assert first == second


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom"),
                                   OverflowError("boom"),
                                   ZeroDivisionError("boom")],
                         ids=["ValueError", "KeyError", "OverflowError",
                              "ZeroDivisionError"])
def test_internal_errors_exit_3(error, monkeypatch, capsys):
    """An exception that is not a domain error is a bug: exit 3, one line."""
    def broken(n):
        raise error

    monkeypatch.setattr(deltasolve.bernoulli, "bernoulli", broken)
    code, out, err = _run(["bernoulli", "3"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"internal error: {error!r}\n"


def test_unwritable_report_path_exits_1(tmp_path, capsys):
    out_path = tmp_path / "missing" / "ab.csv"
    code, out, err = _run(["report", "ab-comparison", "--n-max", "2",
                           "--K-list", "10", "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_ode_with_too_close_roots_exits_1(capsys):
    # (z - 2)(z - 2.001) = z^2 - 4.001 z + 4.002
    code, out, err = _run(["ode", "--coeffs=4.002,-4.001,1", "--g", "x^3"],
                          capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the solution misses P(D) f = g")


def _exit_contract_argvs(st, out_dir):
    """Argvs over all nine subcommands: half with every literal valid (small
    K and operator degrees), half with each literal drawn valid, malformed,
    non-finite or over its cap.  Options take the ``--name=value`` form, so
    that a value starting with ``-`` still reaches its parser.  ``--threads``
    is drawn only for ``report``, the one subcommand that takes it."""
    def valid_only(valid, *bad):
        return valid

    def valid_or_bad(valid, *bad):
        return st.one_of(valid, st.sampled_from(bad))

    def argvs(literal):
        def integer(low, high, cap):
            return literal(st.integers(low, high).map(str), str(low - 1),
                           str(cap + 1), "10" * 12, "abc", "1.5", "", "1e3")

        def number(high):
            return st.floats(-high, high, allow_nan=False).map(repr)

        term = st.tuples(st.integers(-9, 9), st.integers(1, 9),
                         st.integers(0, 35))
        poly = literal(st.lists(term, min_size=1, max_size=4).map(
            lambda terms: " + ".join(f"{a}/{b}*x^{p}" for a, b, p in terms)),
            "x^1001", "x^", "1.5*x", "1/0*x", "x x", "", "y^2", "2^x")
        real = literal(number(1e3), "nan", "inf", "-inf", "1e400", "abc",
                       "1/2")
        complex_ = literal(st.tuples(number(50.0), number(50.0)).map(
            lambda parts: f"{parts[0]}+{parts[1]}i"), "2j", "1+", "i+i",
            "nan", "1e400i", "1+nan i", "abc")
        coeffs = literal(
            st.lists(complex_, min_size=2, max_size=4).map(",".join),
            ",".join(["1"] * (MAX_OPERATOR_DEGREE + 2)), "5", "1,0")
        k = integer(1, 40, MAX_TERMS)
        k_list = st.lists(k, min_size=1, max_size=3).map(",".join)
        z_list = st.lists(complex_, min_size=1, max_size=3).map(",".join)
        out = literal(st.just(str(out_dir / "report.csv")),
                      str(out_dir / "missing" / "report.csv"))

        def options(required, optional):
            """Each required option, then each optional one or not."""
            def word(name, value):
                return value.map(
                    lambda text: [f"--{name.replace('_', '-')}={text}"])
            return st.tuples(
                *(word(name, value) for name, value in required.items()),
                *(st.one_of(st.just([]), word(name, value))
                  for name, value in optional.items())).map(
                      lambda words: sum(words, []))

        commands = st.one_of(
            st.tuples(st.just(["bernoulli"]),
                      integer(0, 60, MAX_BERNOULLI_INDEX).map(lambda n: [n])),
            st.tuples(st.just(["faulhaber"]),
                      integer(0, 30, MAX_BERNOULLI_INDEX).map(lambda n: [n])),
            st.tuples(st.just(["antidiff"]), options({"g": poly}, {})),
            st.tuples(st.just(["spectral"]), options({"g": poly, "K": k}, {})),
            st.tuples(st.just(["euler-gap"]),
                      options({"g": poly, "x": real, "K": k}, {})),
            st.tuples(st.just(["pfd"]), options({"z": complex_, "K": k}, {})),
            st.tuples(st.just(["zeta"]), options(
                {"j": integer(1, 40, MAX_ZETA_INDEX)},
                {"oracle_N": integer(2, 50, MAX_TERMS)})),
            st.tuples(st.just(["ode"]),
                      options({"coeffs": coeffs, "g": poly}, {})),
            st.tuples(
                literal(st.sampled_from(["residual-decay", "pfd-convergence",
                                         "ab-comparison"]),
                        "no-such-study").map(lambda study: ["report", study]),
                options({"out": out},
                        {"g": poly, "K_list": k_list, "z_list": z_list,
                         "n_max": integer(1, 12, MAX_TABLE_ORDER),
                         "threads": integer(1, 2, 2)})))
        common = options({}, {
            "format": literal(st.sampled_from(["plain", "json"]), "xml")})
        return st.tuples(commands, common).map(
            lambda drawn: drawn[0][0] + drawn[0][1] + drawn[1])

    return st.one_of(argvs(valid_only), argvs(valid_or_bad))


def test_exit_contract_holds_for_drawn_argvs(tmp_path):
    """Whatever the literals, ``main`` exits 0, 1 or 2, never with an
    internal error."""
    hypothesis = pytest.importorskip("hypothesis")
    codes = set()

    @hypothesis.settings(max_examples=300, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(_exit_contract_argvs(hypothesis.strategies, tmp_path))
    def exit_contract(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), (argv, stderr.getvalue())
        assert "internal error" not in stderr.getvalue(), argv
        codes.add(code)

    exit_contract()
    assert codes == {0, 1, 2}
