"""Command-line frontend.

Exit codes: 0 on success, 1 on a domain error (a ``DeltasolveError``:
pole proximity, repeated or too close characteristic roots, degree
overflow, a value outside double range; or a report CSV that cannot be
written), 2 on a usage error (unknown subcommand, malformed literal, bad
flag value, a size over its cap), 3 on any other exception, an internal
error, reported in one line.

Every subcommand prints a single plain-text value built from the documented
grammars (rational, polynomial, complex literals), or with ``--format json``
one envelope ``{"command", "inputs", "result", "meta"}`` whose numbers carry
exactly the digits of the plain rendering.  Output is bit-for-bit
reproducible for a fixed invocation, including across ``report --threads``.

The package registers its modules without running them and binds each one
as ``deltasolve.<name>``.  This module imports those module objects and looks
each function up on its module when a handler or argparse type runs, so a
subcommand runs only the modules it calls, and a wrapper set on a module
attribute takes effect.  ``json`` is imported only for ``--format json`` and
``csv`` only by ``report``.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import (MAX_BERNOULLI_INDEX, MAX_OPERATOR_DEGREE, MAX_TABLE_ORDER,
               MAX_TERMS, bernoulli, ode, partial_fractions, polynomials,
               rationals, reports, spectral, zeta)

__all__ = ["main", "MAX_TERMS", "MAX_BERNOULLI_INDEX", "MAX_ZETA_INDEX",
           "MAX_OPERATOR_DEGREE", "MAX_REPORT_TERMS"]

# Caps on the inputs whose cost grows with their value, checked while the
# arguments are parsed, so that one over the cap exits 2 before any loop.
# README's caps table states each cap's worst-case cost, and
# tests/test_caps.py runs each worst case within a time budget.
# MAX_TERMS bounds every truncation order K (--K, each --K-list entry) and
# --oracle-N, MAX_BERNOULLI_INDEX n for bernoulli and faulhaber,
# MAX_OPERATOR_DEGREE the degree n of ode --coeffs (n + 1 numbers; the three
# are package constants the library checks too), and MAX_ZETA_INDEX --j.
MAX_ZETA_INDEX = 300
# MAX_REPORT_TERMS bounds the terms a report sums over all its rows, once
# the arguments are parsed (_report_terms).  Each row is charged its terms
# plus _ROW_TERMS[study] terms for its fixed work: |z-list| * sum(K + 50)
# over the K-list for pfd-convergence, sum(K + 20000) for residual-decay,
# and for ab-comparison, per K, the terms of each power sum S_m(K) it reads,
# even m <= n-max + 1 (spectral._pass_length), plus 1000 for each of its
# n-max rows.  That is the cost in a cold process, give or take one 32-term
# sub-block per m; power_sums keeps its prefix sums, so a K whose prefix an
# earlier row or K computed costs less, and the charge is then an upper
# bound.
MAX_REPORT_TERMS = 1_500_000
_ROW_TERMS = {"pfd-convergence": 50, "residual-decay": 20_000,
              "ab-comparison": 1000}

_DOMAIN_ERRORS = (rationals.DeltasolveError, OSError)

_DEFAULT_RESIDUAL_KS = [10, 100, 1000]
_DEFAULT_SWEEP_KS = [100, 1000, 10000]
_DEFAULT_PFD_ZS = [complex(1.0), complex(-1.0), complex(0.5, 0.5),
                   complex(0.0, math.pi), complex(2.7)]


# ----------------------------------------------------------------------
# argparse types (failures here are usage errors, exit code 2)
# ----------------------------------------------------------------------

def _int_in(low: int, high: int | None = None):
    """An argparse type accepting the integers low..high (no cap if None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}")
        return value
    return parse


_truncation_order = _int_in(1, MAX_TERMS)
_bernoulli_index = _int_in(0, MAX_BERNOULLI_INDEX)


def _float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"float literal {text!r} is not finite")
    return value


def _poly_arg(text: str):
    try:
        return polynomials.parse_polynomial(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial literal: {exc}")


def _complex_arg(text: str) -> complex:
    try:
        return polynomials.parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal: {exc}")


def _operator_arg(text: str):
    parts = text.split(",")
    degree = len(parts) - 1
    if degree > MAX_OPERATOR_DEGREE:
        raise argparse.ArgumentTypeError(
            f"operator degree {degree} must be <= {MAX_OPERATOR_DEGREE}")
    coeffs = [_complex_arg(part) for part in parts]
    try:
        return ode.CharacteristicPolynomial(coeffs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _list_of(parse):
    """An argparse type reading a comma-separated list with ``parse``."""
    def parse_list(text: str) -> list:
        return [parse(part) for part in text.split(",")]
    return parse_list


# ----------------------------------------------------------------------
# subcommand handlers; each returns (plain, inputs, result)
# ----------------------------------------------------------------------

def _run_bernoulli(args):
    value = rationals.format_rational(bernoulli.bernoulli(args.n))
    return value, {"n": args.n}, {"value": value}


def _run_faulhaber(args):
    rendered = polynomials.format_polynomial(bernoulli.faulhaber(args.n))
    return rendered, {"n": args.n}, {"polynomial": rendered}


def _run_antidiff(args):
    rendered = polynomials.format_polynomial(
        bernoulli.antidifference_polynomial(args.g))
    inputs = {"g": polynomials.format_polynomial(args.g)}
    return rendered, inputs, {"polynomial": rendered}


def _run_spectral(args):
    config = spectral.SpectralConfig(args.K, not args.uncorrected)
    solution = spectral.spectral_solve(args.g, config)
    rendered = polynomials.format_real_polynomial(
        solution.polynomial_part.real_coefficients())
    inputs = {"g": polynomials.format_polynomial(args.g), "K": args.K,
              "include_correction": config.include_correction}
    return rendered, inputs, {"polynomial": rendered}


def _run_euler_gap(args):
    value = spectral.euler_gap(args.g, args.x, args.K)
    inputs = {"g": polynomials.format_polynomial(args.g), "x": args.x,
              "K": args.K}
    return repr(value), inputs, {"value": value}


def _run_pfd(args):
    rendered = polynomials.format_complex(
        partial_fractions.pfd_eval(args.z, args.K))
    inputs = {"z": polynomials.format_complex(args.z), "K": args.K}
    return rendered, inputs, {"value": rendered}


def _run_zeta(args):
    closed = zeta.zeta_even_closed_form(args.j)
    value = closed.value()
    coefficient = rationals.format_rational(closed.coefficient)
    plain = f"{coefficient}*pi^{closed.pi_power} = {value!r}"
    result = {"coefficient": coefficient, "pi_power": closed.pi_power,
              "value": value}
    if args.oracle_N is not None:
        lower, upper = zeta.zeta_partial_sum(args.j, args.oracle_N)
        contains = lower <= value <= upper
        plain += (f"\nbracket N={args.oracle_N}: [{lower!r}, {upper!r}] "
                  f"contains={str(contains).lower()}")
        result["bracket"] = [lower, upper]
        result["bracket_N"] = args.oracle_N
        result["contains"] = contains
    return plain, {"j": args.j, "oracle_N": args.oracle_N}, result


def _run_ode(args):
    terms = ode.solve_linear_ode(args.coeffs, args.g).terms
    poly = terms[0].polynomial if terms else polynomials.ComplexPolynomial.zero()
    rendered = polynomials.format_complex_polynomial(poly)
    coeffs = [polynomials.format_complex(c) for c in args.coeffs.coefficients]
    inputs = {"coeffs": coeffs, "g": polynomials.format_polynomial(args.g)}
    return rendered, inputs, {"solution": rendered}


def _run_report(args):
    import csv

    inputs = {"study": args.study}
    if args.study == "residual-decay":
        header = reports.RESIDUAL_DECAY_HEADER
        rows = reports.residual_decay_rows(args.g, args.K_list,
                                           threads=args.threads)
        inputs["g"] = polynomials.format_polynomial(args.g)
    elif args.study == "pfd-convergence":
        header = reports.PFD_CONVERGENCE_HEADER
        rows = reports.pfd_convergence_rows(args.z_list, args.K_list,
                                            threads=args.threads)
        inputs["z_list"] = [polynomials.format_complex(z) for z in args.z_list]
    else:
        header = reports.AB_COMPARISON_HEADER
        rows = reports.ab_comparison_rows(list(range(1, args.n_max + 1)),
                                          args.K_list, threads=args.threads)
        inputs["n_max"] = args.n_max
    inputs.update(K_list=list(args.K_list), out=args.out)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return "", inputs, {"study": args.study, "rows": len(rows), "out": args.out}


def _report_terms(args) -> int:
    """The terms a report sums over all its rows, plus each row's charge
    (the rule at MAX_REPORT_TERMS)."""
    charge = _ROW_TERMS[args.study] * len(args.K_list)
    if args.study == "ab-comparison":
        exponents = range(2, args.n_max + 2, 2)
        return sum(spectral._pass_length(m, k) for k in args.K_list
                   for m in exponents) + charge * args.n_max
    points = len(args.z_list) if args.study == "pfd-convergence" else 1
    return points * (sum(args.K_list) + charge)


def _size_report(parser: argparse.ArgumentParser, args) -> None:
    """Fill in the study's default K list, and refuse (exit 2) a report that
    sums more than MAX_REPORT_TERMS terms, before any row runs."""
    residual = args.study == "residual-decay"
    args.K_list = args.K_list or (_DEFAULT_RESIDUAL_KS if residual
                                  else _DEFAULT_SWEEP_KS)
    terms = _report_terms(args)
    if terms > MAX_REPORT_TERMS:
        parser.error(f"the {args.study} report sums {terms} terms, more than "
                     f"the budget of {MAX_REPORT_TERMS}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"), default="plain",
                        help="output format (default: plain)")

    parser = argparse.ArgumentParser(
        prog="deltasolve",
        description="Exact and spectral solvers for f(x+1) - f(x) = g(x).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    p = command("bernoulli", _run_bernoulli,
                "Bernoulli number B_n (B_1 = -1/2 convention)")
    p.add_argument("n", type=_bernoulli_index,
                   help=f"index, at most {MAX_BERNOULLI_INDEX}")

    p = command("faulhaber", _run_faulhaber,
                "power-sum polynomial for sum_{k=1}^{x} k^n")
    p.add_argument("n", type=_bernoulli_index,
                   help=f"power, at most {MAX_BERNOULLI_INDEX}")

    p = command("antidiff", _run_antidiff,
                "exact antidifference: f with f(x+1)-f(x)=g, f(0)=0")
    p.add_argument("--g", type=_poly_arg, required=True,
                   help="polynomial with rational coefficients, e.g. '1/2*x^2 - x'")

    p = command("spectral", _run_spectral,
                "truncated spectral solution of f(x+1)-f(x)=g")
    p.add_argument("--g", type=_poly_arg, required=True)
    p.add_argument("--K", type=_truncation_order, required=True,
                   help="mode truncation order (pairs 1 <= |k| <= K), at "
                        f"most {MAX_TERMS}")
    p.add_argument("--uncorrected", action="store_true",
                   help="omit the -g/2 correction term")

    p = command("euler-gap", _run_euler_gap,
                "uncorrected minus corrected solution at x (= g(x)/2)")
    p.add_argument("--g", type=_poly_arg, required=True)
    p.add_argument("--x", type=_float_arg, required=True)
    p.add_argument("--K", type=_truncation_order, required=True,
                   help=f"mode truncation order, at most {MAX_TERMS}")

    p = command("pfd", _run_pfd,
                "truncated partial-fraction value of 1/(e^z - 1)")
    p.add_argument("--z", type=_complex_arg, required=True,
                   help="complex literal a+bi, e.g. '0.5+0.5i'")
    p.add_argument("--K", type=_truncation_order, required=True,
                   help=f"pole pairs kept, at most {MAX_TERMS}")

    p = command("zeta", _run_zeta,
                "exact zeta(2j) as a rational multiple of pi^(2j)")
    p.add_argument("--j", type=_int_in(1, MAX_ZETA_INDEX), required=True,
                   help=f"the even argument 2j, 1 <= j <= {MAX_ZETA_INDEX}")
    p.add_argument("--oracle-N", dest="oracle_N", type=_int_in(2, MAX_TERMS),
                   default=None,
                   help=f"also print the N-term integral-test bracket, "
                        f"2 <= N <= {MAX_TERMS}; keep N modest for large j, "
                        "the width ~N^(1-2j) must stay above double rounding "
                        "for containment to be certifiable")

    p = command("ode", _run_ode,
                "particular solution of a_0 f + a_1 f' + ... = g")
    p.add_argument("--coeffs", type=_operator_arg, required=True,
                   help="comma-separated complex literals a_0,...,a_n, "
                        f"n <= {MAX_OPERATOR_DEGREE}; use "
                        "--coeffs=-1,0,1 when the first one is negative")
    p.add_argument("--g", type=_poly_arg, required=True)

    p = command("report", _run_report, "write a convergence-study CSV")
    p.add_argument("--threads", type=_int_in(1), default=1,
                   help="accepted for compatibility; report rows are "
                        "computed serially, identically for any value")
    p.add_argument("study", choices=("residual-decay", "pfd-convergence",
                                     "ab-comparison"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--g", type=_poly_arg, default="x^2",
                   help="forcing for residual-decay (default: x^2)")
    p.add_argument("--K-list", dest="K_list", type=_list_of(_truncation_order),
                   default=None,
                   help=f"comma-separated truncation orders, each at most "
                        f"{MAX_TERMS}; a report sums at most "
                        f"{MAX_REPORT_TERMS} terms over all its rows")
    p.add_argument("--z-list", dest="z_list", type=_list_of(_complex_arg),
                   default=_DEFAULT_PFD_ZS,
                   help="comma-separated complex points for pfd-convergence")
    p.add_argument("--n-max", dest="n_max", type=_int_in(1, MAX_TABLE_ORDER),
                   default=6,
                   help="largest forcing degree for ab-comparison, at most "
                        f"{MAX_TABLE_ORDER} (default: 6)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            _size_report(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        plain, inputs, result = args.run(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    if args.format == "json":
        import json

        envelope = {"command": args.command, "inputs": inputs,
                    "result": result, "meta": {"K": getattr(args, "K", None)}}
        print(json.dumps(envelope))
    elif plain:
        print(plain)
    return 0
