"""Command-line frontend.

Exit codes: 0 on success, 1 on a domain error (a ``DeltasolveError``:
pole proximity, repeated or too close characteristic roots, degree
overflow, a value outside double range; or division by zero, or a
report CSV that cannot be written), 2 on a usage error (unknown subcommand,
malformed literal, bad flag value, a size over its cap), 3 on any other
exception, an internal error, reported in one line.

Every subcommand prints a single plain-text value built from the documented
grammars (rational, polynomial, complex literals), or with ``--format json``
one envelope ``{"command", "inputs", "result", "meta"}`` whose numbers carry
exactly the digits of the plain rendering.  Output is bit-for-bit
reproducible for a fixed invocation, including across ``--threads`` values.

Each handler, and each argparse type, imports the modules it calls when it
runs, so a subcommand loads only those (the package registers its modules
without running them); ``json`` is imported only for ``--format json``
and ``csv`` only by ``report``.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import MAX_TABLE_ORDER
from .rationals import DeltasolveError

__all__ = ["main", "MAX_TERMS", "MAX_BERNOULLI_INDEX", "MAX_ZETA_INDEX",
           "MAX_OPERATOR_DEGREE"]

# Caps on the inputs whose cost grows with their value, checked while the
# arguments are parsed, so that one over the cap exits 2 before any loop.
# MAX_TERMS bounds every truncation order K (--K, each --K-list entry) and
# --oracle-N; pfd, the slowest sum, takes about 0.3 s at 10^6 terms.
# MAX_BERNOULLI_INDEX bounds n for bernoulli and faulhaber; a cold table
# up to B_1000 takes about 2.5 s, and antidiff never needs more, as parsed
# powers stop at MAX_PARSED_DEGREE = 1000.  MAX_ZETA_INDEX bounds --j by
# cost: j = 300 needs B_600 from a cold table, about 0.4 s.
# MAX_OPERATOR_DEGREE bounds the degree n of ode --coeffs (n + 1 numbers):
# each root-finder sweep costs O(n^2), and its worst case, all 200 sweeps
# without convergence, takes 0.46 s for (z-1)^90 against 0.55 s for
# (z-1)^100 (in-process, best of 5, 2-core Intel Xeon, Python 3.11).
MAX_TERMS = 10 ** 6
MAX_BERNOULLI_INDEX = 1000
MAX_ZETA_INDEX = 300
MAX_OPERATOR_DEGREE = 90

_DOMAIN_ERRORS = (DeltasolveError, ZeroDivisionError, OSError)

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
    from .polynomials import parse_polynomial
    try:
        return parse_polynomial(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial literal: {exc}")


def _complex_arg(text: str) -> complex:
    from .polynomials import parse_complex
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal: {exc}")


def _operator_arg(text: str):
    from .ode import CharacteristicPolynomial
    parts = text.split(",")
    degree = len(parts) - 1
    if degree > MAX_OPERATOR_DEGREE:
        raise argparse.ArgumentTypeError(
            f"operator degree {degree} must be <= {MAX_OPERATOR_DEGREE}")
    coeffs = [_complex_arg(part) for part in parts]
    try:
        return CharacteristicPolynomial(coeffs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _k_list_arg(text: str) -> list[int]:
    return [_truncation_order(part) for part in text.split(",")]


def _z_list_arg(text: str) -> list[complex]:
    return [_complex_arg(part) for part in text.split(",")]


# ----------------------------------------------------------------------
# subcommand handlers; each returns (plain, inputs, result)
# ----------------------------------------------------------------------

def _run_bernoulli(args):
    from .bernoulli import bernoulli
    from .rationals import format_rational
    value = format_rational(bernoulli(args.n))
    return value, {"n": args.n}, {"value": value}


def _run_faulhaber(args):
    from .bernoulli import faulhaber
    from .polynomials import format_polynomial
    rendered = format_polynomial(faulhaber(args.n))
    return rendered, {"n": args.n}, {"polynomial": rendered}


def _run_antidiff(args):
    from .bernoulli import antidifference_polynomial
    from .polynomials import format_polynomial
    rendered = format_polynomial(antidifference_polynomial(args.g))
    return rendered, {"g": format_polynomial(args.g)}, {"polynomial": rendered}


def _run_spectral(args):
    from .polynomials import format_polynomial, format_real_polynomial
    from .spectral import SpectralConfig, spectral_solve
    config = SpectralConfig(args.K, include_correction=not args.uncorrected)
    solution = spectral_solve(args.g, config)
    rendered = format_real_polynomial(solution.polynomial_part.real_coefficients())
    inputs = {"g": format_polynomial(args.g), "K": args.K,
              "include_correction": config.include_correction}
    return rendered, inputs, {"polynomial": rendered}


def _run_euler_gap(args):
    from .polynomials import format_polynomial
    from .spectral import euler_gap
    value = euler_gap(args.g, args.x, args.K)
    inputs = {"g": format_polynomial(args.g), "x": args.x, "K": args.K}
    return repr(value), inputs, {"value": value}


def _run_pfd(args):
    from .partial_fractions import pfd_eval
    from .polynomials import format_complex
    rendered = format_complex(pfd_eval(args.z, args.K))
    inputs = {"z": format_complex(args.z), "K": args.K}
    return rendered, inputs, {"value": rendered}


def _run_zeta(args):
    from .rationals import format_rational
    from .zeta import zeta_even_closed_form, zeta_partial_sum
    closed = zeta_even_closed_form(args.j)
    value = closed.value()
    coefficient = format_rational(closed.coefficient)
    plain = f"{coefficient}*pi^{closed.pi_power} = {value!r}"
    result = {"coefficient": coefficient, "pi_power": closed.pi_power,
              "value": value}
    if args.oracle_N is not None:
        lower, upper = zeta_partial_sum(args.j, args.oracle_N)
        contains = lower <= value <= upper
        plain += (f"\nbracket N={args.oracle_N}: [{lower!r}, {upper!r}] "
                  f"contains={str(contains).lower()}")
        result["bracket"] = [lower, upper]
        result["bracket_N"] = args.oracle_N
        result["contains"] = contains
    return plain, {"j": args.j, "oracle_N": args.oracle_N}, result


def _run_ode(args):
    from .ode import solve_linear_ode
    from .polynomials import (ComplexPolynomial, format_complex,
                              format_complex_polynomial, format_polynomial)
    solution = solve_linear_ode(args.coeffs, args.g)
    poly = solution.terms[0].polynomial if solution.terms else ComplexPolynomial.zero()
    rendered = format_complex_polynomial(poly)
    inputs = {"coeffs": [format_complex(c) for c in args.coeffs.coefficients],
              "g": format_polynomial(args.g)}
    return rendered, inputs, {"solution": rendered}


def _run_report(args):
    import csv

    from .polynomials import format_complex, format_polynomial
    from .reports import (AB_COMPARISON_HEADER, PFD_CONVERGENCE_HEADER,
                          RESIDUAL_DECAY_HEADER, ab_comparison_rows,
                          pfd_convergence_rows, residual_decay_rows)
    if args.study == "residual-decay":
        k_values = args.K_list or _DEFAULT_RESIDUAL_KS
        header = RESIDUAL_DECAY_HEADER
        rows = residual_decay_rows(args.g, k_values, threads=args.threads)
        inputs = {"study": args.study, "g": format_polynomial(args.g),
                  "K_list": list(k_values), "out": args.out}
    elif args.study == "pfd-convergence":
        k_values = args.K_list or _DEFAULT_SWEEP_KS
        z_values = args.z_list or _DEFAULT_PFD_ZS
        header = PFD_CONVERGENCE_HEADER
        rows = pfd_convergence_rows(z_values, k_values, threads=args.threads)
        inputs = {"study": args.study,
                  "z_list": [format_complex(z) for z in z_values],
                  "K_list": list(k_values), "out": args.out}
    else:
        k_values = args.K_list or _DEFAULT_SWEEP_KS
        n_values = list(range(1, args.n_max + 1))
        header = AB_COMPARISON_HEADER
        rows = ab_comparison_rows(n_values, k_values, threads=args.threads)
        inputs = {"study": args.study, "n_max": args.n_max,
                  "K_list": list(k_values), "out": args.out}
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return "", inputs, {"study": args.study, "rows": len(rows), "out": args.out}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"), default="plain",
                        help="output format (default: plain)")
    common.add_argument("--threads", type=_int_in(1), default=1,
                        help="accepted for compatibility; report rows are "
                             "computed serially, identically for any value")

    parser = argparse.ArgumentParser(
        prog="deltasolve",
        description="Exact and spectral solvers for f(x+1) - f(x) = g(x).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", parents=[common],
                       help="Bernoulli number B_n (B_1 = -1/2 convention)")
    p.add_argument("n", type=_bernoulli_index,
                   help=f"index, at most {MAX_BERNOULLI_INDEX}")
    p.set_defaults(run=_run_bernoulli)

    p = sub.add_parser("faulhaber", parents=[common],
                       help="power-sum polynomial for sum_{k=1}^{x} k^n")
    p.add_argument("n", type=_bernoulli_index,
                   help=f"power, at most {MAX_BERNOULLI_INDEX}")
    p.set_defaults(run=_run_faulhaber)

    p = sub.add_parser("antidiff", parents=[common],
                       help="exact antidifference: f with f(x+1)-f(x)=g, f(0)=0")
    p.add_argument("--g", type=_poly_arg, required=True,
                   help="polynomial with rational coefficients, e.g. '1/2*x^2 - x'")
    p.set_defaults(run=_run_antidiff)

    p = sub.add_parser("spectral", parents=[common],
                       help="truncated spectral solution of f(x+1)-f(x)=g")
    p.add_argument("--g", type=_poly_arg, required=True)
    p.add_argument("--K", type=_truncation_order, required=True,
                   help="mode truncation order (pairs 1 <= |k| <= K), at "
                        f"most {MAX_TERMS}")
    p.add_argument("--uncorrected", action="store_true",
                   help="omit the -g/2 correction term")
    p.set_defaults(run=_run_spectral)

    p = sub.add_parser("euler-gap", parents=[common],
                       help="uncorrected minus corrected solution at x (= g(x)/2)")
    p.add_argument("--g", type=_poly_arg, required=True)
    p.add_argument("--x", type=_float_arg, required=True)
    p.add_argument("--K", type=_truncation_order, required=True,
                   help=f"mode truncation order, at most {MAX_TERMS}")
    p.set_defaults(run=_run_euler_gap)

    p = sub.add_parser("pfd", parents=[common],
                       help="truncated partial-fraction value of 1/(e^z - 1)")
    p.add_argument("--z", type=_complex_arg, required=True,
                   help="complex literal a+bi, e.g. '0.5+0.5i'")
    p.add_argument("--K", type=_truncation_order, required=True,
                   help=f"pole pairs kept, at most {MAX_TERMS}")
    p.set_defaults(run=_run_pfd)

    p = sub.add_parser("zeta", parents=[common],
                       help="exact zeta(2j) as a rational multiple of pi^(2j)")
    p.add_argument("--j", type=_int_in(1, MAX_ZETA_INDEX), required=True,
                   help=f"the even argument 2j, 1 <= j <= {MAX_ZETA_INDEX}")
    p.add_argument("--oracle-N", dest="oracle_N", type=_int_in(2, MAX_TERMS),
                   default=None,
                   help=f"also print the N-term integral-test bracket, "
                        f"2 <= N <= {MAX_TERMS}; keep N modest for large j, "
                        "the width ~N^(1-2j) must stay above double rounding "
                        "for containment to be certifiable")
    p.set_defaults(run=_run_zeta)

    p = sub.add_parser("ode", parents=[common],
                       help="particular solution of a_0 f + a_1 f' + ... = g")
    p.add_argument("--coeffs", type=_operator_arg, required=True,
                   help="comma-separated complex literals a_0,...,a_n, "
                        f"n <= {MAX_OPERATOR_DEGREE} (the root finder's "
                        "worst case there takes about 0.46 s); use "
                        "--coeffs=-1,0,1 when the first one is negative")
    p.add_argument("--g", type=_poly_arg, required=True)
    p.set_defaults(run=_run_ode)

    p = sub.add_parser("report", parents=[common],
                       help="write a convergence-study CSV")
    p.add_argument("study", choices=("residual-decay", "pfd-convergence",
                                     "ab-comparison"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--g", type=_poly_arg, default="x^2",
                   help="forcing for residual-decay (default: x^2)")
    p.add_argument("--K-list", dest="K_list", type=_k_list_arg, default=None,
                   help=f"comma-separated truncation orders, each at most "
                        f"{MAX_TERMS}")
    p.add_argument("--z-list", dest="z_list", type=_z_list_arg, default=None,
                   help="comma-separated complex points for pfd-convergence")
    p.add_argument("--n-max", dest="n_max", type=_int_in(1, MAX_TABLE_ORDER),
                   default=6,
                   help="largest forcing degree for ab-comparison, at most "
                        f"{MAX_TABLE_ORDER} (default: 6)")
    p.set_defaults(run=_run_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
