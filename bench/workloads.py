"""Seeded operation sequences for the three workloads, and their execution.

An operation is plain data: a kind, its arguments, and optionally the index
of an earlier operation in the same round whose result it consumes.  Sizes
that set an operation's cost (degrees, table indices, orders) form the same
multiset for every seed; K values are log-spaced with a small seeded
jitter.  The seed draws everything else: coefficients, evaluation points,
roots, and the order of the round.  So any two seeds give the same amount
and kind of work on different inputs, which keeps the run-to-run spread
of the latency quantiles small without replaying one fixed input list.

The program receives only these generated inputs: polynomials are built as
``deltasolve.polynomials.Polynomial`` from benchmark-made Fractions, and CLI
argv strings are written by the benchmark's own formatter, not by the
program's.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "deltasolve-bench"

WORKLOADS = ("exact", "modesum", "cli")


class Op(NamedTuple):
    kind: str
    args: tuple
    ref: int | None = None


class OpError(NamedTuple):
    """Stands in for the result of an operation that raised."""

    text: str


# ----------------------------------------------------------------------
# sizes and seeded draws
# ----------------------------------------------------------------------

def _spread(n: int, lo: int, hi: int) -> list[int]:
    """n integers covering lo..hi as evenly as n allows; the same for every
    seed, so a round's sizes (and so its cost) do not depend on the seed."""
    return [lo + i * (hi - lo + 1) // n for i in range(n)]


def _log_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers log-spaced over [lo, hi], in ascending order.

    Each sits near the centre of its stratum, moved by the seed within a
    tenth of the stratum's width: distinct values from a continuous range,
    yet nearly the same cost for every seed.
    """
    a, b = math.log10(lo), math.log10(hi)
    return [int(round(10 ** (a + (i + 0.5 + 0.2 * (rng.random() - 0.5))
                             * (b - a) / n))) for i in range(n)]


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-20, 20)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randint(1, 20)
    return Fraction(num, rng.randint(1, 12))


def _forcing(rng, degree):
    """Dense rational coefficients, ascending, nonzero leading coefficient."""
    return tuple(_rational(rng) for _ in range(degree)) + (_rational(rng, True),)


def _point_away_from_poles(rng):
    """z with 0.3 <= |z| <= 3; every nonzero pole 2*pi*i*k is farther than 3."""
    radius = rng.uniform(0.3, 3.0)
    angle = rng.uniform(-math.pi, math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _distinct_roots(rng, degree):
    """degree points in |r| <= 2.5, pairwise at least 0.5 apart."""
    roots: list[complex] = []
    while len(roots) < degree:
        r = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(r) <= 2.5 and all(abs(r - s) >= 0.5 for s in roots):
            roots.append(r)
    return roots


def _operator_from_roots(rng, roots):
    """Ascending coefficients of lead * prod (z - r)."""
    coeffs = [complex(rng.uniform(0.5, 2.0))]
    for r in roots:
        shifted = [0j] + coeffs
        for i in range(len(coeffs)):
            shifted[i] -= r * coeffs[i]
        coeffs = shifted
    return tuple(coeffs)


def _shuffle_units(rng, units):
    """Shuffle groups of ops, keep each group's order, fix up ref indices."""
    rng.shuffle(units)
    ops: list[Op] = []
    for unit in units:
        base = len(ops)
        for op in unit:
            ref = None if op.ref is None else base + op.ref
            ops.append(op._replace(ref=ref))
    return ops


# ----------------------------------------------------------------------
# the three workloads
# ----------------------------------------------------------------------

# Largest Bernoulli index any warm-table operation of ``exact`` reads:
# faulhaber(60) and zeta(2j) for j <= 30 need B_60, antidifference at
# degree 40 needs B_40.
EXACT_WARM_INDEX = 60
# coefficient_tables(n <= 12) reads B_2..B_12 from the shared table.
MODESUM_WARM_INDEX = 12


def exact_ops(seed: int) -> list[Op]:
    """64 antidifferences, 24 faulhaber, 24 zeta closed forms, 16 cold tables.

    The zeta and faulhaber calls are the cheapest 48 of the 128.  The next
    17 antidifferences all have degree 13..15, so the median lands on a
    plateau of near-equal costs; the largest antidifferences and the cold
    tables (n = 100..200) make up the top fifth, where the 90th percentile
    lands.
    """
    rng = random.Random(f"exact/{seed}")
    units = []
    degrees = _spread(8, 5, 12) + _spread(17, 13, 15) + _spread(39, 16, 40)
    for degree in degrees:
        units.append([Op("antidiff", (_forcing(rng, degree),))])
    for n in _spread(24, 1, 60):
        units.append([Op("faulhaber", (n,))])
    for j in _spread(24, 1, EXACT_WARM_INDEX // 2):
        units.append([Op("zeta_closed", (j,))])
    for n in _spread(16, 100, 200):
        units.append([Op("bernoulli_cold", (n,))])
    return _shuffle_units(rng, units)


# Safe oracle sizes: the integral-test bracket for zeta(2j) is about
# N^(-2j) wide and must stay far above the rounding of the N-term sum.
_PARTIAL_SUM_N = {1: (1000, 30000), 2: (50, 300), 3: (10, 40), 4: (5, 15)}


def _near(rng: random.Random, x: float) -> int:
    """x moved by the seed by up to 5% either way."""
    return int(round(x * (1 + 0.1 * (rng.random() - 0.5))))


def modesum_ops(seed: int) -> list[Op]:
    """Mode-sum calls with K from continuous ranges.

    * 12 spectral solves, degrees 1..12, each followed by a residual check
      of its own solution on 16 points, and 6 Euler gaps, degrees 1..6.
      A solve costs about K (7 d + 6) units, so K = 8000 * 13 / (7 d + 6)
      (1156..8000; half that for an Euler gap, which solves twice) gives
      all 18 about the same cost: the top block, holding the 90th
      percentile.
    * 32 pfd evaluations, K log-spaced over 1e4..1e5.
    * 24 Laurent coefficients (j = 0..11, K log-spaced over 2e4..4e4) and
      16 coefficient-table comparisons (n = 2..12, K = 24000 / (n // 2)):
      the odd-j Laurent sums and the comparisons cost about the same and
      hold the median.
    * 24 zeta partial sums and 8 ODE solves (degree 3..12), both cheap.
    """
    rng = random.Random(f"modesum/{seed}")
    units = []
    for degree in range(1, 13):
        K = _near(rng, 8000 * 13 / (7 * degree + 6))
        points = tuple(sorted(rng.random() for _ in range(16)))
        g = _forcing(rng, degree)
        units.append([Op("spectral", (g, K)),
                      Op("residual", (g, points, K), ref=0)])
    for degree in range(1, 7):
        K = _near(rng, 4000 * 13 / (7 * degree + 6))
        units.append([Op("euler_gap", (_forcing(rng, degree),
                                       rng.uniform(-2.0, 2.0), K))])
    for K in _log_strata(rng, 32, 10000, 100000):
        units.append([Op("pfd", (_point_away_from_poles(rng), K))])
    for j, K in zip(_spread(24, 0, 11), _log_strata(rng, 24, 20000, 40000)):
        units.append([Op("laurent", (j, K))])
    for n in _spread(16, 2, 12):
        units.append([Op("verify_comparison", (n, _near(rng, 24000 / (n // 2))))])
    for j in _spread(24, 1, 4):
        lo, hi = _PARTIAL_SUM_N[j]
        units.append([Op("zeta_partial", (j, _log_strata(rng, 1, lo, hi)[0]))])
    for degree in _spread(8, 3, 12):
        coeffs = _operator_from_roots(rng, _distinct_roots(rng, degree))
        units.append([Op("ode", (coeffs, _forcing(rng, rng.randint(0, 4))))])
    return _shuffle_units(rng, units)


def _poly_text(coeffs) -> str:
    """Benchmark-side rendering in the documented rational grammar."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = "x" if power == 1 else f"x^{power}"
            body = x if mag == 1 else f"{mag}*{x}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def _complex_text(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def cli_ops(seed: int) -> list[Op]:
    """Two invocations of each of the eight computing subcommands per format
    plus five report studies: 40 subprocesses a round.

    Values that may start with "-" are passed as ``--flag=value``, the form
    the CLI documents for them.  Every report writes its CSV into the
    scratch directory; residual-decay
    runs as a pair with --threads 1 then --threads 2 on the same inputs,
    and the second op of the pair holds a ref to the first so their CSVs
    can be compared.
    """
    rng = random.Random(f"cli/{seed}")
    units = []
    formats = ("plain", "json")
    fmt_cycle = formats * 2

    def argv(fmt, *words):
        return tuple(words) + ("--format", fmt)

    for fmt, n in zip(fmt_cycle, _spread(4, 10, 120)):
        units.append([Op("cli", argv(fmt, "bernoulli", str(n)))])
    for fmt, n in zip(fmt_cycle, _spread(4, 5, 40)):
        units.append([Op("cli", argv(fmt, "faulhaber", str(n)))])
    for fmt, d in zip(fmt_cycle, _spread(4, 3, 12)):
        g = _poly_text(_forcing(rng, d))
        units.append([Op("cli", argv(fmt, "antidiff", f"--g={g}"))])
    for fmt, d, K in zip(fmt_cycle, _spread(4, 1, 4),
                         _log_strata(rng, 4, 100, 2000)):
        g = _poly_text(_forcing(rng, d))
        units.append([Op("cli", argv(fmt, "spectral", f"--g={g}", "--K", str(K)))])
    for fmt, d, K in zip(fmt_cycle, _spread(4, 1, 4),
                         _log_strata(rng, 4, 10, 500)):
        g = _poly_text(_forcing(rng, d))
        x = repr(rng.uniform(-2.0, 2.0))
        units.append([Op("cli", argv(fmt, "euler-gap", f"--g={g}", f"--x={x}",
                                     "--K", str(K)))])
    for fmt, K in zip(fmt_cycle, _log_strata(rng, 4, 100, 10000)):
        z = _complex_text(_point_away_from_poles(rng))
        units.append([Op("cli", argv(fmt, "pfd", f"--z={z}", "--K", str(K)))])
    for i, (fmt, j) in enumerate(zip(fmt_cycle, _spread(4, 1, 6))):
        words = ["zeta", "--j", str(j)]
        if i % 2 == 0:
            n_terms = rng.randint(50, 2000) if j == 1 else rng.randint(5, 20)
            words += ["--oracle-N", str(n_terms)]
        units.append([Op("cli", argv(fmt, *words))])
    for fmt, d in zip(fmt_cycle, _spread(4, 2, 5)):
        coeffs = _operator_from_roots(rng, _distinct_roots(rng, d))
        text = ",".join(_complex_text(c) for c in coeffs)
        g = _poly_text(_forcing(rng, rng.randint(0, 3)))
        units.append([Op("cli", argv(fmt, "ode", f"--coeffs={text}", f"--g={g}"))])
    for fmt in formats:
        g = _poly_text(_forcing(rng, rng.randint(1, 3)))
        ks = ",".join(str(k) for k in _log_strata(rng, 3, 10, 1000))
        units.append([
            Op("cli", argv(fmt, "report", "residual-decay", f"--g={g}",
                           "--K-list", ks, "--threads", "1", "--out", "")),
            Op("cli", argv(fmt, "report", "residual-decay", f"--g={g}",
                           "--K-list", ks, "--threads", "2", "--out", ""),
               ref=0),
        ])
    zs = ",".join(_complex_text(_point_away_from_poles(rng)) for _ in range(2))
    ks = ",".join(str(k) for k in _log_strata(rng, 2, 100, 5000))
    units.append([Op("cli", argv("plain", "report", "pfd-convergence",
                                 f"--z-list={zs}", "--K-list", ks, "--out", ""))])
    ks = ",".join(str(k) for k in _log_strata(rng, 2, 100, 2000))
    units.append([Op("cli", argv("json", "report", "ab-comparison", "--n-max",
                                 str(rng.randint(3, 6)), "--K-list", ks,
                                 "--out", ""))])
    ops = _shuffle_units(rng, units)
    # Each report gets its own output file, named by its position.
    for i, op in enumerate(ops):
        if "--out" in op.args:
            args = list(op.args)
            args[args.index("--out") + 1] = str(SCRATCH / f"report-{i}.csv")
            ops[i] = op._replace(args=tuple(args))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    return {"exact": exact_ops, "modesum": modesum_ops, "cli": cli_ops}[workload](seed)


def k_repeat_share(ops: list[Op]) -> float:
    """Share of K-carrying mode-sum ops whose K also occurs in another op.

    A residual op reuses the solution of its spectral op and computes no
    modes, so it is not counted.
    """
    ks = [op.args[-1] for op in ops
          if op.kind in ("spectral", "euler_gap", "pfd", "laurent",
                         "verify_comparison")]
    return sum(ks.count(k) > 1 for k in ks) / len(ks)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def import_program():
    """Import ``deltasolve`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "deltasolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no deltasolve sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import deltasolve
    if Path(deltasolve.__file__).resolve().parent != SRC / "deltasolve":
        raise SystemExit(f"error: deltasolve imported from {deltasolve.__file__}")
    return deltasolve


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Executes ops of one workload; the library is looked up at call time
    so that tracing wrappers installed on module attributes take effect."""

    def __init__(self, workload: str, in_process_cli: bool = False):
        # Modules by name: the package re-exports ``bernoulli`` the function
        # under the same name as ``deltasolve.bernoulli`` the module.
        self.ds = SimpleNamespace(**{
            name: importlib.import_module(f"deltasolve.{name}")
            for name in ("bernoulli", "cli", "ode", "partial_fractions",
                         "polynomials", "spectral", "zeta")})
        self.Polynomial = self.ds.polynomials.Polynomial
        self.workload = workload
        self.in_process_cli = in_process_cli
        self.env = child_env()
        self._polys: dict[tuple, object] = {}

    def poly(self, coeffs):
        """The program-side Polynomial for a coefficient tuple, built once."""
        p = self._polys.get(coeffs)
        if p is None:
            p = self._polys[coeffs] = self.Polynomial(coeffs)
        return p

    def prepare(self, ops: list[Op]) -> None:
        """Input conversion and warm-up: everything before the first timed op."""
        for op in ops:
            if op.kind in ("antidiff", "spectral", "residual", "euler_gap", "ode"):
                self.poly(op.args[0] if op.kind != "ode" else op.args[1])
        ds = self.ds
        if self.workload == "exact":
            ds.bernoulli.bernoulli(EXACT_WARM_INDEX)
        elif self.workload == "modesum":
            ds.bernoulli.bernoulli(MODESUM_WARM_INDEX)
        else:
            SCRATCH.mkdir(parents=True, exist_ok=True)
            # Writes the bytecode cache a first invocation in a fresh
            # checkout would otherwise compile inside a timed op.
            self.execute(Op("cli", ("bernoulli", "2")), [])

    def cpu_seconds(self) -> float:
        """CPU time charged to the operations: children's on ``cli``."""
        if self.workload == "cli" and not self.in_process_cli:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime
        return time.process_time()

    def execute(self, op: Op, results: list):
        ds = self.ds
        a = op.args
        kind = op.kind
        if kind == "antidiff":
            return ds.bernoulli.antidifference_polynomial(self.poly(a[0]))
        if kind == "faulhaber":
            return ds.bernoulli.faulhaber(a[0])
        if kind == "zeta_closed":
            return ds.zeta.zeta_even_closed_form(a[0])
        if kind == "bernoulli_cold":
            return ds.bernoulli.BernoulliTable().value(a[0])
        if kind == "spectral":
            return ds.spectral.spectral_solve(self.poly(a[0]),
                                              ds.spectral.SpectralConfig(a[1]))
        if kind == "residual":
            return ds.spectral.difference_residual(results[op.ref],
                                                   self.poly(a[0]), a[1])
        if kind == "euler_gap":
            return ds.spectral.euler_gap(self.poly(a[0]), a[1], a[2])
        if kind == "pfd":
            return ds.partial_fractions.pfd_eval(a[0], a[1])
        if kind == "laurent":
            return ds.partial_fractions.laurent_from_modes(a[0], a[1])
        if kind == "verify_comparison":
            return ds.zeta.verify_comparison(a[0], a[1])
        if kind == "zeta_partial":
            return ds.zeta.zeta_partial_sum(a[0], a[1])
        if kind == "ode":
            return ds.ode.solve_linear_ode(
                ds.ode.CharacteristicPolynomial(a[0]), self.poly(a[1]))
        if kind == "cli":
            return self._cli(a)
        raise ValueError(f"unknown op kind {kind!r}")

    def _cli(self, argv):
        if self.in_process_cli:
            # A fresh table per call, as every CLI process starts with one.
            self.ds.bernoulli._TABLE = self.ds.bernoulli.BernoulliTable()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.ds.cli.main(list(argv))
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "deltasolve", *argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout

    def collect(self, op: Op, raw, results: list):
        """Completes a result outside its timed interval: a report's CSV and,
        for the second of a --threads pair, the first one's CSV."""
        if op.kind != "cli" or isinstance(raw, OpError) or "--out" not in op.args:
            return raw
        path = Path(op.args[op.args.index("--out") + 1])
        csv_text = path.read_text() if path.is_file() else None
        paired = None
        if op.ref is not None and not isinstance(results[op.ref], OpError):
            paired = results[op.ref][2]
        return raw + (csv_text, paired)
