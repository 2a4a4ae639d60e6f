"""The benchmark's own tests: seeded inputs, output checks, metric names.

Run with the repository's test command; they use small inputs only.
"""

from __future__ import annotations

import importlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from workloads import Op

workloads.import_program()

import checks  # noqa: E402  (needs the program on sys.path)
import run  # noqa: E402
import tracing  # noqa: E402
from deltasolve.ode import ExpPoly  # noqa: E402
from deltasolve.partial_fractions import laurent_from_modes  # noqa: E402
from deltasolve.polynomials import Polynomial  # noqa: E402
from deltasolve.spectral import (SpectralConfig, SpectralSolution,  # noqa: E402
                                 spectral_solve)
from deltasolve.zeta import ZetaClosedForm, verify_comparison  # noqa: E402

# The package re-exports the function ``bernoulli`` over the module's name.
bernoulli_module = importlib.import_module("deltasolve.bernoulli")

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())

G = (Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(5, 7))
K = 300
LIBRARY_OPS = [
    Op("antidiff", (G,)),
    Op("faulhaber", (7,)),
    Op("zeta_closed", (5,)),
    Op("bernoulli_cold", (60,)),
    Op("spectral", (G, K)),
    Op("residual", (G, (0.0, 0.25, 0.9), K), ref=4),
    Op("euler_gap", (G, -1.25, K)),
    Op("pfd", (complex(-0.5, 1.5), K)),
    Op("laurent", (3, K)),
    Op("laurent", (4, K)),
    Op("verify_comparison", (8, K)),
    Op("zeta_partial", (2, 60)),
    Op("ode", (workloads._operator_from_roots(
        random.Random(3), [1 + 1j, -2, 0.5 - 1j, 2j]), G)),
]


@pytest.fixture(autouse=True)
def _restore_shared_table(monkeypatch):
    """In-process CLI calls and the traced-count test replace the package's
    shared Bernoulli table; put the original back after each test."""
    monkeypatch.setattr(bernoulli_module, "_TABLE", bernoulli_module._TABLE)


def _bump_number(text: str) -> str:
    """Changes the first number that is not an exponent by about 1%."""
    match = next(m for m in re.finditer(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?", text)
                 if text[m.start() - 1:m.start()] != "^")
    token = match.group()
    bumped = str(int(token) + 1) if token.isdigit() else repr(float(token) * 1.01)
    return text[:match.start()] + bumped + text[match.end():]


def _perturb_library(op: Op, result):
    """A plausible wrong answer: an off-by-one truncation where there is
    one, a slightly wrong number elsewhere."""
    a = op.args
    if op.kind in ("antidiff", "faulhaber"):
        coeffs = list(result.coefficients)
        coeffs[-1] *= Fraction(1000001, 1000000)
        return Polynomial(coeffs)
    if op.kind == "zeta_closed":
        nudge = Fraction(10**12 + 1, 10**12)
        return ZetaClosedForm(result.j, result.coefficient * nudge, result.pi_power)
    if op.kind == "bernoulli_cold":
        return result + Fraction(1, 10**30)
    if op.kind == "spectral":
        fewer = spectral_solve(Polynomial(a[0]), SpectralConfig(a[1] - 1))
        return SpectralSolution(fewer.polynomial_part, SpectralConfig(a[1]))
    if op.kind == "residual":
        return [r + 1e-3 for r in result]
    if op.kind == "euler_gap":
        return result * (1 + 1e-9)
    if op.kind == "pfd":
        return result + 2 * checks.pfd_bound(a[0], a[1])
    if op.kind == "laurent":
        return laurent_from_modes(a[0], a[1] - 1) if a[0] % 2 else 1e-300 + 0j
    if op.kind == "verify_comparison":
        return verify_comparison(a[0], a[1] - 1)
    if op.kind == "zeta_partial":
        lo, hi = result
        return (hi, 2 * hi - lo)
    if op.kind == "ode":
        poly = result.terms[0].polynomial * (1 + 1e-6)
        return ExpPoly.from_terms([(0j, poly)])
    raise AssertionError(op.kind)


def _cli_ops(tmp_path):
    g = "1/2*x^2 - 3*x + 1/3"
    out = str(tmp_path / "r{}.csv")
    argvs = [
        ("bernoulli", "24"), ("faulhaber", "6"), ("antidiff", f"--g={g}"),
        ("spectral", f"--g={g}", "--K", "200"),
        ("euler-gap", f"--g={g}", "--x=-0.75", "--K", "50"),
        ("pfd", "--z=-0.5+1.5i", "--K", "400"),
        ("zeta", "--j", "3", "--oracle-N", "12"), ("zeta", "--j", "2"),
        ("ode", "--coeffs=2.0+0.0i,-3.0+0.0i,1.0+0.0i", f"--g={g}"),
        ("report", "residual-decay", f"--g={g}", "--K-list", "10,100",
         "--threads", "1", "--out", out.format(1)),
        ("report", "residual-decay", f"--g={g}", "--K-list", "10,100",
         "--threads", "2", "--out", out.format(2)),
        ("report", "pfd-convergence", "--z-list=1.0+0.5i,-0.5-1.0i",
         "--K-list", "100,300", "--out", out.format(3)),
        ("report", "ab-comparison", "--n-max", "4", "--K-list", "100",
         "--out", out.format(4)),
    ]
    ops = []
    for fmt in ("plain", "json"):
        for argv in argvs:
            ref = len(ops) - 1 if "--threads" in argv and "2" in argv else None
            ops.append(Op("cli", argv + ("--format", fmt), ref))
    return ops


def _perturb_cli(op: Op, result):
    """A slightly wrong number in the output: the CSV body for reports, the
    result field of a JSON envelope, otherwise the printed value."""
    code, stdout, *csvs = result
    if csvs:
        header, body = csvs[0].split("\n", 1)
        return (code, stdout, header + "\n" + _bump_number(body), csvs[1])
    if op.args[-1] == "json":
        envelope = json.loads(stdout)
        payload = envelope["result"]
        key = next(k for k, v in payload.items() if re.search(r"\d", str(v)))
        value = payload[key]
        payload[key] = (_bump_number(value) if isinstance(value, str)
                        else json.loads(_bump_number(json.dumps(value))))
        return (code, json.dumps(envelope) + "\n")
    return (code, _bump_number(stdout))


def _round(ops, runner, perturb_every_other=False):
    """One round through ``run.run_rounds``, optionally giving every op at
    an odd index a wrong result.  Pairs are completed from the true
    results, so a perturbed op fails only its own check."""
    class Perturbing:
        def __init__(self):
            self.true_results = []

        def cpu_seconds(self):
            return runner.cpu_seconds()

        def execute(self, op, results):
            return runner.execute(op, self.true_results)

        def collect(self, op, raw, results):
            result = runner.collect(op, raw, self.true_results)
            self.true_results.append(result)
            if perturb_every_other and len(self.true_results) % 2 == 0:
                perturb = _perturb_cli if op.kind == "cli" else _perturb_library
                return perturb(op, result)
            return result

    return run.run_rounds(ops, Perturbing(), checks.check, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_sequence(workload):
    first = workloads.make_ops(workload, 11)
    assert first == workloads.make_ops(workload, 11)
    assert first != workloads.make_ops(workload, 12)
    assert [op.kind for op in first] != [] and all(
        op.ref is None or op.ref < i for i, op in enumerate(first))


def test_library_checks_accept_results_and_reject_perturbed_ones():
    runner = workloads.Runner("modesum")
    results = []
    for op in LIBRARY_OPS:
        result = runner.execute(op, results)
        results.append(result)
        assert checks.check(op, result), op
        assert not checks.check(op, _perturb_library(op, result)), op


def test_cli_checks_accept_results_and_reject_perturbed_ones(tmp_path):
    runner = workloads.Runner("cli", in_process_cli=True)
    results = []
    for op in _cli_ops(tmp_path):
        result = runner.collect(op, runner.execute(op, results), results)
        results.append(result)
        assert checks.check(op, result), op
        assert not checks.check(op, _perturb_cli(op, result)), op


@pytest.mark.parametrize("kind", ["library", "cli"])
def test_run_counts_perturbed_operations_as_failed(kind, tmp_path):
    if kind == "library":
        ops, runner = LIBRARY_OPS, workloads.Runner("modesum")
    else:
        ops, runner = _cli_ops(tmp_path), workloads.Runner("cli", in_process_cli=True)
    clean = _round(ops, runner)
    assert (clean.attempted, clean.failed, clean.wrong) == (len(ops), 0, 0)
    perturbed = _round(ops, runner, perturb_every_other=True)
    assert perturbed.attempted == len(ops)
    assert perturbed.failed == perturbed.wrong == len(ops) // 2


def test_an_operation_that_raises_is_failed_but_not_wrong():
    runner = workloads.Runner("modesum")
    stats = run.run_rounds([Op("laurent", (-1, 10)), Op("laurent", (1, 10))],
                           runner, checks.check, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 1, 0)


def test_metric_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.END_TO_END == end_to_end
    assert tracing.PER_LAYER == per_layer
    stats = run.Stats([0.1] * 20 + [0.3] * 5, 1.0, 25, 0, 0)
    assert set(run.end_to_end(stats, 0.5, 20480)) == set(end_to_end)
    printed = tracing.Tracer().metrics({})
    assert {k: v["unit"] for k, v in printed.items()} == per_layer


def test_traced_counts_repeat_exactly():
    def counts():
        # A fresh shared table, as in the fresh process of a traced run.
        bernoulli_module._TABLE = bernoulli_module.BernoulliTable()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_rounds(LIBRARY_OPS, workloads.Runner("modesum"),
                           tracer.paused(checks.check), 0)
        finally:
            tracer.uninstall()
        return {k: v["value"] for k, v in tracer.metrics({}).items()
                if v["unit"] == "count"}

    first = counts()
    assert first == counts()
    assert first["spectral.solve_calls"] == 3  # one solve, two in euler_gap
    assert first["spectral.mode_integrals"] > 0
