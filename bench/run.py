"""Benchmark of deltasolve: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {exact,modesum,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from the ``src`` directory next
to ``bench``.  A run replays the seed's operation sequence in whole rounds,
one operation at a time (a closed loop with one client), until the timed
intervals add up to ``--seconds``.  Each result is checked outside its
timed interval (see checks.py); a result that is wrong, or an operation
that raised or exited non-zero, counts as failed.

With ``--trace 0`` the last line holds the end-to-end metrics.  Set-up time
is the median of several fresh processes that each start the interpreter,
import the program, generate the inputs, warm up and report ready.  Every
end-to-end time is given at a reference machine speed, measured by the
benchmark's own reference work run alongside the operations (see
``SpeedReference``).

With ``--trace 1`` one round runs with per-layer spans (tracing.py) and is
then repeated untraced; the difference of the two, both at the reference
speed, is the tracing overhead.
On ``cli`` the traced round calls ``deltasolve.cli.main`` in-process, and
the interpreter start and import times come from fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import workloads
from workloads import OpError

BENCH = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

SETUP_PROBES = 11
INTERPRETER_PROBES = 5

# Reference work runs for this share of every timed interval, right after it.
REFERENCE_SHARE = 0.3


def _wall(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=workloads.ROOT, env=workloads.child_env(),
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def reference_work() -> None:
    """A fixed slice of pure-Python work of the kinds the program does:
    integer and float loops, Fraction sums, short lists of complex numbers.
    It is the benchmark's own code, so no change to the program moves it."""
    acc, x = 0, 0.0
    for i in range(1, 3000):
        acc += (i * i) % 7
        x += 1.0 / (i * i)
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction((-1) ** i, i * i + 1)
    for k in range(1, 120):
        a = complex(0.0, 6.283185307179586 * k)
        c = [-1.0 / a]
        for j in range(6, 0, -1):
            c.append(c[-1] * j / a)


def start_bare_interpreter() -> None:
    """``python -c pass``: the process start-up that dominates every
    operation and set-up probe of ``cli``."""
    _wall([sys.executable, "-c", "pass"])


# Reference work per workload, and the duration of one call of it at the
# reference speed: medians on the 2-vCPU Xeon VM (Python 3.11.7) where the
# bounds were set.  Over 15 rounds of ``cli`` the bare interpreter's speed
# correlated 0.81 with the round times (reference_work: 0.61).
REFERENCES = {
    "exact": (reference_work, 0.0009),
    "modesum": (reference_work, 0.0009),
    "cli": (start_bare_interpreter, 0.075),
}


class SpeedReference:
    """The machine's speed over a stretch of operations.

    The VM these figures come from drifts by a fifth or more in speed over
    minutes, so the same code measures differently from run to run.  After
    each timed interval this runs the workload's reference work for
    REFERENCE_SHARE of that interval, so the reference sees the same
    stretches of machine time as the operations, weighted alike.
    ``factor()`` turns measured seconds into seconds at the reference
    speed.  Over 15 rounds of ``exact`` the reference's speed correlated
    0.98 with the round times, and scaling cut their coefficient of
    variation from 0.135 to 0.027.
    """

    def __init__(self, workload: str) -> None:
        self.work, self.unit_s = REFERENCES[workload]
        self.seconds = 0.0
        self.units = 0
        self._owed = 0.0

    def follow(self, elapsed: float) -> None:
        self._owed += REFERENCE_SHARE * elapsed
        while self._owed > 0:
            start = time.perf_counter()
            self.work()
            took = time.perf_counter() - start
            self.seconds += took
            self.units += 1
            self._owed -= took

    def factor(self) -> float:
        return self.unit_s * self.units / self.seconds if self.units else 1.0


class Stats(NamedTuple):
    latencies: list[float]
    cpu_seconds: float
    attempted: int
    failed: int
    wrong: int


def run_rounds(ops, runner, check, seconds: float,
               scale_for: str | None = None) -> Stats:
    """Whole rounds of ``ops`` until the timed intervals reach ``seconds``
    (or the wall clock twice that).

    At least one round runs.  A check's verdict is kept per op and reused
    while that op keeps returning an equal result, so later rounds pay for
    a comparison rather than a fresh independent computation.  With a
    workload name in ``scale_for`` each round's times are converted to the
    reference speed by a SpeedReference that follows that round's
    operations.
    """
    latencies: list[float] = []
    began = time.perf_counter()
    cpu = 0.0
    attempted = failed = wrong = 0
    verdicts: dict[int, tuple[object, bool]] = {}
    while True:
        results: list = [None] * len(ops)
        reference = SpeedReference(scale_for) if scale_for else None
        round_start = len(latencies)
        round_cpu = 0.0
        for i, op in enumerate(ops):
            cpu_start = runner.cpu_seconds()
            start = time.perf_counter()
            try:
                raw = runner.execute(op, results)
            except Exception as exc:  # a failed operation, not a failed run
                raw = OpError(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            round_cpu += runner.cpu_seconds() - cpu_start
            latencies.append(elapsed)
            if reference is not None:
                reference.follow(elapsed)
            attempted += 1
            result = results[i] = runner.collect(op, raw, results)
            if _errored(op, result):
                failed += 1
                continue
            seen = verdicts.get(i)
            if seen is None or seen[0] != result:
                try:
                    ok = bool(check(op, result))
                except Exception:  # malformed output
                    ok = False
                seen = verdicts[i] = (result, ok)
            if not seen[1]:
                failed += 1
                wrong += 1
        factor = reference.factor() if reference is not None else 1.0
        latencies[round_start:] = [t * factor for t in latencies[round_start:]]
        cpu += round_cpu * factor
        # The wall-clock cap keeps a run short once operations get so fast
        # that the untimed output checks outweigh them.
        if (sum(latencies) >= seconds
                or time.perf_counter() - began >= 2 * seconds):
            return Stats(latencies, cpu, attempted, failed, wrong)


def _errored(op, result) -> bool:
    if isinstance(result, OpError):
        return True
    return op.kind == "cli" and result[0] != 0


def prepare(workload: str, seed: int, in_process_cli: bool = False):
    """Everything between interpreter start and the first timed op."""
    ops = workloads.make_ops(workload, seed)
    runner = workloads.Runner(workload, in_process_cli)
    runner.prepare(ops)
    return ops, runner


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh set-up process to its "ready",
    each at the reference speed measured right after it."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=workloads.ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        reference = SpeedReference(workload)
        reference.follow(elapsed)
        samples.append(elapsed * reference.factor())
    return statistics.median(samples)


def end_to_end(stats: Stats, setup: float, rss_kb: float) -> dict[str, float]:
    completed = stats.attempted - stats.failed
    return {
        "setup_s": setup,
        "throughput_ops_per_s": completed / sum(stats.latencies),
        "latency_p50_s": statistics.median(stats.latencies),
        "latency_p90_s": statistics.quantiles(stats.latencies, n=10)[8],
        "cpu_s_per_op": stats.cpu_seconds / stats.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }


def untraced_run(workload: str, seed: int, seconds: float):
    import checks

    ops, runner = prepare(workload, seed)
    stats = run_rounds(ops, runner, checks.check, seconds, scale_for=workload)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = end_to_end(stats, setup_seconds(workload, seed), rss_kb)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return stats, metrics


def traced_run(workload: str, seed: int):
    import checks
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ops, runner = prepare(workload, seed, in_process_cli=True)
        traced = run_rounds(ops, runner, tracer.paused(checks.check), 0,
                            scale_for=workload)
    finally:
        tracer.uninstall()
    # Both rounds at the reference speed, so that the machine's drift between
    # them does not pass for tracing overhead.
    plain = run_rounds(ops, runner, checks.check, 0, scale_for=workload)
    extra = {"trace.overhead_s": sum(traced.latencies) - sum(plain.latencies)}
    if workload == "cli":
        python = [sys.executable, "-c"]
        bare = statistics.median(_wall(python + ["pass"])
                                 for _ in range(INTERPRETER_PROBES))
        imported = statistics.median(_wall(python + ["import deltasolve.cli"])
                                     for _ in range(INTERPRETER_PROBES))
        extra.update({"cli.interpreter_s": bare, "cli.import_s": imported - bare,
                      "cli.main_s": sum(traced.latencies)})
    stats = Stats(traced.latencies + plain.latencies,
                  traced.cpu_seconds + plain.cpu_seconds,
                  traced.attempted + plain.attempted,
                  traced.failed + plain.failed, traced.wrong + plain.wrong)
    return stats, tracer.metrics(extra)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads.import_program()
    if args.setup_only:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        stats, metrics = traced_run(args.workload, args.seed)
    else:
        stats, metrics = untraced_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": stats.wrong == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
