"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/series.py --label base --seeds 1-10 [--workload exact ...]

Each run is ``bench/run.py`` in a fresh process, one after another.  For
every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile range
over the median) against the metric's bound in BENCHMARK.json, and the
share of failed operations.  Everything is written to
``BENCH_<label>.json`` at the root of the checkout, with the git commit
when there is one, the Python version and ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, text=True, capture_output=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    out = {"label": args.label, "commit": _commit(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
           "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        out["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
        }
        print(f"\n{workload}: correct={out['workloads'][workload]['correct']} "
              f"failed_share={out['workloads'][workload]['failed_share']}")
        for name, s in summary.items():
            line = (f"  {name:26s} median {s['median']:.6g}  "
                    f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
            if s["spread"] is not None:
                line += f"  spread {s['spread']:.4f}"
            if bounds[name] is not None:
                line += f" (bound {bounds[name]})"
            print(line, flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
