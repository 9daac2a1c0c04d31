"""Steadiness mode: run workloads N times and compare spreads to bounds.

Each run is a child process started only after the previous one ended
(the VM has two cores; concurrent runs would time each other).  For every
end-to-end metric the report gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
``(q3 - q1) / median`` against the metric's bound in ``BENCHMARK.json``:
``steady`` below a third of the bound, ``within`` below the bound, and
``NOISY`` above it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a child process; returns its result
    line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def steady(n: int, workload: str = None, seconds: float = 10.0,
           first_seed: int = 1) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [workload] if workload else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    worst = "steady"
    for name in names:
        results = []
        for seed in range(first_seed, first_seed + n):
            t0 = time.perf_counter()
            result = run_once(name, seed, seconds)
            results.append(result)
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed "
                  f"{result['failed']} in {time.perf_counter() - t0:.1f} s",
                  flush=True)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            if s["spread"] <= bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within"
                worst = "within" if worst == "steady" else worst
            else:
                verdict = "NOISY"
                worst = "NOISY"
            print(f"{name:12s} {metric:18s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread "
                  f"{s['spread']:.4f} bound {bound} {verdict}", flush=True)
        if not all(r["correct"] for r in results):
            worst = "NOISY"
            print(f"{name}: some runs failed their output checks")
    print(f"overall: {worst}")
    return 0 if worst != "NOISY" else 1
