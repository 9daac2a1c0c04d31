#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bert-dp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the separate
traced run that prints the per-layer metrics and writes a Chrome trace
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits non-zero when any output check fails.

``--steady N`` instead runs every workload (or the one named) N times with
seeds 1..N in child processes, one after another, and prints each metric's
median and quartiles against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-up is repeated this many times in an untraced run; ``setup_s``
#: reports the median (the import is paid once per process).
SETUP_REPS = 3
MIN_TRACED_PAIRS = 2
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "ttft_p50_ms": "ms", "ttft_p99_ms": "ms",
    "tpot_p50_ms": "ms", "tpot_p99_ms": "ms",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "throughput_rps": "req/s", "tokens_per_s": "tok/s",
    "slo_attainment": "frac", "slo_rate_rps": "req/s",
    "completed_frac": "frac", "setup_s": "s",
    "host_cost_per_req": "ref/req", "host_peak_rss_mb": "MB",
}


def _fixed_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` so set and dict orders that
    depend on string hashes repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="steadiness mode: N runs per workload")
    args = p.parse_args(argv)
    if not args.steady and args.workload is None:
        p.error("--workload is required")
    return args


def _say(line: str) -> None:
    print(line, flush=True)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rep_line(rep) -> str:
    return (f"wall {rep.wall_s:.6f} s, {len(rep.samples_s)} reference "
            f"snippets taking {rep.sampled_s:.6f} s (mean "
            f"{rep.sampled_s / max(1, len(rep.samples_s)) * 1e3:.4f} ms) "
            f"-> {rep.work:.2f} ref")


class Run:
    """State of one benchmark run: the workload, its system, and every
    problem the output checks found."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.system = None

    def setup(self, timed=None) -> None:
        """Build the workload's system, inside ``timed`` if given."""
        import contextlib

        from perfbench.workloads import build_system

        with timed if timed is not None else contextlib.nullcontext():
            self.system = build_system(self.workload, self.seed)

    def serve(self, traffic, timed=None):
        """One serve on fresh requests, inside ``timed`` if given; returns
        ``(outcome, bad_req_ids)`` after checking the outputs."""
        import contextlib

        from perfbench.workloads import check_outcome

        requests = traffic.requests()
        with timed if timed is not None else contextlib.nullcontext():
            outcome = self.system.serve(requests, traffic.horizon_s)
        bad, problems = check_outcome(self.workload, outcome)
        self.problems.extend(problems[:20])
        return outcome, bad

    def count(self, outcome, bad) -> None:
        self.attempted += len(outcome.requests)
        self.failed += sum(1 for r in outcome.requests
                           if not r.is_completed or r.req_id in bad)

    def check_traffic(self) -> None:
        """gen-shared and gen-unique must see identical arrivals and
        lengths at their (common) nominal rate: only prompt content may
        differ."""
        import numpy as np

        from perfbench.workloads import NOMINAL_PARTS, WORKLOADS

        if self.workload.name not in ("gen-shared", "gen-unique"):
            return
        for k in range(NOMINAL_PARTS):
            shared, unique = (WORKLOADS[name].traffic(
                self.seed, WORKLOADS[name].nominal_rps, salt=k)
                for name in ("gen-shared", "gen-unique"))
            for field in ("arrivals", "seq_lens", "max_new_tokens"):
                if not np.array_equal(getattr(shared, field),
                                      getattr(unique, field)):
                    self.problems.append(
                        f"traffic part {k}: gen-shared and gen-unique "
                        f"{field} differ")


def _ladder(run: Run, nominal_parts) -> list:
    """Rung results for the whole ladder; the nominal rung pools the
    timed parts, every other rung serves part 0 at its rate once."""
    from perfbench.workloads import rung_result

    w = run.workload
    rungs = []
    for rate in w.ladder_rps:
        if rate == w.nominal_rps:
            parts = nominal_parts
        else:
            traffic = w.traffic(run.seed, rate)
            outcome, bad = run.serve(traffic)
            run.count(outcome, bad)
            parts = [(outcome, traffic.horizon_s, bad)]
        rungs.append(rung_result(w, rate, parts))
    return rungs


def untraced(run: Run, seconds: float, importing) -> dict:
    from statistics import mean

    from perfbench.hostclock import (Timed, median_work, reference_seconds,
                                     time_serves)
    from perfbench.workloads import NOMINAL_PARTS, digest, percentile

    w = run.workload
    setups = []
    for _ in range(SETUP_REPS):
        timed = Timed()
        run.setup(timed)
        setups.append(timed.rep)
    # Set-up is timed like the serves, in reference-snippet runs, and read
    # back as seconds at the reference speed (see hostclock).
    setup_s = reference_seconds(importing.work + median_work(setups))
    run.check_traffic()
    parts = [w.traffic(run.seed, w.nominal_rps, salt=k)
             for k in range(NOMINAL_PARTS)]
    first = {}
    digests = {k: set() for k in range(NOMINAL_PARTS)}

    def server(k: int):
        def serve(timed) -> None:
            outcome, bad = run.serve(parts[k], timed)
            digests[k].add(digest(outcome))
            if k not in first:
                first[k] = (outcome, parts[k].horizon_s, bad)
                run.count(outcome, bad)
        return serve

    reps = time_serves([server(k) for k in range(NOMINAL_PARTS)], seconds,
                       min_rounds=1)
    for k, seen in digests.items():
        if len(seen) != 1:
            run.problems.append(
                f"nominal part {k} not deterministic: {len(seen)} distinct "
                f"outcomes over {len(reps[k])} repetitions")
    rungs = _ladder(run, [first[k] for k in range(NOMINAL_PARTS)])
    nominal = next(r for r in rungs if r.rate == w.nominal_rps)

    _say(f"workload {w.name} seed {run.seed}: open loop, Poisson arrivals "
         f"precomputed on the virtual clock (generator lateness 0 s)")
    _say(f"set-up import: {_rep_line(importing)}")
    for i, rep in enumerate(setups):
        _say(f"set-up {i}: {_rep_line(rep)}")
    for rnd in range(len(reps[0])):
        for k in range(NOMINAL_PARTS):
            _say(f"timed serve {rnd}.{k}: {_rep_line(reps[k][rnd])}")
    for r in rungs:
        _say(f"rung {r.rate:g} req/s: sent {r.sent} completed {r.completed} "
             f"slo_attainment {r.attainment:.4f} backlog_growing "
             f"{r.backlog_growing} meets_slo {r.meets_slo} kv_denials "
             f"{r.kv_denials} queue_wait_p99 "
             f"{percentile(r.queue_ms, 0.99):.2f} ms")

    values = {}
    counts = {}
    for key in ("ttft", "tpot", "latency"):
        samples = nominal.samples[key]
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            values[f"{key}_{tag}_ms"] = percentile(samples, q)
            counts[f"{key}_{tag}_ms"] = len(samples)
    passing = [r.rate for r in rungs if r.meets_slo]
    values.update(
        throughput_rps=nominal.throughput_rps,
        tokens_per_s=nominal.tokens / nominal.makespan_s,
        slo_attainment=nominal.attainment,
        slo_rate_rps=max(passing) if passing else 0.0,
        completed_frac=nominal.completed / nominal.sent,
        setup_s=setup_s,
        # Median over each part's repetitions, mean over the parts: the
        # parts are different traffic, so averaging them halves the
        # traffic-to-traffic spread.
        host_cost_per_req=mean(median_work(reps[k]) / parts[k].n
                               for k in range(NOMINAL_PARTS)),
        host_peak_rss_mb=_peak_rss_mb(),
    )
    return {name: (values[name], END_TO_END[name], counts.get(name))
            for name in END_TO_END}


def traced(run: Run, seconds: float) -> dict:
    import json

    from perfbench import layers
    from perfbench.hostclock import median_work, time_serves
    from perfbench.workloads import digest
    from repro.observability import validate_trace_dict

    w = run.workload
    log = layers.SpanLog()
    with layers.installed(log), log.root():
        run.setup()
    traffic = w.traffic(run.seed, w.nominal_rps)
    kept = {}
    digests = set()

    def plain(timed) -> None:
        outcome, _ = run.serve(traffic, timed)
        digests.add(digest(outcome))

    def spanned(timed) -> None:
        # The first traced serve's spans are kept; later ones go to a
        # throwaway log that costs the same.
        target = log if not kept else layers.SpanLog(keep_spans=False)
        with layers.installed(target):
            outcome, bad = run.serve(traffic, timed)
        digests.add(digest(outcome))
        if not kept:
            kept.update(outcome=outcome, bad=bad)
            run.count(outcome, bad)

    # One untimed serve first, so cost-cache entries the warm-up missed
    # do not land in the first timed pair only.
    plain(None)
    reps_plain, reps_traced = time_serves([plain, spanned], seconds,
                                          MIN_TRACED_PAIRS)
    if len(digests) != 1:
        run.problems.append("tracing changed the simulated outcome")
    overhead = median_work(reps_traced) / median_work(reps_plain) - 1.0

    trace = layers.chrome_trace(log, w.name, run.seed)
    problems = validate_trace_dict(trace)
    run.problems.extend(f"chrome trace: {p}" for p in problems[:20])
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{w.name}-seed{run.seed}.json")
    with open(path, "w") as fh:
        json.dump(trace, fh)
    _say(f"chrome trace: {len(log.spans)} spans -> "
         f"{os.path.relpath(path, ROOT)}")
    for i, (p, t) in enumerate(zip(reps_plain, reps_traced)):
        _say(f"untraced serve {i}: {_rep_line(p)}")
        _say(f"traced serve {i}: {_rep_line(t)}")
    metrics = layers.layer_metrics(w, log, kept["outcome"], run.system,
                                   traffic.horizon_s)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    for layer in sorted(log.calls):
        _say(f"layer {layer}: calls {log.calls[layer]} self "
             f"{log.self_s.get(layer, 0.0):.6f} s")
    return {name: (value, unit, None) for name, (value, unit) in
            metrics.items()}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.steady:
        sys.path.insert(0, ROOT)
        from perfbench.steady import steady

        return steady(args.steady, args.workload, args.seconds, args.seed)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: program sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.hostclock import Timed

    with Timed() as importing:  # the import is part of set-up
        import repro.memory  # noqa: F401
        import repro.models  # noqa: F401
        import repro.runtime  # noqa: F401
        import repro.serving  # noqa: F401

    import json

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = traced(run, args.seconds)
    else:
        metrics = untraced(run, args.seconds, importing.rep)
    for name, (value, unit, count) in metrics.items():
        suffix = f" (n={count})" if count is not None else ""
        _say(f"metric {name} = {value:.6g} {unit}{suffix}")
    for problem in run.problems:
        _say(f"CHECK FAILED: {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    _fixed_hash_seed()
    sys.exit(main())
