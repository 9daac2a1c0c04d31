"""Tests of the benchmark itself (traffic, checks, host clock, tracing).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import hostclock, layers, traffic  # noqa: E402
from perfbench import workloads as wl  # noqa: E402


# -- traffic ------------------------------------------------------------------


def test_traffic_is_a_function_of_the_seed():
    a = traffic.generation_traffic(7, 200, 60.0, 0.9)
    b = traffic.generation_traffic(7, 200, 60.0, 0.9)
    c = traffic.generation_traffic(8, 200, 60.0, 0.9)
    assert (a.arrivals == b.arrivals).all() and a.prompt_ids == b.prompt_ids
    assert not (a.arrivals == c.arrivals).all()


def test_shared_and_unique_differ_only_in_content():
    rate = wl.WORKLOADS["gen-shared"].nominal_rps
    assert wl.WORKLOADS["gen-unique"].nominal_rps == rate
    shared = wl.WORKLOADS["gen-shared"].traffic(3, rate)
    unique = wl.WORKLOADS["gen-unique"].traffic(3, rate)
    for field in ("arrivals", "seq_lens", "max_new_tokens"):
        assert (getattr(shared, field) == getattr(unique, field)).all()
    heads = [p[:traffic.HEAD_TOKENS] for p in shared.prompt_ids]
    assert len(set(heads)) == traffic.TENANTS + round(0.1 * shared.n)
    assert len({p[:traffic.HEAD_TOKENS] for p in unique.prompt_ids}) == \
        unique.n


def test_arrivals_are_conditioned_on_their_count():
    t = traffic.encoder_traffic(1, 500, 50.0)
    assert t.n == 500 and t.horizon_s == pytest.approx(10.0)
    assert (np.diff(t.arrivals) >= 0).all()
    assert 0.0 <= t.arrivals[0] and t.arrivals[-1] < t.horizon_s


def test_length_distributions():
    rng = np.random.default_rng(0)
    enc = traffic.truncated_normal_lengths(rng, 4000)
    assert enc.min() >= 5 and enc.max() <= 500
    assert abs(enc.mean() - 252.5) < 5
    out = traffic.geometric_lengths(rng, 4000)
    assert out.min() >= 1 and out.max() <= 96
    assert abs(out.mean() - 16.0) < 1.0
    suffix = traffic.uniform_int_lengths(rng, 1300, 4, 16)
    assert sorted(set(suffix.tolist())) == list(range(4, 17))
    assert np.bincount(suffix)[4:].min() == 100  # one per stratum


def test_requests_are_fresh_each_time():
    t = wl.WORKLOADS["gen-unique"].traffic(1, 30.0, n=5)
    first, second = t.requests(), t.requests()
    first[0].generated = 3
    assert second[0].generated == 0
    assert [r.prompt_ids for r in first] == [r.prompt_ids for r in second]


# -- metrics and checks ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert wl.percentile(values, 0.5) == 50
    assert wl.percentile(values, 0.99) == 99
    assert wl.percentile([5.0], 0.99) == 5.0


def _tiny_gen_outcome():
    """A small served gen workload on the tiny model (fast)."""
    from repro.gpusim.device import RTX_2060
    from repro.memory import KVCacheArena, kv_bytes_per_token
    from repro.models.gpt import (build_decode_step_graph,
                                  build_prefill_graph, tiny_gpt)
    from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
    from repro.serving import (ContinuousBatchingConfig,
                               ContinuousBatchingServer)

    cfg = tiny_gpt()
    runtime = GenerationRuntime(build_prefill_graph(cfg),
                                build_decode_step_graph(cfg),
                                TURBO_CHARACTERISTICS, RTX_2060, stride=1)
    bpt = kv_bytes_per_token(cfg.num_layers, cfg.num_heads, cfg.head_size)
    arena = KVCacheArena(capacity_bytes=1024 * bpt, bytes_per_token=bpt,
                         page_tokens=16)
    t = traffic.generation_traffic(2, 40, 200.0, 0.9)
    requests = t.requests()
    server = ContinuousBatchingServer(
        runtime, arena, ContinuousBatchingConfig(chunk_tokens=512,
                                                 prefix_cache=True))
    program = server.serve(requests, duration_s=t.horizon_s)
    return wl.Outcome(requests, program, [arena]), t


def test_checks_pass_on_a_clean_serve_and_flag_violations():
    w = wl.WORKLOADS["gen-shared"]
    outcome, t = _tiny_gen_outcome()
    bad, problems = wl.check_outcome(w, outcome)
    assert not bad and not problems
    rung = wl.rung_result(w, 200.0, [(outcome, t.horizon_s, bad)])
    assert rung.completed == rung.sent == 40
    outcome.requests[0].generated -= 1
    bad, problems = wl.check_outcome(w, outcome)
    assert bad == {outcome.requests[0].req_id} and problems
    rung = wl.rung_result(w, 200.0, [(outcome, t.horizon_s, bad)])
    assert rung.completed == 39 and rung.attainment <= 39 / 40


def test_digest_tracks_simulated_outcomes():
    outcome, _ = _tiny_gen_outcome()
    again, _ = _tiny_gen_outcome()
    assert wl.digest(outcome) == wl.digest(again)
    again.requests[1].completion_s += 1e-9
    assert wl.digest(outcome) != wl.digest(again)


# -- host clock ---------------------------------------------------------------


def test_work_divides_out_speed():
    fast = hostclock.Rep(1.1, (0.001,) * 100)
    slow = hostclock.Rep(2.2, (0.002,) * 100)
    assert fast.work == pytest.approx(1000.0)
    assert slow.work == pytest.approx(fast.work)
    assert hostclock.reference_seconds(fast.work) == pytest.approx(
        1000.0 * hostclock.REFERENCE_SNIPPET_S)
    with pytest.raises(ValueError):
        hostclock.Rep(0.001, ()).work


def test_timed_samples_inside_the_region_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostclock.Timed() as timed:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            hostclock.reference_work(50)
    rep = timed.rep
    assert len(rep.samples_s) >= 3
    assert 0 < rep.sampled_s < rep.wall_s
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_time_serves_runs_every_variant_each_round():
    calls = []

    def make(tag):
        def serve(timed):
            with timed:
                calls.append(tag)
                hostclock.reference_work(3000)
        return serve

    a, b = hostclock.time_serves([make("a"), make("b")], 0.0, 2)
    assert calls == ["a", "b", "a", "b"]
    assert len(a) == len(b) == 2


# -- tracing ------------------------------------------------------------------


def _originals():
    import importlib

    found = []
    for module, owner, attr, _layer, _arg in layers.WRAPPED:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        found.append(target.__dict__[attr])
    return found


def test_traced_serve_records_layers_and_restores_originals():
    from repro.observability import validate_trace_dict

    originals = _originals()
    log = layers.SpanLog()
    with layers.installed(log):
        outcome, _ = _tiny_gen_outcome()
    assert _originals() == originals
    for layer in ("serving", "memory.kv_arena", "memory.turbo",
                  "memory.prefix_index", "runtime.generation",
                  "runtime.chunked", "gpusim.multistream", "engine.events"):
        assert log.calls[layer] > 0, layer
    assert log.root_s["serving"] > 0
    assert sum(log.self_s.values()) == pytest.approx(log.traced_s(),
                                                     rel=1e-6)
    assert any(span[4] is not None for span in log.spans)  # req_id tags
    assert validate_trace_dict(layers.chrome_trace(log, "t", 1)) == []
    metrics = layers.layer_metrics(wl.WORKLOADS["gen-shared"], log, outcome,
                                   None, 0.2)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_frac"}
    assert metrics["serving.prefix_hit_ratio"][0] > 0


# -- the benchmark contract ---------------------------------------------------


def test_benchmark_json_matches_the_code():
    from perfbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_ladder_brackets_its_nominal_rate():
    for w in wl.WORKLOADS.values():
        assert w.ladder_rps[0] <= w.nominal_rps <= w.ladder_rps[-1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bert-dp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
