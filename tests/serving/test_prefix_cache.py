"""Prefix caching in the continuous server.

The contract under test: ``prefix_cache=True`` changes *work only*.
Token streams, admission orders and completion sets must be
byte-identical to the cache-off loop at every sharing ratio; the KV
arena's refcount/conservation audit must stay clean (MEM224); and at
saturating arrival rates over a prefix-heavy population the TTFT p99
must drop by at least 25% — the headline the experiment exists to show.
"""

import pytest

from repro.gpusim import RTX_2060
from repro.memory import (
    KVCacheArena,
    TurboAllocator,
    kv_arena,
    kv_bytes_per_token,
)
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    KVPreemptionPolicy,
    generate_prefix_population_requests,
    geometric_output_lengths,
)

CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)


@pytest.fixture(scope="module")
def runtime():
    return GenerationRuntime(build_prefill_graph(CONFIG),
                             build_decode_step_graph(CONFIG),
                             TURBO_CHARACTERISTICS, RTX_2060, stride=1)


def make_arena(capacity_tokens=4096):
    return KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=16)


def workload(rate=200.0, duration=0.5, seed=0, sharing=0.9,
             mean_new=8.0, max_new=32):
    return generate_prefix_population_requests(
        rate, duration, seed=seed, sharing_ratio=sharing,
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=mean_new, hi=max_new),
    )


def serve(runtime, prefix_cache, rate=200.0, duration=0.5, seed=0,
          sharing=0.9, capacity_tokens=4096, mean_new=8.0, max_new=32,
          **config_kw):
    requests = workload(rate, duration, seed, sharing, mean_new, max_new)
    server = ContinuousBatchingServer(
        runtime, make_arena(capacity_tokens),
        ContinuousBatchingConfig(prefix_cache=prefix_cache, **config_kw),
    )
    metrics = server.serve(requests, duration_s=duration)
    return requests, server, metrics


def token_stream(requests):
    return [(r.req_id, r.state.name, r.generated, r.max_new_tokens)
            for r in sorted(requests, key=lambda r: r.req_id)]


class TestEquivalence:
    @pytest.mark.parametrize("sharing", [0.0, 0.5, 0.9])
    def test_streams_and_admission_order_identical(self, runtime, sharing):
        base_reqs, base_srv, base = serve(runtime, False, sharing=sharing)
        on_reqs, on_srv, on = serve(runtime, True, sharing=sharing)
        assert token_stream(on_reqs) == token_stream(base_reqs)
        assert on_srv.admission_order == base_srv.admission_order
        assert on.completed == base.completed
        assert on.tokens_generated == base.tokens_generated

    def test_identical_with_chunked_prefill(self, runtime):
        base_reqs, _, _ = serve(runtime, False)
        on_reqs, _, on = serve(runtime, True, chunk_tokens=32)
        assert token_stream(on_reqs) == token_stream(base_reqs)
        assert on.prefix_hits > 0

    def test_identical_under_kv_pressure(self, runtime):
        # Preemption/restore path over shared pages: a tight arena forces
        # evictions while the index keeps hot prefixes resident.
        kw = dict(rate=150.0, capacity_tokens=256, chunk_tokens=8,
                  preemption=KVPreemptionPolicy(max_victims_per_event=2))
        base_reqs, _, base = serve(runtime, False, **kw)
        on_reqs, on_srv, on = serve(runtime, True, **kw)
        assert token_stream(on_reqs) == token_stream(base_reqs)
        assert on.completed == base.completed
        # Shared prefixes shrink the resident private footprint, so the
        # cache side preempts (and recomputes) far less — work may
        # differ, tokens may not.
        assert base.preemptions > 0
        assert on.preemptions <= base.preemptions
        assert on.prefix_hits > 0
        assert on_srv.arena.verify() == []

    def test_arena_refcounts_clean_after_serving(self, runtime):
        # The MEM224 audit: refcounts must equal the reference count from
        # live regions + index nodes at end of run.
        _, srv, m = serve(runtime, True)
        assert m.prefix_hits > 0
        assert srv.arena.verify() == []
        assert srv.prefix_index.stats()["nodes"] == \
            len(srv.prefix_index.resident_pages())


class TestWins:
    def test_hits_scale_with_sharing_ratio(self, runtime):
        _, _, low = serve(runtime, True, sharing=0.0)
        _, _, mid = serve(runtime, True, sharing=0.5)
        _, _, high = serve(runtime, True, sharing=0.9)
        assert low.prefix_hits == 0
        assert 0 < mid.prefix_hits < high.prefix_hits
        assert 0 < mid.prefix_tokens_reused < high.prefix_tokens_reused

    def test_flops_saved_priced_at_device_peak(self, runtime):
        _, _, m = serve(runtime, True)
        assert m.prefill_flops_saved > 0
        # FLOPs = saved seconds x peak rate: a sub-second run on a
        # 15.7 TFLOPs device stays below that product.
        assert m.prefill_flops_saved < 0.5 * RTX_2060.peak_fp32_flops

    def test_ttft_p99_reduction_gate_at_saturating_rate(self, runtime):
        """The acceptance gate: >= 25% TTFT p99 reduction at sharing 0.5
        under a rate that queues prefills, with a clean refcount audit."""
        kw = dict(rate=1200.0, duration=1.0, sharing=0.5,
                  mean_new=16.0, max_new=96, warmup_fraction=0.1)
        _, _, off = serve(runtime, False, **kw)
        _, srv, on = serve(runtime, True, **kw)
        assert on.ttft.p99_ms <= 0.75 * off.ttft.p99_ms
        assert srv.arena.verify() == []

    def test_cache_off_has_no_prefix_counters(self, runtime):
        _, srv, m = serve(runtime, False)
        assert m.prefix_hits == 0
        assert m.prefix_tokens_reused == 0
        assert m.prefill_flops_saved == 0.0
        assert srv.prefix_index is None


class TestArenaHotPath:
    def test_serve_never_plans_and_verify_plans_once(self, runtime,
                                                     monkeypatch):
        """Alg. 1 is an audit view: serving runs no plan, ``verify()``
        builds one, and ``peak_used_bytes`` is the largest residency seen
        at the end of any arena mutation."""
        plans = []
        real_plan = TurboAllocator.plan

        def counting_plan(allocator, records):
            plans.append(len(records))
            return real_plan(allocator, records)

        monkeypatch.setattr(TurboAllocator, "plan", counting_plan)
        seen = []
        monkeypatch.setattr(kv_arena, "_arena_hooks", [
            lambda arena, op, req_id, tokens: seen.append(arena.used_bytes)])
        # A tight arena forces index reclaim and preemption mid-serve.
        _, srv, m = serve(runtime, True, rate=150.0, capacity_tokens=256,
                          chunk_tokens=8,
                          preemption=KVPreemptionPolicy(
                              max_victims_per_event=2))
        assert m.prefix_hits > 0 and m.preemptions > 0
        assert srv.arena.pages_reclaimed > 0
        assert plans == []
        assert srv.arena.peak_used_bytes == max(seen)
        resident = srv.arena.stats()["pages_resident"]
        assert resident > 0
        assert srv.arena.verify() == []
        assert plans == [resident]
        assert srv.arena.verify() == []  # cached until the next mutation
        assert plans == [resident]


class TestWorkloadGenerator:
    def test_lengths_identical_across_sharing_ratios(self):
        a = workload(sharing=0.0)
        b = workload(sharing=0.9)
        assert [(r.arrival_s, r.seq_len, r.max_new_tokens) for r in a] == \
            [(r.arrival_s, r.seq_len, r.max_new_tokens) for r in b]

    def test_prompt_ids_cover_seq_len(self):
        for r in workload():
            assert r.prompt_ids is not None
            assert len(r.prompt_ids) == r.seq_len

    def test_deterministic_given_seed(self):
        assert [r.prompt_ids for r in workload(seed=3)] == \
            [r.prompt_ids for r in workload(seed=3)]
        assert [r.prompt_ids for r in workload(seed=3)] != \
            [r.prompt_ids for r in workload(seed=4)]
