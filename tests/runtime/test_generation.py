"""GenerationRuntime: prefill/decode latency model."""

import pytest

from repro.gpusim import RTX_2060, Stream
from repro.models import (
    build_decode_step_graph,
    build_prefill_graph,
    gpt_small,
    tiny_gpt,
)
from repro.runtime import (
    GenerationRuntime,
    PYTORCH_CHARACTERISTICS,
    TURBO_CHARACTERISTICS,
    cost,
    generation,
    graph_cost,
)


@pytest.fixture(scope="module")
def runtimes():
    config = gpt_small()
    prefill = build_prefill_graph(config)
    decode = build_decode_step_graph(config)
    turbo = GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                              RTX_2060, step_overhead_s=0.1e-3)
    pytorch = GenerationRuntime(prefill, decode, PYTORCH_CHARACTERISTICS,
                                RTX_2060, step_overhead_s=2.5e-3)
    return turbo, pytorch


class TestPrefill:
    def test_grows_with_prompt(self, runtimes):
        turbo, _ = runtimes
        assert turbo.prefill_latency(1, 512) > turbo.prefill_latency(1, 32)

    def test_batch_amortizes(self, runtimes):
        turbo, _ = runtimes
        per1 = turbo.prefill_latency(1, 64)
        per8 = turbo.prefill_latency(8, 64) / 8
        assert per8 < per1


class TestDecode:
    def test_step_grows_with_cache(self, runtimes):
        turbo, _ = runtimes
        assert turbo.decode_step_latency(1, 900) > turbo.decode_step_latency(1, 8)

    def test_decode_step_cheaper_than_prefill(self, runtimes):
        """One token's work vs a whole prompt's."""
        turbo, _ = runtimes
        assert turbo.decode_step_latency(1, 128) < turbo.prefill_latency(1, 128)

    def test_generate_latency_composition(self, runtimes):
        turbo, _ = runtimes
        total = turbo.generate_latency(128, 32)
        assert total > turbo.prefill_latency(1, 128)
        assert total > 32 * turbo.decode_step_latency(1, 128) * 0.5

    def test_turbo_beats_pytorch(self, runtimes):
        turbo, pytorch = runtimes
        assert turbo.generate_latency(128, 64) < pytorch.generate_latency(128, 64)

    def test_tokens_per_second_sane(self, runtimes):
        turbo, _ = runtimes
        tps = turbo.tokens_per_second(128, 64)
        assert 10 < tps < 10_000

    def test_strided_close_to_exact(self):
        config = gpt_small()
        prefill = build_prefill_graph(config)
        decode = build_decode_step_graph(config)
        exact = GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                                  RTX_2060, stride=1)
        approx = GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                                   RTX_2060, stride=8)
        e = exact.generate_latency(64, 48)
        a = approx.generate_latency(64, 48)
        assert abs(a - e) / e < 0.02

    def test_validation(self, runtimes):
        turbo, _ = runtimes
        with pytest.raises(ValueError):
            turbo.prefill_latency(0, 10)
        with pytest.raises(ValueError):
            turbo.decode_step_latency(1, 0)
        with pytest.raises(ValueError):
            turbo.generate_latency(10, 0)


class TestInstrumentation:
    """The shared observability path every generative consumer funnels
    through (continuous server, request-level control, trace CLI)."""

    def test_timeline_total_matches_generate_latency(self, runtimes):
        turbo, _ = runtimes
        for prompt, new in ((32, 1), (64, 7), (128, 48)):
            timeline = turbo.generate_timeline(prompt, new, batch=2)
            assert timeline.total_s == turbo.generate_latency(prompt, new, 2)
            assert timeline.ttft_s == turbo.prefill_latency(2, prompt)
            assert timeline.tpot_s == pytest.approx(
                (timeline.total_s - timeline.ttft_s) / new)

    def test_timeline_emits_one_span_per_stride(self, runtimes):
        from repro.observability import MetricsRegistry, Tracer

        turbo, _ = runtimes
        tracer = Tracer()
        registry = MetricsRegistry()
        timeline = turbo.generate_timeline(64, 20, tracer=tracer,
                                           metrics=registry, system="test")
        events = tracer.to_dict()["traceEvents"]
        decode = [e for e in events if e["name"].startswith("decode x")]
        prefill = [e for e in events if e["name"].startswith("prefill x")]
        # 20 tokens at the module stride of 8 -> strides of 8, 8, 4.
        assert len(decode) == len(timeline.stride_ends) == 3
        assert len(prefill) == 1
        # Spans tile the timeline: each stride starts where the last ended.
        assert decode[0]["ts"] == pytest.approx(prefill[0]["ts"]
                                                + prefill[0]["dur"])
        assert registry.counter("generation_requests_total",
                                system="test").value == 1

    def test_publish_request_metrics_shared_names(self, runtimes):
        from repro.observability import MetricsRegistry

        turbo, _ = runtimes
        registry = MetricsRegistry()
        turbo.publish_request_metrics(registry, req_id=1, ttft_s=0.01,
                                      tpot_s=0.001, system="loop-a")
        turbo.publish_request_metrics(registry, req_id=2, ttft_s=0.02,
                                      tpot_s=0.002, system="loop-b")
        # Same histogram family, distinguished only by the system label.
        for system in ("loop-a", "loop-b"):
            h = registry.histogram("generation_ttft_ms", system=system)
            assert h.count == 1

    def test_disabled_tracer_and_no_metrics_are_free(self, runtimes):
        turbo, _ = runtimes
        # None sinks must be accepted and change nothing.
        timeline = turbo.generate_timeline(32, 4, tracer=None, metrics=None)
        assert timeline.total_s == turbo.generate_latency(32, 4, 1)

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_generate_latency_is_timeline_total(self, stride):
        """One strided walk: ``generate_latency`` is the timeline's total,
        and both equal the plain strided sum bit for bit."""
        config = tiny_gpt()
        runtime = GenerationRuntime(
            build_prefill_graph(config), build_decode_step_graph(config),
            TURBO_CHARACTERISTICS, RTX_2060, stride=stride,
            step_overhead_s=0.1e-3)
        for prompt in (1, 16, 33):
            for new in (1, 2, 7, 8, 9, 25):
                for batch in (1, 3):
                    total = runtime.prefill_latency(batch, prompt)
                    step = 0
                    while step < new:
                        span = min(stride, new - step)
                        total += runtime.decode_step_latency(
                            batch, prompt + step) * span
                        step += span
                    timeline = runtime.generate_timeline(prompt, new, batch)
                    assert timeline.total_s == total
                    assert runtime.generate_latency(prompt, new, batch) \
                        == total


def interpretive(nodes, bindings, chars):
    """The pre-compiled pricing: ``graph_cost`` drained through a Stream,
    host-bound when dispatch outruns the device."""
    stream = Stream(trace_enabled=False)
    stream.extend(graph_cost(nodes, bindings, chars, RTX_2060))
    return max(stream.elapsed_s, chars.host_dispatch_s * stream.launches)


class TestCompiledPricing:
    """Both graphs are priced through one compiled model each,
    bit-identical to the interpretive walk it replaced."""

    BATCHES = (1, 2, 7, 16)
    LENGTHS = (1, 17, 96, 512, 1024)

    @pytest.mark.parametrize("which", [0, 1], ids=["turbo", "pytorch"])
    def test_bit_identical_to_interpretive(self, runtimes, which):
        runtime = runtimes[which]
        chars = runtime.chars
        for batch in self.BATCHES:
            for n in self.LENGTHS:
                prefill = interpretive(runtime.prefill_graph.nodes,
                                       {"batch": batch, "seq": n}, chars)
                assert runtime.prefill_latency(batch, n) == \
                    prefill + chars.fixed_overhead_s
                decode = interpretive(runtime.decode_graph.nodes,
                                      {"batch": batch, "past": n}, chars)
                assert runtime.decode_step_latency(batch, n) == \
                    decode + runtime.step_overhead_s

    def test_pytorch_grid_is_dispatch_bound(self, runtimes):
        """The grid above exercises ``host_dispatch_s * launches``, so a
        wrong launch count cannot pass it."""
        _, pytorch = runtimes
        chars = pytorch.chars
        elapsed, launches = pytorch.decode_model().total(
            {"batch": 1, "past": 17})
        assert launches == len(pytorch.decode_graph.nodes)
        assert chars.host_dispatch_s * launches > elapsed

    def test_serve_prices_through_compiled_models_only(self, monkeypatch):
        """A prefix-cached, chunked continuous serve compiles each graph
        once and never walks a graph interpretively."""
        from repro.memory import KVCacheArena, kv_bytes_per_token
        from repro.serving import (
            ContinuousBatchingConfig,
            ContinuousBatchingServer,
            generate_prefix_population_requests,
            geometric_output_lengths,
        )

        walks = []
        real_node_cost = cost.node_cost

        def counting_node_cost(node, *args):
            walks.append(node.name)
            return real_node_cost(node, *args)

        # graph_cost looks node_cost up per call: this sees every walk.
        monkeypatch.setattr(cost, "node_cost", counting_node_cost)
        compiled = []
        real_model = generation.CompiledCostModel

        def counting_model(nodes, chars, device):
            compiled.append(len(nodes))
            return real_model(nodes, chars, device)

        monkeypatch.setattr(generation, "CompiledCostModel", counting_model)

        config = tiny_gpt()
        runtime = GenerationRuntime(
            build_prefill_graph(config), build_decode_step_graph(config),
            TURBO_CHARACTERISTICS, RTX_2060, stride=1)
        bpt = kv_bytes_per_token(config.num_layers, config.num_heads,
                                 config.head_size)
        requests = generate_prefix_population_requests(
            200.0, 0.3, seed=0, sharing_ratio=0.9,
            output_sampler=lambda rng, n: geometric_output_lengths(
                rng, n, mean=8.0, hi=32))
        server = ContinuousBatchingServer(
            runtime,
            KVCacheArena(capacity_bytes=2048 * bpt, bytes_per_token=bpt,
                         page_tokens=16),
            ContinuousBatchingConfig(chunk_tokens=8, prefix_cache=True))
        metrics = server.serve(requests, duration_s=0.3)

        assert metrics.completed > 0 and metrics.prefix_hits > 0
        assert walks == []
        assert compiled == [len(runtime.prefill_graph.nodes),
                            len(runtime.decode_graph.nodes)]
        assert runtime.prefill_model().evals > 0
        assert runtime.decode_model().evals > 0
