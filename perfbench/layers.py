"""Outside-in layer trace: spans around the program's public layer calls.

The traced run installs wrappers from this file onto public functions and
methods of each layer, keeps every span in memory, and at the end turns
them into per-layer numbers and a Chrome trace.  Nothing in the program
is edited; :func:`installed` restores every original on exit.

A span's *self time* is its duration minus the time its wrapped child
spans cover.  Self-time shares are taken over the traced timeline: the
set-up root span plus one traced serve.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, owner attribute or None for a module function, function name,
#: layer, index of the ``req_id`` argument or None).  Wrappers go on the
#: module attribute the caller looks up, so a function imported by name
#: into another module is patched there too.
WRAPPED: Tuple[Tuple[str, Optional[str], str, str, Optional[int]], ...] = (
    ("repro.serving.server", None, "simulate_serving", "serving", None),
    ("repro.serving.continuous", "ContinuousBatchingServer", "serve",
     "serving", None),
    ("repro.serving.scheduler", "PrunedDPBatchScheduler", "schedule",
     "serving.scheduler", None),
    ("repro.memory.kv_arena", "KVCacheArena", "can_admit",
     "memory.kv_arena", None),
    ("repro.memory.kv_arena", "KVCacheArena", "admit", "memory.kv_arena", 1),
    ("repro.memory.kv_arena", "KVCacheArena", "append", "memory.kv_arena", 1),
    ("repro.memory.kv_arena", "KVCacheArena", "release", "memory.kv_arena",
     1),
    ("repro.memory.kv_arena", "KVCacheArena", "preempt", "memory.kv_arena",
     1),
    ("repro.memory.kv_arena", "KVCacheArena", "restore", "memory.kv_arena",
     1),
    ("repro.memory.prefix_index", "RadixPrefixIndex", "lookup",
     "memory.prefix_index", None),
    ("repro.memory.prefix_index", "RadixPrefixIndex", "insert",
     "memory.prefix_index", None),
    ("repro.memory.prefix_index", "RadixPrefixIndex", "reclaim",
     "memory.prefix_index", None),
    ("repro.memory.turbo", "TurboAllocator", "plan", "memory.turbo", None),
    ("repro.runtime.generation", "GenerationRuntime", "prefill_latency",
     "runtime.generation", None),
    ("repro.runtime.generation", "GenerationRuntime", "decode_step_latency",
     "runtime.generation", None),
    ("repro.runtime.base", "InferenceRuntime", "latency", "runtime.latency",
     None),
    ("repro.runtime.profiler", "CostTable", "cost", "runtime.cost_table",
     None),
    ("repro.runtime.chunked", "PrefillChunker", "chunks", "runtime.chunked",
     None),
    ("repro.runtime.chunked", "PrefillChunker", "chunk_latency",
     "runtime.chunked", None),
    ("repro.serving.continuous", None, "execute_schedule",
     "gpusim.multistream", None),
)
#: Counted, not spanned: one call per simulator event.
COUNTED = (("repro.engine.core", "Engine", "schedule", "engine.events"),)

SETUP_LAYER = "bench.setup"
SERVE_LAYER = "serving"


class SpanLog:
    """In-memory spans, per-layer self time and call counts."""

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.t0 = time.perf_counter()
        #: (layer, name, start_s, dur_s, req_id, phase)
        self.spans: List[Tuple[str, str, float, float, Optional[int], str]] = []
        self.calls: Counter = Counter()
        #: Calls per (layer, function name).
        self.fn_calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Self time per (phase, layer); the phase is the root span's layer.
        self.phase_self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.root_s: Dict[str, float] = defaultdict(float)
        #: Serve-phase KV gate checks and admissions, and executed batches.
        self.gate = Counter()
        self.batches: list = []
        self._stack: List[List[float]] = []
        self._phase = ""

    def enter(self, layer: str) -> List[float]:
        if not self._stack:
            self._phase = layer
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: List[float], layer: str, name: str,
              req_id: Optional[int]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        own = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_s[layer] += dur
        self.calls[layer] += 1
        self.fn_calls[(layer, name)] += 1
        self.self_s[layer] += own
        self.phase_self_s[(self._phase, layer)] += own
        if self.keep_spans:
            self.spans.append((layer, name, frame[0] - self.t0, dur, req_id,
                               self._phase))

    def observe(self, layer: str, name: str, result) -> None:
        """Record call results of the serve phase (not of set-up)."""
        if self._phase != SERVE_LAYER:
            return
        if layer == "memory.kv_arena" and name == "can_admit":
            self.gate["checks"] += 1
        elif layer == "memory.kv_arena" and name in ("admit", "restore"):
            self.gate["ok"] += bool(result)
        elif layer == "serving.scheduler":
            self.batches.extend(result)

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The set-up root span."""
        frame = self.enter(SETUP_LAYER)
        try:
            yield
        finally:
            self.leave(frame, SETUP_LAYER, SETUP_LAYER, None)

    def traced_s(self) -> float:
        return sum(self.root_s.values())


def _wrap(log: SpanLog, fn, layer: str, req_arg: Optional[int]):
    name = fn.__name__

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        req_id = args[req_arg] if req_arg is not None and \
            len(args) > req_arg else None
        frame = log.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.leave(frame, layer, name, req_id)
        log.observe(layer, name, result)
        return result

    return traced


def _count(log: SpanLog, fn, counter: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        log.calls[counter] += 1
        return fn(*args, **kwargs)

    return counted


@contextlib.contextmanager
def installed(log: SpanLog) -> Iterator[SpanLog]:
    """Wrap every layer call for the duration of the block."""
    saved = []
    try:
        for module, owner, attr, layer, req_arg in WRAPPED:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            saved.append((target, attr, original))
            setattr(target, attr, _wrap(log, original, layer, req_arg))
        for module, owner, attr, counter in COUNTED:
            target = getattr(importlib.import_module(module), owner)
            original = target.__dict__[attr]
            saved.append((target, attr, original))
            setattr(target, attr, _count(log, original, counter))
        yield log
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def chrome_trace(log: SpanLog, workload: str, seed: int) -> dict:
    """The kept spans as a Chrome ``trace_event`` document (microseconds)."""
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": f"perfbench {workload} seed {seed}"}},
    ]
    for layer, name, start, dur, req_id, phase in log.spans:
        args = {"phase": phase}
        if req_id is not None:
            args["req_id"] = req_id
        events.append({"name": f"{layer}.{name}" if name != layer else layer,
                       "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                       "ts": start * 1e6, "dur": dur * 1e6, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- per-layer metrics ------------------------------------------------------------


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def kernel_mix(runtime, batches) -> Dict[str, float]:
    """Kernel-class shares of simulated device time over executed batches
    (paper section 4.1.2): GEMMs, batch reductions (softmax, layernorm),
    other element-wise kernels, and launch overhead."""
    totals = Counter()
    launches = 0
    memo: Dict[Tuple[int, int], list] = {}
    for batch in batches:
        key = (batch.cost_batch_size, batch.padded_len)
        if key not in memo:
            memo[key] = runtime.kernel_timings(*key)
        for k in memo[key]:
            launches += 1
            totals["launch"] += k.launch_s
            name = k.name.lower()
            if name.startswith("gemm"):
                cls = "gemm"
            elif "softmax" in name or "layernorm" in name or "_ln" in name:
                cls = "reduction"
            else:
                cls = "elementwise"
            totals[cls] += k.device_s
    whole = sum(totals.values())
    return {
        "gemm": _share(totals["gemm"], whole),
        "reduction": _share(totals["reduction"], whole),
        "elementwise": _share(totals["elementwise"], whole),
        "launch": _share(totals["launch"], whole),
        "launches_per_batch": _share(launches, len(batches)),
    }


#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "serving.self_share": "frac",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.prefill_p50_ms": "ms",
    "serving.decode_batch_mean": "count",
    "serving.utilization": "frac",
    "serving.prefill_chunks": "count",
    "serving.stall_share": "frac",
    "serving.prefix_hit_ratio": "frac",
    "serving.prefix_token_share": "frac",
    "serving.scheduler.calls": "count",
    "serving.scheduler.self_share": "frac",
    "serving.scheduler.batch_mean": "count",
    "serving.scheduler.padding_ratio": "frac",
    "memory.kv_arena.calls": "count",
    "memory.kv_arena.self_share": "frac",
    "memory.kv_arena.admit_ratio": "frac",
    "memory.kv_arena.denials": "count",
    "memory.kv_arena.peak_frac": "frac",
    "memory.prefix_index.lookups": "count",
    "memory.prefix_index.inserts": "count",
    "memory.prefix_index.reclaims": "count",
    "memory.prefix_index.self_share": "frac",
    "memory.turbo.plans": "count",
    "memory.turbo.self_share": "frac",
    "memory.serve_share": "frac",
    "runtime.generation.calls": "count",
    "runtime.generation.self_share": "frac",
    "runtime.generation.serve_share": "frac",
    "runtime.latency.calls": "count",
    "runtime.latency.self_share": "frac",
    "runtime.cost_table.calls": "count",
    "runtime.chunked.calls": "count",
    "runtime.chunked.self_share": "frac",
    "gpusim.multistream.calls": "count",
    "gpusim.multistream.self_share": "frac",
    "kernels.gemm_share": "frac",
    "kernels.reduction_share": "frac",
    "kernels.elementwise_share": "frac",
    "kernels.launch_share": "frac",
    "kernels.launches_per_batch": "count",
    "engine.events": "count",
    "trace.overhead_frac": "frac",
}


def layer_metrics(workload, log: SpanLog, outcome, system,
                  horizon_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers of one traced run (``trace.overhead_frac`` is
    added by the caller).

    Call counts and ``*.self_share`` cover the whole traced timeline
    (set-up plus one serve); ``*.serve_share``, the KV gate numbers and the
    batch numbers cover the serve alone.  Simulated numbers come from the
    serve's request timestamps and the program's own serving summary."""
    from perfbench.workloads import percentile

    total = log.traced_s()
    serve_root = log.root_s.get(SERVE_LAYER, 0.0)
    program = outcome.program
    encoder = workload.kind == "encoder"
    done = [r for r in outcome.requests if r.is_completed]

    def self_share(layer: str) -> float:
        return _share(log.self_s.get(layer, 0.0), total)

    def serve_share(*layers_: str) -> float:
        return _share(sum(log.phase_self_s.get((SERVE_LAYER, layer), 0.0)
                          for layer in layers_), serve_root)

    def fn(layer: str, name: str) -> int:
        return log.fn_calls[(layer, name)]

    def stat(name: str) -> float:
        return float(getattr(program, name, 0) or 0)

    waits = [(r.start_s - r.arrival_s) * 1e3 for r in done]
    if encoder:
        passes = [(r.completion_s - r.start_s) * 1e3 for r in done]
        decode_batch = 0.0
    else:
        passes = [(r.first_token_s - r.start_s) * 1e3 for r in done]
        decode_batch = _share(sum(r.generated - 1 for r in done),
                              stat("decode_steps"))
    batches = log.batches
    padded = sum(b.padded_len * b.cost_batch_size for b in batches)
    mix = kernel_mix(system.runtime, batches) if encoder and batches else {}
    values = {
        "serving.self_share": self_share("serving"),
        "serving.queue_wait_p50_ms": percentile(waits, 0.5),
        "serving.queue_wait_p99_ms": percentile(waits, 0.99),
        "serving.prefill_p50_ms": percentile(passes, 0.5),
        "serving.decode_batch_mean": decode_batch,
        "serving.utilization": stat("utilization"),
        "serving.prefill_chunks": stat("prefill_chunks"),
        "serving.stall_share": stat("stall_s") / horizon_s,
        "serving.prefix_hit_ratio": _share(stat("prefix_hits"),
                                           len(outcome.requests)),
        "serving.prefix_token_share": _share(
            stat("prefix_tokens_reused"),
            sum(r.seq_len for r in outcome.requests)),
        "serving.scheduler.calls": log.calls["serving.scheduler"],
        "serving.scheduler.self_share": self_share("serving.scheduler"),
        "serving.scheduler.batch_mean": _share(
            sum(b.size for b in batches), len(batches)),
        "serving.scheduler.padding_ratio": _share(
            sum(b.padding_waste for b in batches), padded),
        "memory.kv_arena.calls": log.calls["memory.kv_arena"],
        "memory.kv_arena.self_share": self_share("memory.kv_arena"),
        "memory.kv_arena.admit_ratio": _share(log.gate["ok"],
                                              log.gate["checks"]),
        "memory.kv_arena.denials": sum(a.denials for a in outcome.arenas),
        "memory.kv_arena.peak_frac": max(
            (a.peak_used_bytes / a.capacity_bytes for a in outcome.arenas),
            default=0.0),
        "memory.prefix_index.lookups": fn("memory.prefix_index", "lookup"),
        "memory.prefix_index.inserts": fn("memory.prefix_index", "insert"),
        "memory.prefix_index.reclaims": fn("memory.prefix_index", "reclaim"),
        "memory.prefix_index.self_share": self_share("memory.prefix_index"),
        "memory.turbo.plans": log.calls["memory.turbo"],
        "memory.turbo.self_share": self_share("memory.turbo"),
        "memory.serve_share": serve_share("memory.kv_arena", "memory.turbo"),
        "runtime.generation.calls": log.calls["runtime.generation"],
        "runtime.generation.self_share": self_share("runtime.generation"),
        "runtime.generation.serve_share": serve_share("runtime.generation"),
        "runtime.latency.calls": log.calls["runtime.latency"],
        "runtime.latency.self_share": self_share("runtime.latency"),
        "runtime.cost_table.calls": log.calls["runtime.cost_table"],
        "runtime.chunked.calls": log.calls["runtime.chunked"],
        "runtime.chunked.self_share": self_share("runtime.chunked"),
        "gpusim.multistream.calls": log.calls["gpusim.multistream"],
        "gpusim.multistream.self_share": self_share("gpusim.multistream"),
        "kernels.gemm_share": mix.get("gemm", 0.0),
        "kernels.reduction_share": mix.get("reduction", 0.0),
        "kernels.elementwise_share": mix.get("elementwise", 0.0),
        "kernels.launch_share": mix.get("launch", 0.0),
        "kernels.launches_per_batch": mix.get("launches_per_batch", 0.0),
        "engine.events": log.calls["engine.events"],
    }
    return {name: (float(values[name]), unit)
            for name, unit in PER_LAYER.items() if name in values}
