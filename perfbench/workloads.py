"""Workload definitions, the systems they drive, and the output checks.

Each workload is an open loop: Poisson arrivals on the simulator's virtual
clock, generated ahead of time by :mod:`perfbench.traffic`, so the
generator is never late (its lateness is zero by construction).  A
workload fixes its SLO limits, its nominal rate and a rate ladder; the
nominal rate is one rung of the ladder.

The systems are built from the program's public API only.  ``serve`` calls
go through module attributes (``server_mod.simulate_serving``) so the
traced run's wrappers, installed on those attributes, see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import traffic as tr

#: The nominal rate is measured on this many independent traffic parts
#: (salts 0, 1, ...), served in turn by the timed repetitions and pooled
#: for the simulated metrics: three times the tail samples for no extra
#: host time.  Other rungs use part 0 at their own rate.
NOMINAL_PARTS = 3
#: The set-up warm-up serve draws from its own salt, so it never sees a
#: timed input.
WARMUP_SALT = 100
#: A rung meets its SLO when at least this share of requests sent do.
SLO_TARGET = 0.99
#: The backlog counts as growing when more than this many seconds of
#: arrivals are still unfinished at the horizon.
BACKLOG_S = 0.5
#: Generation systems: a KV arena of this many tokens in 16-token pages,
#: 512-token prefill chunks.
KV_TOKENS, PAGE_TOKENS, CHUNK_TOKENS = 1024, 16, 512
ENC_MAX_BATCH, ENC_MAX_LEN = 20, 512


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``encoder`` (BERT + DP batcher) or ``gen`` (continuous batching).
    kind: str
    nominal_rps: float
    ladder_rps: Tuple[float, ...]
    #: Requests per nominal part, and on each other rung.
    requests: int
    ladder_requests: int
    #: Per-request latency limits in ms: ``latency`` for the encoder,
    #: ``ttft`` and ``tpot`` for generation.
    limits_ms: Tuple[Tuple[str, float], ...]
    sharing: float = 0.0
    #: Warm-up serve size (generation kinds); the encoder warms up with
    #: the paper's cost-table sweep instead.
    warmup_requests: int = 0

    def __post_init__(self) -> None:
        if self.nominal_rps not in self.ladder_rps:
            raise ValueError(f"{self.name}: nominal rate must be a rung")
        if list(self.ladder_rps) != sorted(self.ladder_rps):
            raise ValueError(f"{self.name}: ladder must be ascending")

    def traffic(self, seed: int, rate: float, salt: int = 0,
                n: Optional[int] = None) -> tr.Traffic:
        if n is None:
            n = (self.requests if rate == self.nominal_rps
                 else self.ladder_requests)
        if self.kind == "encoder":
            return tr.encoder_traffic(seed, n, rate, salt)
        return tr.generation_traffic(seed, n, rate, self.sharing, salt)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("bert-dp", "encoder", nominal_rps=60.0,
             ladder_rps=(40.0, 50.0, 60.0, 70.0, 80.0, 90.0),
             requests=20000, ladder_requests=20000,
             limits_ms=(("latency", 400.0),)),
    # The generation nominal rate stays where the TTFT tail repeats: at
    # 40 and 50 req/s, where the arena starts to bind, the gen-unique TTFT
    # p99 spread over seeds was 0.26 and 0.29 of its median.  The arena's
    # limit shows on the ladder (denials and queue wait per rung).
    Workload("gen-shared", "gen", nominal_rps=30.0,
             ladder_rps=(30.0, 150.0, 200.0, 250.0),
             requests=2000, ladder_requests=1000,
             limits_ms=(("ttft", 100.0), ("tpot", 10.0)),
             sharing=0.9, warmup_requests=600),
    Workload("gen-unique", "gen", nominal_rps=30.0,
             ladder_rps=(30.0, 50.0, 100.0, 130.0),
             requests=2000, ladder_requests=1000,
             limits_ms=(("ttft", 100.0), ("tpot", 10.0)),
             sharing=0.0, warmup_requests=600),
)}


# -- systems ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one serve left behind, for the checks and the metrics."""

    requests: list
    #: The program's own summary (``ServingMetrics`` / ``GenServingMetrics``).
    program: object
    arenas: list


class EncoderSystem:
    """BERT-base, Turbo runtime on the simulated RTX 2060, cost table from
    the paper's warm-up (lengths 16..512 x batch 1..20), pruned DP batcher
    with the hungry trigger."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.models import bert_base, build_encoder_graph
        from repro.runtime import turbo_runtime, warmup_profile

        self.runtime = turbo_runtime(graph=build_encoder_graph(bert_base()))
        self.table = warmup_profile(self.runtime, max_batch=ENC_MAX_BATCH,
                                    max_length=ENC_MAX_LEN, length_step=16)

    def serve(self, requests: list, horizon_s: float) -> Outcome:
        import repro.serving.server as server_mod
        from repro.serving import HungryPolicy, ServingConfig
        from repro.serving.scheduler import PrunedDPBatchScheduler

        program = server_mod.simulate_serving(
            requests, PrunedDPBatchScheduler(), self.table.cost,
            config=ServingConfig(max_batch=ENC_MAX_BATCH,
                                 policy=HungryPolicy()),
            duration_s=horizon_s, system_name="Turbo-DP-Batch",
        )
        return Outcome(requests, program, [])


class GenSystem:
    """GPT-small on the simulated RTX 2060 behind one continuous-batching
    server: chunked prefill, prefix cache, a constrained KV arena.

    Set-up includes one warm-up serve on traffic no timed serve uses, so
    the runtime's cost cache is full before timing starts."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.gpusim.device import RTX_2060
        from repro.memory import kv_bytes_per_token
        from repro.models.gpt import (build_decode_step_graph,
                                      build_prefill_graph, gpt_small)
        from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime

        config = gpt_small()
        self.runtime = GenerationRuntime(
            build_prefill_graph(config), build_decode_step_graph(config),
            TURBO_CHARACTERISTICS, RTX_2060, stride=1,
        )
        self.bytes_per_token = kv_bytes_per_token(
            config.num_layers, config.num_heads, config.head_size)
        warm = workload.traffic(seed, workload.nominal_rps, WARMUP_SALT,
                                n=workload.warmup_requests)
        self.serve(warm.requests(), warm.horizon_s)

    def serve(self, requests: list, horizon_s: float) -> Outcome:
        from repro.memory import KVCacheArena
        from repro.serving import (ContinuousBatchingConfig,
                                   ContinuousBatchingServer)

        arena = KVCacheArena(capacity_bytes=KV_TOKENS * self.bytes_per_token,
                             bytes_per_token=self.bytes_per_token,
                             page_tokens=PAGE_TOKENS)
        server = ContinuousBatchingServer(
            self.runtime, arena,
            ContinuousBatchingConfig(chunk_tokens=CHUNK_TOKENS,
                                     prefix_cache=True),
        )
        program = server.serve(requests, duration_s=horizon_s)
        return Outcome(requests, program, [arena])


SYSTEMS = {"encoder": EncoderSystem, "gen": GenSystem}


def build_system(workload: Workload, seed: int):
    return SYSTEMS[workload.kind](workload, seed)


# -- output checks --------------------------------------------------------------


def check_outcome(workload: Workload, outcome: Outcome) -> Tuple[set, List[str]]:
    """Check every request and arena.  Returns ``(bad_req_ids, problems)``.

    * every request sent ends in a terminal state;
    * a completed request has ``arrival <= start <= completion``, and a
      completed generation request produced exactly ``max_new_tokens``
      with ``start <= first_token <= completion``;
    * every KV arena verifies clean and holds no region after the drain.
    """
    bad: set = set()
    problems: List[str] = []
    for r in outcome.requests:
        why = None
        if not r.state.is_terminal:
            why = f"ended in non-terminal state {r.state.value}"
        elif r.is_completed:
            if r.start_s is None or not (
                    r.arrival_s <= r.start_s <= r.completion_s):
                why = "completion out of order with arrival/start"
            elif workload.kind != "encoder":
                if r.generated != r.max_new_tokens:
                    why = (f"generated {r.generated} of "
                           f"{r.max_new_tokens} tokens")
                elif r.first_token_s is None or not (
                        r.start_s <= r.first_token_s <= r.completion_s):
                    why = "first token out of order with start/completion"
        if why is not None:
            bad.add(r.req_id)
            problems.append(f"request {r.req_id}: {why}")
    for i, arena in enumerate(outcome.arenas):
        problems.extend(f"arena {i}: {msg}"
                        for msg in arena.verify(live_req_ids=[]))
    return bad, problems


def digest(outcome: Outcome) -> str:
    """Fingerprint of every simulated per-request outcome."""
    rows = [(r.req_id, r.state.value, r.start_s, r.completion_s,
             getattr(r, "first_token_s", None), getattr(r, "generated", None))
            for r in outcome.requests]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# -- simulated metrics --------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``ceil(q * n)``-th smallest)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _per_request(workload: Workload, r) -> Dict[str, float]:
    """Latency components of one completed request, in ms.

    For the encoder the whole output (one hidden state per input position)
    arrives in one pass: TTFT equals latency, and TPOT is the pass time
    per output position."""
    latency = (r.completion_s - r.arrival_s) * 1e3
    if workload.kind == "encoder":
        return {"latency": latency, "ttft": latency,
                "tpot": (r.completion_s - r.start_s) * 1e3 / r.seq_len}
    tpot = ((r.completion_s - r.first_token_s) * 1e3 / (r.generated - 1)
            if r.generated >= 2 else 0.0)
    return {"latency": latency,
            "ttft": (r.first_token_s - r.arrival_s) * 1e3, "tpot": tpot}


@dataclass(frozen=True)
class RungResult:
    rate: float
    sent: int
    completed: int
    attainment: float
    backlog_growing: bool
    samples: Dict[str, List[float]]
    #: Queue waits (arrival to start) of completed requests, in ms.
    queue_ms: List[float]
    kv_denials: int
    tokens: int
    makespan_s: float
    throughput_rps: float

    @property
    def meets_slo(self) -> bool:
        return self.attainment >= SLO_TARGET and not self.backlog_growing


def rung_result(workload: Workload, rate: float,
                parts: Sequence[Tuple[Outcome, float, set]]) -> RungResult:
    """Simulated end-to-end numbers of one rung, from request timestamps,
    pooled over its ``(outcome, horizon_s, bad_req_ids)`` parts.

    Failed, shed, unfinished or check-failing requests count as SLO misses.
    Throughput counts completions inside ``[0.1 H, H]`` of each part's
    horizon ``H``; the backlog is growing when, in some part, more than
    ``BACKLOG_S`` seconds of arrivals are unfinished at ``H``."""
    limits = dict(workload.limits_ms)
    samples: Dict[str, List[float]] = {"latency": [], "ttft": [], "tpot": []}
    queue_ms: List[float] = []
    sent = completed = met = tokens = in_window = denials = 0
    window_s = makespan_s = 0.0
    growing = False
    for outcome, horizon_s, bad in parts:
        ok = [r for r in outcome.requests
              if r.is_completed and r.req_id not in bad]
        for r in ok:
            values = _per_request(workload, r)
            for key, value in values.items():
                samples[key].append(value)
            met += all(values[k] <= limit for k, limit in limits.items())
            queue_ms.append((r.start_s - r.arrival_s) * 1e3)
        denials += sum(a.denials for a in outcome.arenas)
        sent += len(outcome.requests)
        completed += len(ok)
        lo = 0.1 * horizon_s
        in_window += sum(1 for r in ok if lo <= r.completion_s <= horizon_s)
        window_s += horizon_s - lo
        unfinished = sum(1 for r in outcome.requests
                         if not r.is_completed or r.completion_s > horizon_s)
        growing = growing or unfinished > BACKLOG_S * rate
        if workload.kind == "encoder":
            tokens += sum(r.seq_len for r in ok)
        else:
            tokens += sum(r.generated for r in ok)
        makespan_s += max((r.completion_s for r in ok), default=horizon_s)
    return RungResult(
        rate=rate, sent=sent, completed=completed, attainment=met / sent,
        backlog_growing=growing, samples=samples, queue_ms=queue_ms,
        kv_denials=denials, tokens=tokens,
        makespan_s=makespan_s, throughput_rps=in_window / window_s,
    )
