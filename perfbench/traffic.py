"""Seeded traffic for the benchmark workloads.

The benchmark owns its inputs: the program under test only ever sees the
``Request`` / ``GenRequest`` lists built here, so an edit to
``repro.serving.workload`` cannot shift them.

Two variance reductions keep seed-to-seed spread down without changing
the distributions:

* arrivals are a Poisson process *conditioned on its count*: ``n`` points
  uniform on ``[0, n / rate)``, sorted (the order-statistics property), so
  every seed offers exactly the nominal rate over the same horizon;
* lengths are stratified: one draw per quantile stratum of the target
  distribution, shuffled, so every seed has the same length histogram up
  to within-stratum jitter.

Arrivals and lengths come from one RNG stream and prompt content from
another, so a workload pair that differs only in prefix sharing (gen-shared
vs gen-unique) gets identical arrivals and lengths by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Tuple

import numpy as np

#: Prompt geometry of the generation workloads: a 64-token system prompt
#: plus a 32-token per-tenant template form the shared head.
SYSTEM_TOKENS = 64
TEMPLATE_TOKENS = 32
HEAD_TOKENS = SYSTEM_TOKENS + TEMPLATE_TOKENS
SUFFIX_LO, SUFFIX_HI = 4, 16
TENANTS = 4
VOCAB = 50_000
#: Generation output lengths: geometric, mean 16, clipped to 96.
OUT_MEAN, OUT_MAX = 16.0, 96
#: Encoder prompt lengths: truncated normal on the paper's [5, 500].
ENC_LO, ENC_HI = 5, 500


@dataclass(frozen=True)
class Traffic:
    """One workload's inputs as plain arrays; :meth:`requests` builds
    fresh (mutable) request objects for each serve."""

    horizon_s: float
    arrivals: np.ndarray
    seq_lens: np.ndarray
    max_new_tokens: Optional[np.ndarray] = None
    prompt_ids: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def n(self) -> int:
        return int(self.arrivals.size)

    def requests(self) -> list:
        if self.max_new_tokens is None:
            from repro.serving import Request

            return [Request(req_id=i, seq_len=int(self.seq_lens[i]),
                            arrival_s=float(self.arrivals[i]))
                    for i in range(self.n)]
        from repro.serving import GenRequest

        return [GenRequest(req_id=i, seq_len=int(self.seq_lens[i]),
                           arrival_s=float(self.arrivals[i]),
                           max_new_tokens=int(self.max_new_tokens[i]),
                           prompt_ids=self.prompt_ids[i])
                for i in range(self.n)]


def _streams(seed: int, salt: int) -> Tuple[np.random.Generator,
                                            np.random.Generator]:
    """Independent (shape, content) generators for one seed and salt."""
    shape, content = np.random.SeedSequence([seed, salt]).spawn(2)
    return np.random.default_rng(shape), np.random.default_rng(content)


def _stratified_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform per stratum ``[k/n, (k+1)/n)``, in random order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def conditioned_poisson(rng: np.random.Generator, n: int,
                        rate: float) -> Tuple[np.ndarray, float]:
    """``n`` Poisson arrivals conditioned on landing in ``[0, n / rate)``."""
    horizon = n / rate
    return np.sort(rng.uniform(0.0, horizon, n)), horizon


def truncated_normal_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stratified integer lengths, truncated normal on
    ``[ENC_LO, ENC_HI]`` with the 3-sigma points at the range edges."""
    dist = NormalDist((ENC_LO + ENC_HI) / 2.0, (ENC_HI - ENC_LO) / 6.0)
    a, b = dist.cdf(ENC_LO - 0.5), dist.cdf(ENC_HI + 0.5)
    u = _stratified_uniforms(rng, n)
    out = [dist.inv_cdf(a + (b - a) * x) for x in u]
    return np.clip(np.rint(out), ENC_LO, ENC_HI).astype(np.int64)


def geometric_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stratified geometric counts on ``{1, 2, ...}`` with mean
    ``OUT_MEAN``, clipped to ``OUT_MAX``."""
    p = 1.0 / OUT_MEAN
    u = _stratified_uniforms(rng, n)
    k = np.ceil(np.log1p(-u) / math.log1p(-p))
    return np.clip(k, 1, OUT_MAX).astype(np.int64)


def uniform_int_lengths(rng: np.random.Generator, n: int, lo: int,
                        hi: int) -> np.ndarray:
    """Stratified integers uniform on ``[lo, hi]``."""
    u = _stratified_uniforms(rng, n)
    return (lo + np.floor(u * (hi - lo + 1))).astype(np.int64)


def encoder_traffic(seed: int, n: int, rate: float, salt: int = 0) -> Traffic:
    """BERT serving traffic (Fig. 12): truncated-normal lengths on [5, 500]."""
    shape, _ = _streams(seed, salt)
    arrivals, horizon = conditioned_poisson(shape, n, rate)
    return Traffic(horizon, arrivals, truncated_normal_lengths(shape, n))


def generation_traffic(seed: int, n: int, rate: float, sharing: float,
                       salt: int = 0) -> Traffic:
    """Multi-tenant generation traffic.

    A ``sharing`` share of prompts (exactly ``round(sharing * n)``) start
    with the 96-token templated head of one of four tenants; the rest get
    fresh ids of the same length.  Every prompt ends in a unique 4-16 token
    suffix.  Arrivals and lengths do not depend on ``sharing``.
    """
    if not 0.0 <= sharing <= 1.0:
        raise ValueError(f"sharing must be in [0, 1], got {sharing}")
    shape, content = _streams(seed, salt)
    arrivals, horizon = conditioned_poisson(shape, n, rate)
    suffix = uniform_int_lengths(shape, n, SUFFIX_LO, SUFFIX_HI)
    outputs = geometric_lengths(shape, n)

    system = content.integers(0, VOCAB, size=SYSTEM_TOKENS)
    templates = content.integers(0, VOCAB, size=(TENANTS, TEMPLATE_TOKENS))
    templated = np.zeros(n, dtype=bool)
    templated[content.permutation(n)[:round(sharing * n)]] = True
    tenants = content.permutation(np.arange(n) % TENANTS)
    prompts: List[Tuple[int, ...]] = []
    for i in range(n):
        if templated[i]:
            head = np.concatenate([system, templates[tenants[i]]])
        else:
            head = content.integers(0, VOCAB, size=HEAD_TOKENS)
        tail = content.integers(0, VOCAB, size=int(suffix[i]))
        prompts.append(tuple(int(t) for t in np.concatenate([head, tail])))
    return Traffic(horizon, arrivals, HEAD_TOKENS + suffix, outputs,
                   tuple(prompts))
