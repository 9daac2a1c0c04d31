"""Reference-normalised host timing.

Raw host seconds do not repeat on a small shared VM.  The vCPU switches
between a fast and a slow regime (a factor of about 1.7 on the reference
below) in spells of a tenth of a second to a few seconds; process CPU time
tracks wall time, so the process is not being descheduled, and there are
no hardware instruction counters to count work instead.  A probe before
and after a multi-second serve cannot see the regime mix inside it.

So the benchmark samples the speed *inside* the timed region: a wall-clock
interval timer interrupts the serve every ``INTERVAL_S`` and runs a short,
fixed, benchmark-owned reference snippet, timing it.  Uniform sampling in
wall time makes the mean of ``1 / snippet_s`` the average speed over the
region, so

    work = (wall_s - sampled_s) * mean(1 / snippet_s)

is the serve's cost in snippet runs, whatever regimes it ran through.
The snippets' own seconds are subtracted, and the raw wall seconds and
snippet seconds are kept in the output for audit.

The snippet is a pure-Python mix of what a discrete-event simulator spends
its time on (heap pushes and pops, dict updates, attribute access, small
object construction, a keyed sort) and never changes with the program.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, List, Sequence, Tuple

#: Sampling period of the in-region speed probe.
INTERVAL_S = 0.01
#: Size of the reference snippet (about 0.4-0.7 ms on a 2-core VM).
SNIPPET_N = 300
#: Seconds one snippet run takes at the *reference speed*, a fixed round
#: figure near the snippet's time on the VM the benchmark was built on.
#: Work in snippet runs times this is seconds at that speed: the unit of
#: ``setup_s``, which must read in seconds but repeat like a work count.
REFERENCE_SNIPPET_S = 5e-4


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def reference_work(n: int = SNIPPET_N) -> int:
    """The fixed reference workload."""
    heap: List[Tuple[int, int]] = []
    table = {}
    acc = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i % 512] = _Item(i, i * 0.5)
        if len(heap) > 64:
            _, j = heapq.heappop(heap)
            item = table.get(j % 512)
            if item is not None:
                acc += item.key + int(item.weight)
    ordered = sorted(table.values(), key=lambda it: (it.weight, it.key))
    return acc + len(ordered)


@dataclass(frozen=True)
class Rep:
    """One timed region: its wall seconds and the snippet timings taken
    inside it."""

    wall_s: float
    samples_s: Tuple[float, ...]

    @property
    def sampled_s(self) -> float:
        return sum(self.samples_s)

    @property
    def work(self) -> float:
        """Region cost in reference-snippet runs (see module docstring)."""
        if not self.samples_s:
            raise ValueError("region too short to sample; time more work")
        speed = sum(1.0 / s for s in self.samples_s) / len(self.samples_s)
        return (self.wall_s - self.sampled_s) * speed


class Timed:
    """Context manager timing one region with in-region speed samples.

    Starts after a full collection, so no region inherits another's
    garbage.  The collector is paused while a snippet runs, so a
    collection owed to the program lands in the program's time."""

    def __init__(self) -> None:
        self.rep: Rep = None
        self._samples: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        self._samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Timed":
        gc.collect()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        # Stop the timer first, so every snippet taken lies inside ``wall``.
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.rep = Rep(wall, tuple(self._samples))


def median_work(reps: Sequence[Rep]) -> float:
    return median(r.work for r in reps)


def reference_seconds(work: float) -> float:
    """Seconds that ``work`` snippet runs take at the reference speed."""
    return work * REFERENCE_SNIPPET_S


def time_serves(serves: Sequence[Callable[[Timed], None]], seconds: float,
                min_rounds: int) -> List[List[Rep]]:
    """Run ``serves`` round-robin until ``seconds`` have passed and at
    least ``min_rounds`` rounds ran.

    Each callable wraps exactly its serve in the :class:`Timed` it is
    given, so it can build inputs and check outputs outside the timed
    region.  Returns one list of :class:`Rep` per callable.
    """
    out: List[List[Rep]] = [[] for _ in serves]
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < t_end:
        for reps, serve in zip(out, serves):
            timed = Timed()
            serve(timed)
            reps.append(timed.rep)
        rounds += 1
    return out
