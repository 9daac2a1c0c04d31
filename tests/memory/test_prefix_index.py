"""Radix prefix index + copy-on-write page sharing on the KV arena."""

from typing import List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory import (
    KVArenaError,
    KVCacheArena,
    RadixPrefixIndex,
)

BPT = 64   # bytes per token (arbitrary, small)
P = 8      # page tokens


def arena(capacity_tokens=256, watermark=0.9, **kw):
    return KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=P,
                        high_watermark=watermark, **kw)


def ids(n, base=0):
    return tuple(range(base, base + n))


class TestCowFork:
    def test_fork_shares_aligned_pages_and_copies_tail(self):
        a = arena()
        a.admit(0, prompt_tokens=20, max_total_tokens=40)  # 3 pages, tail partial
        parent = a.region_of(0)
        assert a.fork(0, 1, max_total_tokens=40)
        child = a.region_of(1)
        # Two full pages shared by refcount, the partial third copied.
        assert child.pages[:2] == parent.pages[:2]
        assert child.pages[2] is not parent.pages[2]
        assert all(p.refcount == 2 for p in parent.pages[:2])
        assert parent.pages[2].refcount == 1
        assert child.shared_tokens == 2 * P
        assert a.verify() == []

    def test_shared_pages_charged_once(self):
        a = arena(capacity_tokens=64, watermark=1.0)
        a.admit(0, prompt_tokens=44, max_total_tokens=48)
        # A full copy (48 tokens) would not fit in the 16 free tokens,
        # but the CoW fork's private footprint is just the 8-token tail.
        assert a.used_bytes == 48 * BPT
        assert a.fork(0, 1, max_total_tokens=48)
        assert a.used_bytes == (48 + P) * BPT
        assert a.verify() == []

    def test_fork_denied_when_private_tail_does_not_fit(self):
        a = arena(capacity_tokens=48, watermark=1.0)
        a.admit(0, prompt_tokens=40, max_total_tokens=40)
        # Tail page (8) fits, but a 16-token growth budget does not.
        assert not a.fork(0, 1, max_total_tokens=40 + 16)
        assert a.denials == 1

    def test_release_frees_only_refcount_zero_pages(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=32)
        a.fork(0, 1, max_total_tokens=32)
        a.release(0)
        # The child still references both shared pages: nothing freed.
        assert a.used_bytes == 16 * BPT
        assert all(p.refcount == 1 for p in a.region_of(1).pages)
        a.release(1)
        assert a.used_bytes == 0
        assert a.verify(live_req_ids=[]) == []

    def test_append_after_fork_never_touches_shared_pages(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=48)
        a.fork(0, 1, max_total_tokens=48)
        shared = list(a.region_of(0).pages)
        a.append(1, P)  # child grows into a fresh private page
        assert a.region_of(1).pages[:2] == shared
        assert a.region_of(1).pages[-1].refcount == 1
        assert a.verify() == []

    def test_fork_validation(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=32)
        with pytest.raises(KVArenaError, match="already has"):
            a.fork(0, 0, max_total_tokens=32)
        with pytest.raises(ValueError, match="fork budget"):
            a.fork(0, 1, max_total_tokens=8)


class TestRadixIndex:
    def publish(self, a, index, req_id, n_tokens, base=0):
        a.admit(req_id, prompt_tokens=n_tokens, max_total_tokens=n_tokens)
        pages = a.region_of(req_id).pages[:n_tokens // P]
        index.insert(ids(n_tokens, base), pages)
        return pages

    def test_lookup_miss_on_empty_index(self):
        a = arena()
        index = RadixPrefixIndex(a)
        assert index.lookup(ids(24)) == (0, [])
        assert index.stats()["lookups"] == 1
        assert index.stats()["hits"] == 0

    def test_insert_lookup_roundtrip(self):
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 24)
        matched, found = index.lookup(ids(24) + (99,))
        assert matched == 24 and found == pages
        # Pages gained one index reference each.
        assert all(p.refcount == 2 for p in pages)

    def test_never_matches_the_whole_prompt(self):
        # At least one token is always left for prefill: a prompt equal
        # to the cached prefix matches one page less.
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 16)
        matched, found = index.lookup(ids(16))
        assert matched == P and found == pages[:1]

    def test_diverging_suffix_matches_common_prefix_only(self):
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 24)
        other = ids(16) + ids(8, base=1000) + (7,)
        matched, found = index.lookup(other)
        assert matched == 16 and found == pages[:2]

    def test_first_publisher_wins(self):
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 16)
        a.admit(1, prompt_tokens=16, max_total_tokens=16)
        rival = a.region_of(1).pages
        assert index.insert(ids(16), rival[:2]) == 0  # nothing new indexed
        assert index.lookup(ids(17))[1] == pages  # original pages stay
        assert all(p.refcount == 1 for p in rival)

    def test_insert_validates_id_coverage(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=16)
        index = RadixPrefixIndex(a)
        with pytest.raises(KVArenaError, match="token ids"):
            index.insert(ids(8), a.region_of(0).pages)

    def test_release_keeps_indexed_pages_resident(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 24)
        a.release(0)
        assert a.used_bytes == 24 * BPT
        assert a.reclaimable_bytes == 24 * BPT
        assert a.committed_bytes == 0
        matched, _ = index.lookup(ids(25))
        assert matched == 24
        assert a.verify(live_req_ids=[]) == []

    def test_pinned_pages_are_not_evictable(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 24)  # region 0 still live: pinned
        assert index.reclaim(1000) == 0
        a.release(0)
        assert index.reclaim(1000) == 24
        assert len(index) == 0 and a.used_bytes == 0

    def test_reclaim_evicts_lru_leaves_first(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 16)            # path A: 2 nodes
        self.publish(a, index, 1, 16, base=500)  # path B: 2 nodes
        a.release(0)
        a.release(1)
        index.lookup(ids(17))  # touch path A: B's leaf becomes LRU
        assert index.reclaim(P) == P
        assert index.lookup(ids(17))[0] == 16        # A intact
        assert index.lookup(ids(17, base=500))[0] == P  # B lost its leaf
        assert a.verify(live_req_ids=[]) == []

    def test_reclaim_cascades_through_exposed_parents(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 32)
        a.release(0)
        # Interior nodes become leaves as their children evict: one sweep
        # drains the whole 4-page path.
        assert index.reclaim(32) == 32
        assert len(index) == 0 and a.used_bytes == 0

    def test_allocation_pressure_triggers_reclaim(self):
        a = arena(capacity_tokens=32, watermark=1.0)
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 24)
        a.release(0)  # 24 tokens resident, all index-only
        # A 16-token admit exceeds 32-token residency: the allocator must
        # reclaim cached pages rather than deny (gates exclude them).
        assert a.admit(1, prompt_tokens=16, max_total_tokens=16)
        assert a.pages_reclaimed >= 1
        assert a.used_bytes <= 32 * BPT
        assert a.verify() == []

    def test_clear_drops_all_unpinned(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 16)
        a.release(0)
        assert index.clear() == 16
        assert index.stats()["pages_evicted"] == 2


class TestPreemptRestoreSharedPages:
    def setup_shared(self):
        a = arena()
        index = RadixPrefixIndex(a)
        a.admit(0, prompt_tokens=24, max_total_tokens=24)
        pages = a.region_of(0).pages[:2]
        index.insert(ids(24), pages)
        a.release(0)
        return a, index, pages

    def test_preempt_keeps_indexed_prefix_resident(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=40,
                       shared_pages=pages)
        a.preempt(1)
        # Private pages are gone; the indexed prefix survives.
        assert a.used_bytes == 16 * BPT
        assert all(p.refcount == 1 for p in pages)
        assert index.lookup(ids(24) + (5,))[0] == 16
        assert a.verify(live_req_ids=[]) == []

    def test_restore_reattaches_still_cached_prefix(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=40,
                       shared_pages=pages)
        a.append(1, 8)  # generated a bit before eviction
        a.preempt(1)
        matched, found = index.lookup(ids(24))
        assert (matched, found) == (16, list(pages))
        assert a.restore(1, tokens=32, max_total_tokens=40,
                         shared_pages=found)
        region = a.region_of(1)
        assert region.pages[:2] == list(pages)
        assert region.shared_tokens == 16
        assert all(p.refcount == 2 for p in pages)
        assert a.verify() == []
        a.release(1)
        assert a.verify(live_req_ids=[]) == []

    def test_preempt_with_live_sibling_sharing_pages(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=32,
                       shared_pages=pages)
        assert a.admit(2, prompt_tokens=24, max_total_tokens=32,
                       shared_pages=pages)
        assert all(p.refcount == 3 for p in pages)  # index + two regions
        a.preempt(1)
        assert all(p.refcount == 2 for p in pages)
        # The sibling's region is untouched and the arena stays coherent.
        assert a.region_of(2).pages[:2] == list(pages)
        assert a.verify() == []

    def test_restore_without_cache_after_eviction(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=40,
                       shared_pages=pages)
        a.preempt(1)
        index.clear()  # cached prefix evicted while preempted
        assert a.used_bytes == 0
        assert a.restore(1, tokens=24, max_total_tokens=40)
        assert a.region_of(1).shared_tokens == 0
        assert a.verify() == []

    def test_stats_surface_sharing_counters(self):
        a, index, pages = self.setup_shared()
        a.admit(1, prompt_tokens=24, max_total_tokens=32, shared_pages=pages)
        a.fork(1, 2, max_total_tokens=32)
        stats = a.stats()
        assert stats["forks"] == 1
        assert stats["shared_tokens_attached"] >= 16
        assert stats["pages_resident"] == len(a._pages)

    def test_shared_page_from_foreign_arena_rejected(self):
        a, index, pages = self.setup_shared()
        other = arena()
        with pytest.raises(KVArenaError, match="not resident"):
            other.admit(0, prompt_tokens=24, max_total_tokens=24,
                        shared_pages=pages)


# -- heap-ordered reclaim vs. the linear-scan oracle ---------------------------
#
# ``reclaim`` keeps candidate leaves in a lazy min-heap.  The oracle is the
# original brute-force reclaim: for each victim, scan every node and take
# the unpinned leaf with the smallest ``(last_used, page_id)``.  Two
# arena+index pairs replay one random trace of admit / append / release /
# insert / lookup / reclaim operations; the eviction sequences must match
# victim for victim, and the arena's plan + refcount audit must stay clean
# after every step.


class HeapIndex(RadixPrefixIndex):
    """The index under test, unchanged apart from the eviction log."""

    def __init__(self, arena: KVCacheArena) -> None:
        super().__init__(arena)
        self.victims: List[int] = []

    def _evict(self, node) -> None:
        self.victims.append(node.page.page_id)
        super()._evict(node)


class ScanIndex(HeapIndex):
    """Oracle: the original O(nodes)-per-victim reclaim."""

    def reclaim(self, tokens_needed: int) -> int:
        freed = 0
        while freed < tokens_needed:
            victim: Optional[object] = None
            for node in self._nodes.values():
                if node.children or node.page.refcount != 1:
                    continue
                if victim is None or (node.last_used, node.page.page_id) \
                        < (victim.last_used, victim.page.page_id):
                    victim = node
            if victim is None:
                break
            freed += victim.page.tokens
            self._evict(victim)
        return freed


# Prompts are drawn from a few shared heads so paths branch and overlap.
HEADS = [tuple(range(100 * h, 100 * h + 3 * P)) for h in range(3)]

prompt = st.tuples(st.integers(0, len(HEADS) - 1), st.integers(1, 3 * P),
                   st.lists(st.integers(0, 3), max_size=P))
op = st.one_of(
    st.tuples(st.just("admit"), prompt, st.integers(0, 2 * P)),
    st.tuples(st.just("append"), st.integers(0, 7), st.integers(1, 2 * P)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 7)),
    st.tuples(st.just("lookup"), prompt, st.integers(1, 40)),
    st.tuples(st.just("reclaim"), st.integers(1, 6 * P)),
)


def _ids(spec) -> tuple:
    head, keep, tail = spec
    return HEADS[head][:keep] + tuple(tail)


class Twin:
    """One arena + index replaying the trace."""

    def __init__(self, index_cls) -> None:
        self.arena = arena(capacity_tokens=12 * P, watermark=0.75)
        self.index = index_cls(self.arena)
        self.prompts = {}  # live req_id -> prompt ids
        self.next_id = 0

    def live(self, k: int) -> Optional[int]:
        if not self.prompts:
            return None
        return sorted(self.prompts)[k % len(self.prompts)]

    def step(self, operation) -> object:
        kind = operation[0]
        kv, index = self.arena, self.index
        if kind == "admit":
            ids = _ids(operation[1])
            matched, pages = index.lookup(ids)
            req = self.next_id
            self.next_id += 1
            if not kv.admit(req, len(ids), len(ids) + operation[2],
                               shared_pages=pages):
                return (matched, False)
            self.prompts[req] = ids
            index.insert(ids, kv.region_of(req).pages[:len(ids) // P])
            return (matched, True)
        if kind == "append":
            req = self.live(operation[1])
            if req is None:
                return None
            region = kv.region_of(req)
            room = region.worst_case_tokens - region.tokens
            if room <= 0:
                return 0
            kv.append(req, min(room, operation[2]))
            return region.tokens
        if kind == "release":
            req = self.live(operation[1])
            if req is not None:
                kv.release(req)
                del self.prompts[req]
            return req
        if kind == "insert":
            req = self.live(operation[1])
            if req is None:
                return None
            ids = self.prompts[req]
            return index.insert(ids, kv.region_of(req).pages[:len(ids) // P])
        if kind == "lookup":
            ids = _ids(operation[1])
            return [index.lookup(ids)[0] for _ in range(operation[2])][-1]
        return index.reclaim(operation[1])


@settings(max_examples=150, deadline=None)
@given(st.lists(op, max_size=60))
# A leaf touched after an older leaf was published must outlive it: its
# first heap entry goes stale and must not evict it early.
@example([("admit", (0, 3 * P, [0]), 0), ("admit", (1, 3 * P, [0]), 0),
          ("release", 0), ("release", 0), ("lookup", (0, 3 * P, [1]), 1),
          ("reclaim", P)])
def test_heap_reclaim_matches_linear_scan(trace):
    heap, scan = Twin(HeapIndex), Twin(ScanIndex)
    for operation in trace:
        assert heap.step(operation) == scan.step(operation)
        assert heap.index.victims == scan.index.victims
        assert heap.arena.verify() == []
        assert heap.index.stats() == scan.index.stats()
    assert heap.index.clear() == scan.index.clear()
    assert heap.index.victims == scan.index.victims
    assert heap.arena.verify() == []


def test_heap_stays_bounded_under_repeated_lookups():
    # Every touch of a leaf pushes an entry; the heap is rebuilt from the
    # live leaves before stale entries can pile up.
    twin = Twin(HeapIndex)
    twin.step(("admit", (0, 3 * P, []), 0))
    for _ in range(500):
        twin.index.lookup(HEADS[0] + (0,))
    assert len(twin.index._heap) <= 2 * len(twin.index) + 65
