"""Radix-tree prefix index over page-aligned KV cache content.

Multi-tenant serving traffic shares long prompt prefixes — system prompts
and few-shot templates reused across millions of requests — so at high
arrival rates most prefill FLOPs recompute KV state the arena already
holds.  :class:`RadixPrefixIndex` maps the longest *cached* prefix of an
incoming prompt's token ids to resident :class:`~repro.memory.kv_arena.KVPage`
handles, so admission can attach those pages by refcount and run prefill
only over the uncached suffix.

Structure: one trie node per KV **page** (``page_tokens`` token ids), not
per token — a radix tree with fixed-width edges.  A prompt's cacheable
prefix is its page-aligned head; lookup walks child edges keyed by the
page's token-id tuple, so two prompts share a node exactly when they
agree on that page's whole content *and* everything before it (the path).
Page content is therefore content-addressed by construction: the path to
a node spells out the tokens its page holds.

Lifetime contract with the arena:

* Every indexed page carries one index reference
  (:meth:`KVCacheArena.index_ref`), so a completed request's
  :meth:`~repro.memory.kv_arena.KVCacheArena.release` keeps the page
  resident for future hits.
* Pages also referenced by a live region are **pinned** — eviction skips
  them; only unpinned *leaves* are evictable, and the LRU walk cascades
  upward as parents become leaves.
* The arena calls :meth:`reclaim` from its page allocator when residency
  would overflow capacity, making index-only pages a best-effort cache
  that never blocks admission (both admission gates exclude them).

Everything is deterministic: the LRU clock is a logical counter bumped
per lookup/insert, and eviction ties break on ``page_id``.  Candidate
leaves sit in a lazy min-heap keyed ``(last_used, page_id)``: a touch or
a newly exposed leaf pushes a fresh entry, and entries made stale by a
later touch, a new child or an eviction are dropped when popped, so one
victim costs O(log n) instead of a scan over every node.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .kv_arena import KVArenaError, KVCacheArena, KVPage


class _Node:
    """One cached page: edge key is the page's token-id tuple."""

    __slots__ = ("key", "page", "parent", "children", "last_used")

    def __init__(self, key: Tuple[int, ...], page: KVPage,
                 parent: Optional["_Node"]) -> None:
        self.key = key
        self.page = page
        self.parent = parent
        self.children: Dict[Tuple[int, ...], "_Node"] = {}
        self.last_used = 0


class RadixPrefixIndex:
    """Longest-cached-prefix lookup over page-aligned token sequences.

    Attaches itself to ``arena`` as its reclaimer: under memory pressure
    the arena evicts unpinned leaf pages in LRU order until the needed
    room is free.
    """

    def __init__(self, arena: KVCacheArena) -> None:
        self.arena = arena
        self.page_tokens = arena.page_tokens
        arena.attach_index(self)
        self._root_children: Dict[Tuple[int, ...], _Node] = {}
        self._nodes: Dict[int, _Node] = {}  # page_id -> node, insertion order
        # Lazy LRU heap of (last_used, page_id, seq, node); every leaf has
        # an entry carrying its current ``last_used`` (``seq`` only keeps
        # duplicate entries of one node from comparing nodes).
        self._heap: List[Tuple[int, int, int, _Node]] = []
        self._seq = 0
        self._clock = 0
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.pages_inserted = 0
        self.pages_evicted = 0
        self.tokens_matched = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def _page_keys(self, ids: Sequence[int],
                   limit_pages: int) -> List[Tuple[int, ...]]:
        P = self.page_tokens
        return [tuple(ids[i * P:(i + 1) * P]) for i in range(limit_pages)]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, ids: Sequence[int]) -> Tuple[int, List[KVPage]]:
        """Longest cached prefix of ``ids``: ``(matched_tokens, pages)``.

        Matches whole pages only, and never the entire prompt — at least
        one token is always left for prefill (the model must still run to
        produce the first output token), so the match is capped at
        ``(len(ids) - 1) // page_tokens`` pages.  Touching a path bumps
        its LRU clock.
        """
        self.lookups += 1
        limit = max(0, (len(ids) - 1) // self.page_tokens)
        self._clock += 1
        node: Optional[_Node] = None
        pages: List[KVPage] = []
        children = self._root_children
        for key in self._page_keys(ids, limit):
            child = children.get(key)
            if child is None:
                break
            child.last_used = self._clock
            pages.append(child.page)
            node = child
            children = child.children
        if node is not None:
            self._push_leaf(node)
        matched = len(pages) * self.page_tokens
        if pages:
            self.hits += 1
            self.tokens_matched += matched
        return matched, pages

    # -- insert ---------------------------------------------------------------

    def insert(self, ids: Sequence[int], pages: Sequence[KVPage]) -> int:
        """Publish a region's prompt pages under their token-id path.

        ``pages[i]`` must hold the KV state for ``ids[i*P:(i+1)*P]`` and
        be fully written (callers pass only the page-aligned prompt
        head).  Existing nodes win — a second publisher of the same
        content just refreshes the LRU clock, so concurrent requests
        converge on one physical page per distinct prefix.  Returns the
        number of pages newly indexed.
        """
        P = self.page_tokens
        if len(ids) < len(pages) * P:
            raise KVArenaError(
                f"insert of {len(pages)} pages needs {len(pages) * P} "
                f"token ids, got {len(ids)}"
            )
        self.inserts += 1
        self._clock += 1
        added = 0
        parent: Optional[_Node] = None
        children = self._root_children
        for key, page in zip(self._page_keys(ids, len(pages)), pages):
            node = children.get(key)
            if node is None:
                self.arena.index_ref(page)
                node = _Node(key, page, parent)
                children[key] = node
                self._nodes[page.page_id] = node
                added += 1
            node.last_used = self._clock
            parent = node
            children = node.children
        if parent is not None:
            self._push_leaf(parent)
        self.pages_inserted += added
        return added

    # -- eviction -------------------------------------------------------------

    def _push_leaf(self, node: _Node) -> None:
        """Record a leaf's current LRU key.  Interior nodes are skipped:
        they are pushed when their last child is evicted.  The heap is
        rebuilt from the live leaves once stale entries dominate it."""
        if node.children:
            return
        if len(self._heap) > 2 * len(self._nodes) + 64:
            self._heap = []
            for leaf in self._nodes.values():
                if not leaf.children:
                    self._heap.append((leaf.last_used, leaf.page.page_id,
                                       self._seq, leaf))
                    self._seq += 1
            heapq.heapify(self._heap)  # repro: allow(DET405) LRU order, not events
            return
        heapq.heappush(self._heap, (node.last_used, node.page.page_id,  # repro: allow(DET405) LRU order, not events
                                    self._seq, node))
        self._seq += 1

    def _evict(self, node: _Node) -> None:
        parent = node.parent
        siblings = (parent.children if parent is not None
                    else self._root_children)
        del siblings[node.key]
        del self._nodes[node.page.page_id]
        self.pages_evicted += 1
        self.arena.index_unref(node.page)
        if parent is not None:
            self._push_leaf(parent)

    def reclaim(self, tokens_needed: int) -> int:
        """Evict LRU unpinned leaves until ``tokens_needed`` tokens of
        page room are free (or no candidate remains).  Cascades upward:
        evicting a leaf can expose its parent.  Returns tokens freed.

        Victims leave in ascending ``(last_used, page_id)`` order among
        the unpinned leaves at each step.  Pinned leaves (a live region
        also references the page) are set aside and re-queued when the
        reclaim ends — nothing here can unpin them."""
        freed = 0
        pinned: List[Tuple[int, int, int, _Node]] = []
        while freed < tokens_needed and self._heap:
            entry = heapq.heappop(self._heap)  # repro: allow(DET405) LRU order, not events
            last_used, page_id, _, node = entry
            # Only unpinned leaves go: interior pages stay until their
            # subtree drains, keeping the cached set prefix-closed.
            if (self._nodes.get(page_id) is not node or node.children
                    or node.last_used != last_used):
                continue  # evicted, interior, or touched since the push
            if node.page.refcount != 1:  # a live region holds it too
                pinned.append(entry)
                continue
            freed += node.page.tokens
            self._evict(node)
        for entry in pinned:
            heapq.heappush(self._heap, entry)  # repro: allow(DET405) LRU order, not events
        return freed

    def clear(self) -> int:
        """Drop every unpinned cached page (full eviction sweep)."""
        return self.reclaim(len(self._nodes) * self.page_tokens or 1)

    # -- introspection --------------------------------------------------------

    def resident_pages(self) -> List[KVPage]:
        """Every page the index currently references (refcount audit)."""
        return [node.page for node in self._nodes.values()]

    def stats(self) -> Dict[str, int]:
        """Deterministic counters (read by bench and the sanitizer)."""
        return {
            "nodes": len(self._nodes),
            "lookups": self.lookups,
            "hits": self.hits,
            "inserts": self.inserts,
            "pages_inserted": self.pages_inserted,
            "pages_evicted": self.pages_evicted,
            "tokens_matched": self.tokens_matched,
        }
