"""The sequence-facing KV-cache manager.

Each sequence owns a *block table*: a run of shared full blocks
(prefix-tree nodes, root-first) followed by private blocks, the last of
which may be a partial tail.  The manager enforces the paged-KV
invariants end to end:

* **admission** (:meth:`KvCacheManager.begin`) walks the prefix tree —
  cached blocks are acquired, only the remainder is allocated, and the
  caller prices prefill over ``recompute_tokens`` alone;
* **growth** (:meth:`ensure_capacity` + :meth:`commit`) appends decode
  tokens, evicting LRU idle leaves on demand and raising
  :class:`~repro.kvcache.block.KvPoolExhausted` when nothing is
  reclaimable — the scheduler's cue to preempt;
* **copy-on-write**: a fork shares every parent block by refcount; the
  first append to a shared tail copies it first
  (:class:`~repro.kvcache.block.SharedBlockWriteError` is the enforced
  backstop — shared blocks are never mutated in place);
* **publication**: full private blocks of a conversation are promoted
  into the tree at commit/release, so later turns (and recompute after
  preemption) hit the shared prefix;
* **pressure** (:meth:`pressure`) is the fraction of the pool that is
  *not* reclaimable — the first-class signal the serving runtime's
  admission and brown-out logic consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.bitfield import ceil_div
from repro.engine.metrics import percentile
from repro.kvcache.block import (
    BlockRef,
    KvBlock,
    KvCacheError,
    KvPoolExhausted,
    StaleBlockError,
)
from repro.kvcache.pool import BlockPool
from repro.kvcache.prefix import PrefixNode, PrefixTree, token_block_key

__all__ = ["KvCacheManager", "SeqAdmission"]


@dataclass(frozen=True)
class SeqAdmission:
    """Outcome of admitting one sequence to the KV cache."""

    seq_id: int
    total_tokens: int
    cached_tokens: int
    recompute_tokens: int
    new_blocks: int


class _Sequence:
    __slots__ = ("seq_id", "conv_key", "shared", "private", "tokens")

    def __init__(self, seq_id: int, conv_key: Optional[int]) -> None:
        self.seq_id = seq_id
        self.conv_key = conv_key
        self.shared: List[PrefixNode] = []
        self.private: List[BlockRef] = []
        self.tokens = 0  # committed tokens

    def capacity(self, block_tokens: int) -> int:
        return (len(self.shared) + len(self.private)) * block_tokens


class KvCacheManager:
    """Block tables, prefix sharing, CoW forks, eviction, preemption."""

    def __init__(self, pool: BlockPool, prefix_sharing: bool = True) -> None:
        self.pool = pool
        self.tree = PrefixTree()
        self.prefix_sharing = prefix_sharing
        self._seqs: Dict[int, _Sequence] = {}
        #: cumulative counters
        self.evictions = 0
        self.preemptions = 0
        self.cow_copies = 0
        self.forks = 0
        self.prefix_lookup_tokens = 0
        self.prefix_hit_tokens = 0

    @property
    def block_tokens(self) -> int:
        return self.pool.block_tokens

    @property
    def num_blocks(self) -> int:
        return self.pool.num_blocks

    def live_sequences(self) -> int:
        return len(self._seqs)

    def contains(self, seq_id: int) -> bool:
        """True while *seq_id* is admitted (not yet released/preempted)."""
        return seq_id in self._seqs

    # -- allocation with eviction -----------------------------------------

    def _alloc_blocks(self, count: int, now_ns: float) -> List[KvBlock]:
        """Allocate *count* blocks, one pool run per stretch of free
        blocks, evicting an LRU idle leaf only when none is free (where a
        block-by-block loop would evict it).  Raises
        :class:`KvPoolExhausted` with nothing held when the pool cannot
        cover *count*."""
        free = self.pool.free_blocks
        if count <= free:
            return self.pool.alloc_run(count, now_ns)
        blocks = self.pool.alloc_run(free, now_ns)
        while len(blocks) < count:
            leaf = self.tree.lru_leaf()
            if leaf is None:
                self.pool.free_run([block.ref for block in blocks], now_ns)
                raise KvPoolExhausted(
                    f"all {self.pool.num_blocks} KV blocks in use and none evictable"
                )
            self.pool.free(self.tree.evict(leaf), now_ns)
            self.evictions += 1
            take = min(count - len(blocks), self.pool.free_blocks)
            blocks.extend(self.pool.alloc_run(take, now_ns))
        return blocks

    # -- admission ---------------------------------------------------------

    def peek_cached(self, conv_key: Optional[int], total_tokens: int) -> int:
        """Cached-token count a :meth:`begin` would hit, without
        acquiring anything (read-only: for routing/pricing)."""
        if not self.prefix_sharing or conv_key is None:
            return 0
        B = self.block_tokens
        keys = [token_block_key(conv_key, i) for i in range(total_tokens // B)]
        return len(self.tree.walk(keys)) * B

    def begin(
        self,
        seq_id: int,
        conv_key: Optional[int],
        total_tokens: int,
        now_ns: float = 0.0,
    ) -> SeqAdmission:
        """Admit a sequence whose first *total_tokens* tokens (context +
        prefill) are about to be computed.  Cached prefix blocks are
        acquired; the remainder is allocated (evicting idle leaves on
        demand).  Raises :class:`KvPoolExhausted` with nothing held when
        the pool cannot cover the remainder."""
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id} already admitted")
        if total_tokens < 0:
            raise ValueError("total_tokens must be >= 0")
        B = self.block_tokens
        seq = _Sequence(seq_id, conv_key)
        hits: List[PrefixNode] = []
        if self.prefix_sharing and conv_key is not None and total_tokens >= B:
            keys = [token_block_key(conv_key, i) for i in range(total_tokens // B)]
            hits = self.tree.walk(keys)
        self.prefix_lookup_tokens += total_tokens
        cached = len(hits) * B
        self.prefix_hit_tokens += cached
        # acquire before allocating, so eviction cannot reclaim a hit
        for node in hits:
            self.tree.acquire(node, now_ns)
        need_blocks = ceil_div(total_tokens - cached, B) if total_tokens > cached else 0
        try:
            new_refs = [block.ref for block in self._alloc_blocks(need_blocks, now_ns)]
        except KvPoolExhausted:
            for node in hits:
                self.tree.release(node, now_ns)
            raise
        seq.shared = hits
        seq.private = new_refs
        seq.tokens = cached
        self._seqs[seq_id] = seq
        return SeqAdmission(
            seq_id=seq_id,
            total_tokens=total_tokens,
            cached_tokens=cached,
            recompute_tokens=total_tokens - cached,
            new_blocks=len(new_refs),
        )

    # -- growth ------------------------------------------------------------

    def _make_tail_writable(self, seq: _Sequence, now_ns: float) -> None:
        """Copy-on-write: the block about to receive token ``seq.tokens``
        must be privately held before it is written."""
        B = self.block_tokens
        index = seq.tokens // B
        p = index - len(seq.shared)
        if p < 0 or p >= len(seq.private):
            return
        ref = seq.private[p]
        block = self.pool.get(ref)
        if block.ref_count == 1:
            return
        fresh = self._alloc_blocks(1, now_ns)[0]
        fresh.tokens = block.tokens
        self.pool.free(ref, now_ns)
        seq.private[p] = fresh.ref
        self.cow_copies += 1

    def ensure_capacity(
        self, seq_id: int, n_tokens: int = 1, now_ns: float = 0.0
    ) -> None:
        """Guarantee room to commit *n_tokens* more tokens, allocating
        (and CoW-copying a shared tail) as needed.  Raises
        :class:`KvPoolExhausted` when the pool cannot provide — the
        sequence's existing blocks are untouched."""
        seq = self._seqs[seq_id]
        self._make_tail_writable(seq, now_ns)
        short = seq.tokens + n_tokens - seq.capacity(self.block_tokens)
        if short > 0:
            added = self._alloc_blocks(ceil_div(short, self.block_tokens), now_ns)
            seq.private.extend(block.ref for block in added)

    def commit(self, seq_id: int, n_tokens: int, now_ns: float = 0.0) -> None:
        """Record *n_tokens* newly computed tokens (capacity must already
        exist); full private blocks of a conversation are published to
        the prefix tree."""
        seq = self._seqs[seq_id]
        B = self.block_tokens
        if seq.tokens + n_tokens > seq.capacity(B):
            raise KvCacheError(
                f"sequence {seq_id} commits past its capacity; call "
                "ensure_capacity first"
            )
        # the write guard: every block receiving tokens must be private;
        # each is resolved once, and all pass before any is written
        start, end = seq.tokens, seq.tokens + n_tokens
        shared = len(seq.shared)
        touched = [
            (index, self.pool.check_writable(seq.private[index - shared]))
            for index in range(
                max(start // B, shared),
                min(ceil_div(end, B), shared + len(seq.private)),
            )
        ]
        seq.tokens = end
        for index, block in touched:
            block.tokens = min(B, end - index * B)
            block.last_use_ns = now_ns
        if seq.private and end >= (shared + 1) * B:
            # the first private block is full: publishable
            self._promote(seq, now_ns)

    def _promote(self, seq: _Sequence, now_ns: float) -> None:
        """Publish full private blocks (in order) into the prefix tree,
        transferring the sequence's block hold to the tree."""
        if not self.prefix_sharing or seq.conv_key is None:
            return
        B = self.block_tokens
        while seq.private:
            index = len(seq.shared)
            if seq.tokens < (index + 1) * B:
                break  # not full yet
            ref = seq.private[0]
            block = self.pool.get(ref)
            if block.ref_count != 1:
                break  # CoW-shared with a fork: stays private
            parent = seq.shared[-1] if seq.shared else None
            key = token_block_key(seq.conv_key, index)
            if self.tree.lookup(parent, key) is not None:
                break  # another sequence published this block first
            node = self.tree.insert(parent, key, ref, now_ns)
            self.tree.acquire(node, now_ns)
            block.tokens = B
            seq.shared.append(node)
            seq.private.pop(0)

    # -- forks -------------------------------------------------------------

    def fork(self, parent_id: int, child_id: int, now_ns: float = 0.0) -> None:
        """Copy-on-write fork: the child shares every parent block; the
        first divergent append copies the shared tail."""
        if child_id in self._seqs:
            raise ValueError(f"sequence {child_id} already admitted")
        parent = self._seqs[parent_id]
        child = _Sequence(child_id, parent.conv_key)
        for node in parent.shared:
            self.tree.acquire(node, now_ns)
        for ref in parent.private:
            self.pool.share(ref)
        child.shared = list(parent.shared)
        child.private = list(parent.private)
        child.tokens = parent.tokens
        self._seqs[child_id] = child
        self.forks += 1

    # -- teardown ----------------------------------------------------------

    def release(self, seq_id: int, now_ns: float = 0.0, retain: bool = True) -> None:
        """Drop the sequence.  With ``retain`` (and sharing enabled) its
        full conversation blocks stay cached in the tree for later
        turns; partial tails are always freed."""
        seq = self._seqs.pop(seq_id)
        if retain:
            self._promote(seq, now_ns)
        for node in seq.shared:
            self.tree.release(node, now_ns)
        self.pool.free_run(seq.private, now_ns)

    def preempt(self, seq_id: int, now_ns: float = 0.0) -> None:
        """Preempt-and-recompute: free the sequence's private blocks but
        keep its published prefix cached, so the recompute prefill hits
        the tree instead of starting from scratch."""
        self.release(seq_id, now_ns, retain=True)
        self.preemptions += 1

    # -- pressure and health ----------------------------------------------

    def pressure(self) -> float:
        """Fraction of the pool that is live and **not** reclaimable
        (idle cached leaves are reclaimable by eviction)."""
        return (self.pool.used - self.tree.idle_count) / self.pool.num_blocks

    def audit(self) -> List[str]:
        """Cross-layer invariant check; returns violations (empty = clean)."""
        violations = list(self.pool.audit())
        violations.extend(self.tree.audit())
        expected: Dict[int, int] = {}
        for node in self.tree.nodes():
            try:
                self.pool.get(node.ref)
            except StaleBlockError as exc:
                violations.append(f"prefix tree holds a stale ref: {exc}")
                continue
            expected[node.ref.block_id] = expected.get(node.ref.block_id, 0) + 1
        for seq in self._seqs.values():
            for ref in seq.private:
                try:
                    self.pool.get(ref)
                except StaleBlockError as exc:
                    violations.append(
                        f"sequence {seq.seq_id} holds a stale ref: {exc}"
                    )
                    continue
                expected[ref.block_id] = expected.get(ref.block_id, 0) + 1
            if seq.tokens > seq.capacity(self.block_tokens):
                violations.append(
                    f"sequence {seq.seq_id} committed past its capacity"
                )
        actual = self.pool.refcounts()
        if expected != actual:
            leaked = {
                bid: n for bid, n in actual.items() if expected.get(bid, 0) != n
            }
            violations.append(
                f"refcount reconciliation failed: live {leaked} vs "
                f"holders {({b: expected.get(b, 0) for b in leaked})}"
            )
        return violations

    @property
    def prefix_hit_rate(self) -> float:
        if self.prefix_lookup_tokens == 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_lookup_tokens

    def publish_metrics(self, registry: object) -> None:
        """Publish pool/prefix counters into a telemetry registry
        (duck-typed ``repro.telemetry.MetricsRegistry`` — the KV layer
        never imports the telemetry package).  Reads :meth:`stats` only,
        so the serving hot path is untouched."""
        gauge = registry.gauge(  # type: ignore[attr-defined]
            "kv_manager_stat", "paged KV pool counters", labelnames=("stat",)
        )
        for key, value in self.stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            gauge.set(float(value), stat=key)
        registry.gauge(  # type: ignore[attr-defined]
            "kv_pool_pressure", "fraction of KV blocks in use"
        ).set(self.pressure())

    def stats(self) -> Dict:
        """Machine-readable counters (the runtime folds these into its
        SLO report)."""
        samples = self.pool.occupancy_samples
        return {
            "num_blocks": self.pool.num_blocks,
            "block_tokens": self.block_tokens,
            "block_bytes": self.pool.block_bytes,
            "prefix_sharing": self.prefix_sharing,
            "used_blocks": self.pool.used,
            "cached_blocks": len(self.tree),
            "occupancy_peak": self.pool.peak_occupancy,
            "occupancy_p99": percentile([float(s) for s in samples], 99.0),
            "allocs": self.pool.allocs,
            "frees": self.pool.frees,
            "evictions": self.evictions,
            "preemptions": self.preemptions,
            "cow_copies": self.cow_copies,
            "forks": self.forks,
            "prefix_lookup_tokens": self.prefix_lookup_tokens,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "prefix_hit_rate": self.prefix_hit_rate,
        }
