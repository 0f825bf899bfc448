"""The prefix tree's eviction index against a full tree walk, the
one-pass commit against a two-pass one, and the content-keyed
placement caches pimalloc reads.

``PrefixTree.lru_leaf`` pops its victim from a lazily pruned heap.  The
oracle is a full walk: visit every node and keep the smallest
``(last_use_ns, key)`` idle leaf, the first one met on an exact tie.
Timestamps and keys are drawn from tiny ranges so exact ties, and
equal keys under different parents, are common.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitfield import ceil_div
from repro.core.mapping import _pim_optimized_mapping, pim_optimized_mapping
from repro.core.pimalloc import PimSystem
from repro.core.selector import (
    MatrixConfig,
    _select_mapping,
    pu_order_for,
    select_mapping,
)
from repro.dram.config import TINY_ORG
from repro.kvcache import BlockPool, KvCacheManager, KvPoolExhausted
from repro.kvcache.block import BlockRef, KvCacheError
from repro.kvcache.prefix import PrefixTree
from repro.pim.config import aim_config_for
from repro.reliability.faults import FaultInjector

# -- the oracle: a full walk ----------------------------------------------------


def scan_lru_leaf(tree):
    best = None
    for node in tree._iter_nodes():
        if node.seq_refs != 0 or not node.is_leaf:
            continue
        if best is None or (node.last_use_ns, node.key) < (best.last_use_ns, best.key):
            best = node
    return best


def scan_idle(tree):
    return sum(1 for node in tree._iter_nodes() if node.seq_refs == 0)


# -- random histories -----------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.integers(0, 4), st.integers(0, 2)),
        st.tuples(st.just("acquire"), st.integers(0, 1 << 16), st.integers(0, 2)),
        st.tuples(st.just("release"), st.integers(0, 1 << 16), st.integers(0, 2)),
        st.tuples(st.just("evict"), st.integers(0, 1 << 16)),
        st.tuples(st.just("evict_lru")),
    ),
    max_size=80,
)


def _apply(tree, op):
    nodes = tree.nodes()
    kind = op[0]
    if kind == "insert":
        _, pick, key, t = op
        parent = None if not nodes or pick % 3 == 0 else nodes[pick % len(nodes)]
        if tree.lookup(parent, key) is None:
            tree.insert(parent, key, BlockRef(len(nodes), 0), float(t))
    elif kind == "acquire" and nodes:
        tree.acquire(nodes[op[1] % len(nodes)], float(op[2]))
    elif kind == "release":
        held = [node for node in nodes if node.seq_refs]
        if held:
            tree.release(held[op[1] % len(held)], float(op[2]))
    elif kind == "evict":
        idle = [node for node in nodes if node.seq_refs == 0 and node.is_leaf]
        if idle:
            tree.evict(idle[op[1] % len(idle)])
    elif kind == "evict_lru":
        victim = tree.lru_leaf()
        if victim is not None:
            tree.evict(victim)


class TestEvictionIndex:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    def test_index_equals_the_walk(self, ops):
        tree = PrefixTree()
        for op in ops:
            _apply(tree, op)
            assert tree.lru_leaf() is scan_lru_leaf(tree), op
            assert tree.idle_count == scan_idle(tree) == len(tree.idle_nodes())
            assert len(tree._heap) <= 2 * len(tree) + 64
            assert tree.audit() == []

    def test_exact_tie_goes_to_the_first_node_walked(self):
        """Equal keys under different parents, touched at the same time:
        the walk visits later-inserted siblings first."""
        tree = PrefixTree()
        a = tree.insert(None, 1, BlockRef(0, 0), 0.0)
        b = tree.insert(None, 2, BlockRef(1, 0), 0.0)
        leaf_a = tree.insert(a, 7, BlockRef(2, 0), 5.0)
        leaf_b = tree.insert(b, 7, BlockRef(3, 0), 5.0)
        assert scan_lru_leaf(tree) is leaf_b
        assert tree.lru_leaf() is leaf_b
        tree.evict(leaf_b)
        assert tree.lru_leaf() is scan_lru_leaf(tree) is b
        assert leaf_a.parent is a

    def test_stale_entries_are_rebuilt_away(self):
        tree = PrefixTree()
        node = tree.insert(None, 1, BlockRef(0, 0), 0.0)
        for t in range(500):
            tree.acquire(node, float(t))
            tree.release(node, float(t))
        assert len(tree._heap) <= 2 * len(tree) + 64
        assert tree.lru_leaf() is node

    def test_manager_audit_checks_the_index(self):
        manager = KvCacheManager(BlockPool(8))
        manager.begin(1, conv_key=3, total_tokens=40)
        manager.release(1)
        assert manager.audit() == []
        manager.tree.idle_count += 1
        assert any("idle count" in v for v in manager.audit())


# -- commit in one pass ----------------------------------------------------------


def two_pass_commit(kv, seq_id, n_tokens, now_ns):
    """Commit in two passes: guard every touched block, resolve each
    again to write it, then try to publish."""
    seq = kv._seqs[seq_id]
    B = kv.block_tokens
    if seq.tokens + n_tokens > seq.capacity(B):
        raise KvCacheError(f"sequence {seq_id} commits past its capacity")
    start, end = seq.tokens, seq.tokens + n_tokens
    for index in range(start // B, ceil_div(end, B) if end else 0):
        p = index - len(seq.shared)
        if 0 <= p < len(seq.private):
            kv.pool.check_writable(seq.private[p])
    seq.tokens = end
    for index in range(start // B, ceil_div(end, B) if end else 0):
        p = index - len(seq.shared)
        if 0 <= p < len(seq.private):
            block = kv.pool.get(seq.private[p])
            block.tokens = min(B, seq.tokens - index * B)
            block.last_use_ns = now_ns
    kv._promote(seq, now_ns)


def _kv_state(kv):
    nodes = [(n.key, n.seq_refs, n.last_use_ns, n.ref) for n in kv.tree.nodes()]
    seqs = [
        (s.seq_id, s.tokens, [n.key for n in s.shared], list(s.private))
        for s in kv._seqs.values()
    ]
    blocks = [(b.state, b.ref_count, b.generation, b.tokens, b.last_use_ns) for b in kv.pool.blocks]
    leaf = kv.tree.lru_leaf()
    return nodes, seqs, blocks, list(kv.pool._free), leaf and leaf.key, kv.pressure()


_KV_OPS = st.lists(
    st.tuples(
        st.sampled_from(["begin", "grow", "grow", "fork", "release", "evict"]),
        st.integers(0, 1 << 16),
        st.integers(0, 40),
    ),
    max_size=40,
)


def _kv_apply(kv, op, step, commit):
    kind, pick, size = op
    live = sorted(kv._seqs)
    try:
        if kind == "begin":
            admission = kv.begin(1000 + step, conv_key=pick % 3, total_tokens=size)
            commit(kv, 1000 + step, admission.recompute_tokens, float(step))
        elif kind == "grow" and live:
            seq_id = live[pick % len(live)]
            kv.ensure_capacity(seq_id, size % 9, float(step))
            commit(kv, seq_id, size % 9, float(step))
        elif kind == "fork" and live:
            kv.fork(live[pick % len(live)], 1000 + step, float(step))
        elif kind == "release" and live:
            kv.release(live[pick % len(live)], float(step), retain=bool(size % 2))
        elif kind == "evict":
            leaf = kv.tree.lru_leaf()
            if leaf is not None:
                kv.pool.free(kv.tree.evict(leaf), float(step))
    except (KvPoolExhausted, KvCacheError) as exc:
        return type(exc)
    return None


class TestCommitInOnePass:
    @settings(max_examples=200, deadline=None)
    @given(ops=_KV_OPS)
    def test_equals_the_two_pass_commit(self, ops):
        one, two = KvCacheManager(BlockPool(12)), KvCacheManager(BlockPool(12))
        for step, op in enumerate(ops):
            assert _kv_apply(one, op, step, KvCacheManager.commit) == _kv_apply(
                two, op, step, two_pass_commit
            )
            assert _kv_state(one) == _kv_state(two)
            assert one.audit() == []

    def test_filling_a_block_publishes_it(self):
        kv = KvCacheManager(BlockPool(8))
        kv.begin(1, conv_key=5, total_tokens=10)
        kv.commit(1, 10)
        assert len(kv.tree) == 0
        kv.commit(1, kv.block_tokens - 10)  # exactly full
        assert len(kv.tree) == 1


# -- content-keyed placement ----------------------------------------------------

PIM = aim_config_for(TINY_ORG)


class TestPlacementCache:
    def test_selection_is_shared_and_fresh(self):
        first = select_mapping(MatrixConfig(rows=16, cols=256), TINY_ORG, PIM)
        again = select_mapping(MatrixConfig(rows=16, cols=256), TINY_ORG, PIM, 2 << 20)
        assert again is first
        fresh = _select_mapping.__wrapped__(
            MatrixConfig(rows=16, cols=256), TINY_ORG, PIM, 2 << 20
        )
        assert fresh == first and fresh is not first

    def test_mapping_is_shared_and_fresh(self):
        args = dict(
            org=TINY_ORG,
            chunk_rows=PIM.chunk_rows,
            chunk_cols=PIM.chunk_cols,
            dtype_bytes=PIM.dtype_bytes,
            map_id=1,
            n_bits=21,
        )
        mapping = pim_optimized_mapping(**args)
        assert pim_optimized_mapping(**args, pu_order=["bank", "rank", "channel"]) is mapping
        fresh = _pim_optimized_mapping.__wrapped__(
            TINY_ORG, PIM.chunk_rows, PIM.chunk_cols, PIM.dtype_bytes, 1, 21, "",
            ("bank", "rank", "channel"),
        )
        assert fresh == mapping and fresh is not mapping

    def test_errors_are_not_cached(self):
        with pytest.raises(ValueError, match="pu_order"):
            pim_optimized_mapping(TINY_ORG, 1, 128, 2, 0, 21, pu_order=("bank",) * 3)
        with pytest.raises(ValueError, match="pu_order"):
            pim_optimized_mapping(TINY_ORG, 1, 128, 2, 0, 21, pu_order=("bank",) * 3)

    def test_corrupting_a_table_entry_leaves_the_cached_mapping_intact(self):
        system = PimSystem.build(TINY_ORG, PIM, integrity=True)
        matrix = MatrixConfig(rows=16, cols=256)
        tensor = system.pimalloc(matrix)
        selection = select_mapping(matrix, TINY_ORG, PIM)
        cached = pim_optimized_mapping(
            TINY_ORG, PIM.chunk_rows, PIM.chunk_cols, PIM.dtype_bytes,
            selection.map_id, 21, pu_order=pu_order_for(selection),
        )
        assert tensor.mapping is cached and tensor.selection is selection
        snapshot = (cached.name, cached.n_bits, dict(cached.fields))
        FaultInjector(seed=4).corrupt_mapping_entry(system.controller.table, tensor.map_id)
        assert system.controller.table._entries[tensor.map_id] is not cached
        assert (cached.name, cached.n_bits, dict(cached.fields)) == snapshot
        assert system.pimalloc(matrix).mapping is cached
