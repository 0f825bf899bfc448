"""Multi-block journaled runs against the one-block loop they replace.

``BlockPool.alloc_run`` / ``free_run`` take or drop a whole run of
blocks in one journal transaction.  The oracle here is the one-block
loop written out on the pool's own state, the way the pool allocated
and freed before runs existed: pop one block, activate it, count it,
take one occupancy sample; drop one holder, reclaim at zero, count it,
take one sample.  Every check compares exact state, not a summary.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.journal import InjectedCrash, MapJournal
from repro.kvcache import (
    KV_CRASH_SITES,
    BlockPool,
    KvPoolExhausted,
    StaleBlockError,
    recover_pool,
)
from repro.kvcache.block import BLOCK_FREE, BLOCK_LIVE
from repro.reliability.faults import FaultInjector


# -- the oracle: one block at a time ------------------------------------------


def _loop_alloc(pool, count, now_ns):
    blocks = []
    for _ in range(count):
        block = pool.blocks[pool._free.popleft()]
        block.state = BLOCK_LIVE
        block.ref_count = 1
        block.tokens = 0
        block.last_use_ns = now_ns
        pool.allocs += 1
        _loop_sample(pool)
        blocks.append(block)
    return blocks


def _loop_free(pool, refs, now_ns):
    reclaimed = 0
    for ref in refs:
        block = pool.get(ref)
        block.ref_count -= 1
        block.last_use_ns = now_ns
        if block.ref_count == 0:
            block.state = BLOCK_FREE
            block.generation += 1
            block.tokens = 0
            pool._free.append(block.block_id)
            reclaimed += 1
        pool.frees += 1
        _loop_sample(pool)
    return reclaimed


def _loop_sample(pool):
    used = pool.num_blocks - len(pool._free)
    pool.occupancy_samples.append(used)
    pool.peak_occupancy = max(pool.peak_occupancy, used)


# -- helpers --------------------------------------------------------------------


def _layout(pool):
    """Block placement state: free-list order and every block's fields."""
    return (
        list(pool._free),
        [
            (b.state, b.ref_count, b.generation, b.tokens)
            for b in pool.blocks
        ],
    )


def _state(pool):
    """Everything the loop and the run must agree on."""
    return (
        _layout(pool),
        [b.last_use_ns for b in pool.blocks],
        pool.allocs,
        pool.frees,
        list(pool.occupancy_samples),
        pool.peak_occupancy,
    )


def _build(num_blocks, setup, journal=True):
    """A pool driven through *setup* (``(op, pick)`` pairs) with the
    one-block API; returns the pool and its holders, one entry per
    holder (a shared block appears once per holder)."""
    pool = BlockPool(num_blocks, journal=MapJournal() if journal else None)
    held = []
    for step, (op, pick) in enumerate(setup):
        if op == "alloc" and pool.free_blocks:
            held.append(pool.alloc(float(step)).ref)
        elif op == "share" and held:
            ref = held[pick % len(held)]
            pool.share(ref)
            held.append(ref)
        elif op == "free" and held:
            pool.free(held.pop(pick % len(held)), float(step))
    return pool, held


_SETUP = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "alloc", "share", "free"]),
        st.integers(0, 1 << 16),
    ),
    max_size=40,
)


def _crash(pool, site, action):
    injector = FaultInjector(seed=0)
    pool.journal.fault_hook = injector
    injector.schedule_crash(site)
    with pytest.raises(InjectedCrash):
        action()
    pool.journal.fault_hook = None


# -- equivalence ----------------------------------------------------------------


class TestRunsEqualTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        num_blocks=st.integers(1, 24),
        setup=_SETUP,
        journal=st.booleans(),
        data=st.data(),
    )
    def test_alloc_run(self, num_blocks, setup, journal, data):
        pool, _ = _build(num_blocks, setup, journal)
        count = data.draw(st.integers(0, pool.free_blocks), label="count")
        oracle = copy.deepcopy(pool)
        got = pool.alloc_run(count, 99.0)
        want = _loop_alloc(oracle, count, 99.0)
        assert [b.ref for b in got] == [b.ref for b in want]
        assert _state(pool) == _state(oracle)
        assert pool.audit() == []

    @settings(max_examples=150, deadline=None)
    @given(
        num_blocks=st.integers(1, 24),
        setup=_SETUP,
        journal=st.booleans(),
        data=st.data(),
    )
    def test_free_run(self, num_blocks, setup, journal, data):
        pool, held = _build(num_blocks, setup, journal)
        # any order of any subset of the holders: shared blocks may be
        # named several times, never more often than they are held
        order = data.draw(st.permutations(range(len(held))), label="order")
        take = data.draw(st.integers(0, len(held)), label="take")
        refs = [held[i] for i in order[:take]]
        oracle = copy.deepcopy(pool)
        assert pool.free_run(refs, 99.0) == _loop_free(oracle, refs, 99.0)
        assert _state(pool) == _state(oracle)
        assert pool.audit() == []

    def test_one_block_calls_are_runs_of_one(self):
        pool = BlockPool(4, journal=MapJournal())
        block = pool.alloc(1.0)
        pool.free(block.ref, 2.0)
        ops = [txn.op for txn in pool.journal.transactions()]
        assert ops == ["kvalloc", "kvfree"]

    def test_a_run_is_one_transaction(self):
        pool = BlockPool(8, journal=MapJournal())
        refs = [b.ref for b in pool.alloc_run(5, 1.0)]
        assert pool.free_run(refs, 2.0) == 5
        txns = pool.journal.transactions()
        assert [txn.op for txn in txns] == ["kvalloc", "kvfree"]
        assert all(txn.committed for txn in txns)
        assert pool.journal.uncommitted() == []


# -- crash recovery -------------------------------------------------------------


def _crash_pool():
    """16 blocks with a scrambled free list and four held blocks, one of
    them shared, so a run's blocks are not in id order."""
    pool = BlockPool(16, journal=MapJournal())
    refs = [b.ref for b in pool.alloc_run(10, 1.0)]
    rng = random.Random(7)
    rng.shuffle(refs)
    held = refs[:4]
    pool.free_run(refs[4:], 2.0)
    pool.share(held[0])
    held.append(held[0])
    return pool, held


class TestCrashRecovery:
    @pytest.mark.parametrize("length", range(1, 9))
    @pytest.mark.parametrize(
        "site", [s for s in KV_CRASH_SITES if s.startswith("kvalloc")]
    )
    def test_interrupted_alloc_returns_the_pre_op_state(self, site, length):
        pool, _ = _crash_pool()
        before = _layout(pool)
        _crash(pool, site, lambda: pool.alloc_run(length, 5.0))
        report = recover_pool(pool)
        assert report.rolled_forward == 0
        assert pool.audit() == []
        assert _layout(pool) == before
        assert pool.journal.uncommitted() == []
        again = recover_pool(pool)
        assert again.actions == []
        assert _layout(pool) == before

    @pytest.mark.parametrize("length", range(1, 9))
    @pytest.mark.parametrize(
        "site", [s for s in KV_CRASH_SITES if s.startswith("kvfree")]
    )
    def test_interrupted_free_reaches_the_post_op_state(self, site, length):
        pool, held = _crash_pool()
        extra = [b.ref for b in pool.alloc_run(max(0, length - len(held)), 4.0)]
        refs = (held + extra)[:length]
        oracle = copy.deepcopy(pool)
        _loop_free(oracle, refs, 5.0)
        _crash(pool, site, lambda: pool.free_run(refs, 5.0))
        report = recover_pool(pool)
        assert len(report.actions) == 1
        assert report.rolled_back == 0
        assert pool.audit() == []
        assert _layout(pool) == _layout(oracle)
        after = _layout(pool)
        assert recover_pool(pool).actions == []
        assert _layout(pool) == after


# -- validation -----------------------------------------------------------------


class TestRunValidation:
    def _untouched(self, pool):
        return (_state(pool), len(pool.journal), pool.journal.cursor())

    def test_stale_ref_raises_before_any_deref(self):
        pool = BlockPool(4, journal=MapJournal())
        live = pool.alloc().ref
        stale = pool.alloc().ref
        pool.free(stale)
        before = self._untouched(pool)
        with pytest.raises(StaleBlockError):
            pool.free_run([live, stale])
        assert self._untouched(pool) == before

    def test_ref_named_past_its_holders_raises_before_any_deref(self):
        pool = BlockPool(4, journal=MapJournal())
        shared = pool.alloc().ref
        pool.share(shared)
        other = pool.alloc().ref
        before = self._untouched(pool)
        with pytest.raises(StaleBlockError, match="holder"):
            pool.free_run([other, shared, shared, shared])
        assert self._untouched(pool) == before
        # named exactly as often as it is held is legal
        assert pool.free_run([shared, other, shared]) == 2
        assert pool.used == 0

    def test_alloc_past_the_free_list_takes_nothing(self):
        pool = BlockPool(4, journal=MapJournal())
        pool.alloc()
        before = self._untouched(pool)
        with pytest.raises(KvPoolExhausted):
            pool.alloc_run(4)
        assert self._untouched(pool) == before

    def test_empty_runs_are_no_ops(self):
        pool = BlockPool(4, journal=MapJournal())
        before = self._untouched(pool)
        assert pool.alloc_run(0) == []
        assert pool.free_run([]) == 0
        assert self._untouched(pool) == before

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            BlockPool(4).alloc_run(-1)
