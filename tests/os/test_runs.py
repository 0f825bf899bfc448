"""Page runs through the OS layer against the page-by-page loop they replace.

``AddressSpace.mmap``/``munmap`` hand an area's pages to the buddy
allocator, the page table and the TLB as one run.  The oracle here is
the page-by-page loop written out on the same classes: allocate a
frame, map its page, next page; unmap, shoot down and free each page
in turn.  Every
check compares exact state — free-set iteration order, the
``allocated`` insertion order, the page-table dicts, the TLB sets and
the fault injector's log — not a summary.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.os.buddy import BuddyAllocator, OutOfMemoryError
from repro.os.page_table import (
    HUGE_SHIFT,
    PAGE_SHIFT,
    PageFaultError,
    PageTable,
    PteFlags,
    WalkResult,
)
from repro.os.tlb import Tlb
from repro.os.vm import AddressSpace, VmArea, _HUGE_ORDER
from repro.reliability.faults import FaultInjector

# -- the oracle: one page at a time --------------------------------------------


def loop_free(buddy, frame):
    """One block freed, merging buddies eagerly."""
    order = buddy.allocated.pop(frame, None)
    if order is None:
        raise ValueError(f"frame {frame} is not the start of an allocation")
    while order < buddy.max_order:
        mate = frame ^ (1 << order)
        if mate in buddy.free_lists[order] and mate + (1 << order) <= buddy.total_pages:
            buddy.free_lists[order].discard(mate)
            frame = min(frame, mate)
            order += 1
        else:
            break
    buddy.free_lists[order].add(frame)


def loop_invalidate(tlb, va, page_shift):
    """One page shot down."""
    if tlb.fault_hook is not None and not tlb.fault_hook.on_invalidate(va, page_shift):
        return
    vpn = va >> page_shift
    entry_set = tlb._sets[tlb._set_index(vpn)]
    entry_set[:] = [
        e for e in entry_set if not (e.vpn == vpn and e.page_shift == page_shift)
    ]


class PageLoopSpace(AddressSpace):
    """``mmap``/``munmap`` page by page, on the same buddy, table and TLB."""

    def mmap(self, length, huge=False, map_id=0, writable=True, compact=True):
        if length <= 0:
            raise ValueError("length must be positive")
        if map_id != 0 and not huge:
            raise ValueError("MapID requires huge pages (paper §V-A)")
        page_shift = HUGE_SHIFT if huge else PAGE_SHIFT
        page_bytes = 1 << page_shift
        length = (length + page_bytes - 1) & ~(page_bytes - 1)
        va = (self._va_cursor + page_bytes - 1) & ~(page_bytes - 1)
        self._va_cursor = va + length
        flags = PteFlags.PRESENT | (PteFlags.WRITABLE if writable else 0)
        if map_id != 0:
            flags |= PteFlags.PIM
        area = VmArea(
            va=va, length=length, page_shift=page_shift, map_id=map_id, flags=flags
        )
        order = _HUGE_ORDER if huge else 0
        try:
            for index in range(area.n_pages):
                if huge and compact:
                    result = self.buddy.alloc_with_compaction(order)
                    frame = result.frame
                    self.compaction_moves += result.pages_moved
                else:
                    frame = self.buddy.alloc(order)
                try:
                    self.page_table.map_page(
                        va + index * page_bytes,
                        frame << PAGE_SHIFT,
                        huge=huge,
                        map_id=map_id,
                        flags=flags,
                    )
                except Exception:
                    loop_free(self.buddy, frame)
                    raise
                area.frames.append(frame)
        except Exception:
            self._rollback(area)
            raise
        self.areas[va] = area
        return va

    def _rollback(self, area):
        for index, frame in enumerate(area.frames):
            self.page_table.unmap_page(
                area.va + index * area.page_bytes,
                huge=area.page_shift == HUGE_SHIFT,
            )
            loop_free(self.buddy, frame)

    def munmap(self, va):
        area = self.areas.pop(va, None)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        for index, frame in enumerate(area.frames):
            page_va = va + index * area.page_bytes
            self.page_table.unmap_page(page_va, huge=area.page_shift == HUGE_SHIFT)
            loop_invalidate(self.mmu.tlb, page_va, area.page_shift)
            loop_free(self.buddy, frame)


# -- helpers --------------------------------------------------------------------

#: 12 huge pages plus a ragged tail: small enough to run out of memory
ARENA_PAGES = 12 * 512 + 300


def _pair(seed=0):
    """(run space, loop space, their fault injectors), identical."""
    out = []
    for cls in (AddressSpace, PageLoopSpace):
        space = cls(BuddyAllocator(ARENA_PAGES, max_order=9), tlb=Tlb(n_sets=4, ways=2))
        injector = FaultInjector(seed=seed)
        space.mmu.tlb.fault_hook = injector
        out.append((space, injector))
    return out


def _state(space, injector):
    """Everything the run and the loop must agree on."""
    buddy, table, tlb = space.buddy, space.page_table, space.mmu.tlb
    walks = []
    for area in space.areas.values():
        for index in range(area.n_pages):
            try:
                walks.append(table.walk(area.va + index * area.page_bytes))
            except PageFaultError as exc:  # a page the test unmapped
                walks.append(str(exc))
    return (
        [list(blocks) for blocks in buddy.free_lists],
        list(buddy.allocated.items()),
        list(buddy.pinned),
        buddy.pages_moved,
        space.compaction_moves,
        repr(table._root),
        walks,
        table.walks,
        [
            (a.va, a.length, a.page_shift, a.map_id, a.flags, list(a.frames))
            for a in space.areas.values()
        ],
        space._va_cursor,
        [[(e.vpn, e.page_shift, e.leaf, e.stamp) for e in s] for s in tlb._sets],
        tlb._clock,
        (tlb.stats.hits, tlb.stats.misses, tlb.stats.evictions),
        list(injector.log),
        injector._suppress_invalidations,
    )


def _outcome(action):
    try:
        return ("ok", action())
    except (ValueError, OutOfMemoryError, PageFaultError) as exc:
        return (type(exc), str(exc))


def _apply(space, injector, op):
    kind = op[0]
    if kind == "mmap":
        _, pages, huge, map_id, compact, conflict = op
        page_bytes = 1 << (HUGE_SHIFT if huge else PAGE_SHIFT)
        if conflict is not None and conflict < pages:
            # a leaf already sits where page *conflict* of the run goes:
            # that page's own, or (odd *conflict*) a huge leaf over it
            va = (space._va_cursor + page_bytes - 1) & ~(page_bytes - 1)
            target = va + conflict * page_bytes
            huge_leaf = huge or conflict % 2 == 1
            if huge_leaf:
                target &= ~((1 << HUGE_SHIFT) - 1)
            _outcome(lambda: space.page_table.map_page(target, 0, huge=huge_leaf))
        return _outcome(
            lambda: space.mmap(
                pages * page_bytes, huge=huge, map_id=map_id if huge else 0, compact=compact
            )
        )
    if kind == "munmap":
        if not space.areas:
            return None
        return _outcome(lambda: space.munmap(sorted(space.areas)[op[1] % len(space.areas)]))
    if kind == "touch":
        if not space.areas:
            return None
        area = space.areas[sorted(space.areas)[op[1] % len(space.areas)]]
        va = area.va + (op[2] % area.n_pages) * area.page_bytes
        return _outcome(lambda: space.mmu.translate(va).pa)
    if kind == "fragment":
        return space.buddy.fragment_to(op[1], _HUGE_ORDER, random.Random(op[2]))
    if kind == "suppress":
        injector.suppress_invalidations(op[1])
        return None
    raise AssertionError(kind)


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("mmap"),
            st.integers(1, 40),
            st.booleans(),
            st.integers(0, 3),
            st.booleans(),
            st.one_of(st.none(), st.integers(0, 39)),
        ),
        st.tuples(st.just("munmap"), st.integers(0, 1 << 16)),
        st.tuples(st.just("touch"), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
        st.tuples(st.just("fragment"), st.floats(0.0, 0.9), st.integers(0, 1 << 16)),
        st.tuples(st.just("suppress"), st.integers(1, 4)),
    ),
    max_size=30,
)


# -- equivalence ----------------------------------------------------------------


class TestRunsEqualTheLoop:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_interleavings(self, ops):
        (run, run_inj), (loop, loop_inj) = _pair()
        for op in ops:
            assert _apply(run, run_inj, op) == _apply(loop, loop_inj, op), op
            assert _state(run, run_inj) == _state(loop, loop_inj), op

    @pytest.mark.parametrize("huge", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 5, 7])
    def test_map_failure_at_page_k(self, huge, k):
        (run, run_inj), (loop, loop_inj) = _pair()
        for space, injector in ((run, run_inj), (loop, loop_inj)):
            _apply(space, injector, ("mmap", 3, True, 1, True, None))
            space.buddy.fragment_to(0.5, _HUGE_ORDER, random.Random(3))
        op = ("mmap", 8, huge, 2, True, k)
        result = _apply(run, run_inj, op)
        assert result == _apply(loop, loop_inj, op)
        assert result[0] is ValueError
        assert _state(run, run_inj) == _state(loop, loop_inj)

    def test_out_of_memory_partway(self):
        (run, run_inj), (loop, loop_inj) = _pair()
        op = ("mmap", 15, True, 1, False, None)  # 12 huge blocks exist
        result = _apply(run, run_inj, op)
        assert result == _apply(loop, loop_inj, op)
        assert result[0] is OutOfMemoryError
        assert _state(run, run_inj) == _state(loop, loop_inj)
        assert run.buddy.free_pages == ARENA_PAGES

    def test_teardown_after_compaction_moved_a_frame(self):
        """Compaction relocates live blocks without telling their areas,
        so a later munmap meets a frame the allocator no longer holds;
        the run must stop where the page loop stops.

        This pins a known defect (the compaction FOUND note in
        CHANGES.md), not intended behaviour: once compaction updates the
        areas it moves, this munmap should succeed, and this test, the
        allocator's ``freeable`` and the ``torn`` stop in ``_tear_down``
        should be rewritten with it."""
        ops = [
            ("fragment", 0.75, 0),
            ("mmap", 6, False, 0, False, None),
            ("mmap", 1, False, 0, False, None),
            ("mmap", 5, True, 0, True, None),
            ("munmap", 0),
        ]
        (run, run_inj), (loop, loop_inj) = _pair()
        for op in ops:
            result = _apply(run, run_inj, op)
            assert result == _apply(loop, loop_inj, op)
            assert _state(run, run_inj) == _state(loop, loop_inj)
        assert result[0] is ValueError

    def test_munmap_stops_at_an_unmapped_page(self):
        (run, run_inj), (loop, loop_inj) = _pair()
        for space in (run, loop):
            va = space.mmap(6 << HUGE_SHIFT, huge=True, map_id=1)
            space.mmu.translate(va)
            space.page_table.unmap_page(va + (3 << HUGE_SHIFT), huge=True)
        result = _outcome(lambda: run.munmap(va))
        assert result == _outcome(lambda: loop.munmap(va))
        assert result[0] is PageFaultError
        assert _state(run, run_inj) == _state(loop, loop_inj)


class TestBuddyRuns:
    @settings(max_examples=150, deadline=None)
    @given(
        occupied=st.sets(st.integers(0, 2047), max_size=600),
        order=st.integers(0, 9),
        count=st.integers(0, 40),
    )
    def test_alloc_run_equals_successive_alloc(self, occupied, order, count):
        run = BuddyAllocator.from_allocated(2048 + 77, occupied)
        loop = BuddyAllocator.from_allocated(2048 + 77, occupied)
        try:
            frames = run.alloc_run(order, count)
        except OutOfMemoryError as exc:
            frames = list(exc.frames)
        expected = []
        try:
            for _ in range(count):
                expected.append(loop.alloc(order))
        except OutOfMemoryError:
            pass
        assert frames == expected
        assert [list(s) for s in run.free_lists] == [list(s) for s in loop.free_lists]
        assert list(run.allocated.items()) == list(loop.allocated.items())
        run.free_run(frames)
        for frame in expected:
            loop_free(loop, frame)
        assert [list(s) for s in run.free_lists] == [list(s) for s in loop.free_lists]

    def test_alloc_run_splits_past_the_free_list(self):
        buddy = BuddyAllocator(1024, max_order=9)
        frames = buddy.alloc_run(0, 5)
        assert frames == [0, 1, 2, 3, 4]
        assert buddy.free_blocks(0) == 1  # frame 5 is the split-off buddy

    def test_alloc_run_with_compaction_counts_moves(self):
        run = BuddyAllocator(4 * 512, max_order=9)
        loop = BuddyAllocator(4 * 512, max_order=9)
        for buddy in (run, loop):
            buddy.fragment_to(0.9, 9, random.Random(1))
        frames = run.alloc_run(9, 2, compact=True)
        moved = [loop.alloc_with_compaction(9) for _ in range(2)]
        assert frames == [result.frame for result in moved]
        assert run.pages_moved == loop.pages_moved == sum(r.pages_moved for r in moved) > 0
        assert list(run.allocated.items()) == list(loop.allocated.items())

    def test_alloc_run_rejects_bad_order(self):
        with pytest.raises(ValueError, match="out of range"):
            BuddyAllocator(1024).alloc_run(10, 1)


class TestPageTableRuns:
    def _pair(self):
        return PageTable(), PageTable()

    @pytest.mark.parametrize("huge", [True, False])
    def test_span_crossing_run_equals_page_loop(self, huge):
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        va = (510 << shift) + (7 << 39)  # crosses a 512-entry node
        pas = [(index * 512) << PAGE_SHIFT for index in range(600)]
        run, loop = self._pair()
        run.map_run(va, pas, huge=huge, map_id=3 if huge else 0)
        for index, pa in enumerate(pas):
            loop.map_page(va + (index << shift), pa, huge=huge, map_id=3 if huge else 0)
        assert repr(run._root) == repr(loop._root)
        run.unmap_run(va, 600, huge=huge)
        for index in range(600):
            loop.unmap_page(va + (index << shift), huge=huge)
        assert repr(run._root) == repr(loop._root)

    @pytest.mark.parametrize(
        "setup",
        [
            lambda t, va: t.map_page(va + 4 * 4096, 0),  # already mapped
            lambda t, va: t.map_page(va & ~((1 << 21) - 1), 0, huge=True),  # overlap
        ],
    )
    def test_rejected_page_raises_like_map_page(self, setup):
        va = (1 << 30) + (1 << 21)
        pas = [index << PAGE_SHIFT for index in range(1, 9)]
        run, loop = self._pair()
        for table in (run, loop):
            setup(table, va)
        with pytest.raises(ValueError) as run_exc:
            run.map_run(va, pas)
        with pytest.raises(ValueError) as loop_exc:
            for index, pa in enumerate(pas):
                loop.map_page(va + index * 4096, pa)
        assert str(run_exc.value) == str(loop_exc.value)
        assert repr(run._root) == repr(loop._root)

    def test_misaligned_frame_and_bad_map_id(self):
        table = PageTable()
        with pytest.raises(ValueError, match="aligned"):
            table.map_run(0, [0, 4096], huge=True)
        assert table.walk(0).pa == 0  # page 0 stayed mapped
        with pytest.raises(ValueError, match="bits"):
            table.map_run(1 << 30, [0], huge=True, map_id=16)
        assert table.mappable(1 << 30, 4, huge=True, map_id=16) == 0

    def test_unmap_run_fault_names_the_page(self):
        table = PageTable()
        table.map_run(0, [0, 4096, 8192])
        table.unmap_page(4096)
        with pytest.raises(PageFaultError) as exc:
            table.unmap_run(0, 3)
        assert exc.value.va == 4096
        assert table.walk(8192).pa == 8192


class TestTlbRuns:
    @settings(max_examples=100, deadline=None)
    @given(
        filled=st.lists(st.integers(0, 63), max_size=20),
        start=st.integers(0, 63),
        count=st.integers(0, 40),
        suppress=st.integers(0, 6),
        huge=st.booleans(),
    )
    def test_invalidate_run_equals_page_loop(self, filled, start, count, suppress, huge):
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        tlbs = []
        for _ in range(2):
            tlb = Tlb(n_sets=8, ways=2)
            tlb.fault_hook = FaultInjector()
            tlb.fault_hook.suppress_invalidations(suppress)
            for vpn in filled:
                tlb.fill(vpn << shift, WalkResult(vpn << shift, shift, 0, 1))
            tlbs.append(tlb)
        run, loop = tlbs
        run.invalidate_run(start << shift, count, shift)
        for index in range(count):
            loop_invalidate(loop, (start + index) << shift, shift)
        for tlb in (run, loop):
            assert tlb.fault_hook._suppress_invalidations == max(0, suppress - count)
        assert run.fault_hook.log == loop.fault_hook.log
        assert [[(e.vpn, e.page_shift, e.stamp) for e in s] for s in run._sets] == [
            [(e.vpn, e.page_shift, e.stamp) for e in s] for s in loop._sets
        ]

