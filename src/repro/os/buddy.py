"""Buddy physical-page allocator with fragmentation metrics.

FACIL stores weight matrices in 2 MB huge pages, so its practicality rests
on the OS being able to mint physically-contiguous 2 MB blocks.  This
module implements the classic binary-buddy allocator, the *free memory
fragmentation index* (FMFI) of Gorman & Whitcroft used by the paper's
Table I, controlled fragmentation injection for experiments, and a
compaction model that counts how many in-use pages must move to
reconstitute a high-order block.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = ["BuddyAllocator", "CompactionResult", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """No block of the requested order can be produced, even by compaction."""

    #: blocks a run had taken before this one failed; they stay allocated
    #: (see :meth:`BuddyAllocator.alloc_run`)
    frames: Sequence[int] = ()


@dataclass
class CompactionResult:
    """Outcome of minting one high-order block via compaction."""

    frame: int
    pages_moved: int


class BuddyAllocator:
    """Binary buddy allocator over page frames.

    Args:
        total_pages: number of order-0 page frames managed.
        max_order: largest block order (2**max_order pages); order 9 with
            4 KB pages is a 2 MB huge page.
    """

    def __init__(self, total_pages: int, max_order: int = 9):
        if total_pages <= 0:
            raise ValueError("total_pages must be positive")
        self.total_pages = total_pages
        self.max_order = max_order
        self.free_lists: List[Set[int]] = [set() for _ in range(max_order + 1)]
        #: frame -> order of the allocation starting at that frame
        self.allocated: Dict[int, int] = {}
        #: pages pinned by fragment_to (model long-lived unmovable pages)
        self.pinned: List[int] = []
        #: pages compaction has moved, over the allocator's life
        self.pages_moved = 0
        frame = 0
        block = 1 << max_order
        while frame + block <= total_pages:
            self.free_lists[max_order].add(frame)
            frame += block
        # Tail pages that do not fill a max-order block.
        remaining = total_pages - frame
        order = max_order - 1
        while remaining > 0 and order >= 0:
            block = 1 << order
            if remaining >= block:
                self.free_lists[order].add(frame)
                frame += block
                remaining -= block
            else:
                order -= 1

    @classmethod
    def from_allocated(
        cls, total_pages: int, allocated_pages: Set[int], max_order: int = 9
    ) -> "BuddyAllocator":
        """Construct an arena whose *allocated_pages* (order-0 frames) are
        in use and whose complement is coalesced into maximal free blocks.

        Used by the fragmentation experiments to build arbitrary
        occupancy patterns directly instead of replaying allocation
        histories.
        """
        arena = cls(total_pages, max_order)
        for order in range(max_order + 1):
            arena.free_lists[order].clear()
        arena.allocated = {frame: 0 for frame in allocated_pages}
        current = sorted(set(range(total_pages)) - set(allocated_pages))
        level: Set[int] = set(current)
        for order in range(max_order):
            promoted: Set[int] = set()
            block = 1 << order
            for frame in level:
                if frame & ((block << 1) - 1):
                    continue  # not aligned for promotion
                if frame + block in level:
                    promoted.add(frame)
            leftovers = level - promoted - {f + block for f in promoted}
            arena.free_lists[order].update(leftovers)
            level = promoted
        arena.free_lists[max_order].update(level)
        return arena

    # -- bookkeeping -------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return sum(len(blocks) << order for order, blocks in enumerate(self.free_lists))

    @property
    def used_pages(self) -> int:
        return self.total_pages - self.free_pages

    def free_blocks(self, order: int) -> int:
        return len(self.free_lists[order])

    # -- allocation ------------------------------------------------------------

    def alloc(self, order: int = 0) -> int:
        """Allocate a block of 2**order pages; returns the first frame.

        Raises:
            OutOfMemoryError: when no block of sufficient order is free.
        """
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range")
        for source in range(order, self.max_order + 1):
            if self.free_lists[source]:
                frame = min(self.free_lists[source])
                self.free_lists[source].discard(frame)
                # Split down to the requested order, freeing the buddies.
                for split in range(source - 1, order - 1, -1):
                    self.free_lists[split].add(frame + (1 << split))
                self.allocated[frame] = order
                return frame
        raise OutOfMemoryError(f"no free block of order {order}")

    def alloc_run(self, order: int, count: int, compact: bool = False) -> List[int]:
        """Allocate *count* blocks of 2**order pages: exactly the frames
        *count* successive :meth:`alloc` calls (:meth:`alloc_with_compaction`
        with *compact*) return, in that order.

        The stretch ``free_lists[order]`` covers is taken in one pass: its
        smallest frames, which each ``alloc`` would pick in turn.  The
        rest goes block by block, where splits and compaction happen.

        Raises:
            OutOfMemoryError: when a block cannot be produced.  The blocks
                taken before it stay allocated and are listed in the
                error's ``frames``, as after that many single allocations.
        """
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range")
        free = self.free_lists[order]
        frames = heapq.nsmallest(min(count, len(free)), free)
        for frame in frames:
            # one discard per frame: a bulk difference_update may re-size
            # the set, which changes its iteration order (fragment_to's)
            free.discard(frame)
            self.allocated[frame] = order
        try:
            while len(frames) < count:
                if compact:
                    frames.append(self.alloc_with_compaction(order).frame)
                else:
                    frames.append(self.alloc(order))
        except OutOfMemoryError as exc:
            exc.frames = frames
            raise
        return frames

    def free_run(self, frames: Iterable[int]) -> None:
        """Free each block of *frames* in the given order, merging buddies
        eagerly.

        Raises:
            ValueError: at the first frame that starts no allocation; the
                frames before it are freed.
        """
        allocated, free_lists, top = self.allocated, self.free_lists, self.max_order
        for frame in frames:
            order = allocated.pop(frame, None)
            if order is None:
                raise ValueError(f"frame {frame} is not the start of an allocation")
            while order < top:
                buddy = frame ^ (1 << order)
                if buddy in free_lists[order] and buddy + (1 << order) <= self.total_pages:
                    free_lists[order].discard(buddy)
                    frame = min(frame, buddy)
                    order += 1
                else:
                    break
            free_lists[order].add(frame)

    def freeable(self, frames: Sequence[int]) -> int:
        """How many of *frames* :meth:`free_run` frees before it raises:
        the index of the first frame that starts no allocation (or
        repeats an earlier one), else ``len(frames)``."""
        seen: Set[int] = set()
        for index, frame in enumerate(frames):
            if frame not in self.allocated or frame in seen:
                return index
            seen.add(frame)
        return len(frames)

    def free(self, frame: int) -> None:
        """Free a previously allocated block, merging buddies eagerly."""
        self.free_run((frame,))

    # -- fragmentation -----------------------------------------------------------

    def fmfi(self, order: int) -> float:
        """Free memory fragmentation index for *order* (Gorman & Whitcroft).

        0 means all free memory already sits in blocks of at least *order*;
        values near 1 mean the free memory is shattered into smaller blocks.
        """
        free = self.free_pages
        if free == 0:
            return 1.0
        requested_blocks = free / (1 << order)
        satisfiable = sum(
            len(self.free_lists[i]) << (i - order)
            for i in range(order, self.max_order + 1)
        )
        return max(0.0, (requested_blocks - satisfiable) / requested_blocks)

    def fragment_to(
        self,
        target_fmfi: float,
        order: int,
        rng: Optional[random.Random] = None,
        tolerance: float = 0.05,
    ) -> float:
        """Inject fragmentation until ``fmfi(order)`` reaches *target_fmfi*.

        Strategy: temporarily allocate order-0 pages scattered across free
        high-order blocks (pinning one page per block shatters it), until
        the index reaches the target.  The pinned pages remain allocated —
        they model long-lived kernel/app pages — and are tracked so tests
        can release them.

        Returns the achieved FMFI.
        """
        rng = rng or random.Random(0)
        guard = 0
        while self.fmfi(order) + tolerance < target_fmfi:
            candidates = [
                (source, frame)
                for source in range(order, self.max_order + 1)
                for frame in self.free_lists[source]
            ]
            if not candidates:
                break
            source, frame = rng.choice(candidates)
            # Pin one page in the middle of the block, splitting it.
            self.free_lists[source].discard(frame)
            for split in range(source - 1, -1, -1):
                self.free_lists[split].add(frame + (1 << split))
            self.allocated[frame] = 0
            self.pinned.append(frame)
            guard += 1
            if guard > self.total_pages:
                break
        return self.fmfi(order)

    # -- compaction ------------------------------------------------------------

    def alloc_with_compaction(self, order: int) -> CompactionResult:
        """Allocate a block of *order*, compacting if necessary.

        Compaction model: pick the aligned frame window with the fewest
        in-use pages whose occupants are all movable, migrate those pages
        into other free space, and mint the block.  The number of moved
        pages is the cost the load-time model charges (Table I); it is
        also added to :attr:`pages_moved`.
        """
        try:
            return CompactionResult(frame=self.alloc(order), pages_moved=0)
        except OutOfMemoryError:
            pass
        block = 1 << order
        if self.free_pages < block:
            raise OutOfMemoryError(
                f"only {self.free_pages} pages free; need {block}"
            )
        window = self._cheapest_window(order)
        if window is None:
            raise OutOfMemoryError(f"no compactable window of order {order}")
        moved = self._evacuate_window(window, order)
        self.pages_moved += moved
        return CompactionResult(frame=window, pages_moved=moved)

    def _free_page_set(self) -> Set[int]:
        pages: Set[int] = set()
        for order, blocks in enumerate(self.free_lists):
            for frame in blocks:
                pages.update(range(frame, frame + (1 << order)))
        return pages

    def _cheapest_window(self, order: int) -> Optional[int]:
        """Aligned window with the most free pages (fewest moves)."""
        free_pages = self._free_page_set()
        block = 1 << order
        best_frame, best_free = None, -1
        for frame in range(0, self.total_pages - block + 1, block):
            free_count = sum(1 for page in range(frame, frame + block) if page in free_pages)
            if free_count > best_free:
                best_frame, best_free = frame, free_count
            if best_free == block:  # already free; alloc() would have found it
                break
        return best_frame

    def _evacuate_window(self, window: int, order: int) -> int:
        """Move every allocation overlapping the window elsewhere and leave
        the whole window allocated as one block of *order*.

        A resident block is freed and re-allocated outside the reserved
        window (the cost of copying its pages is what the caller charges).
        Returns the number of pages moved.
        """
        block = 1 << order
        window_pages = set(range(window, window + block))
        residents = [
            (frame, res_order)
            for frame, res_order in list(self.allocated.items())
            if set(range(frame, frame + (1 << res_order))) & window_pages
        ]
        for frame, _ in residents:
            self.free(frame)
        self._reserve_range(window, block)
        self.allocated[window] = order
        moved = 0
        for frame, res_order in residents:
            moved += 1 << res_order
            self.alloc(res_order)  # new home for the displaced data
        gone = {frame for frame, _ in residents}
        self.pinned = [f for f in self.pinned if f not in gone]
        return moved

    def _reserve_range(self, start: int, count: int) -> None:
        """Remove the exact pages ``[start, start+count)`` from the free
        lists, splitting any free block that overlaps the range.

        Raises:
            OutOfMemoryError: if any page in the range is currently in use.
        """
        end = start + count
        remaining = count
        progress = True
        while remaining > 0 and progress:
            progress = False
            for order in range(self.max_order, -1, -1):
                for frame in list(self.free_lists[order]):
                    size = 1 << order
                    if frame + size <= start or frame >= end:
                        continue
                    self.free_lists[order].discard(frame)
                    progress = True
                    if start <= frame and frame + size <= end:
                        remaining -= size  # fully consumed
                    else:
                        # Straddles the range boundary: split and retry.
                        half = size >> 1
                        self.free_lists[order - 1].add(frame)
                        self.free_lists[order - 1].add(frame + half)
                    break
                if progress:
                    break
        if remaining > 0:
            raise OutOfMemoryError(
                f"range [{start}, {end}) is not entirely free "
                f"({remaining} pages missing)"
            )
