"""Virtual-memory front door: an ``mmap``-style interface with FACIL's
optional MapID argument (paper §V-A).

``AddressSpace.mmap`` allocates physical frames from the buddy allocator,
installs leaf PTEs (huge or base pages), and — when a MapID is supplied —
records it in the huge-page PTEs so every later access through the MMU
carries the mapping choice to the memory controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.os.buddy import BuddyAllocator, OutOfMemoryError
from repro.os.mmu import Mmu
from repro.os.page_table import (
    HUGE_SHIFT,
    PAGE_SHIFT,
    PageFaultError,
    PageTable,
    PteFlags,
)
from repro.os.tlb import Tlb

__all__ = ["AddressSpace", "VmArea"]

_HUGE_ORDER = HUGE_SHIFT - PAGE_SHIFT  # order-9 buddy blocks back huge pages
_VA_BASE = 0x0000_1000_0000  # leave low VA unmapped, like a real process


@dataclass
class VmArea:
    """One mmap'ed region (a simplified Linux VMA)."""

    va: int
    length: int
    page_shift: int
    map_id: int
    flags: int
    frames: List[int] = field(default_factory=list)

    @property
    def page_bytes(self) -> int:
        return 1 << self.page_shift

    @property
    def n_pages(self) -> int:
        return self.length // self.page_bytes

    @property
    def end(self) -> int:
        return self.va + self.length


class AddressSpace:
    """A process address space: VA allocator + page table + TLB + frames."""

    def __init__(
        self,
        buddy: BuddyAllocator,
        page_table: Optional[PageTable] = None,
        tlb: Optional[Tlb] = None,
    ):
        self.buddy = buddy
        self.page_table = page_table if page_table is not None else PageTable()
        self.mmu = Mmu(self.page_table, tlb)
        self.areas: Dict[int, VmArea] = {}
        self._va_cursor = _VA_BASE
        #: pages copied by compaction while minting huge pages (cost model)
        self.compaction_moves = 0

    # -- mmap / munmap -----------------------------------------------------

    def mmap(
        self,
        length: int,
        huge: bool = False,
        map_id: int = 0,
        writable: bool = True,
        compact: bool = True,
    ) -> int:
        """Allocate and map *length* bytes; returns the virtual address.

        This is the paper's extended ``mmap()``: the extra *map_id*
        argument is legal only with huge pages, and lands in the PTEs.
        With ``compact=True`` huge-page allocation falls back to buddy
        compaction (counting moved pages in :attr:`compaction_moves`)
        instead of failing when free memory is fragmented.
        """
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
        n_pages = area.n_pages
        # A page-by-page mmap takes one frame per page the table accepts,
        # plus one for the page it rejects, if any.
        take = min(n_pages, self.page_table.mappable(va, n_pages, huge, map_id) + 1)
        moved = self.buddy.pages_moved
        try:
            frames = self.buddy.alloc_run(order, take, compact=huge and compact)
        except OutOfMemoryError as exc:
            # the pages mapped before memory ran out are torn down again
            self._map_frames(area, list(exc.frames))
            self._tear_down(area, shoot_down=False)
            raise
        finally:
            self.compaction_moves += self.buddy.pages_moved - moved
        try:
            self._map_frames(area, frames)
        except Exception:
            # every page but the last is mapped: the table rejected that one
            self.buddy.free(frames[-1])
            area.frames = frames[:-1]
            self._tear_down(area, shoot_down=False)
            raise
        self.areas[va] = area
        return va

    def _map_frames(self, area: VmArea, frames: List[int]) -> None:
        self.page_table.map_run(
            area.va,
            [frame << PAGE_SHIFT for frame in frames],
            huge=area.page_shift == HUGE_SHIFT,
            map_id=area.map_id,
            flags=area.flags,
        )
        area.frames.extend(frames)

    def munmap(self, va: int) -> None:
        """Tear down the region starting at *va* and free its frames."""
        area = self.areas.pop(va, None)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        self._tear_down(area, shoot_down=True)

    def _tear_down(self, area: VmArea, shoot_down: bool) -> None:
        """Unmap the area's pages, shoot down their TLB entries (with
        *shoot_down*) and free their frames, as one run per structure.

        Ends as a page-by-page teardown would when it fails: that stops
        at the first page it cannot unmap, or right after unmapping the
        first frame the allocator rejects (a frame compaction moved).
        """
        torn = min(len(area.frames), self.buddy.freeable(area.frames) + 1)
        try:
            self.page_table.unmap_run(
                area.va, torn, huge=area.page_shift == HUGE_SHIFT
            )
        except PageFaultError as exc:
            torn = (exc.va - area.va) >> area.page_shift
            raise
        finally:
            if shoot_down:
                self.mmu.tlb.invalidate_run(area.va, torn, area.page_shift)
            self.buddy.free_run(area.frames[:torn])

    def set_area_map_id(self, va: int, page_index: int, map_id: int) -> None:
        """Re-route one huge page of the area at *va* through *map_id*:
        rewrite its PTE's MapID field and shoot down the stale TLB copy.

        This is the per-page step of FACIL's phase switch; callers walk
        every page of the area (journaling each step) so a crash mid-walk
        is recoverable.
        """
        area = self.areas.get(va)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        if area.page_shift != HUGE_SHIFT:
            raise ValueError("MapID requires huge pages (paper §V-A)")
        if not 0 <= page_index < area.n_pages:
            raise ValueError(
                f"page index {page_index} outside area of {area.n_pages} pages"
            )
        page_va = va + page_index * area.page_bytes
        self.page_table.set_map_id(page_va, map_id)
        self.mmu.tlb.invalidate(page_va, area.page_shift)
        if page_index == area.n_pages - 1:
            area.map_id = map_id
            if map_id != 0:
                area.flags |= PteFlags.PIM

    # -- queries ---------------------------------------------------------------

    def area_page_map_ids(self, va: int) -> List[int]:
        """Per-huge-page MapIDs of the area at *va*, read from the PTEs.

        ``VmArea.map_id`` records the id of the last full-area rewrite;
        after a partial migration the area is *mixed* and only the PTEs
        describe it truthfully.  Recovery, the mapping audits, and the
        adaptive controller all use this as ground truth.
        """
        area = self.areas.get(va)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        if area.page_shift != HUGE_SHIFT:
            raise ValueError("MapID requires huge pages (paper §V-A)")
        return [
            self.page_table.map_id_of(va + index * area.page_bytes)
            for index in range(area.n_pages)
        ]

    def area_of(self, va: int) -> VmArea:
        for area in self.areas.values():
            if area.va <= va < area.end:
                return area
        raise KeyError(f"va {va:#x} not inside any mapped area")
