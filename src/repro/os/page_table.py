"""Radix page table with FACIL's MapID-augmented page-table entries.

The paper (Fig. 11) repurposes *unused* bits of a huge-page PTE to carry
the MapID: a 2 MB page needs 9 fewer physical-frame-number bits than a
4 KB page (21 - 12 = 9 unused bits), and at most 14 extra mappings need
only 4 bits.  This module packs/unpacks 64-bit PTEs with exactly that
layout and implements a 4-level x86-style radix walk supporting both 4 KB
leaves (level 1) and 2 MB huge leaves (level 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "PAGE_SHIFT",
    "HUGE_SHIFT",
    "PteFlags",
    "pack_pte",
    "unpack_pte",
    "PageTable",
    "PageFaultError",
    "WalkResult",
]

PAGE_SHIFT = 12  # 4 KB base pages
HUGE_SHIFT = 21  # 2 MB huge pages
LEVEL_BITS = 9  # 512 entries per level
N_LEVELS = 4  # 48-bit virtual addresses

#: Number of PTE bits freed when the leaf is a huge page (paper: 21-12=9).
UNUSED_HUGE_BITS = HUGE_SHIFT - PAGE_SHIFT
#: Width of the MapID field FACIL stores in those unused bits.
MAP_ID_BITS = 4
MAP_ID_SHIFT = PAGE_SHIFT  # MapID occupies PTE bits [12, 12+4)

_PFN_SHIFT = PAGE_SHIFT
_PFN_MASK = (1 << 40) - 1  # 40-bit physical frame numbers

_LEVEL_ENTRIES = 1 << LEVEL_BITS
_LEVEL_MASK = _LEVEL_ENTRIES - 1
#: VA shift of each level's index above the base-page leaves, root first
_L0_SHIFT = PAGE_SHIFT + 3 * LEVEL_BITS
_L1_SHIFT = PAGE_SHIFT + 2 * LEVEL_BITS
_L2_SHIFT = PAGE_SHIFT + LEVEL_BITS


class PageFaultError(Exception):
    """Translation attempted on an unmapped virtual address.

    ``va`` is the faulting address when the raiser knows it (page-run
    teardown uses it to tell how far a run got)."""

    def __init__(self, message: str, va: Optional[int] = None) -> None:
        super().__init__(message)
        self.va = va


class PteFlags:
    """PTE flag bits (subset of the x86-64 layout)."""

    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    HUGE = 1 << 7  # page-size bit: leaf at the PMD level
    PIM = 1 << 9  # software bit: region allocated via pimalloc

    LOW_MASK = PRESENT | WRITABLE | USER | HUGE | PIM


def pack_pte(pfn: int, flags: int, map_id: int = 0) -> int:
    """Pack a 64-bit PTE.

    For huge pages, the physical address bits [12, 21) are necessarily
    zero, so FACIL stores the MapID there — no PTE widening, no extra
    memory (paper Fig. 11).  For 4 KB pages ``map_id`` must be 0: regular
    pages always use the conventional mapping.
    """
    if pfn < 0 or pfn > _PFN_MASK:
        raise ValueError(f"pfn {pfn:#x} out of range")
    if not 0 <= map_id < (1 << MAP_ID_BITS):
        raise ValueError(
            f"map_id {map_id} needs more than {MAP_ID_BITS} bits; the paper "
            "bounds the mapping count so 4 bits always suffice"
        )
    huge = bool(flags & PteFlags.HUGE)
    if not huge and map_id != 0:
        raise ValueError("MapID can only be stored in huge-page PTEs")
    if huge and pfn & ((1 << UNUSED_HUGE_BITS) - 1):
        raise ValueError(
            f"huge-page pfn {pfn:#x} must be 2 MB aligned "
            f"({UNUSED_HUGE_BITS} low bits clear)"
        )
    pte = (pfn << _PFN_SHIFT) | (flags & PteFlags.LOW_MASK)
    if huge:
        pte |= map_id << MAP_ID_SHIFT
    return pte


def unpack_pte(pte: int) -> "WalkResult":
    """Inverse of :func:`pack_pte` (virtual address left as 0)."""
    flags = pte & PteFlags.LOW_MASK
    huge = bool(flags & PteFlags.HUGE)
    if huge:
        map_id = (pte >> MAP_ID_SHIFT) & ((1 << MAP_ID_BITS) - 1)
        pfn = (pte >> _PFN_SHIFT) & _PFN_MASK & ~((1 << UNUSED_HUGE_BITS) - 1)
    else:
        map_id = 0
        pfn = (pte >> _PFN_SHIFT) & _PFN_MASK
    return WalkResult(
        pa=pfn << PAGE_SHIFT,
        page_shift=HUGE_SHIFT if huge else PAGE_SHIFT,
        map_id=map_id,
        flags=flags,
    )


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a page-table walk for one leaf."""

    pa: int  # physical base address of the page
    page_shift: int  # 12 or 21
    map_id: int
    flags: int

    @property
    def page_bytes(self) -> int:
        return 1 << self.page_shift

    @property
    def is_huge(self) -> bool:
        return self.page_shift == HUGE_SHIFT


class PageTable:
    """4-level radix page table keyed by 48-bit virtual addresses."""

    def __init__(self) -> None:
        self._root: Dict[int, object] = {}
        self.walks = 0
        #: reliability hook (see :mod:`repro.reliability.faults`): when
        #: set, ``fault_hook.on_walk(va, result)`` may substitute the
        #: leaf a walk returns (transient walker faults).
        self.fault_hook = None

    @staticmethod
    def _indices(va: int) -> Tuple[int, int, int, int]:
        return (
            (va >> _L0_SHIFT) & _LEVEL_MASK,
            (va >> _L1_SHIFT) & _LEVEL_MASK,
            (va >> _L2_SHIFT) & _LEVEL_MASK,
            (va >> PAGE_SHIFT) & _LEVEL_MASK,
        )

    def _spans(
        self, va: int, count: int, huge: bool, create: bool = False
    ) -> Iterator[Tuple[int, int, int, object]]:
        """Split *count* pages from *va* into spans whose leaves share one
        leaf-level node.  Yields ``(first page, pages, first leaf index,
        node)``: the node is the leaf-level dict, None when it does not
        exist yet (with *create*, missing nodes are made), or the leaf a
        huge mapping puts on the path."""
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        walk = (_L0_SHIFT, _L1_SHIFT) if huge else (_L0_SHIFT, _L1_SHIFT, _L2_SHIFT)
        done = 0
        while done < count:
            page_va = va + (done << shift)
            first = (page_va >> shift) & _LEVEL_MASK
            n = min(count - done, _LEVEL_ENTRIES - first)
            table: Dict[int, object] = self._root
            node: object = table
            for level_shift in walk:
                index = (page_va >> level_shift) & _LEVEL_MASK
                node = table.setdefault(index, {}) if create else table.get(index)
                if not isinstance(node, dict):
                    break
                table = node
            yield done, n, first, node
            done += n

    def map_page(
        self,
        va: int,
        pa: int,
        huge: bool = False,
        map_id: int = 0,
        flags: int = PteFlags.PRESENT | PteFlags.WRITABLE,
    ) -> None:
        """Install one leaf mapping va -> pa.

        Raises:
            ValueError: on misalignment or an already-mapped address.
        """
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        if va & ((1 << shift) - 1) or pa & ((1 << shift) - 1):
            raise ValueError(
                f"va {va:#x} / pa {pa:#x} not aligned to {1 << shift} bytes"
            )
        full_flags = flags | PteFlags.PRESENT | (PteFlags.HUGE if huge else 0)
        pte = pack_pte(pa >> PAGE_SHIFT, full_flags, map_id)
        indices = self._indices(va)
        depth = N_LEVELS - 2 if huge else N_LEVELS - 1
        node = self._root
        for level in range(depth):
            child = node.get(indices[level])
            if child is None:
                child = {}
                node[indices[level]] = child
            if not isinstance(child, dict):
                raise ValueError(f"va {va:#x} overlaps an existing huge mapping")
            node = child
        if indices[depth] in node:
            raise ValueError(f"va {va:#x} is already mapped")
        node[indices[depth]] = pte

    def unmap_page(self, va: int, huge: bool = False) -> None:
        indices = self._indices(va)
        depth = N_LEVELS - 2 if huge else N_LEVELS - 1
        node = self._root
        for level in range(depth):
            child = node.get(indices[level])
            if not isinstance(child, dict):
                raise PageFaultError(f"va {va:#x} not mapped", va)
            node = child
        if indices[depth] not in node:
            raise PageFaultError(f"va {va:#x} not mapped", va)
        del node[indices[depth]]

    # -- page runs ---------------------------------------------------------

    def mappable(
        self, va: int, count: int, huge: bool = False, map_id: int = 0
    ) -> int:
        """How many of the *count* pages from *va* :meth:`map_page` would
        install in turn, given page-aligned frames: the index of the first
        page it would reject, or *count*.  Reads the table only.
        """
        if not 0 <= map_id < (1 << MAP_ID_BITS) or (map_id and not huge):
            return 0  # pack_pte rejects the very first page
        if va & ((1 << (HUGE_SHIFT if huge else PAGE_SHIFT)) - 1):
            return 0
        for done, n, first, node in self._spans(va, count, huge):
            if node is None:
                continue  # no node yet: the whole span is free
            if not isinstance(node, dict):
                return done  # overlaps an existing huge mapping
            span = range(first, first + n)
            if not node.keys().isdisjoint(span):
                return done + next(i for i in span if i in node) - first
        return count

    def map_run(
        self,
        va: int,
        pas: Sequence[int],
        huge: bool = False,
        map_id: int = 0,
        flags: int = PteFlags.PRESENT | PteFlags.WRITABLE,
    ) -> None:
        """Install ``va + i * page -> pas[i]`` for every *i*, walking to
        each leaf-level node once per span of up to 512 pages.

        Same result as :meth:`map_page` called page by page: the first
        page it would reject raises the same exception, with the pages
        before it mapped.
        """
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        align = (1 << shift) - 1
        accepted = []
        for pa in pas[: self.mappable(va, len(pas), huge, map_id)]:
            if pa & align or not 0 <= pa >> PAGE_SHIFT <= _PFN_MASK:
                break
            accepted.append(pa)
        ptes = []
        if accepted:
            full_flags = flags | PteFlags.PRESENT | (PteFlags.HUGE if huge else 0)
            template = pack_pte(0, full_flags, map_id)
            ptes = [pa | template for pa in accepted]
        for done, n, first, node in self._spans(va, len(ptes), huge, create=True):
            node.update(zip(range(first, first + n), ptes[done : done + n]))  # type: ignore[attr-defined]
        if len(ptes) < len(pas):
            failed = len(ptes)
            self.map_page(va + (failed << shift), pas[failed], huge, map_id, flags)
            raise AssertionError(f"map_page accepted page {failed} of a rejected run")

    def unmap_run(self, va: int, count: int, huge: bool = False) -> None:
        """Remove the *count* leaves from *va*, walking to each leaf-level
        node once per span.

        Same result as :meth:`unmap_page` called page by page: the first
        page not mapped raises :class:`PageFaultError` (whose ``va`` names
        it), with the pages before it unmapped.
        """
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        for done, n, first, node in self._spans(va, count, huge):
            span = range(first, first + n)
            if isinstance(node, dict) and all(map(node.__contains__, span)):
                for index in span:
                    del node[index]
                continue
            # a page of this span is not mapped: fail at it, as a page loop would
            for page in range(done, done + n):
                self.unmap_page(va + (page << shift), huge)

    def walk(self, va: int) -> WalkResult:
        """Walk the tree; returns the leaf for *va*.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        self.walks += 1
        indices = self._indices(va)
        node = self._root
        for level in range(N_LEVELS):
            entry = node.get(indices[level])
            if entry is None:
                raise PageFaultError(f"va {va:#x} not mapped (level {level})")
            if isinstance(entry, dict):
                node = entry
                continue
            result = unpack_pte(entry)
            expected_level = N_LEVELS - 2 if result.is_huge else N_LEVELS - 1
            if level != expected_level:
                raise PageFaultError(
                    f"malformed table: leaf at level {level} for va {va:#x}"
                )
            if self.fault_hook is not None:
                result = self.fault_hook.on_walk(va, result)
            return result
        raise PageFaultError(f"va {va:#x}: walk reached depth without a leaf")

    def set_map_id(self, va: int, map_id: int) -> int:
        """Rewrite the MapID field of the huge-page leaf PTE covering
        *va* (FACIL's phase switch: the region's bytes are re-routed
        through a different registered mapping).

        Returns the updated PTE value.

        Raises:
            PageFaultError: when no leaf covers *va*.
            ValueError: for a non-huge leaf (4 KB pages have no MapID
                field) or an unencodable *map_id*.
        """
        if not 0 <= map_id < (1 << MAP_ID_BITS):
            raise ValueError(
                f"map_id {map_id} needs more than {MAP_ID_BITS} bits"
            )
        indices = self._indices(va)
        node = self._root
        for level in range(N_LEVELS):
            entry = node.get(indices[level])
            if entry is None:
                raise PageFaultError(f"va {va:#x} not mapped (level {level})")
            if isinstance(entry, dict):
                node = entry
                continue
            if not entry & PteFlags.HUGE:
                raise ValueError(
                    f"va {va:#x} is a base-page mapping; MapID lives only "
                    "in huge-page PTEs"
                )
            mask = ((1 << MAP_ID_BITS) - 1) << MAP_ID_SHIFT
            updated = (entry & ~mask) | (map_id << MAP_ID_SHIFT)
            if map_id != 0:
                updated |= PteFlags.PIM
            else:
                updated &= ~PteFlags.PIM
            node[indices[level]] = updated
            return updated
        raise PageFaultError(f"va {va:#x}: walk reached depth without a leaf")

    def map_id_of(self, va: int) -> int:
        """MapID field of the leaf PTE covering *va*, read without MMU
        side effects — no walk counter, no TLB, no fault hook.

        A partial migration (see ``PimAllocator.migrate_pages``) leaves
        an area whose pages carry *different* MapIDs; the PTEs are the
        only truthful record of the split, so audits and the adaptive
        controller read them through this instead of ``VmArea.map_id``.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        indices = self._indices(va)
        node = self._root
        for level in range(N_LEVELS):
            entry = node.get(indices[level])
            if entry is None:
                raise PageFaultError(f"va {va:#x} not mapped (level {level})")
            if isinstance(entry, dict):
                node = entry
                continue
            return unpack_pte(entry).map_id
        raise PageFaultError(f"va {va:#x}: walk reached depth without a leaf")

    def corrupt_pte(self, va: int, xor_mask: int) -> int:
        """Fault-injection backdoor: XOR *xor_mask* into the leaf PTE
        covering *va* (e.g. flip a MapID bit, paper Fig. 11's worry).

        Returns the corrupted PTE value so campaigns can log it.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        indices = self._indices(va)
        node = self._root
        for level in range(N_LEVELS):
            entry = node.get(indices[level])
            if entry is None:
                raise PageFaultError(f"va {va:#x} not mapped (level {level})")
            if isinstance(entry, dict):
                node = entry
                continue
            corrupted = entry ^ xor_mask
            node[indices[level]] = corrupted
            return corrupted
        raise PageFaultError(f"va {va:#x}: walk reached depth without a leaf")

    def translate(self, va: int) -> WalkResult:
        """Alias of :meth:`walk` (kept for API symmetry with the MMU)."""
        return self.walk(va)
