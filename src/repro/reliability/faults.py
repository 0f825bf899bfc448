"""Deterministic fault injection across the FACIL stack (extension).

:class:`FaultInjector` is the chaos half of the reliability layer: a
seeded planner plus the hook implementations that the substrate exposes
(``PhysicalMemory.fault_hook``, ``PageTable.fault_hook``,
``Tlb.fault_hook``, ``PimAllocator.fault_hook``).  It can inject:

* **transient DRAM bit flips** — one-shot corruption of stored bytes
  (what ECC corrects);
* **double flips in one ECC word** — uncorrectable, must be detected and
  retried;
* **stuck-at bits** — re-asserted on every bank access through the
  ``on_bank_access`` hook, modelling a failed cell;
* **PTE MapID corruption** — a flipped bit in the huge-page PTE's MapID
  field (paper Fig. 11), so translation routes through the wrong
  permutation;
* **mapping-table entry corruption** — a scrambled mux configuration,
  caught by :class:`~repro.reliability.integrity.ParityMappingTable`;
* **lost TLB shootdowns** — ``on_invalidate`` swallows invalidations for
  a window, leaving stale MapIDs being served;
* **allocation failures** — ``on_pimalloc`` raises
  :class:`~repro.os.buddy.OutOfMemoryError`;
* **PIM processing-unit failures** — permanent, surfaced to the health
  monitor / :class:`~repro.reliability.degrade.ResilientEngine`;
* **process crashes** — ``on_journal`` raises
  :class:`~repro.core.journal.InjectedCrash` at an armed journal
  checkpoint, modelling a kill mid-``pimalloc``/free/phase-switch; the
  write-ahead journal's recovery replay must restore consistency.

Everything is driven by one ``random.Random(seed)``, so a campaign is
exactly reproducible: same seed, same faults, same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.journal import InjectedCrash
from repro.os.buddy import OutOfMemoryError
from repro.os.page_table import HUGE_SHIFT, MAP_ID_BITS, MAP_ID_SHIFT, PAGE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pimalloc import PimSystem, PimTensor

__all__ = ["FaultEvent", "FaultInjector", "FaultKind"]

_BankKey = Tuple[int, int, int]


class FaultKind:
    """String tags for every injectable fault (kept as plain strings so
    reports and logs serialize trivially)."""

    TRANSIENT_FLIP = "transient-flip"
    DOUBLE_FLIP = "double-flip"
    STUCK_BIT = "stuck-bit"
    PTE_MAP_ID = "pte-map-id"
    MAPPING_ENTRY = "mapping-entry"
    STALE_TLB = "stale-tlb"
    ALLOC_OOM = "alloc-oom"
    PU_FAIL = "pu-fail"
    CRASH = "crash"


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or planned) fault, for the campaign log."""

    kind: str
    detail: Tuple = ()


@dataclass(frozen=True)
class _StuckBit:
    key: _BankKey
    byte_offset: int  # into the bank's flat byte array
    bit: int
    value: int  # 0 or 1


class FaultInjector:
    """Seeded fault planner + hook implementation for one system."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.stuck: List[_StuckBit] = []
        self.failed_pus: Set[_BankKey] = set()
        self.log: List[FaultEvent] = []
        self._suppress_invalidations = 0
        self._fail_allocs = 0
        self._pending_crash: Optional[Tuple[str, int]] = None
        self._system: Optional["PimSystem"] = None

    # -- attachment --------------------------------------------------------

    def attach(self, system: "PimSystem") -> "FaultInjector":
        """Install this injector's hooks into every layer of *system*."""
        if system.memory is not None:
            system.memory.fault_hook = self
        system.space.page_table.fault_hook = self
        system.space.mmu.tlb.fault_hook = self
        system.allocator.fault_hook = self
        if system.allocator.journal is not None:
            system.allocator.journal.fault_hook = self
        self._system = system
        return self

    def detach(self) -> None:
        system = self._system
        if system is None:
            return
        if system.memory is not None and system.memory.fault_hook is self:
            system.memory.fault_hook = None
        if system.space.page_table.fault_hook is self:
            system.space.page_table.fault_hook = None
        if system.space.mmu.tlb.fault_hook is self:
            system.space.mmu.tlb.fault_hook = None
        if system.allocator.fault_hook is self:
            system.allocator.fault_hook = None
        journal = system.allocator.journal
        if journal is not None and journal.fault_hook is self:
            journal.fault_hook = None
        self._system = None

    # -- hook callbacks ----------------------------------------------------

    def on_bank_access(self, key: _BankKey, array: np.ndarray) -> None:
        """Re-assert stuck-at cells each time the bank is touched."""
        if not self.stuck:
            return
        flat = array.reshape(-1)
        for fault in self.stuck:
            if fault.key != key:
                continue
            byte = int(flat[fault.byte_offset])
            if fault.value:
                byte |= 1 << fault.bit
            else:
                byte &= ~(1 << fault.bit)
            flat[fault.byte_offset] = byte

    def on_walk(self, va: int, result):
        """Transient walker faults would go here; persistent PTE
        corruption uses :meth:`corrupt_pte_map_id` instead."""
        return result

    def on_invalidate(self, va: int, page_shift: int) -> bool:
        """Return False to swallow a TLB shootdown (stale-TLB window)."""
        if self._suppress_invalidations > 0:
            self._suppress_invalidations -= 1
            self.log.append(
                FaultEvent(FaultKind.STALE_TLB, (va, page_shift))
            )
            return False
        return True

    def on_pimalloc(self, matrix) -> None:
        if self._fail_allocs > 0:
            self._fail_allocs -= 1
            self.log.append(
                FaultEvent(FaultKind.ALLOC_OOM, (matrix.rows, matrix.cols))
            )
            raise OutOfMemoryError(
                "injected allocation failure (reliability campaign)"
            )

    def on_journal(self, site: str) -> None:
        """Crash the process at an armed journal checkpoint."""
        if self._pending_crash is None:
            return
        armed_site, skip = self._pending_crash
        if site != armed_site:
            return
        if skip > 0:
            self._pending_crash = (armed_site, skip - 1)
            return
        self._pending_crash = None
        self.log.append(FaultEvent(FaultKind.CRASH, (site,)))
        raise InjectedCrash(site)

    # -- scheduling --------------------------------------------------------

    def schedule_crash(self, site: str, after: int = 0) -> None:
        """Arm a crash at journal checkpoint *site*; with ``after=k`` the
        crash fires on the (k+1)-th hit of that site (e.g. the k-th page
        of a phase switch's PTE walk)."""
        self._pending_crash = (site, after)

    def suppress_invalidations(self, n: int = 1) -> None:
        """Swallow the next *n* TLB shootdowns."""
        self._suppress_invalidations += n

    def schedule_alloc_failures(self, n: int = 1) -> None:
        """Fail the next *n* pimalloc calls with an injected OOM."""
        self._fail_allocs += n

    # -- direct injections -------------------------------------------------

    def _tensor_index(self, system: "PimSystem", tensor: "PimTensor") -> np.ndarray:
        """Global byte index (into the flat DRAM store) of every physical
        byte of *tensor*, in virtual-address order."""
        return np.concatenate(
            [
                system.controller.flat_index(pa, length, map_id)
                for pa, length, map_id in system.space.mmu.translate_range(
                    tensor.va, tensor.nbytes_padded
                )
            ]
        )

    @staticmethod
    def _bank_byte(system: "PimSystem", index: int) -> Tuple[_BankKey, int]:
        """``(bank key, byte offset in that bank)`` of a global index."""
        bank_id, byte = divmod(index, system.memory.bank_bytes)
        return system.org.bank_key(bank_id), byte

    def flip_bits_in_tensor(
        self, system: "PimSystem", tensor: "PimTensor", n_flips: int
    ) -> List[FaultEvent]:
        """Inject *n_flips* transient single-bit flips into distinct ECC
        words of the tensor's physical bytes (each is independently
        correctable)."""
        if n_flips <= 0:
            return []
        index = self._tensor_index(system, tensor)
        events: List[FaultEvent] = []
        chosen: Set[int] = set()  # global ECC word numbers
        for _ in range(n_flips):
            for _attempt in range(32):
                i = self.rng.randrange(len(index))
                word = int(index[i]) >> 3
                if word not in chosen:
                    chosen.add(word)
                    break
            else:
                break  # tensor smaller than requested distinct words
            key, byte = self._bank_byte(system, int(index[i]))
            bit = self.rng.randrange(8)
            flat = system.memory.bank(*key).reshape(-1)
            flat[byte] ^= 1 << bit
            event = FaultEvent(FaultKind.TRANSIENT_FLIP, (key, byte, bit))
            self.log.append(event)
            events.append(event)
        return events

    def double_flip_in_tensor(
        self, system: "PimSystem", tensor: "PimTensor"
    ) -> FaultEvent:
        """Flip two distinct bits of one ECC word — uncorrectable by
        SECDED, must surface as a detected error."""
        index = self._tensor_index(system, tensor)
        i = self.rng.randrange(len(index))
        key, byte = self._bank_byte(system, int(index[i]))
        word_base = (byte >> 3) << 3
        flat = system.memory.bank(*key).reshape(-1)
        first = (self.rng.randrange(8), self.rng.randrange(8))
        while True:
            second = (self.rng.randrange(8), self.rng.randrange(8))
            if second != first:
                break
        for byte_off, bit in (first, second):
            flat[word_base + byte_off] ^= 1 << bit
        event = FaultEvent(FaultKind.DOUBLE_FLIP, (key, word_base, first, second))
        self.log.append(event)
        return event

    def add_stuck_bit(
        self,
        system: "PimSystem",
        key: _BankKey,
        byte_offset: int,
        bit: int,
        value: int,
    ) -> FaultEvent:
        """Install a stuck-at-``value`` cell, re-asserted on every bank
        access via the ``on_bank_access`` hook."""
        fault = _StuckBit(key=key, byte_offset=byte_offset, bit=bit, value=value)
        self.stuck.append(fault)
        # Assert immediately so the fault exists even before any access.
        self.on_bank_access(key, system.memory.bank(*key))
        event = FaultEvent(FaultKind.STUCK_BIT, (key, byte_offset, bit, value))
        self.log.append(event)
        return event

    def clear_stuck_bits(self) -> None:
        self.stuck.clear()

    def corrupt_pte_map_id(
        self, system: "PimSystem", va: int, bit: Optional[int] = None
    ) -> FaultEvent:
        """Flip one bit of the MapID stored in the huge-page PTE covering
        *va*, then drop the (still-correct) TLB copy so the corruption is
        actually consumed at the next walk."""
        if bit is None:
            bit = self.rng.randrange(MAP_ID_BITS)
        system.space.page_table.corrupt_pte(va, 1 << (MAP_ID_SHIFT + bit))
        tlb = system.space.mmu.tlb
        hook, tlb.fault_hook = tlb.fault_hook, None  # not a shootdown to lose
        try:
            tlb.invalidate(va, HUGE_SHIFT)
            tlb.invalidate(va, PAGE_SHIFT)
        finally:
            tlb.fault_hook = hook
        event = FaultEvent(FaultKind.PTE_MAP_ID, (va, bit))
        self.log.append(event)
        return event

    def corrupt_mapping_entry(self, table, map_id: int) -> FaultEvent:
        """Scramble a registered mapping in place (swap two PA sources
        between fields) without updating its parity — models an upset in
        the controller's mux-configuration SRAM."""
        from repro.core.mapping import AddressMapping

        entry = table._entries[map_id]
        if entry is None:
            raise KeyError(f"MapID {map_id} not registered")
        fields = {fname: list(pos) for fname, pos in entry.fields.items()}
        swappable = [f for f, pos in fields.items() if pos]
        fa, fb = self.rng.sample(swappable, 2)
        ia = self.rng.randrange(len(fields[fa]))
        ib = self.rng.randrange(len(fields[fb]))
        fields[fa][ia], fields[fb][ib] = fields[fb][ib], fields[fa][ia]
        corrupted = AddressMapping(
            name=entry.name,
            n_bits=entry.n_bits,
            fields={f: tuple(pos) for f, pos in fields.items()},
        )
        table._entries[map_id] = corrupted
        event = FaultEvent(FaultKind.MAPPING_ENTRY, (map_id, fa, ia, fb, ib))
        self.log.append(event)
        return event

    def fail_pu(self, key: _BankKey) -> FaultEvent:
        """Mark one PIM processing unit (bank) permanently failed."""
        self.failed_pus.add(key)
        event = FaultEvent(FaultKind.PU_FAIL, (key,))
        self.log.append(event)
        return event

    @property
    def pim_failed(self) -> bool:
        return bool(self.failed_pus)
