"""Functional DRAM contents: one flat byte store for every bank.

This is the *data* half of the DRAM simulator (the timing half lives in
:mod:`repro.dram.system`).  Bank ``i`` (see
:meth:`~repro.dram.config.DramOrganization.bank_id`) occupies bytes
``[i * bank_bytes, (i + 1) * bank_bytes)`` of a single ``np.zeros`` array,
laid out row-major as ``rows x row_bytes``.  The array is calloc'd, so
banks nobody touches cost no resident memory, and a vectorised access is
one fancy index over *global byte indices* (what
:meth:`repro.core.controller.MemoryController.flat_index` returns).  End-
to-end tests store a matrix through one address mapping and read it back
through another — the core correctness claim of FACIL.

Intended for the small/medium test geometries; a guard refuses to
instantiate functional storage for multi-GB organizations, where only the
timing models are meaningful.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

import numpy as np

from repro.core.bitfield import ilog2
from repro.dram.address import DramCoord
from repro.dram.config import DramOrganization

__all__ = ["PhysicalMemory"]

_BankKey = Tuple[int, int, int]

#: Functional storage guard: organizations larger than this are timing-only.
_MAX_FUNCTIONAL_BYTES = 1 << 32  # 4 GiB


class PhysicalMemory:
    """Byte-accurate storage for every bank of an organization."""

    def __init__(self, org: DramOrganization):
        if org.capacity_bytes > _MAX_FUNCTIONAL_BYTES:
            raise ValueError(
                f"organization capacity {org.capacity_bytes} B exceeds the "
                f"functional-memory guard ({_MAX_FUNCTIONAL_BYTES} B); use a "
                "smaller geometry for functional simulation"
            )
        self.org = org
        self.bank_bytes = org.bank_bytes
        self._bank_shift = np.int64(ilog2(org.bank_bytes))
        self._store = np.zeros(org.capacity_bytes, dtype=np.uint8)
        self._touched: Set[int] = set()
        #: reliability hook (see :mod:`repro.reliability.faults`): when
        #: set, ``fault_hook.on_bank_access(key, array)`` runs once per
        #: touched bank on every access, letting a fault injector re-assert
        #: stuck-at bits before any reader (SoC, ECC scrubber, or PIM)
        #: sees the array.
        self.fault_hook = None

    # -- bank access -----------------------------------------------------

    def bank(self, channel: int, rank: int, bank: int) -> np.ndarray:
        """The ``(rows, row_bytes)`` byte array of one bank (a view into
        the flat store, zero until written)."""
        key = (channel, rank, bank)
        if not (
            0 <= channel < self.org.n_channels
            and 0 <= rank < self.org.ranks_per_channel
            and 0 <= bank < self.org.banks_per_rank
        ):
            raise ValueError(f"bank key {key} out of range for {self.org}")
        bank_id = self.org.bank_id(channel, rank, bank)
        start = bank_id * self.bank_bytes
        array = self._store[start : start + self.bank_bytes].reshape(
            self.org.rows_per_bank, self.org.row_bytes
        )
        self._touched.add(bank_id)
        if self.fault_hook is not None:
            self.fault_hook.on_bank_access(key, array)
        return array

    def row(self, channel: int, rank: int, bank: int, row: int) -> np.ndarray:
        """One DRAM row (what an activate brings into the row buffer)."""
        return self.bank(channel, rank, bank)[row]

    def touched_banks(self) -> Iterator[_BankKey]:
        """Keys of banks that have been accessed."""
        return iter([self.org.bank_key(bank_id) for bank_id in sorted(self._touched)])

    def access(self, index: np.ndarray) -> np.ndarray:
        """Record an access to every bank the global byte *index* array
        touches — each bank once, in bank order, through :meth:`bank` when
        a fault hook is set — and return the flat byte store."""
        if self.fault_hook is None and len(self._touched) == self.org.total_banks:
            return self._store  # nothing left to record
        counts = np.bincount(
            np.asarray(index, dtype=np.int64) >> self._bank_shift,
            minlength=self.org.total_banks,
        )
        bank_ids = np.flatnonzero(counts).tolist()
        self._touched.update(bank_ids)
        if self.fault_hook is not None:
            for bank_id in bank_ids:
                self.bank(*self.org.bank_key(bank_id))
        return self._store

    # -- scalar access ------------------------------------------------------

    def read_byte(self, coord: DramCoord) -> int:
        coord.validate(self.org)
        row = self.row(coord.channel, coord.rank, coord.bank, coord.row)
        return int(row[coord.col * self.org.transfer_bytes + coord.offset])

    def write_byte(self, coord: DramCoord, value: int) -> None:
        coord.validate(self.org)
        row = self.row(coord.channel, coord.rank, coord.bank, coord.row)
        row[coord.col * self.org.transfer_bytes + coord.offset] = value

    # -- vectorised access ----------------------------------------------------

    def gather(self, index: np.ndarray) -> np.ndarray:
        """Read the byte at every global byte index."""
        return self.access(index)[index]

    def scatter(self, index: np.ndarray, values: np.ndarray) -> None:
        """Write one byte per global byte index."""
        self.access(index)[index] = np.asarray(values, dtype=np.uint8)
