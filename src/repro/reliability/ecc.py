"""SECDED ECC over the functional DRAM arrays (extension).

Commodity LPDDR parts ship with on-die ECC, and any production SoC-PIM
deployment of FACIL inherits it: a single-bit upset in a bank must not
corrupt a weight matrix that both the SoC (through a flexible mapping)
and the PIM units (through raw row reads) consume.  This module provides
a functional SECDED(72,64) extended Hamming code — 64 data bits plus 8
check bits per code word — applied by :class:`~repro.core.controller.
MemoryController` to every aligned 8-byte word a read or write touches:

* single-bit errors are **corrected in place** (write-back scrubbing, so
  the PIM path, which bypasses the controller, also benefits from any
  word the SoC has scrubbed);
* double-bit errors are **detected** and surfaced as
  :class:`UncorrectableEccError` for the reliability layer to retry;
* corrections and detections are counted **per bank**, feeding the
  chaos-campaign report and the health monitor.

Check bytes live in a shadow store, one byte per 8-byte word of the flat
:class:`~repro.dram.memory.PhysicalMemory` store (which models only the
data bits, as real DRAM dies keep ECC bits in separate columns invisible
to the host).  Accesses arrive as global byte indices, so a word's bank is
``word // (bank_bytes // 8)``.

The encoder/decoder are fully vectorised: parity is computed by XOR
folding over ``uint64`` lanes, so scrubbing a megabyte costs a handful of
numpy passes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.memory import PhysicalMemory

__all__ = [
    "WORD_BYTES",
    "EccEngine",
    "UncorrectableEccError",
    "secded_encode",
    "secded_decode",
]

#: ECC code word granularity: 64 data bits.
WORD_BYTES = 8

# Extended-Hamming position assignment: check bit k guards code word
# position 2**k; data bits occupy the 64 non-power-of-two positions in
# [1, 72); "position 0" is the overall-parity bit (stored as check bit 7).
_DATA_POSITIONS = tuple(p for p in range(1, 72) if p & (p - 1))
if len(_DATA_POSITIONS) != 64:  # arithmetic invariant of (72, 64) Hamming
    raise AssertionError("extended-Hamming data positions must number 64")

_MASKS = np.array(
    [
        sum(1 << i for i, p in enumerate(_DATA_POSITIONS) if p & (1 << k))
        for k in range(7)
    ],
    dtype=np.uint64,
)

# Syndrome decode tables: syndrome -> data bit to flip, or check bit to
# flip.  A syndrome hitting neither is not a valid single-bit position,
# so the word holds >= 2 errors.
_SYN_TO_DATABIT = np.full(128, -1, dtype=np.int16)
for _i, _p in enumerate(_DATA_POSITIONS):
    _SYN_TO_DATABIT[_p] = _i
_SYN_TO_CHECKBIT = np.full(128, -1, dtype=np.int16)
_SYN_TO_CHECKBIT[0] = 7  # the overall-parity bit itself
for _k in range(7):
    _SYN_TO_CHECKBIT[1 << _k] = _k

#: decode() status codes
STATUS_CLEAN = 0
STATUS_CORRECTED = 1
STATUS_UNCORRECTABLE = 2


def _parity64(x: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint64 lane (0 or 1, as uint8)."""
    x = x.astype(np.uint64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return (x & np.uint64(1)).astype(np.uint8)


def _parity8(b: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint8 lane."""
    b = b.astype(np.uint8, copy=True)
    for shift in (4, 2, 1):
        b ^= b >> np.uint8(shift)
    return b & np.uint8(1)


def secded_encode(data: np.ndarray) -> np.ndarray:
    """Check bytes for an array of 64-bit data words.

    Bit *k* (k < 7) of each check byte is the Hamming parity over the
    data bits whose code word position has bit *k* set; bit 7 makes the
    parity of the whole 72-bit code word even.
    """
    data = np.asarray(data, dtype=np.uint64)
    check = np.zeros(data.shape, dtype=np.uint8)
    for k in range(7):
        check |= _parity64(data & _MASKS[k]) << np.uint8(k)
    overall = _parity64(data) ^ _parity8(check)
    return check | (overall << np.uint8(7))


def secded_decode(
    data: np.ndarray, check: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode possibly-corrupted (data, check) word arrays.

    Returns ``(data, check, status)`` with single-bit errors (in data
    *or* check bits) corrected and ``status`` per word: 0 clean, 1
    corrected, 2 uncorrectable (double-bit, detected but not fixed).
    """
    data = np.asarray(data, dtype=np.uint64).copy()
    check = np.asarray(check, dtype=np.uint8).copy()
    syndrome = np.zeros(data.shape, dtype=np.uint8)
    for k in range(7):
        syndrome |= (
            _parity64(data & _MASKS[k]) ^ ((check >> np.uint8(k)) & np.uint8(1))
        ) << np.uint8(k)
    overall = _parity64(data) ^ _parity8(check)

    databit = _SYN_TO_DATABIT[syndrome]
    checkbit = _SYN_TO_CHECKBIT[syndrome]
    single = overall == 1
    fix_data = single & (databit >= 0)
    fix_check = single & (checkbit >= 0)
    data[fix_data] ^= np.uint64(1) << databit[fix_data].astype(np.uint64)
    check[fix_check] ^= (np.uint8(1) << checkbit[fix_check].astype(np.uint8))

    # Even overall parity with a nonzero syndrome, or a syndrome naming
    # no valid position, means >= 2 bit errors: detected, not corrected.
    uncorrectable = ((overall == 0) & (syndrome != 0)) | (
        single & (databit < 0) & (checkbit < 0)
    )
    status = np.where(
        uncorrectable,
        STATUS_UNCORRECTABLE,
        np.where((syndrome == 0) & (overall == 0), STATUS_CLEAN, STATUS_CORRECTED),
    ).astype(np.uint8)
    return data, check, status


class UncorrectableEccError(RuntimeError):
    """A read touched at least one word with a double-bit error.

    Attributes:
        faults: ``((channel, rank, bank), word_index)`` pairs, one per
            uncorrectable word, in deterministic (sorted) order.
    """

    def __init__(self, faults: Sequence[Tuple[Tuple[int, int, int], int]]):
        self.faults = tuple(faults)
        preview = ", ".join(
            f"bank{key}@word{word}" for key, word in self.faults[:4]
        )
        more = "" if len(self.faults) <= 4 else f" (+{len(self.faults) - 4} more)"
        super().__init__(
            f"uncorrectable ECC error in {len(self.faults)} word(s): "
            f"{preview}{more}"
        )


class EccEngine:
    """Shadow check-byte store plus scrubbing for a :class:`PhysicalMemory`.

    One engine serves one memory; the controller calls :meth:`protect`
    after every functional write and :meth:`scrub` before every read.
    """

    def __init__(self) -> None:
        self._shadow: Optional[np.ndarray] = None
        #: single-bit corrections performed, per bank
        self.corrected_by_bank: Dict[Tuple[int, int, int], int] = {}
        #: double-bit detections raised, per bank
        self.detected_by_bank: Dict[Tuple[int, int, int], int] = {}

    @property
    def total_corrected(self) -> int:
        return sum(self.corrected_by_bank.values())

    @property
    def total_detected(self) -> int:
        return sum(self.detected_by_bank.values())

    # -- internals ---------------------------------------------------------

    def _shadow_for(self, memory: "PhysicalMemory") -> np.ndarray:
        if self._shadow is None:
            # A zero word encodes to a zero check byte, so untouched
            # (zeroed) DRAM is born consistent.
            self._shadow = np.zeros(
                memory.org.capacity_bytes // WORD_BYTES, dtype=np.uint8
            )
        return self._shadow

    @staticmethod
    def _count_by_bank(
        memory: "PhysicalMemory",
        counter: Dict[Tuple[int, int, int], int],
        words: np.ndarray,
    ) -> None:
        """Add one count per word to its bank's entry, in bank order."""
        bank_ids, counts = np.unique(
            words // (memory.bank_bytes // WORD_BYTES), return_counts=True
        )
        for bank_id, count in zip(bank_ids, counts):
            key = memory.org.bank_key(int(bank_id))
            counter[key] = counter.get(key, 0) + int(count)

    # -- controller entry points -------------------------------------------

    def protect(self, memory: "PhysicalMemory", index: np.ndarray) -> None:
        """Recompute check bytes for every word the write to the global
        byte *index* touched (read-modify-write at word granularity, as
        real ECC DRAM does)."""
        words = np.unique(index >> 3)
        store = memory.access(index).view(np.uint64)
        self._shadow_for(memory)[words] = secded_encode(store[words])

    def fetch(self, memory: "PhysicalMemory", index: np.ndarray) -> np.ndarray:
        """Corrected read: verify/correct every word the read of the
        global byte *index* touches, then return the requested bytes from
        the repaired store.

        Correcting and gathering in one bank access is what makes the
        correction *in flight*, as real SECDED logic is: a stuck-at cell
        (re-asserted by the fault hook on every bank access) still yields
        correct read data on every read, at one correction per read.
        Corrections are also written back to the store (and the shadow),
        so later raw-row PIM reads see the repaired data too.

        Raises:
            UncorrectableEccError: if any touched word carries a
                double-bit error (after correcting all single-bit ones).
        """
        store = memory.access(index)
        flat = store.view(np.uint64)
        shadow = self._shadow_for(memory)
        words = np.unique(index >> 3)
        data, check, status = secded_decode(flat[words], shadow[words])
        corrected = status == STATUS_CORRECTED
        if corrected.any():
            fixed = words[corrected]
            flat[fixed] = data[corrected]
            shadow[fixed] = check[corrected]
            self._count_by_bank(memory, self.corrected_by_bank, fixed)
        bad_words = words[status == STATUS_UNCORRECTABLE]
        if bad_words.size:
            self._count_by_bank(memory, self.detected_by_bank, bad_words)
            words_per_bank = memory.bank_bytes // WORD_BYTES
            raise UncorrectableEccError(
                sorted(
                    (memory.org.bank_key(int(w) // words_per_bank), int(w) % words_per_bank)
                    for w in bad_words
                )
            )
        return store[index]

    def scrub(self, memory: "PhysicalMemory", index: np.ndarray) -> None:
        """:meth:`fetch` without consuming the data (a scrub pass)."""
        self.fetch(memory, index)
