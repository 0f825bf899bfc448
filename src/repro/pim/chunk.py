"""Chunk placement enumeration and invariant checking.

A *chunk-row segment* is the contiguous slice of one matrix row that one
PU consumes from one DRAM row (for AiM a whole chunk; for HBM-PIM one of
the chunk's 8 rows).  :func:`enumerate_placements` recovers, for a tensor
allocated by pimalloc, where every segment physically lives — the ground
truth used by the functional PIM executor, the invariant checks, and the
cross-validation of the analytic timing model.

Weights never move under a GEMV, so the recovered placement — together
with the GEMV schedule it implies — is built once per distinct placement
as a :class:`GemvPlan` and kept in a bounded cache.  The cache key is the
placement's *content*: the organization, the page size, the tensor
geometry and, per physically-contiguous run, its physical address, length
and mapping :attr:`~repro.core.mapping.AddressMapping.layout_key`.  It is
never a MapID (``MappingTable.register`` recycles slots) nor an object
identity.  The runs are re-derived from the page table, and each run's
table entry re-read, on every call: a phase switch, a page migration or a
recycled slot yields a different key, and a parity-protected table still
raises on a corrupted entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.bitfield import ceil_div
from repro.core.controller import page_flat_index
from repro.dram.config import DramOrganization

if TYPE_CHECKING:  # circular at runtime: pimalloc imports repro.pim
    from repro.core.pimalloc import PimTensor

__all__ = [
    "ChunkSegment",
    "GemvPlan",
    "GemvStats",
    "enumerate_placements",
    "placement_plan",
    "verify_placement_invariants",
]

#: Distinct placements whose plans are kept (least recently used first
#: out); a plan holds a few integers per chunk-row segment.
_PLAN_CACHE = 64


@dataclass(frozen=True)
class ChunkSegment:
    """One matrix-row slice as stored for PIM consumption.

    Attributes:
        channel/rank/bank/row: the DRAM row holding the slice.
        col_start: first column access (transfer index) of the slice.
        n_transfers: length of the slice in transfers.
        m: matrix row index.
        k_start: first (padded) column index of the slice.
    """

    channel: int
    rank: int
    bank: int
    row: int
    col_start: int
    n_transfers: int
    m: int
    k_start: int

    @property
    def pu(self) -> Tuple[int, int, int]:
        return (self.channel, self.rank, self.bank)

    def segment_id(self, elems_per_segment: int) -> int:
        """Index of the input-vector segment this slice consumes."""
        return self.k_start // elems_per_segment


@dataclass
class GemvStats:
    """Operational counts gathered during functional execution; the timing
    model's analytic counts are validated against these."""

    chunks_processed: int = 0
    rows_activated: int = 0
    mac_transfers: int = 0
    gb_loads_per_rank: Dict[Tuple[int, int], int] = field(default_factory=dict)
    outputs_drained: int = 0
    soc_reduced_rows: int = 0

    @property
    def total_gb_loads(self) -> int:
        return sum(self.gb_loads_per_rank.values())


@dataclass(frozen=True)
class GemvPlan:
    """What a tensor's placement fixes for every GEMV over it.

    Attributes:
        segments: every chunk-row segment, in virtual-address order.
        starts: global byte index (into the flat DRAM store) of each
            segment's first byte, in GEMV order — grouped by (channel,
            rank, input segment), the global-buffer load serving them,
            then in virtual-address order.
        rows: matrix row of each segment, GEMV order.
        inputs: input-vector segment of each segment, GEMV order.
        elems: elements per segment.
        stats: the operational counts of one GEMV.
    """

    segments: Tuple[ChunkSegment, ...]
    starts: np.ndarray
    rows: np.ndarray
    inputs: np.ndarray
    elems: int
    stats: GemvStats

    def gemv_stats(self) -> GemvStats:
        """A fresh copy of :attr:`stats` for one execution."""
        return replace(self.stats, gb_loads_per_rank=dict(self.stats.gb_loads_per_rank))


def _run_segments(
    org: DramOrganization,
    transfer_index: np.ndarray,
    va_off: int,
    lda: int,
    dtype_bytes: int,
    elems_per_segment: int,
) -> Tuple[List[ChunkSegment], np.ndarray]:
    """Group one run's transfers (global byte index of each, VA order)
    into chunk-row segments, checking each is one DRAM row's contiguous
    columns; returns the segments and the global byte index of each
    one's first byte."""
    transfer = org.transfer_bytes
    elem = (va_off + np.arange(len(transfer_index), dtype=np.int64) * transfer) // dtype_bytes
    seg_id = elem // elems_per_segment
    starts = np.concatenate(([0], np.flatnonzero(np.diff(seg_id)) + 1))
    counts = np.diff(np.concatenate((starts, [len(seg_id)])))
    # bank_id * rows_per_bank + row: one value per (bank, DRAM row)
    row_key = transfer_index // org.row_bytes
    col = (transfer_index % org.row_bytes) // transfer
    straddles = np.minimum.reduceat(row_key, starts) != np.maximum.reduceat(row_key, starts)
    col_lo = np.minimum.reduceat(col, starts)
    # distinct transfers of one DRAM row are contiguous iff they span
    # exactly as many columns as there are transfers
    gapped = np.maximum.reduceat(col, starts) - col_lo + 1 != counts
    bad = np.flatnonzero(straddles | gapped)
    if bad.size:
        if straddles[bad[0]]:
            raise AssertionError(
                "chunk row straddles banks/rows: placement violates the "
                "PIM contiguity constraint"
            )
        raise AssertionError("chunk row is not column-contiguous")
    segments = []
    for start, count, key, col_start in zip(
        starts.tolist(), counts.tolist(), row_key[starts].tolist(), col_lo.tolist()
    ):
        bank_id, row = divmod(key, org.rows_per_bank)
        channel, rank, bank = org.bank_key(bank_id)
        first_elem = int(elem[start])
        segments.append(
            ChunkSegment(
                channel=channel,
                rank=rank,
                bank=bank,
                row=row,
                col_start=col_start,
                n_transfers=count,
                m=first_elem // lda,
                k_start=first_elem % lda,
            )
        )
    return segments, np.minimum.reduceat(transfer_index, starts)


@lru_cache(maxsize=_PLAN_CACHE)
def _build_plan(
    org: DramOrganization,
    page_bits: int,
    chunk_row_bytes: int,
    rows: int,
    lda: int,
    dtype_bytes: int,
    runs: Tuple[Tuple[int, int, Tuple[Tuple[int, ...], ...]], ...],
) -> GemvPlan:
    """The plan for a placement given by its content (see module doc)."""
    elems_per_segment = chunk_row_bytes // dtype_bytes
    segments: List[ChunkSegment] = []
    firsts: List[np.ndarray] = []
    va_off = 0
    for pa, length, layout in runs:
        transfer_index = page_flat_index(org, page_bits, layout, pa, length)[
            :: org.transfer_bytes
        ]
        run_segments, run_firsts = _run_segments(
            org, transfer_index, va_off, lda, dtype_bytes, elems_per_segment
        )
        segments.extend(run_segments)
        firsts.append(run_firsts)
        va_off += length
    if any(seg.n_transfers * org.transfer_bytes != chunk_row_bytes for seg in segments):
        raise AssertionError(
            "chunk row split across physical runs: placement violates the "
            "PIM contiguity constraint"
        )

    # GEMV order: one global-buffer load per (channel, rank, input
    # segment) serves every bank of the rank for all its chunk rows
    order = sorted(
        range(len(segments)),
        key=lambda i: (
            segments[i].channel,
            segments[i].rank,
            segments[i].segment_id(elems_per_segment),
        ),
    )
    stats = GemvStats(chunks_processed=len(segments))
    activated: Dict[Tuple[int, int, int], Set[Tuple[Tuple[int, int, int], int]]] = {}
    contributions: Dict[int, Set[Tuple[int, int, int]]] = {}
    for i in order:
        seg = segments[i]
        load = (seg.channel, seg.rank, seg.segment_id(elems_per_segment))
        if load not in activated:
            activated[load] = set()
            stats.gb_loads_per_rank[load[:2]] = stats.gb_loads_per_rank.get(load[:2], 0) + 1
        activated[load].add((seg.pu, seg.row))
        stats.mac_transfers += seg.n_transfers
        contributions.setdefault(seg.m, set()).add(seg.pu)
    stats.rows_activated = sum(len(pu_rows) for pu_rows in activated.values())
    stats.outputs_drained = sum(len(pus) for pus in contributions.values())
    stats.soc_reduced_rows = sum(1 for pus in contributions.values() if len(pus) > 1)

    def column(values: np.ndarray) -> np.ndarray:
        array = values.astype(np.int64)[order]
        array.flags.writeable = False
        return array

    return GemvPlan(
        segments=tuple(segments),
        starts=column(np.concatenate(firsts)),
        rows=column(np.array([seg.m for seg in segments])),
        inputs=column(np.array([seg.segment_id(elems_per_segment) for seg in segments])),
        elems=elems_per_segment,
        stats=stats,
    )


def placement_plan(tensor: "PimTensor") -> GemvPlan:
    """The (cached) :class:`GemvPlan` of *tensor*'s current placement.

    Translates the tensor's whole VA range into physical runs and reads
    every run's mapping-table entry on each call; the plan itself is
    built only for a placement not seen before.  Each call counts one
    controller translation per transfer, as resolving the placement
    transfer by transfer does.
    """
    allocator = tensor.allocator
    controller = allocator.controller
    matrix = tensor.matrix
    chunk_row_bytes = allocator.pim.chunk_row_bytes
    n_elems = matrix.rows * tensor.lda
    if n_elems % (chunk_row_bytes // matrix.dtype_bytes):
        raise ValueError("tensor size is not a whole number of chunk rows")

    transfer = allocator.org.transfer_bytes
    page_bits = controller.page_bits
    runs = []
    for pa, length, map_id in allocator.space.mmu.translate_range(
        tensor.va, n_elems * matrix.dtype_bytes
    ):
        runs.append((pa, length, controller.table[map_id].layout_key))
        n_transfers = ceil_div(length, transfer)
        last = pa + (n_transfers - 1) * transfer
        controller.note_translations(
            map_id, range(pa >> page_bits, (last >> page_bits) + 1), n_transfers
        )
    return _build_plan(
        allocator.org,
        page_bits,
        chunk_row_bytes,
        matrix.rows,
        tensor.lda,
        matrix.dtype_bytes,
        tuple(runs),
    )


def enumerate_placements(tensor: "PimTensor") -> List[ChunkSegment]:
    """Recover every chunk-row segment's physical placement.

    Works by translating the tensor's whole VA range (vectorised) and
    grouping its transfers into ``chunk_row_bytes`` slices; each slice
    must be physically contiguous inside one DRAM row or the placement is
    invalid.  Served from :func:`placement_plan`'s cache.
    """
    return list(placement_plan(tensor).segments)


def verify_placement_invariants(
    segments: List[ChunkSegment],
    tensor: "PimTensor",
) -> None:
    """Check the three placement properties of §II-C on real placements.

    1. **Chunk contiguity** — already enforced structurally by
       :func:`enumerate_placements`.
    2. **Lock-step alignment** — all banks of one rank, at the same DRAM
       (row, col) position, consume the *same input segment* (so the
       shared global buffer serves them all).
    3. **Row locality** — without partitioning, a matrix row lives wholly
       in one bank; with partitioning, in exactly
       ``selection.partitions_per_row`` PUs.

    Raises:
        AssertionError: if any invariant fails.
    """
    pim = tensor.allocator.pim
    elems_per_segment = pim.chunk_row_bytes // tensor.matrix.dtype_bytes

    lockstep: Dict[Tuple[int, int, int, int], int] = {}
    for seg in segments:
        key = (seg.channel, seg.rank, seg.row, seg.col_start)
        sid = seg.segment_id(elems_per_segment)
        if key in lockstep and lockstep[key] != sid:
            raise AssertionError(
                f"lock-step violation at {key}: banks of one rank need "
                f"segments {lockstep[key]} and {sid} simultaneously"
            )
        lockstep[key] = sid

    pus_per_row: Dict[int, set] = {}
    for seg in segments:
        pus_per_row.setdefault(seg.m, set()).add(seg.pu)
    expected = tensor.selection.partitions_per_row
    for m, pus in pus_per_row.items():
        if len(pus) > expected:
            raise AssertionError(
                f"matrix row {m} spread over {len(pus)} PUs; selector "
                f"promised at most {expected}"
            )
