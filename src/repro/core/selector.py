"""The FACIL mapping selector (paper §IV-C, Fig. 9 and Fig. 10).

Given the configurations of a weight matrix, the memory system, and the
PIM architecture, the selector decides which PA-to-DA mapping (MapID) each
huge page of the matrix should use:

* If an entire (power-of-two padded) matrix row fits in the share of a
  huge page owned by one bank, the MapID places the PU-changing bits right
  above the matrix row, so each row lives wholly in one bank — no partial
  sums cross banks.
* Otherwise (Fig. 10) the PU-changing bits move to the MSB of the page
  offset; the row is column-wise partitioned across PUs in different
  channels and the SoC reduces the per-channel partial sums afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Tuple

from repro.core.bitfield import ceil_log2, ilog2

if TYPE_CHECKING:
    import numpy as np
from repro.core.mapping import AddressMapping, Field, pim_optimized_mapping
from repro.dram.config import DramOrganization
from repro.pim.config import PimConfig

__all__ = [
    "MatrixConfig",
    "MappingSelection",
    "build_selected_mapping",
    "pu_order_for",
    "select_mapping",
]


@dataclass(frozen=True)
class MatrixConfig:
    """Shape and element type of a weight matrix, as passed to pimalloc.

    ``kind`` is ``"float"`` (FP16/BF16/FP32 by size) or ``"int"``
    (INT8/INT16 quantized weights, as AWQ-style on-device deployments
    use); it selects the PIM PU's accumulation datapath.
    """

    rows: int
    cols: int
    dtype_bytes: int = 2
    kind: str = "float"

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        if self.kind not in ("float", "int"):
            raise ValueError(f"kind must be 'float' or 'int', got {self.kind!r}")

    @property
    def numpy_dtype(self) -> "np.dtype[Any]":
        """The numpy dtype matching (kind, dtype_bytes)."""
        import numpy as np

        prefix = "f" if self.kind == "float" else "i"
        return np.dtype(f"{prefix}{self.dtype_bytes}")

    @property
    def padded_cols(self) -> int:
        """Columns padded to the next power of two (Fig. 9: ``pow(2,
        ceil(log2(matrix_col)))``)."""
        return 1 << ceil_log2(self.cols)

    @property
    def padded_row_bytes(self) -> int:
        return self.padded_cols * self.dtype_bytes

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * self.dtype_bytes

    @property
    def padded_nbytes(self) -> int:
        return self.rows * self.padded_row_bytes


@dataclass(frozen=True)
class MappingSelection:
    """Outcome of :func:`select_mapping`.

    Attributes:
        map_id: the selected MapID (row bits between chunk and PU bits).
        needs_partition: True when one matrix row exceeds the per-bank
            share of a huge page and must be split across PUs (Fig. 10).
        partitions_per_row: number of PUs sharing one matrix row (1 when
            not partitioned); the SoC reduces this many partial sums.
        bytes_per_bank_per_page: per-PU share of each huge page.
        padded_row_bytes: the allocated leading dimension in bytes —
            matrix columns padded to a power of two *and* to at least one
            chunk row, so every stored row is a whole number of chunks.
    """

    map_id: int
    needs_partition: bool
    partitions_per_row: int
    bytes_per_bank_per_page: int
    padded_row_bytes: int


def select_mapping(
    matrix: MatrixConfig,
    org: DramOrganization,
    pim: PimConfig,
    huge_page_bytes: int = 2 << 20,
) -> MappingSelection:
    """Select the MapID for *matrix* (paper Fig. 9, generalized to chunks
    with more than one row so it covers HBM-PIM as well as AiM).

    The per-bank footprint of one *chunk-row group* — ``chunk_rows``
    consecutive matrix rows, of which each bank stores full rows — is
    ``chunk_rows * padded_row_bytes``.  If that exceeds the bank's share of
    a huge page, rows are partitioned column-wise across PUs.

    Cached on content (matrix, organization, PIM configuration, page
    size): every pimalloc of one shape shares one frozen selection.
    """
    return _select_mapping(matrix, org, pim, huge_page_bytes)


@lru_cache(maxsize=256)
def _select_mapping(
    matrix: MatrixConfig,
    org: DramOrganization,
    pim: PimConfig,
    huge_page_bytes: int,
) -> MappingSelection:
    memory_per_bank = huge_page_bytes // org.total_banks
    if memory_per_bank < pim.chunk_row_bytes:
        raise ValueError(
            f"huge page ({huge_page_bytes} B) cannot give each of "
            f"{org.total_banks} banks one chunk row ({pim.chunk_row_bytes} B)"
        )
    if pim.chunk_row_bytes < org.transfer_bytes:
        raise ValueError(
            f"one chunk row ({pim.chunk_row_bytes} B) is smaller than a "
            f"DRAM transfer ({org.transfer_bytes} B)"
        )
    # A multi-row chunk must fit the bank's DRAM row: its chunk_rows
    # segments share one row buffer (lock-step MAC sweeps never cross
    # DRAM rows), so the same column-bit budget the mapping builder
    # enforces must already hold here.
    chunk_col_part = min(
        ilog2(pim.chunk_row_bytes // org.transfer_bytes), org.col_bits
    )
    if chunk_col_part + ilog2(pim.chunk_rows) > org.col_bits:
        raise ValueError(
            f"chunk ({pim.chunk_rows}x{pim.chunk_cols}) needs "
            f"{chunk_col_part + ilog2(pim.chunk_rows)} column bits but a "
            f"DRAM row of this organization provides only {org.col_bits}"
        )

    # Rows narrower than one chunk are padded up to it: the PU always
    # consumes whole chunk rows.
    row_bytes = max(matrix.padded_row_bytes, pim.chunk_row_bytes)
    group_bytes = pim.chunk_rows * row_bytes
    needs_partition = memory_per_bank < group_bytes

    if needs_partition:
        per_bank_row_share = memory_per_bank // pim.chunk_rows
        if per_bank_row_share < pim.chunk_row_bytes:
            raise ValueError(
                f"huge page ({huge_page_bytes} B) cannot give each bank "
                f"{pim.chunk_rows} chunk rows of {pim.chunk_row_bytes} B; "
                "partitioned placement would split a chunk row"
            )
        map_id = ilog2(per_bank_row_share) - ilog2(pim.chunk_row_bytes)
        partitions = row_bytes // per_bank_row_share
    else:
        map_id = ilog2(row_bytes) - ilog2(pim.chunk_row_bytes)
        partitions = 1

    map_id = max(0, map_id)
    # map_id cannot exceed the bits available between chunk and page MSB.
    available = (
        ilog2(huge_page_bytes)
        - org.offset_bits
        - org.interleave_bits()
        - ilog2(pim.chunk_bytes // org.transfer_bytes)
    )
    if map_id > available:
        raise AssertionError(
            f"selector produced map_id={map_id} > available {available}; "
            "partition logic is inconsistent"
        )
    return MappingSelection(
        map_id=map_id,
        needs_partition=needs_partition,
        partitions_per_row=partitions,
        bytes_per_bank_per_page=memory_per_bank,
        padded_row_bytes=row_bytes,
    )


def pu_order_for(selection: MappingSelection) -> Tuple[str, str, str]:
    """PU-changing bit order for a selection (see
    :func:`repro.core.mapping.pim_optimized_mapping`): partitioned rows
    spread across channels first, so each partition gets its own global
    buffer."""
    if selection.needs_partition:
        return (Field.CHANNEL, Field.RANK, Field.BANK)
    return (Field.BANK, Field.RANK, Field.CHANNEL)


def build_selected_mapping(
    matrix: MatrixConfig,
    org: DramOrganization,
    pim: PimConfig,
    huge_page_bytes: int = 2 << 20,
) -> AddressMapping:
    """Convenience: run the selector and materialize the chosen mapping."""
    selection = select_mapping(matrix, org, pim, huge_page_bytes)
    return pim_optimized_mapping(
        org=org,
        chunk_rows=pim.chunk_rows,
        chunk_cols=pim.chunk_cols,
        dtype_bytes=pim.dtype_bytes,
        map_id=selection.map_id,
        n_bits=ilog2(huge_page_bytes),
        pu_order=pu_order_for(selection),
    )
