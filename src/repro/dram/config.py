"""DRAM organization and timing configurations.

The organization describes the *geometry* of the memory system (channels,
ranks, banks, rows, transfer size); the timings describe the JEDEC-style
command-to-command constraints used by the timing simulator.  Presets cover
the LPDDR5/LPDDR5X parts of the four platforms evaluated in the FACIL paper
(Table II) plus small test geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple, TypeVar

import numpy as np

from repro.core.bitfield import ilog2

__all__ = [
    "DramOrganization",
    "GDDR6_16000_TIMINGS",
    "DramTimings",
    "DramConfig",
    "LPDDR5_6400_TIMINGS",
    "LPDDR5X_7467_TIMINGS",
    "lpddr5_organization",
    "TINY_ORG",
]

#: a coordinate or an array of them
_Index = TypeVar("_Index", int, np.ndarray)


@dataclass(frozen=True)
class DramOrganization:
    """Geometry of a DRAM memory system.

    Attributes:
        n_channels: independent channels, each with its own data bus.
        ranks_per_channel: ranks sharing a channel bus.
        banks_per_rank: banks per rank (16 for LPDDR5 in BG-off notation).
        rows_per_bank: DRAM rows per bank.
        row_bytes: size of one DRAM row (row-buffer) in bytes.
        transfer_bytes: bytes moved per column access (paper assumes 32 B).
        channel_width_bits: data-bus width of one channel.
        data_rate_mbps: transfer rate in MT/s (mega-transfers per second).
    """

    n_channels: int
    ranks_per_channel: int
    banks_per_rank: int
    rows_per_bank: int
    row_bytes: int = 2048
    transfer_bytes: int = 32
    channel_width_bits: int = 16
    data_rate_mbps: int = 6400

    def __post_init__(self) -> None:
        for name in (
            "n_channels",
            "ranks_per_channel",
            "banks_per_rank",
            "rows_per_bank",
            "row_bytes",
            "transfer_bytes",
        ):
            value = getattr(self, name)
            if value <= 0 or (value & (value - 1)):
                raise ValueError(f"{name} must be a positive power of two, got {value}")
        if self.transfer_bytes > self.row_bytes:
            raise ValueError("transfer_bytes cannot exceed row_bytes")

    # -- derived geometry -------------------------------------------------

    @property
    def total_banks(self) -> int:
        """Total bank count across the whole system (= PIM PU count)."""
        return self.n_channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def bank_bytes(self) -> int:
        return self.rows_per_bank * self.row_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.total_banks * self.bank_bytes

    @property
    def cols_per_row(self) -> int:
        """Column accesses (transfers) per DRAM row."""
        return self.row_bytes // self.transfer_bytes

    def bank_id(self, channel: _Index, rank: _Index, bank: _Index) -> _Index:
        """Flat bank number, channel-major (ints or numpy arrays); the
        functional store keeps bank ``i`` at byte ``i * bank_bytes``."""
        return (channel * self.ranks_per_channel + rank) * self.banks_per_rank + bank

    def bank_key(self, bank_id: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`bank_id`: the ``(channel, rank, bank)`` key."""
        channel, rem = divmod(bank_id, self.ranks_per_channel * self.banks_per_rank)
        rank, bank = divmod(rem, self.banks_per_rank)
        return (channel, rank, bank)

    # -- derived bit widths ------------------------------------------------

    @property
    def offset_bits(self) -> int:
        return ilog2(self.transfer_bytes)

    @property
    def col_bits(self) -> int:
        return ilog2(self.cols_per_row)

    @property
    def bank_bits(self) -> int:
        return ilog2(self.banks_per_rank)

    @property
    def rank_bits(self) -> int:
        return ilog2(self.ranks_per_channel)

    @property
    def channel_bits(self) -> int:
        return ilog2(self.n_channels)

    @property
    def row_bits(self) -> int:
        return ilog2(self.rows_per_bank)

    def interleave_bits(self) -> int:
        """Bits that affect bank/rank/channel interleaving (PU-changing)."""
        return self.bank_bits + self.rank_bits + self.channel_bits

    # -- bandwidth ----------------------------------------------------------

    @property
    def channel_bandwidth_gbps(self) -> float:
        """Peak bandwidth of one channel in GB/s."""
        return self.data_rate_mbps * self.channel_width_bits / 8.0 / 1000.0

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak aggregate bandwidth in GB/s."""
        return self.channel_bandwidth_gbps * self.n_channels

    def rows_per_span(self, span_bytes: int) -> int:
        """DRAM rows per bank covered by *span_bytes* spread over all banks.

        A 2 MB huge page on a 512-bank system with 2 KB rows covers
        ``2 MB / (512 * 2 KB) = 2`` rows in each bank.
        """
        per_bank = span_bytes // self.total_banks
        if per_bank < self.transfer_bytes:
            raise ValueError(
                f"span {span_bytes} too small to cover all {self.total_banks} banks"
            )
        if per_bank % self.row_bytes:
            # span smaller than one full row per bank: partial-row spans are
            # legal for mapping purposes but cover "one" (partial) row.
            return 1
        return per_bank // self.row_bytes


@dataclass(frozen=True)
class DramTimings:
    """First-order JEDEC timing parameters, all in nanoseconds.

    These are device timings used by the bank state machine; command/data
    bus occupancy is derived from the organization's data rate.
    """

    tRCD: float = 18.0  # ACT -> column command
    tRP: float = 18.0  # PRE -> ACT
    tRAS: float = 42.0  # ACT -> PRE
    tRC: float = 60.0  # ACT -> ACT (same bank)
    tCCD: float = 5.0  # column -> column, same bank (tCCD_L; 4 CK at 800 MHz)
    tRRD: float = 5.0  # ACT -> ACT (different bank)
    tFAW: float = 20.0  # rolling four-activate window
    tWR: float = 18.0  # write recovery
    tWTR: float = 10.0  # write -> read turnaround
    tRTP: float = 7.5  # read -> precharge
    tCL: float = 17.0  # read latency
    tCWL: float = 14.0  # write latency
    tRFC: float = 180.0  # refresh cycle
    tREFI: float = 3900.0  # refresh interval

    def burst_time_ns(self, org: DramOrganization) -> float:
        """Time one transfer occupies the data bus of its channel."""
        transfers = org.transfer_bytes * 8 / org.channel_width_bits
        return transfers / (org.data_rate_mbps / 1000.0)


@dataclass(frozen=True)
class DramConfig:
    """An organization plus the timings that drive its simulation."""

    organization: DramOrganization
    timings: DramTimings

    @property
    def org(self) -> DramOrganization:
        return self.organization

    def with_data_rate(self, data_rate_mbps: int) -> "DramConfig":
        return DramConfig(
            organization=replace(self.organization, data_rate_mbps=data_rate_mbps),
            timings=self.timings,
        )


LPDDR5_6400_TIMINGS = DramTimings(
    tRCD=18.0,
    tRP=18.0,
    tRAS=42.0,
    tRC=60.0,
    tCCD=5.0,
    tRRD=5.0,
    tFAW=20.0,
    tWR=18.0,
    tWTR=10.0,
    tRTP=7.5,
    tCL=17.0,
    tCWL=14.0,
)

# LPDDR5X-7467 has the same ns-domain core timings; the faster bus shrinks
# the per-transfer burst time (derived from data_rate_mbps).
LPDDR5X_7467_TIMINGS = LPDDR5_6400_TIMINGS

#: GDDR6-class timings (the DRAM the taped-out AiM prototype uses): the
#: much faster interface clock tightens the column cadence.
GDDR6_16000_TIMINGS = DramTimings(
    tRCD=14.0,
    tRP=14.0,
    tRAS=28.0,
    tRC=42.0,
    tCCD=2.0,
    tRRD=4.0,
    tFAW=16.0,
    tWR=14.0,
    tWTR=8.0,
    tRTP=6.0,
    tCL=14.0,
    tCWL=10.0,
)


def lpddr5_organization(
    bus_width_bits: int,
    capacity_gb: int,
    data_rate_mbps: int = 6400,
    ranks_per_channel: int = 2,
    banks_per_rank: int = 16,
    row_bytes: int = 2048,
    transfer_bytes: int = 32,
) -> DramOrganization:
    """Build an LPDDR5 organization from a platform's bus width and capacity.

    One LPDDR5 channel is 16 bits wide, so a 256-bit bus is 16 channels.
    Rows per bank are derived from capacity.
    """
    if bus_width_bits % 16:
        raise ValueError("LPDDR5 bus width must be a multiple of 16 bits")
    n_channels = bus_width_bits // 16
    total_banks = n_channels * ranks_per_channel * banks_per_rank
    bank_bytes = capacity_gb * (1 << 30) // total_banks
    rows_per_bank = bank_bytes // row_bytes
    return DramOrganization(
        n_channels=n_channels,
        ranks_per_channel=ranks_per_channel,
        banks_per_rank=banks_per_rank,
        rows_per_bank=rows_per_bank,
        row_bytes=row_bytes,
        transfer_bytes=transfer_bytes,
        channel_width_bits=16,
        data_rate_mbps=data_rate_mbps,
    )


#: Small geometry for fast functional tests: 8 banks, 256 B rows, 8 MiB
#: total — large enough for a few 2 MB huge pages, small enough to store
#: functionally.
TINY_ORG = DramOrganization(
    n_channels=2,
    ranks_per_channel=1,
    banks_per_rank=4,
    rows_per_bank=4096,
    row_bytes=256,
    transfer_bytes=32,
)
