"""Tests for the functional per-bank byte store."""

import numpy as np
import pytest

from repro.dram.address import DramCoord
from repro.dram.config import TINY_ORG, DramOrganization, lpddr5_organization
from repro.dram.memory import PhysicalMemory


class TestGuard:
    def test_rejects_huge_organizations(self):
        org = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
        with pytest.raises(ValueError, match="guard"):
            PhysicalMemory(org)


class TestBankAccess:
    def test_lazy_allocation(self):
        memory = PhysicalMemory(TINY_ORG)
        assert list(memory.touched_banks()) == []
        memory.bank(0, 0, 1)
        assert list(memory.touched_banks()) == [(0, 0, 1)]

    def test_bank_shape(self):
        memory = PhysicalMemory(TINY_ORG)
        assert memory.bank(1, 0, 3).shape == (4096, 256)

    def test_out_of_range_bank(self):
        memory = PhysicalMemory(TINY_ORG)
        with pytest.raises(ValueError):
            memory.bank(2, 0, 0)

    def test_row_view_is_writable(self):
        memory = PhysicalMemory(TINY_ORG)
        row = memory.row(0, 0, 0, 5)
        row[:] = 7
        assert memory.read_byte(DramCoord(0, 0, 0, 5, 0, 0)) == 7


class TestScalarAccess:
    def test_write_read_byte(self):
        memory = PhysicalMemory(TINY_ORG)
        coord = DramCoord(channel=1, rank=0, bank=2, row=9, col=3, offset=17)
        memory.write_byte(coord, 0xAB)
        assert memory.read_byte(coord) == 0xAB

    def test_validates_coord(self):
        memory = PhysicalMemory(TINY_ORG)
        with pytest.raises(ValueError):
            memory.write_byte(DramCoord(9, 0, 0, 0, 0, 0), 1)


class TestVectorAccess:
    def test_scatter_gather_roundtrip(self, rng):
        memory = PhysicalMemory(TINY_ORG)
        n = 1000
        channel = rng.integers(0, 2, n)
        rank = np.zeros(n, dtype=np.int64)
        bank = rng.integers(0, 4, n)
        # unique byte indices per bank to avoid overwrite ambiguity
        byte_index = rng.permutation(TINY_ORG.bank_bytes)[:n]
        values = rng.integers(0, 256, n).astype(np.uint8)
        index = TINY_ORG.bank_id(channel, rank, bank) * TINY_ORG.bank_bytes + byte_index
        memory.scatter(index, values)
        out = memory.gather(index)
        assert np.array_equal(out, values)
        assert sorted(memory.touched_banks()) == sorted(
            {(int(c), 0, int(b)) for c, b in zip(channel, bank)}
        )
        for i in range(0, n, 97):
            key = (int(channel[i]), 0, int(bank[i]))
            assert memory.bank(*key).reshape(-1)[byte_index[i]] == values[i]

    def test_gather_defaults_to_zero(self):
        memory = PhysicalMemory(TINY_ORG)
        out = memory.gather(np.array([123]))
        assert out[0] == 0
