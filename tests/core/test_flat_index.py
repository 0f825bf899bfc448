"""The controller's flat byte index against the per-field translation.

``MemoryController.flat_index`` is built from two cached tables per
mapping; ``translate_array`` decodes every field of every address and is
the oracle here.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mapverify import chunk_max_map_id
from repro.core.controller import MemoryController
from repro.core.mapping import Field, conventional_mapping, pim_optimized_mapping
from repro.dram.config import TINY_ORG
from repro.dram.memory import PhysicalMemory
from repro.platforms.specs import ALL_PLATFORMS
from repro.telemetry import MetricsRegistry

PAGE_BITS = 21
PAGE = 1 << PAGE_BITS
PU_ORDERS = (
    (Field.BANK, Field.RANK, Field.CHANNEL),
    (Field.CHANNEL, Field.RANK, Field.BANK),
)


def _oracle(controller, pa, nbytes, map_id):
    """The global byte index, field by field, from ``translate_array``."""
    org = controller.org
    fields = controller.translate_array(
        np.arange(pa, pa + nbytes, dtype=np.int64), map_id
    )
    bank_id = (
        fields[Field.CHANNEL] * org.ranks_per_channel + fields[Field.RANK]
    ) * org.banks_per_rank + fields[Field.BANK]
    return (
        bank_id * org.bank_bytes
        + fields[Field.ROW] * org.row_bytes
        + fields[Field.COL] * org.transfer_bytes
        + fields[Field.OFFSET]
    )


def _platform_mappings():
    """(platform, org, mapping) for the conventional mapping and every
    chunk-admissible MapID under both PU-bit orders."""
    cases = []
    for platform in ALL_PLATFORMS:
        org, pim = platform.dram.org, platform.pim
        cases.append((platform.name, org, conventional_mapping(org, PAGE_BITS)))
        for map_id in range(chunk_max_map_id(org, pim, PAGE_BITS) + 1):
            for pu_order in PU_ORDERS:
                mapping = pim_optimized_mapping(
                    org, pim.chunk_rows, pim.chunk_cols, pim.dtype_bytes,
                    map_id, PAGE_BITS, pu_order=pu_order,
                )
                cases.append((platform.name, org, mapping))
    return cases


PLATFORM_MAPPINGS = _platform_mappings()


class TestAgainstTranslateArray:
    def test_sweep_covers_every_platform(self):
        assert {name for name, _, _ in PLATFORM_MAPPINGS} == {
            p.name for p in ALL_PLATFORMS
        }
        assert len(PLATFORM_MAPPINGS) > 2 * len(ALL_PLATFORMS)

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(PLATFORM_MAPPINGS),
        page=st.integers(0, 64),
        offset=st.one_of(
            st.integers(0, PAGE - 1), st.integers(PAGE - 9000, PAGE - 1)
        ),
        nbytes=st.integers(1, 20000),
    )
    def test_platform_mapping(self, case, page, offset, nbytes):
        """Every platform x chunk-admissible MapID, including ranges that
        cross into the next huge page."""
        _, org, mapping = case
        controller = MemoryController(org, page_bytes=PAGE)
        map_id = controller.table.register(mapping)
        pa = page * PAGE + offset
        np.testing.assert_array_equal(
            controller.flat_index(pa, nbytes, map_id),
            _oracle(controller, pa, nbytes, map_id),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(
            ["row rank col bank channel", "row channel bank col rank",
             "row col rank channel bank"]
        ),
        pa=st.integers(0, 200 * 2048),
        nbytes=st.integers(1, 9000),
    )
    def test_page_smaller_than_table_split(self, spec, pa, nbytes):
        """A 2 KiB page has fewer bits than the low index table covers:
        the high table has one entry and every range crosses pages."""
        page_bytes = 1 << 11
        table_mapping = conventional_mapping(TINY_ORG, 11, spec, name="alt")
        controller = MemoryController(TINY_ORG, page_bytes=page_bytes)
        map_id = controller.table.register(table_mapping)
        np.testing.assert_array_equal(
            controller.flat_index(pa, nbytes, map_id),
            _oracle(controller, pa, nbytes, map_id),
        )

    def test_empty_range(self):
        controller = MemoryController(TINY_ORG)
        assert controller.flat_index(123, 0).size == 0


class TestRowOverflow:
    def test_write_one_byte_past_capacity_raises(self):
        """With one flat store a row past the bank would land in the next
        bank, so both translation forms refuse it, as ``translate`` does."""
        memory = PhysicalMemory(TINY_ORG)
        controller = MemoryController(TINY_ORG, memory=memory)
        last = TINY_ORG.capacity_bytes - 1
        controller.write(last, b"\x5a")
        assert controller.read(last, 1)[0] == 0x5A
        for pa, data in ((last + 1, b"\x01"), (last, b"\x01\x02")):
            with pytest.raises(ValueError, match="beyond"):
                controller.write(pa, data)
        with pytest.raises(ValueError, match="beyond"):
            controller.translate_array(np.array([last + 1]))
        with pytest.raises(ValueError, match="beyond"):
            controller.flat_index(last + 1, 1)
        written = memory.gather(np.arange(TINY_ORG.capacity_bytes))
        assert np.flatnonzero(written).size == 1

    def test_page_wider_than_bank_checks_each_byte(self):
        """A page with more in-page rows than the bank has: the rows of
        page 0 run past the bank, so only part of the page is valid."""
        org = replace(TINY_ORG, rows_per_bank=2)
        page_bytes = org.capacity_bytes * 2
        controller = MemoryController(org, page_bytes=page_bytes)
        fields = controller.translate_array(np.arange(0, org.capacity_bytes, 64))
        assert fields[Field.ROW].max() < org.rows_per_bank
        with pytest.raises(ValueError, match="beyond"):
            controller.flat_index(0, page_bytes)


class TestCacheKeys:
    def test_same_fields_different_org(self):
        """Two organizations whose mappings have identical fields but
        different bank sizes must not share index tables."""
        small = TINY_ORG
        large = replace(TINY_ORG, rows_per_bank=2 * TINY_ORG.rows_per_bank)
        a = MemoryController(small)
        b = MemoryController(large)
        assert a.table[0].fields == b.table[0].fields
        pa, nbytes = 5 * PAGE // 4, 4096
        for controller in (a, b, a):
            np.testing.assert_array_equal(
                controller.flat_index(pa, nbytes), _oracle(controller, pa, nbytes, 0)
            )
        assert not np.array_equal(a.flat_index(pa, nbytes), b.flat_index(pa, nbytes))

    def test_recycled_slot_serves_the_new_mapping(self):
        controller = MemoryController(TINY_ORG)
        first = pim_optimized_mapping(TINY_ORG, 1, 128, 2, 1, PAGE_BITS)
        second = pim_optimized_mapping(TINY_ORG, 1, 128, 2, 2, PAGE_BITS)
        map_id = controller.table.register(first)
        before = controller.flat_index(0, 8192, map_id)
        controller.table.release(map_id)
        assert controller.table.register(second) == map_id
        after = controller.flat_index(0, 8192, map_id)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, _oracle(controller, 0, 8192, map_id))


class TestTranslationCounters:
    def test_counters_match_per_field_translation(self):
        """Reads and writes count one translation per byte and one mux
        switch per page whose MapID changed — what translating every
        byte with ``translate_array`` counts."""
        mapping = pim_optimized_mapping(TINY_ORG, 1, 128, 2, 1, PAGE_BITS)
        ops = [(0, 3 * PAGE // 2, 0), (PAGE - 64, 4096, 1), (5, 77, 1),
               (PAGE // 2, PAGE, 0), (3 * PAGE, 10, 1)]

        flat = MemoryController(TINY_ORG, memory=PhysicalMemory(TINY_ORG))
        oracle = MemoryController(TINY_ORG)
        for controller in (flat, oracle):
            assert controller.table.register(mapping) == 1
            controller.attach_metrics(MetricsRegistry())
        for pa, nbytes, map_id in ops:
            flat.write(pa, np.zeros(nbytes, dtype=np.uint8), map_id)
            flat.read(pa, nbytes, map_id)
            for _ in range(2):
                oracle.translate_array(np.arange(pa, pa + nbytes), map_id)
        flat.finalize_metrics()
        oracle.finalize_metrics()
        assert flat.metrics.snapshot() == oracle.metrics.snapshot()
