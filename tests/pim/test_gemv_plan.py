"""The cached GEMV plan against the per-segment executor it replaced.

``placement_plan`` is built once per distinct placement; ``pim_gemv``
then runs as one gather and a row-wise dot.  The oracle below recovers the
placement transfer by transfer through ``translate_array`` and executes
the GEMV one chunk-row segment at a time from ``PhysicalMemory.row``.
Every cache-safety test starts from a warm cache.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import Field
from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG, DramOrganization
from repro.pim.chunk import ChunkSegment, GemvStats, enumerate_placements
from repro.pim.config import AIM_LPDDR5, AIM_LPDDR5_INT8, HBM_PIM, aim_config_for
from repro.pim.functional import pim_gemv
from repro.reliability.faults import FaultInjector
from repro.reliability.integrity import MappingIntegrityError
from repro.telemetry import MetricsRegistry

MEDIUM_ORG = DramOrganization(
    n_channels=4, ranks_per_channel=2, banks_per_rank=16,
    rows_per_bank=512, row_bytes=2048, transfer_bytes=32,
)
SYSTEMS = {
    "tiny-aim": (TINY_ORG, aim_config_for(TINY_ORG)),
    "medium-aim": (MEDIUM_ORG, AIM_LPDDR5),
    "medium-hbm": (MEDIUM_ORG, HBM_PIM),
    "medium-int8": (MEDIUM_ORG, AIM_LPDDR5_INT8),
}
FP16_RTOL, FP16_ATOL = 1e-2, 5e-3


def _oracle_placements(tensor) -> List[ChunkSegment]:
    """Translate every transfer and group it into chunk-row segments."""
    allocator = tensor.allocator
    org = allocator.org
    dtype_bytes = tensor.matrix.dtype_bytes
    elems_per_segment = allocator.pim.chunk_row_bytes // dtype_bytes
    n_bytes = tensor.matrix.rows * tensor.lda * dtype_bytes
    segments = []
    va_off = 0
    for pa, length, map_id in allocator.space.mmu.translate_range(tensor.va, n_bytes):
        byte_off = np.arange(0, length, org.transfer_bytes, dtype=np.int64)
        fields = allocator.controller.translate_array(pa + byte_off, map_id)
        elem = (va_off + byte_off) // dtype_bytes
        seg_id = elem // elems_per_segment
        for sid in np.unique(seg_id):
            mask = seg_id == sid
            coords = {
                name: fields[name][mask]
                for name in (Field.CHANNEL, Field.RANK, Field.BANK, Field.ROW)
            }
            assert all((v == v[0]).all() for v in coords.values())
            cols = np.sort(fields[Field.COL][mask])
            assert (np.diff(cols) == 1).all()
            first = int(elem[mask][0])
            segments.append(
                ChunkSegment(
                    channel=int(coords[Field.CHANNEL][0]),
                    rank=int(coords[Field.RANK][0]),
                    bank=int(coords[Field.BANK][0]),
                    row=int(coords[Field.ROW][0]),
                    col_start=int(cols[0]),
                    n_transfers=int(mask.sum()),
                    m=first // tensor.lda,
                    k_start=first % tensor.lda,
                )
            )
        va_off += length
    return segments


def _oracle_gemv(tensor, x) -> Tuple[np.ndarray, GemvStats]:
    """One global-buffer group at a time, one segment at a time, reading
    the raw bank row of each."""
    matrix = tensor.matrix
    org = tensor.allocator.org
    memory = tensor.allocator.controller.memory
    elems_per_segment = tensor.allocator.pim.chunk_row_bytes // matrix.dtype_bytes
    x_padded = np.zeros(tensor.lda, dtype=x.dtype)
    x_padded[: matrix.cols] = x
    acc_dtype = np.float32 if matrix.kind == "float" else np.int64
    x_acc = x_padded.astype(acc_dtype)

    by_gb: Dict[Tuple[int, int, int], List[ChunkSegment]] = {}
    for seg in _oracle_placements(tensor):
        sid = seg.segment_id(elems_per_segment)
        by_gb.setdefault((seg.channel, seg.rank, sid), []).append(seg)
    y = np.zeros(matrix.rows, dtype=acc_dtype)
    stats = GemvStats()
    contributions: Dict[int, set] = {}
    for (channel, rank, sid), group in sorted(by_gb.items()):
        stats.gb_loads_per_rank[(channel, rank)] = (
            stats.gb_loads_per_rank.get((channel, rank), 0) + 1
        )
        gb = x_acc[sid * elems_per_segment : (sid + 1) * elems_per_segment]
        stats.rows_activated += len({(seg.pu, seg.row) for seg in group})
        for seg in group:
            row_bytes = memory.row(seg.channel, seg.rank, seg.bank, seg.row)
            start = seg.col_start * org.transfer_bytes
            stop = start + seg.n_transfers * org.transfer_bytes
            weights = row_bytes[start:stop].view(matrix.numpy_dtype)
            gb_off = seg.k_start - sid * elems_per_segment
            y[seg.m] += np.dot(
                weights.astype(acc_dtype), gb[gb_off : gb_off + len(weights)]
            )
            contributions.setdefault(seg.m, set()).add(seg.pu)
            stats.chunks_processed += 1
            stats.mac_transfers += seg.n_transfers
    stats.outputs_drained = sum(len(pus) for pus in contributions.values())
    stats.soc_reduced_rows = sum(1 for pus in contributions.values() if len(pus) > 1)
    return y, stats


def _store_random(system, rows, cols, kind, rng):
    dtype_bytes = 1 if kind == "int" else 2
    tensor = system.pimalloc(MatrixConfig(rows, cols, dtype_bytes, kind))
    if kind == "int":
        weights = rng.integers(-128, 128, (rows, cols)).astype(np.int8)
        x = rng.integers(-128, 128, cols).astype(np.int8)
    else:
        weights = (rng.standard_normal((rows, cols)) * 0.1).astype(np.float16)
        x = rng.standard_normal(cols).astype(np.float16)
    tensor.store(weights)
    return tensor, weights, x


def _assert_matches_oracle(tensor, x):
    assert enumerate_placements(tensor) == _oracle_placements(tensor)
    y, stats = pim_gemv(tensor, x)
    expected, expected_stats = _oracle_gemv(tensor, x)
    assert stats == expected_stats
    if tensor.matrix.kind == "int":
        assert y.dtype == np.int64
        np.testing.assert_array_equal(y, expected)
    else:
        np.testing.assert_allclose(y, expected, rtol=FP16_RTOL, atol=FP16_ATOL)
    return y


@pytest.fixture
def injector_system():
    system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG), integrity=True)
    return system, FaultInjector(seed=3).attach(system)


class TestAgainstPerSegmentOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SYSTEMS)),
        rows=st.integers(1, 96),
        cols=st.integers(1, 5000),
        seed=st.integers(0, 2**16),
        repeats=st.integers(1, 2),
    )
    def test_gemv_and_stats_match(self, name, rows, cols, seed, repeats):
        org, pim = SYSTEMS[name]
        system = PimSystem.build(org, pim)
        kind = "int" if pim.dtype_bytes == 1 else "float"
        tensor, _, x = _store_random(system, rows, cols, kind, np.random.default_rng(seed))
        for _ in range(repeats):  # a cold and a warm plan
            _assert_matches_oracle(tensor, x)

    def test_stats_are_a_fresh_copy(self, tiny_system, rng):
        tensor, _, x = _store_random(tiny_system, 16, 512, "float", rng)
        _, stats = pim_gemv(tensor, x)
        stats.gb_loads_per_rank.clear()
        stats.chunks_processed = -1
        assert pim_gemv(tensor, x)[1] == _oracle_gemv(tensor, x)[1]


class TestWarmCacheSafety:
    def test_parity_corruption_still_raises(self, injector_system, rng):
        system, injector = injector_system
        tensor, weights, x = _store_random(system, 16, 512, "float", rng)
        warm, _ = pim_gemv(tensor, x)
        tensor.load(np.float16)

        injector.corrupt_mapping_entry(system.controller.table, tensor.map_id)
        with pytest.raises(MappingIntegrityError):
            tensor.load(np.float16)
        with pytest.raises(MappingIntegrityError):
            pim_gemv(tensor, x)
        with pytest.raises(MappingIntegrityError):
            enumerate_placements(tensor)

        system.controller.table.repair(tensor.map_id, tensor.mapping)
        np.testing.assert_array_equal(tensor.load(np.float16), weights)
        np.testing.assert_array_equal(pim_gemv(tensor, x)[0], warm)

    def test_stuck_bit_reaches_gemv_output(self, injector_system, rng):
        """The stuck cell is re-asserted on the warm-plan gather even
        after a store overwrote it."""
        system, injector = injector_system
        tensor, weights, x = _store_random(system, 16, 512, "float", rng)
        warm, _ = pim_gemv(tensor, x)

        # the high byte of element (3, 5): flip its exponent MSB
        pa, _, map_id = system.space.mmu.translate_range(tensor.element_va(3, 5) + 1, 1)[0]
        index = int(system.controller.flat_index(pa, 1, map_id)[0])
        bank_id, byte = divmod(index, system.memory.bank_bytes)
        key = system.org.bank_key(bank_id)
        stored = int(system.memory.bank(*key).reshape(-1)[byte])
        injector.add_stuck_bit(system, key, byte, 6, 1 - ((stored >> 6) & 1))
        tensor.store(weights)

        faulty = _assert_matches_oracle(tensor, x)
        assert faulty[3] != warm[3]
        np.testing.assert_array_equal(np.delete(faulty, 3), np.delete(warm, 3))

    def test_switch_mapping_replans(self, medium_system, rng):
        tensor, weights, x = _store_random(medium_system, 64, 1024, "float", rng)
        before = enumerate_placements(tensor)
        warm = _assert_matches_oracle(tensor, x)
        medium_system.allocator.switch_mapping(tensor)
        after = _assert_matches_oracle(tensor, x)
        assert enumerate_placements(tensor) != before
        np.testing.assert_allclose(after, warm, rtol=FP16_RTOL, atol=FP16_ATOL)

    def test_migrate_pages_replans_a_mixed_area(self, medium_system, rng):
        # a bit over one huge page: two pages, migrated one at a time
        tensor, _, x = _store_random(medium_system, 1056, 1024, "float", rng)
        _assert_matches_oracle(tensor, x)
        target = 0 if tensor.selection.map_id else 1
        medium_system.allocator.migrate_pages(tensor, target, page_start=1, page_count=1)
        assert len(set(medium_system.space.area_page_map_ids(tensor.va))) == 2
        _assert_matches_oracle(tensor, x)

    def test_recycled_map_id_slot(self, tiny_system, rng):
        first, _, x = _store_random(tiny_system, 16, 256, "float", rng)
        _assert_matches_oracle(first, x)
        slot, fields = first.map_id, first.mapping.fields
        first.free()
        second, _, x = _store_random(tiny_system, 16, 4096, "float", rng)
        assert second.map_id == slot and second.mapping.fields != fields
        _assert_matches_oracle(second, x)


class TestTranslationCounters:
    def test_plan_hits_count_like_per_transfer_translation(self, rng):
        """Cold and warm plans count what translating every transfer
        with ``translate_array`` counted."""
        registries = []
        for use_plan in (True, False):
            system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
            system.controller.attach_metrics(MetricsRegistry())
            tensor, _, x = _store_random(
                system, 40, 700, "float", np.random.default_rng(5)
            )
            for _ in range(3):
                if use_plan:
                    pim_gemv(tensor, x)
                else:
                    _oracle_placements(tensor)
            system.controller.finalize_metrics()
            registries.append(system.controller.metrics.snapshot())
        assert registries[0] == registries[1]
