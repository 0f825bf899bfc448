"""The four benchmark workloads, driven through the public ``repro`` APIs.

Every workload is a sequence of *batches*.  Batch ``i`` is generated from
``(seed, i)`` alone, so the same seed replays the same inputs and a traced
pass can rerun exactly the batches an untraced pass ran.  ``run_batch``
times the program's own calls with ``time.perf_counter`` and checks every
output; the checks run outside the timed regions.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.analysis.mapverify import verify_pim_mapping
from repro.core.journal import CRASH_SITES, MIGRATE_CRASH_SITES, InjectedCrash
from repro.core.bitfield import ilog2
from repro.core.pimalloc import PimSystem, PimTensor
from repro.core.selector import MatrixConfig
from repro.dram.config import DramOrganization
from repro.engine.policies import InferenceEngine
from repro.fleet import FleetConfig, FleetRuntime, shaped_workload
from repro.llm.datasets import ALPACA_LIKE, DatasetSpec
from repro.llm.layers import total_linear_bytes
from repro.llm.model_config import LlmConfig, model_by_name
from repro.llm.tiny_runtime import FunctionalLlm, reference_forward
from repro.pim.config import aim_config_for
from repro.platforms.specs import JETSON_ORIN
from repro.reliability.faults import FaultInjector
from repro.reliability.integrity import MappingIntegrityError
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.serving.workload import TenantSpec, poisson_workload
from repro.workloads import CoResidencySpec, ExpertPlacementSpec, SpeculativeSpec

#: 32 MiB functional DRAM (16 huge pages), the geometry the repository's
#: transformer parity test uses
FUNCTIONAL_ORG = DramOrganization(
    n_channels=2, ranks_per_channel=1, banks_per_rank=8,
    rows_per_bank=4096, row_bytes=512, transfer_bytes=32,
)


@dataclass
class BatchResult:
    """What one batch did, as the runner aggregates it."""

    #: (op kind, host seconds) per timed op; serving workloads time one
    #: op per loop run and divide by its requests when reporting latency
    ops: List[Tuple[str, float]] = field(default_factory=list)
    #: (kind, host seconds) of timed regions nested inside an op
    sub_ops: List[Tuple[str, float]] = field(default_factory=list)
    #: ops attempted (serving: offered requests) and ops that failed
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: weight bytes read, written or migrated (serving: priced bytes)
    bytes: int = 0
    #: exact counters summed over batches
    counts: Counter = field(default_factory=Counter)
    #: simulated serving outcomes: served requests, simulated seconds,
    #: and each served request's simulated TTFT in ms
    sim_served: int = 0
    sim_seconds: float = 0.0
    sim_ttft_ms: List[float] = field(default_factory=list)
    #: digest of everything the program computed (tokens, CRCs, reports)
    digest: str = ""
    #: calibration kernel samples taken while the batch ran
    calibration: List[float] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Host seconds spent inside the program (the timed regions)."""
        return sum(seconds for _, seconds in self.ops)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def _rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _sub_seed(seed: int, name: str, index: int) -> int:
    return _rng(seed, name, index).randrange(1 << 31)


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Host CPU speed on a shared virtual machine drifts by 15-20 % over tens
#: of seconds, and interpreted and numpy code drift together.  A short fixed
#: kernel, run between timed regions at most every ``CALIBRATION_PERIOD_S``,
#: measures that drift so the runner can report host times at the
#: reference speed.
CALIBRATION_PERIOD_S = 0.05


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreted and vectorised work."""
    start = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    values = np.arange(1 << 15, dtype=np.int64)
    for _ in range(10):
        values = (values * 5 + 3) & 0xFFFF
    return time.perf_counter() - start


class Workload:
    """Base class: ``batch_s`` is the nominal host time of one batch on
    the reference machine; the runner plans ``seconds / batch_s`` batches.

    ``profiler`` is a ``cProfile.Profile`` in the traced pass; it runs only
    inside :meth:`timed` regions, so the benchmark's checks stay out of the
    per-layer attribution.  With ``calibrate`` set, :meth:`timed` samples
    :func:`calibration_kernel` into ``calibration`` after its regions."""

    name = ""
    batch_s = 1.0
    #: True: each timed region is one op; False: a timed region serves a
    #: batch of requests and op latency is its time per request
    per_op_latency = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.profiler = None
        self.calibrate = False
        self.calibration: List[float] = []
        self._depth = 0
        self._last_calibration = 0.0

    @contextmanager
    def timed(self, sink: List[Tuple[str, float]], kind: str):
        """Time the block into *sink* as one ``(kind, seconds)`` entry."""
        outer = self._depth == 0
        self._depth += 1
        if outer and self.profiler is not None:
            self.profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            if outer and self.profiler is not None:
                self.profiler.disable()
            self._depth -= 1
            sink.append((kind, seconds))
            now = time.perf_counter()
            if outer and self.calibrate and now - self._last_calibration >= CALIBRATION_PERIOD_S:
                self.calibration.append(calibration_kernel())
                self._last_calibration = time.perf_counter()

    def run_batch(self, index: int) -> BatchResult:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Tear down and return teardown-check failures."""
        return []


# ---------------------------------------------------------------------------
# tiny-llm: FACIL's headline path, one pimalloc'd copy of the weights
# ---------------------------------------------------------------------------

#: one-layer gated decoder: small enough that a forward call takes tens
#: of milliseconds, so a run times well over 100 calls
BENCH_LLM = LlmConfig(
    name="bench-llm", n_layers=1, d_model=128, n_heads=4, n_kv_heads=2,
    d_ff=256, vocab_size=512, ffn_kind="gated",
)
PROMPT_LENGTHS = (4, 8, 12, 16)
DECODE_TOKENS = 4
#: logits parity tolerance, the one the repository's transformer parity
#: tests use: the PIM GEMV path accumulates in another order than numpy,
#: and a ~1e-7 difference can flip one fp16 activation rounding, which
#: moves the logits by ~1e-3
LOGIT_RTOL, LOGIT_ATOL = 1e-2, 5e-3


class TinyLlm(Workload):
    """Prompt = prefill on the SoC GEMM path + greedy decode on PIM GEMV,
    every token checked against the pure-numpy reference."""

    name = "tiny-llm"
    batch_s = 0.35

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        system = PimSystem.build(FUNCTIONAL_ORG, aim_config_for(FUNCTIONAL_ORG))
        self.model = FunctionalLlm(BENCH_LLM, system, seed=seed)
        self.weight_bytes = sum(t.nbytes_padded for t in self.model.tensors.values())

    def run_batch(self, index: int) -> BatchResult:
        rng = _rng(self.seed, self.name, index)
        length = PROMPT_LENGTHS[index % len(PROMPT_LENGTHS)]
        prompt = [rng.randrange(BENCH_LLM.vocab_size) for _ in range(length)]
        out = BatchResult()
        tokens: List[int] = []
        cache = ref_cache = None
        step = prompt
        for position in range(1 + DECODE_TOKENS):
            on_pim = position > 0
            with self.timed(out.ops, "decode" if on_pim else "prefill"):
                logits, cache = self.model.forward(step, cache, on_pim=on_pim)
            out.bytes += self.weight_bytes
            out.attempted += 1
            ref_logits, ref_cache = reference_forward(self.model, step, ref_cache)
            token, expected = int(np.argmax(logits)), int(np.argmax(ref_logits))
            if not np.allclose(logits, ref_logits, rtol=LOGIT_RTOL, atol=LOGIT_ATOL):
                out.fail(f"prompt {index} position {position}: logits differ from "
                         f"reference by {np.abs(logits - ref_logits).max():.3g}")
            elif ref_logits[expected] - ref_logits[token] > LOGIT_ATOL:
                # a different token is only a pass on a near-tie of the
                # reference's own top logits
                out.fail(f"prompt {index} position {position}: "
                         f"token {token} != reference {expected}")
            tokens.append(token)
            step = [token]
        out.digest = _digest([prompt, tokens])
        return out


# ---------------------------------------------------------------------------
# mapping-churn: short-lived mappings, crashes, recovery and parity upsets
# ---------------------------------------------------------------------------

#: small tensors, 4 KiB to 128 KiB of fp16
CHURN_SHAPES = ((8, 256), (32, 256), (64, 512), (128, 512))
#: the long-lived multi-page tensor: 2 MiB + 64 KiB, two huge pages
BIG_SHAPE = (1056, 1024)
_DISARMED = "perfbench:disarmed"  # a site no checkpoint announces


@dataclass
class _Live:
    tensor: PimTensor
    data: np.ndarray
    crc: int


class MappingChurn(Workload):
    """Seeded pimalloc/store, load, switch_mapping, partial-range
    migrate_pages and free over a journaled PimSystem with a parity
    mapping table; crashes at declared sites are recovered with
    ``PimSystem.recover()`` and the failed op retried."""

    name = "mapping-churn"
    batch_s = 1.8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pim = aim_config_for(FUNCTIONAL_ORG)
        self.system = PimSystem.build(
            FUNCTIONAL_ORG, self.pim, functional=True, integrity=True, journal=True
        )
        self.injector = FaultInjector(seed).attach(self.system)
        self.table = self.system.controller.table
        self.page_bytes = self.system.huge_page_bytes
        # largest FACIL MapID a page can be migrated to on this geometry
        # (the adaptive arena's bound: a page's worth of chunk rows per bank)
        self.max_k = ilog2(
            self.page_bytes // FUNCTIONAL_ORG.total_banks // self.pim.chunk_row_bytes
        )
        self.data_rng = np.random.default_rng(seed)
        data = self._data(BIG_SHAPE)
        tensor = self.system.pimalloc(MatrixConfig(*BIG_SHAPE, 2))
        tensor.store(data)
        self.big = _Live(tensor, data, zlib.crc32(data.tobytes()))
        self.big_pages = self.system.space.areas[self.big.tensor.va].n_pages
        self.page_k = [self.big.tensor.selection.map_id] * self.big_pages
        self.page_crcs = [self._page_crc(p) for p in range(self.big_pages)]
        self.small: List[_Live] = []

    # -- helpers -------------------------------------------------------------

    def _data(self, shape: Tuple[int, int]) -> np.ndarray:
        return self.data_rng.integers(0, 1 << 16, size=shape, dtype=np.uint16)

    def _page_span(self, page: int) -> Tuple[int, int]:
        start = page * self.page_bytes
        return start, min(self.page_bytes, self.big.tensor.nbytes_padded - start)

    def _page_crc(self, page: int) -> int:
        start, length = self._page_span(page)
        raw = self.system.allocator.read_virtual(self.big.tensor.va + start, length)
        return zlib.crc32(raw.tobytes())

    def _live_ids(self) -> Counter:
        ids = Counter(entry.tensor.map_id for entry in self.small)
        ids.update(set(self.system.space.area_page_map_ids(self.big.tensor.va)))
        ids[0] += 1  # the conventional mapping's baseline reference
        return ids

    def _audit(self, out: BatchResult, label: str) -> None:
        """Refcounts, mapped areas and the mapping verifier against the
        benchmark's own record of the live tensors."""
        if dict(self.table.refcounts()) != dict(self._live_ids()):
            out.fail(f"{label}: refcounts {self.table.refcounts()} != {dict(self._live_ids())}")
        expected_vas = {e.tensor.va for e in self.small} | {self.big.tensor.va}
        if set(self.system.space.areas) != expected_vas:
            out.fail(f"{label}: mapped areas differ from live tensors")
        for map_id in sorted(set(self._live_ids()) - {0}):
            if verify_pim_mapping(self.table[map_id], FUNCTIONAL_ORG, self.pim):
                out.fail(f"{label}: verifier findings on MapID {map_id}")
                out.counts["core.verifier_findings"] += 1

    def _crash(self, out: BatchResult, label: str, site: str, after: int, op):
        """Run *op* with a crash armed at *site*; recover; return the
        recovery action for the crashed transaction (None on failure)."""
        self.injector.schedule_crash(site, after=after)
        try:
            op()
        except InjectedCrash:
            pass
        else:
            self.injector.schedule_crash(_DISARMED)
            out.fail(f"{label}: armed crash at {site} never fired")
            return None
        with self.timed(out.sub_ops, "recover"):
            report = self.system.recover()
        out.counts["core.crashes_recovered"] += 1
        out.counts["core.rolled_back"] += report.rolled_back
        out.counts["core.rolled_forward"] += report.rolled_forward
        self.system.journal.truncate_committed()
        return report.actions[-1] if report.actions else None

    # -- the ops -------------------------------------------------------------

    def _alloc(self, out, shape, crash_site) -> _Live:
        matrix = MatrixConfig(shape[0], shape[1], 2)
        data = self._data(shape)
        with self.timed(out.ops, "alloc"):
            if crash_site is not None:
                self._crash(out, f"alloc {shape}", crash_site, 0,
                            lambda: self.system.pimalloc(matrix))
            tensor = self.system.pimalloc(matrix)
            tensor.store(data)
        entry = _Live(tensor, data, zlib.crc32(data.tobytes()))
        out.bytes += tensor.nbytes_padded
        self.small.append(entry)
        return entry

    def _load(self, out, entry: _Live, corrupt: bool) -> None:
        if corrupt:
            self.injector.corrupt_mapping_entry(self.table, entry.tensor.map_id)
        detected = False
        with self.timed(out.ops, "load"):
            try:
                loaded = entry.tensor.load(np.uint16)
            except MappingIntegrityError:
                if not corrupt:
                    raise
                detected = True
                self.table.repair(entry.tensor.map_id, entry.tensor.mapping)
                loaded = entry.tensor.load(np.uint16)
        if corrupt and not detected:
            out.fail(f"parity corruption of MapID {entry.tensor.map_id} not detected")
        out.counts["reliability.parity_detected"] += detected
        out.bytes += entry.tensor.nbytes_padded
        if zlib.crc32(loaded.tobytes()) != entry.crc:
            out.fail(f"CRC mismatch on MapID {entry.tensor.map_id}")

    def _switch(self, out, entry: _Live, crash_site) -> None:
        tensor = entry.tensor
        with self.timed(out.ops, "switch"):
            done = False
            if crash_site is not None:
                action = self._crash(out, "switch", crash_site, 0,
                                     lambda: self.system.allocator.switch_mapping(tensor))
                if action is not None and action.resolution == "rolled-forward":
                    tensor.map_id = action.detail["new_map_id"]
                    tensor.mapping = self.table[tensor.map_id]
                    done = True
            if not done:
                self.system.allocator.switch_mapping(tensor)
        out.bytes += tensor.nbytes_padded

    def _free(self, out, entry: _Live, crash_site) -> None:
        with self.timed(out.ops, "free"):
            if crash_site is not None:
                # a free always rolls forward: the tensor is gone either way
                self._crash(out, "free", crash_site, 0, entry.tensor.free)
            else:
                entry.tensor.free()
        self.small.remove(entry)

    def _migrate(self, out, page: int, k: int, crash_site) -> None:
        allocator, tensor = self.system.allocator, self.big.tensor

        def migrate():
            allocator.migrate_pages(tensor, k, page_start=page, page_count=1)

        with self.timed(out.ops, "migrate"):
            done = False
            if crash_site is not None:
                action = self._crash(out, f"migrate page {page} -> k={k}", crash_site, 0, migrate)
                done = action is not None and action.resolution == "rolled-forward"
            if not done:
                migrate()
        out.bytes += self.page_bytes
        self.page_k[page] = k
        # a migration recovered forward never reached the handle update
        # migrate_pages makes once the area is uniform again
        ids = set(self.system.space.area_page_map_ids(tensor.va))
        if len(ids) == 1:
            tensor.map_id = ids.pop()
            tensor.mapping = self.table[tensor.map_id]
        if self._page_crc(page) != self.page_crcs[page]:
            out.fail(f"CRC mismatch on migrated page {page}")

    # -- one round -----------------------------------------------------------

    def run_batch(self, index: int) -> BatchResult:
        rng = _rng(self.seed, self.name, index)
        out = BatchResult()
        shapes = [shape for shape in CHURN_SHAPES for _ in range(2)]
        rng.shuffle(shapes)
        pairs = [shapes[i:i + 2] for i in range(0, len(shapes), 2)]
        # one crash per mutating op kind per round, at a site that cycles
        # with the round index, on a tensor whose shape also cycles (so a
        # round's recovery work does not depend on the seed); one parity
        # upset before one load
        sites = {kind: [s for s in CRASH_SITES if s.startswith(kind + ":")]
                 for kind in ("alloc", "switch", "free")}
        crash_at = {
            kind: shapes.index(CHURN_SHAPES[(index + offset) % len(CHURN_SHAPES)])
            for offset, kind in enumerate(sites)
        }
        corrupt_at = rng.randrange(len(shapes))

        def site(kind, position):
            if crash_at[kind] != position:
                return None
            return sites[kind][index % len(sites[kind])]

        for p, pair in enumerate(pairs):
            positions = (2 * p, 2 * p + 1)
            live = [self._alloc(out, shape, site("alloc", t)) for shape, t in zip(pair, positions)]
            for entry, t in zip(live, positions):
                self._load(out, entry, corrupt_at == t)
            for entry, t in zip(live, positions):
                self._switch(out, entry, site("switch", t))
            for entry in live:
                self._load(out, entry, False)
            for entry, t in zip(live, positions):
                self._free(out, entry, site("free", t))
            self._audit(out, f"round {index} pair {p}")

        page = index % self.big_pages
        k = rng.choice([k for k in range(self.max_k + 1) if k != self.page_k[page]])
        self._migrate(out, page, k, MIGRATE_CRASH_SITES[index % len(MIGRATE_CRASH_SITES)])
        self._audit(out, f"round {index} migrate")

        out.attempted = len(out.ops)
        out.digest = _digest([self.page_k, sorted(self.table.refcounts().items()),
                              dict(out.counts), out.failures])
        return out

    def finish(self) -> List[str]:
        """Converge the multi-page tensor onto one mapping, free it, and
        require the pristine table the journal promises."""
        failures = []
        k = self.page_k[0]
        for page, page_k in enumerate(self.page_k):
            if page_k != k:
                self.system.allocator.migrate_pages(
                    self.big.tensor, k, page_start=page, page_count=1
                )
        crc = zlib.crc32(self.big.tensor.load(np.uint16).tobytes())
        if crc != self.big.crc:
            failures.append("multi-page tensor CRC mismatch at teardown")
        self.big.tensor.free()
        for entry in list(self.small):
            entry.tensor.free()
        self.injector.detach()
        if self.system.space.areas or self.table.refcounts() != {0: 1}:
            failures.append(f"teardown left refcounts {self.table.refcounts()}")
        return failures


# ---------------------------------------------------------------------------
# fleet-chat: routing, KV and decode pricing over four devices
# ---------------------------------------------------------------------------

FLEET_DEVICES = 4
FLEET_QPS = 1.8  # offered just below the ~2.1 qps the fleet sustains
FLEET_DEADLINE_MS = 10_000.0
FLEET_WINDOW_MS = 20_000.0
FLEET_KILLS = 2


class FleetChat(Workload):
    """One fleet run per batch: multi-turn chat with prefix-sharing KV
    and a short kill schedule, open-loop in simulated time."""

    name = "fleet-chat"
    batch_s = 0.18
    per_op_latency = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.tenant = TenantSpec(
            name="chat", dataset=ALPACA_LIKE, policy="facil", qps=FLEET_QPS,
            deadline_ms=FLEET_DEADLINE_MS, mean_turns=3.0,
        )
        self.pending = self._inputs(0)

    def _inputs(self, index: int):
        sub = _sub_seed(self.seed, self.name, index)
        rng = random.Random(sub)
        requests = shaped_workload([self.tenant], FLEET_WINDOW_MS, seed=sub)
        kills = sorted(
            (rng.uniform(0.1, 0.8) * FLEET_WINDOW_MS * 1e6, rng.randrange(FLEET_DEVICES))
            for _ in range(FLEET_KILLS)
        )
        config = FleetConfig(
            n_devices=FLEET_DEVICES, seed=sub, shed_policy="drop-oldest", recovery_ms=40.0
        )
        return index, requests, kills, FleetRuntime(config)

    def run_batch(self, index: int) -> BatchResult:
        built, requests, kills, runtime = self.pending
        if built != index:
            built, requests, kills, runtime = self._inputs(index)
        out = BatchResult()
        with self.timed(out.ops, "run"):
            report = runtime.run(requests, kills=kills)
        self.pending = self._inputs(index + 1)
        out.attempted = report.offered
        if not report.none_lost:
            out.fail(f"fleet batch {index}: an offered request has no terminal outcome")
        for finding in report.audit_findings:
            out.fail(f"fleet batch {index}: {finding}")
        by_id = {r.req_id: r for r in requests}
        for outcome in report.outcomes:
            if outcome.served:
                device = runtime.by_id[outcome.device_id]
                model = model_by_name(device.spec.platform.model_name)
                out.bytes += total_linear_bytes(model) * by_id[outcome.req_id].decode_tokens
                out.sim_ttft_ms.append(outcome.ttft_ns / 1e6)
        out.sim_served = report.served
        out.sim_seconds = report.duration_ns / 1e9
        summary = report.to_dict()
        out.counts.update({
            "fleet.served": report.served, "fleet.shed": report.shed,
            "fleet.timed_out": summary["timed_out"], "fleet.failovers": report.failovers,
            "kvcache.prefix_hits": sum(d["prefix_hits"] for d in report.devices),
            "kvcache.prefill_tokens_saved": sum(d["prefill_tokens_saved"] for d in report.devices),
        })
        out.digest = _digest(summary)
        return out


# ---------------------------------------------------------------------------
# serve-mix: the five single-device serving loops on one Jetson engine
# ---------------------------------------------------------------------------

#: narrow lengths for MoE, whose host cost grows with every routed token
MOE_DATASET = DatasetSpec(
    name="perfbench-moe", prefill_mu=3.4, prefill_sigma=0.3, prefill_min=8,
    prefill_max=128, decode_mu=3.0, decode_sigma=0.3, decode_min=8, decode_max=48,
)

#: loop kind -> (requests per batch, per-tenant qps, mean turns); counts
#: give each kind a comparable share of host time
SERVE_KINDS = {
    "chat": (400, 0.4, 1.0),
    "chat_kv": (30, 0.4, 3.0),
    "speculative": (20, 0.4, 1.0),
    "moe": (3, 0.4, 1.0),
    "coresident": (80, 0.2, 1.0),
}


class ServeMix(Workload):
    name = "serve-mix"
    batch_s = 0.16
    per_op_latency = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.engine = InferenceEngine(JETSON_ORIN)
        self.weight_bytes = total_linear_bytes(self.engine.model)

    def _requests(self, kind: str, index: int):
        n, qps, turns = SERVE_KINDS[kind]
        dataset = MOE_DATASET if kind == "moe" else ALPACA_LIKE
        tenants = [TenantSpec(name="chat", dataset=dataset, policy="facil", qps=qps,
                              deadline_ms=600_000.0, mean_turns=turns)]
        if kind == "coresident":
            tenants.append(TenantSpec(name="secondary", policy="facil", qps=qps,
                                      deadline_ms=600_000.0))
        total_qps = qps * len(tenants)
        sub = _sub_seed(self.seed, f"{self.name}:{kind}", index)
        # oversample the horizon, then keep the first n arrivals
        horizon_ms = 3e3 * n / total_qps
        requests = poisson_workload(tenants, duration_ms=horizon_ms, seed=sub)
        while len(requests) < n:
            horizon_ms *= 2
            requests = poisson_workload(tenants, duration_ms=horizon_ms, seed=sub)
        return sub, requests[:n]

    def _runtime(self, kind: str, sub: int) -> ServingRuntime:
        config = ServingConfig(
            seed=sub, queue_capacity=64, shed_policy="drop-oldest",
            kv_blocks=128 if kind == "chat_kv" else 0,
        )
        workload = {
            "speculative": SpeculativeSpec(acceptance_rate=0.8, kv_blocks=2048),
            "moe": ExpertPlacementSpec(n_experts=8, experts_per_token=2, resident_experts=2),
            "coresident": CoResidencySpec(),
        }.get(kind)
        return ServingRuntime(self.engine, config, workload=workload)

    def run_batch(self, index: int) -> BatchResult:
        out = BatchResult()
        reports = {}
        for kind in SERVE_KINDS:
            sub, requests = self._requests(kind, index)
            runtime = self._runtime(kind, sub)
            with self.timed(out.ops, kind):
                report = runtime.run(requests)
            reports[kind] = report.to_dict()
            out.attempted += report.offered
            if not report.ok:
                out.fail(f"{kind} batch {index}: {report.unserved} admitted requests unserved")
            if report.workload is not None and report.workload["conservation_findings"]:
                out.fail(f"{kind} batch {index}: conservation findings "
                         f"{report.workload.get('findings')}")
            for outcome in report.outcomes:
                if outcome.served:
                    out.bytes += self.weight_bytes * outcome.decode_tokens_served
                    out.sim_ttft_ms.append(outcome.ttft_ns / 1e6)
            out.sim_served += report.served
            out.sim_seconds += report.duration_ns / 1e9
            if kind == "chat_kv":
                out.counts["kvcache.prefix_hit_tokens"] += report.kv["prefix_hit_tokens"]
                out.counts["kvcache.prefix_lookup_tokens"] += report.kv["prefix_lookup_tokens"]
                out.counts["kvcache.preemptions"] += report.kv["preemptions"]
            elif kind == "moe":
                out.counts["workloads.moe_hits"] += report.workload["hits"]
                out.counts["workloads.moe_accesses"] += report.workload["expert_accesses"]
                out.counts["workloads.moe_evictions"] += report.workload["evictions"]
            elif kind == "speculative":
                out.counts["workloads.spec_accepted"] += report.workload["accepted_tokens"]
                out.counts["workloads.spec_drafted"] += report.workload["drafted_tokens"]
        out.digest = _digest(reports)
        return out


WORKLOADS = {cls.name: cls for cls in (TinyLlm, MappingChurn, FleetChat, ServeMix)}
