"""One fleet member: an isolated failure domain with a health machine.

A :class:`FleetDevice` bundles everything one device owns — inference
engine, admission queue, circuit breakers, brown-out controller, health
monitor, a journaled KV block pool with its own fault injector, and two
resource timelines (SoC / PIM) — so that losing the device loses exactly
this state and nothing else.  All per-device randomness (phase faults)
flows through one ``random.Random`` derived from ``(fleet seed,
device_id)``, so a fleet run reproduces byte-identically whatever the
device count.

The **health state machine** rides the reliability subsystem's sliding
fault-rate windows (:class:`~repro.reliability.degrade.HealthMonitor`):

    ACTIVE --rate >= degrade--> DEGRADED --rate >= quarantine--> QUARANTINED
       ^          |                                                  |
       +----------+ (window clears)            revive (recovery_ms) -+

plus two administrative states: DRAINING (autoscaler: finish queued
work, accept nothing new; an in-flight adaptive canary is rolled back
on entry) and STANDBY (powered down — the autoscaler's spare pool).
QUARANTINED is also entered by an injected **kill**: the device's
fault injector arms a KV-journal crash site, the in-flight pool
operation dies mid-transaction, :func:`~repro.kvcache.pool.recover_pool`
replays the journal, and the recovered pool is audited with the same
refcount-reconciliation oracle the chaos campaigns use — device loss is
crash-equivalent by construction, not by analogy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.journal import InjectedCrash, MapJournal
from repro.engine.policies import InferenceEngine, decode_on_pim
from repro.kvcache.block import BlockRef
from repro.kvcache.pool import KV_CRASH_SITES, BlockPool, KvSpec, recover_pool
from repro.platforms.specs import PlatformSpec
from repro.reliability.degrade import RETRY_BASE_BACKOFF_NS, HealthMonitor
from repro.reliability.faults import FaultInjector
from repro.serving.breaker import BrownoutController, CircuitBreaker
from repro.serving.queue import AdmissionQueue
from repro.serving.workload import Request

__all__ = ["DEVICE_STATES", "DeviceSpec", "DeviceState", "FleetDevice"]


class DeviceState(enum.Enum):
    ACTIVE = "active"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    DRAINING = "draining"
    STANDBY = "standby"


DEVICE_STATES = tuple(DeviceState)

#: states the router may place new work on
ROUTABLE_STATES = (DeviceState.ACTIVE, DeviceState.DEGRADED)


@dataclass(frozen=True)
class DeviceSpec:
    """Static identity and tuning of one fleet member."""

    device_id: int
    platform: PlatformSpec
    queue_capacity: int = 8
    shed_policy: str = "reject"
    degrade_watermark: Optional[int] = None
    degraded_decode_tokens: int = 8
    max_retries: int = 3
    base_backoff_ns: float = RETRY_BASE_BACKOFF_NS
    jitter: float = 0.0
    #: transient fault probability per phase attempt, by component
    pim_fault_rate: float = 0.0
    mapping_fault_rate: float = 0.0
    soc_fault_rate: float = 0.0
    #: health machine: windowed fault-rate watermarks (any component)
    degrade_fault_rate: float = 0.25
    quarantine_fault_rate: float = 0.625
    health_min_observations: int = 8
    #: breaker tuning (mirrors ServingConfig)
    breaker_threshold: float = 0.5
    breaker_min_observations: int = 4
    breaker_cooldown_ns: float = 5e6
    breaker_probe_quota: int = 2
    brownout_high_ns: float = 5e9
    brownout_low_ns: float = 1e9
    #: per-device KV bookkeeping pool (prefix residency + kill journal)
    kv_blocks: int = 64
    block_tokens: int = 16
    max_blocks_per_conversation: int = 16
    prefix_sharing: bool = True

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for rate in (self.pim_fault_rate, self.mapping_fault_rate, self.soc_fault_rate):
            if not 0.0 <= rate < 1.0:
                raise ValueError("fault rates must be in [0, 1)")
        if not 0.0 < self.degrade_fault_rate <= self.quarantine_fault_rate <= 1.0:
            raise ValueError(
                "need 0 < degrade_fault_rate <= quarantine_fault_rate <= 1"
            )
        if self.health_min_observations <= 0:
            raise ValueError("health_min_observations must be positive")
        if self.kv_blocks <= 0 or self.block_tokens <= 0:
            raise ValueError("kv_blocks and block_tokens must be positive")
        if self.max_blocks_per_conversation <= 0:
            raise ValueError("max_blocks_per_conversation must be positive")

    @property
    def name(self) -> str:
        return f"dev{self.device_id}/{self.platform.name}"


@dataclass
class _Residency:
    """A conversation's KV footprint on this device."""

    refs: List[BlockRef] = field(default_factory=list)
    tokens: int = 0
    last_use_ns: float = 0.0


@dataclass(frozen=True)
class _Route:
    """Resource plan for one request (mirrors the serving runtime)."""

    policy: str
    prefill_ns: float
    prefill_resource: str
    prefill_component: str
    pim_allowed: bool
    brownout_active: bool
    fallbacks: Tuple[str, ...]


@dataclass(frozen=True)
class ServedPhases:
    """What one completed service consumed (for outcome assembly)."""

    start_ns: float
    prefill_end_ns: float
    end_ns: float
    status: str
    policy_served: str
    decode_tokens_served: int
    retries: int
    backoff_ns: float
    fallbacks: Tuple[str, ...]
    prefill_tokens_priced: int
    prefix_hit: bool


@dataclass(frozen=True)
class Preempted:
    """Service interrupted by a device loss at *at_ns* (no outcome)."""

    request: Request
    at_ns: float


class FleetDevice:
    """One simulated device inside a fleet (see the module docstring)."""

    def __init__(
        self,
        spec: DeviceSpec,
        seed: int = 0,
        engine: Optional[InferenceEngine] = None,
        adaptive: Optional[object] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        #: per-device substream: derived from (fleet seed, device_id) so
        #: adding a device never perturbs the others' draws
        self.device_seed = seed * 1_000_003 + 7919 * (spec.device_id + 1)
        self.engine = engine if engine is not None else InferenceEngine(spec.platform)
        self.rng = random.Random(self.device_seed)
        self.monitor = HealthMonitor()
        breaker_args = dict(
            monitor=self.monitor,
            fault_rate_threshold=spec.breaker_threshold,
            min_observations=spec.breaker_min_observations,
            cooldown_ns=spec.breaker_cooldown_ns,
            probe_quota=spec.breaker_probe_quota,
        )
        self.pim_breaker = CircuitBreaker("pim", **breaker_args)
        self.mapping_breaker = CircuitBreaker("mapping", **breaker_args)
        self.brownout = BrownoutController(spec.brownout_high_ns, spec.brownout_low_ns)
        self._breakers = {"pim": self.pim_breaker, "mapping": self.mapping_breaker}
        self.queue = AdmissionQueue(
            spec.queue_capacity, spec.shed_policy, spec.degrade_watermark
        )
        self.degraded: Dict[int, bool] = {}
        self.free = {"soc": 0.0, "pim": 0.0}
        self.clock = 0.0
        #: journaled KV bookkeeping pool — the device's failure domain
        self.journal = MapJournal()
        self.injector = FaultInjector(self.device_seed + 1)
        self.journal.fault_hook = self.injector
        self.pool = BlockPool(
            spec.kv_blocks,
            KvSpec(block_tokens=spec.block_tokens, kv_dim=8),
            journal=self.journal,
        )
        self.resident: Dict[int, _Residency] = {}
        #: optional per-device adaptive remapping controller
        self.adaptive = adaptive
        self.state = DeviceState.ACTIVE
        #: (virtual ns, from, to) — every health/admin transition
        self.transitions: List[Tuple[float, str, str]] = []
        # cumulative counters (survive kills and revives)
        self.served = 0
        self.kills = 0
        self.revives = 0
        #: KV crash site each kill fired on (campaign coverage evidence)
        self.kill_sites: List[str] = []
        self.audit_findings: List[str] = []
        self.prefix_hits = 0
        self.prefill_tokens_saved = 0
        self.kv_evicted_conversations = 0
        #: EWMA of observed service durations, seeded with a nominal
        #: SoC-path estimate so queued work on a never-served device is
        #: already visible to the router and autoscaler (backlog_ns)
        self._service_est_ns = self.engine.soc_prefill_ns(
            256
        ) + self.engine.decode_total_ns(256, 64, False)

    # -- state machine ---------------------------------------------------------

    def _move(self, new: DeviceState, now_ns: float) -> None:
        if new is not self.state:
            self.transitions.append((now_ns, self.state.value, new.value))
            self.state = new

    @property
    def routable(self) -> bool:
        return self.state in ROUTABLE_STATES

    @property
    def serving(self) -> bool:
        """May this device work through its queue? (DRAINING still serves.)"""
        return self.state in ROUTABLE_STATES or self.state is DeviceState.DRAINING

    def _windowed_fault_rate(self) -> float:
        """Worst per-component sliding-window fault rate with enough
        observations to mean anything — the health machine's input."""
        worst = 0.0
        for component in ("pim", "mapping", "soc"):
            if self.monitor.observations(component) >= self.spec.health_min_observations:
                worst = max(worst, self.monitor.fault_rate(component))
        return worst

    def update_health(self, now_ns: float) -> DeviceState:
        """Re-derive ACTIVE/DEGRADED/QUARANTINED from the fault windows.

        Administrative states (DRAINING, STANDBY) are never overridden;
        QUARANTINED is entered here only by sustained fault pressure —
        an injected kill goes through :meth:`kill` instead.
        """
        if self.state not in (
            DeviceState.ACTIVE,
            DeviceState.DEGRADED,
            DeviceState.QUARANTINED,
        ):
            return self.state
        rate = self._windowed_fault_rate()
        if self.state is not DeviceState.QUARANTINED:
            if rate >= self.spec.quarantine_fault_rate:
                self._move(DeviceState.QUARANTINED, now_ns)
            elif rate >= self.spec.degrade_fault_rate:
                self._move(DeviceState.DEGRADED, now_ns)
            elif self.state is DeviceState.DEGRADED:
                self._move(DeviceState.ACTIVE, now_ns)
        return self.state

    def drain(self, now_ns: float) -> None:
        """Stop accepting new work; roll back any in-flight canary."""
        if self.state in (DeviceState.QUARANTINED, DeviceState.STANDBY):
            return
        if self.adaptive is not None:
            self.adaptive.abort_canary(
                -1, now_ns, reason="device draining"
            )
        self._move(DeviceState.DRAINING, now_ns)

    def finish_drain_if_idle(self, now_ns: float) -> bool:
        """DRAINING with an empty queue powers down to STANDBY."""
        if self.state is DeviceState.DRAINING and not len(self.queue):
            self._drop_all_residency(now_ns)
            self._move(DeviceState.STANDBY, now_ns)
            return True
        return False

    def activate(self, now_ns: float) -> None:
        """STANDBY/DRAINING back into rotation (autoscaler scale-up)."""
        if self.state in (DeviceState.STANDBY, DeviceState.DRAINING):
            self.free = {"soc": now_ns, "pim": now_ns}
            self.clock = max(self.clock, now_ns)
            self._move(DeviceState.ACTIVE, now_ns)

    # -- kill / revive ---------------------------------------------------------

    def kill(self, now_ns: float, kill_index: int = 0) -> int:
        """Abrupt device loss, crash-equivalent by construction.

        Arms this device's own fault injector at a KV-journal crash
        site (cycled by *kill_index*), drives a pool operation into the
        armed crash, recovers the journal, audits the recovered pool
        against the device's residency table, and drops all KV (the
        conversations will be recomputed elsewhere).  Returns the number
        of audit findings added (0 on a clean recovery).
        """
        before = len(self.audit_findings)
        site = KV_CRASH_SITES[kill_index % len(KV_CRASH_SITES)]
        op = site.split(":", 1)[0]
        label = f"{self.spec.name} kill {self.kills} site {site}"

        # stage a legal run of >= 2 blocks where the pool allows one (the
        # live path's grows and evictions are runs), then arm and crash
        run = self.spec.max_blocks_per_conversation
        holders = self._holder_refs()
        count = 0
        popped: List[BlockRef] = []
        if op == "kvalloc":
            victims = holders[: max(0, 2 - self.pool.free_blocks)]
            for victim in victims:
                self._forget_ref(victim)
            self.pool.free_run(victims, now_ns)
            count = min(run, self.pool.free_blocks)
        else:
            popped = holders[:run]
            for ref in popped:
                self._forget_ref(ref)
            if len(popped) < 2:
                topup = min(2 - len(popped), self.pool.free_blocks)
                popped += [block.ref for block in self.pool.alloc_run(topup, now_ns)]
        self.injector.schedule_crash(site)
        crashed = False
        try:
            if op == "kvalloc":
                if count:
                    blocks = self.pool.alloc_run(count, now_ns)
                    # an alloc that survives the armed site cannot happen
                    self.pool.free_run([block.ref for block in blocks], now_ns)
            else:
                if not popped:
                    raise RuntimeError("kvfree crash site armed with no live block")
                self.pool.free_run(popped, now_ns)
        except InjectedCrash:
            crashed = True
        self.injector._pending_crash = None  # disarm whatever did not fire
        if not crashed:
            self.audit_findings.append(f"{label}: armed crash never fired")

        recover_pool(self.pool)
        self._audit_pool(label)
        self._drop_all_residency(now_ns)
        if self.pool.used != 0:
            self.audit_findings.append(
                f"{label}: {self.pool.used} block(s) still live after loss"
            )
        self.journal.truncate_committed()

        self.kills += 1
        self.kill_sites.append(site)
        self._move(DeviceState.QUARANTINED, now_ns)
        return len(self.audit_findings) - before

    def revive(self, now_ns: float) -> bool:
        """QUARANTINED back to ACTIVE with cold state (maintenance)."""
        if self.state is not DeviceState.QUARANTINED:
            return False
        for component in ("pim", "mapping", "soc"):
            self.monitor.reset(component)
        self.free = {"soc": now_ns, "pim": now_ns}
        self.clock = max(self.clock, now_ns)
        self.revives += 1
        self._move(DeviceState.ACTIVE, now_ns)
        return True

    # -- KV residency ----------------------------------------------------------

    def _holder_refs(self) -> List[BlockRef]:
        refs: List[BlockRef] = []
        for conv_id in sorted(self.resident):
            refs.extend(self.resident[conv_id].refs)
        return refs

    def _forget_ref(self, ref: BlockRef) -> None:
        for conv_id in sorted(self.resident):
            res = self.resident[conv_id]
            if ref in res.refs:
                res.refs.remove(ref)
                return

    def _audit_pool(self, label: str) -> None:
        """The chaos campaigns' oracle: structural audit plus refcount
        reconciliation against this device's residency table."""
        violations = self.pool.audit()
        if violations:
            self.audit_findings.append(f"{label}: pool audit: {violations[0]}")
        expected = {ref.block_id: 1 for ref in self._holder_refs()}
        actual = self.pool.refcounts()
        if expected != actual:
            self.audit_findings.append(
                f"{label}: live refcounts {actual} != held {expected}"
            )

    def _drop_all_residency(self, now_ns: float) -> None:
        for conv_id in sorted(self.resident):
            self.pool.free_run(self.resident[conv_id].refs, now_ns)
        self.resident.clear()
        self.journal.truncate_committed()

    def evict_conversation(self, conv_id: int, now_ns: float) -> bool:
        res = self.resident.pop(conv_id, None)
        if res is None:
            return False
        self.pool.free_run(res.refs, now_ns)
        self.journal.truncate_committed()
        self.kv_evicted_conversations += 1
        return True

    def resident_tokens(self, conv_id: Optional[int]) -> int:
        if conv_id is None:
            return 0
        res = self.resident.get(conv_id)
        return res.tokens if res is not None else 0

    def _grow_residency(self, request: Request, tokens_total: int, now_ns: float) -> None:
        """Grow the conversation's KV footprint to cover *tokens_total*
        (evicting idle conversations LRU-first when the pool is full)."""
        conv_id = request.conversation_id
        if conv_id is None or not self.spec.prefix_sharing:
            return
        res = self.resident.get(conv_id)
        if res is None:
            res = _Residency()
            self.resident[conv_id] = res
        res.last_use_ns = now_ns
        want_blocks = min(
            -(-tokens_total // self.spec.block_tokens),
            self.spec.max_blocks_per_conversation,
        )
        # one run per stretch of free blocks; evict only when none are
        # left, so victims fall exactly where a block-by-block grow
        # would evict them
        while len(res.refs) < want_blocks:
            if self.pool.free_blocks == 0 and not self._evict_lru(conv_id, now_ns):
                break  # pool full of this conversation's own blocks
            count = min(want_blocks - len(res.refs), self.pool.free_blocks)
            res.refs.extend(block.ref for block in self.pool.alloc_run(count, now_ns))
        res.tokens = min(tokens_total, len(res.refs) * self.spec.block_tokens)
        self.journal.truncate_committed()

    def _evict_lru(self, keep_conv_id: int, now_ns: float) -> bool:
        victim_id: Optional[int] = None
        victim_t = float("inf")
        for conv_id in sorted(self.resident):
            if conv_id == keep_conv_id:
                continue
            res = self.resident[conv_id]
            if res.refs and res.last_use_ns < victim_t:
                victim_t = res.last_use_ns
                victim_id = conv_id
        if victim_id is None:
            return False
        return self.evict_conversation(victim_id, now_ns)

    # -- load signals ----------------------------------------------------------

    def _observe_service(self, duration_ns: float) -> None:
        if duration_ns > 0.0:
            self._service_est_ns += 0.25 * (duration_ns - self._service_est_ns)

    def backlog_ns(self, now_ns: float) -> float:
        """Queued-but-unexecuted work: resource-timeline overhang plus
        the waiting queue scaled by the bottleneck service estimate (an
        EWMA of this device's observed service durations)."""
        overhang = max(
            0.0, max(self.free["soc"], self.free["pim"]) - max(now_ns, self.clock)
        )
        return overhang + len(self.queue) * self._service_est_ns

    def est_start(self) -> float:
        head = self.queue.peek()
        if head is None:
            return float("inf")
        return max(head.arrival_ns, self.clock)

    # -- admission -------------------------------------------------------------

    def offer(self, request: Request, now_ns: float) -> Tuple[str, Optional[Request]]:
        verdict, evicted = self.queue.offer(request, now_ns)
        if evicted is not None:
            self.degraded.pop(evicted.req_id, None)
        if verdict != "rejected":
            self.degraded[request.req_id] = verdict == "admitted-degraded"
        return verdict, evicted

    # -- routing and phase execution (mirrors the single-device loop) ---------

    def _price_prefill(
        self, policy: str, prefill_len: int, allow_pim: bool
    ) -> Tuple[float, str]:
        if allow_pim:
            return self.engine.prefill_ns(policy, prefill_len)
        if policy == "facil":
            return self.engine.prefill_ns(policy, prefill_len, dynamic_offload=False)
        if policy == "hybrid-dynamic":
            ns = self.engine.relayout_total_ns() + self.engine.soc_prefill_ns(
                prefill_len
            )
            return ns, "soc"
        return self.engine.prefill_ns(policy, prefill_len)

    def _route(self, request: Request, now_ns: float, priced_tokens: int) -> _Route:
        policy = request.policy
        fallbacks: List[str] = []
        if policy == "facil" and not self.mapping_breaker.allow(now_ns):
            policy = "hybrid-static"
            fallbacks.append("facil->hybrid-static (mapping breaker open)")
        pim_allowed = True
        brownout_active = False
        if policy != "soc-only":
            pim_allowed = self.pim_breaker.allow(now_ns)
            if not pim_allowed:
                fallbacks.append("pim->soc (pim breaker open)")
            brownout_active = self.brownout.observe(
                max(0.0, self.free["pim"] - now_ns), now_ns
            )
        prefill_pim_ok = pim_allowed and not brownout_active
        prefill_ns, prefill_resource = self._price_prefill(
            policy, priced_tokens, allow_pim=prefill_pim_ok
        )
        if prefill_resource == "pim":
            prefill_component = "pim"
        elif policy == "facil":
            prefill_component = "mapping"
        else:
            prefill_component = "soc"
        return _Route(
            policy=policy,
            prefill_ns=prefill_ns,
            prefill_resource=prefill_resource,
            prefill_component=prefill_component,
            pim_allowed=pim_allowed,
            brownout_active=brownout_active,
            fallbacks=tuple(fallbacks),
        )

    def _fault_rate(self, component: str) -> float:
        return {
            "pim": self.spec.pim_fault_rate,
            "mapping": self.spec.mapping_fault_rate,
            "soc": self.spec.soc_fault_rate,
        }[component]

    def _run_phase(
        self, start_ns: float, work_ns: float, component: str
    ) -> Tuple[float, bool, int, float]:
        """Retry-on-transient-fault phase pricing (see serving.runtime)."""
        spec = self.spec
        rate = self._fault_rate(component)
        breaker = self._breakers.get(component)
        t = start_ns
        retries = 0
        backoff_total = 0.0
        while True:
            t += work_ns
            if rate <= 0.0 or self.rng.random() >= rate:
                if breaker is not None:
                    breaker.record_success(t)
                else:
                    self.monitor.record_success(component)
                return t, True, retries, backoff_total
            if breaker is not None:
                breaker.record_failure(t)
            else:
                self.monitor.record_fault(component)
            if retries >= spec.max_retries:
                return t, False, retries, backoff_total
            wait = spec.base_backoff_ns * (2**retries)
            if spec.jitter:
                wait *= 1.0 + spec.jitter * self.rng.uniform(-1.0, 1.0)
            backoff_total += wait
            t += wait
            retries += 1

    # -- serving ---------------------------------------------------------------

    def serve_next(self, interrupt_ns: Optional[float] = None):
        """Pop the queue head and run it to completion on this device.

        Returns a :class:`ServedPhases` on a terminal disposition, or a
        :class:`Preempted` when *interrupt_ns* (the device's next
        scheduled loss) lands inside the service window — the caller
        re-admits the request elsewhere via the router.
        """
        result = self._serve_next(interrupt_ns)
        if isinstance(result, ServedPhases):
            self._observe_service(result.end_ns - result.start_ns)
        return result

    def _serve_next(self, interrupt_ns: Optional[float] = None):
        head = self.queue.peek()
        if head is None:
            raise RuntimeError("serve_next on an empty queue")
        est = max(head.arrival_ns, self.clock)

        # prefix-locality credit: tokens already resident here are not
        # re-prefilled (the KV scheduler's prefix sharing, fleet-grade)
        priced_tokens = head.prefill_tokens
        prefix_hit = False
        covered = min(head.context_tokens, self.resident_tokens(head.conversation_id))
        if covered > 0 and self.spec.prefix_sharing:
            priced_tokens = max(1, head.prefill_tokens - covered)
            prefix_hit = True

        route = self._route(head, est, priced_tokens)
        start = max(est, self.free[route.prefill_resource])
        if interrupt_ns is not None and start >= interrupt_ns:
            self.queue.pop(interrupt_ns)
            self.degraded.pop(head.req_id, None)
            return Preempted(head, interrupt_ns)
        self.queue.pop(start)
        self.clock = start
        was_degraded = self.degraded.pop(head.req_id, False)

        # boundary 1: admission -> prefill
        if start > head.deadline_abs_ns:
            return ServedPhases(
                start_ns=start, prefill_end_ns=start, end_ns=start,
                status="timed-out", policy_served=route.policy,
                decode_tokens_served=0, retries=0, backoff_ns=0.0,
                fallbacks=route.fallbacks,
                prefill_tokens_priced=priced_tokens, prefix_hit=prefix_hit,
            )

        prefill_end, ok, retries_p, backoff_p = self._run_phase(
            start, route.prefill_ns, route.prefill_component
        )
        self.free[route.prefill_resource] = prefill_end
        if interrupt_ns is not None and prefill_end > interrupt_ns:
            # the device dies mid-prefill: burned work, no outcome
            return Preempted(head, interrupt_ns)
        if not ok:
            return ServedPhases(
                start_ns=start, prefill_end_ns=prefill_end, end_ns=prefill_end,
                status="aborted", policy_served=route.policy,
                decode_tokens_served=0, retries=retries_p, backoff_ns=backoff_p,
                fallbacks=route.fallbacks,
                prefill_tokens_priced=priced_tokens, prefix_hit=prefix_hit,
            )

        # boundary 2: prefill -> decode (first token must be in budget)
        if prefill_end > head.deadline_abs_ns:
            return ServedPhases(
                start_ns=start, prefill_end_ns=prefill_end, end_ns=prefill_end,
                status="timed-out", policy_served=route.policy,
                decode_tokens_served=0, retries=retries_p, backoff_ns=backoff_p,
                fallbacks=route.fallbacks,
                prefill_tokens_priced=priced_tokens, prefix_hit=prefix_hit,
            )

        decode_tokens = head.decode_tokens
        if was_degraded:
            decode_tokens = max(
                1, min(decode_tokens, self.spec.degraded_decode_tokens)
            )
        fallbacks = route.fallbacks
        decode_pim = decode_on_pim(route.policy) and route.pim_allowed
        if decode_pim and route.brownout_active:
            pim_ns = self.engine.decode_total_ns(
                head.prefill_tokens, decode_tokens, True
            )
            soc_ns = self.engine.decode_total_ns(
                head.prefill_tokens, decode_tokens, False
            )
            if max(prefill_end, self.free["soc"]) + soc_ns < (
                max(prefill_end, self.free["pim"]) + pim_ns
            ):
                decode_pim = False
                fallbacks = fallbacks + ("pim->soc (brown-out)",)
        decode_ns = self.engine.decode_total_ns(
            head.prefill_tokens, decode_tokens, decode_pim
        )
        decode_resource = "pim" if decode_pim else "soc"
        decode_start = max(prefill_end, self.free[decode_resource])
        decode_end, ok, retries_d, backoff_d = self._run_phase(
            decode_start, decode_ns, decode_resource
        )
        self.free[decode_resource] = decode_end
        if interrupt_ns is not None and decode_end > interrupt_ns:
            # the device dies mid-service: all work burned, no outcome
            return Preempted(head, interrupt_ns)
        if not ok:
            return ServedPhases(
                start_ns=start, prefill_end_ns=prefill_end, end_ns=decode_end,
                status="aborted", policy_served=route.policy,
                decode_tokens_served=0, retries=retries_p + retries_d,
                backoff_ns=backoff_p + backoff_d, fallbacks=fallbacks,
                prefill_tokens_priced=priced_tokens, prefix_hit=prefix_hit,
            )

        self.served += 1
        if prefix_hit:
            self.prefix_hits += 1
            self.prefill_tokens_saved += head.prefill_tokens - priced_tokens
        self._grow_residency(
            head, head.prefill_tokens + decode_tokens, decode_end
        )
        return ServedPhases(
            start_ns=start, prefill_end_ns=prefill_end, end_ns=decode_end,
            status="served-degraded" if was_degraded else "served",
            policy_served=route.policy,
            decode_tokens_served=decode_tokens,
            retries=retries_p + retries_d,
            backoff_ns=backoff_p + backoff_d, fallbacks=fallbacks,
            prefill_tokens_priced=priced_tokens, prefix_hit=prefix_hit,
        )

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict:
        return {
            "device_id": self.spec.device_id,
            "platform": self.spec.platform.name,
            "state": self.state.value,
            "transitions": [(t, a, b) for t, a, b in self.transitions],
            "served": self.served,
            "kills": self.kills,
            "revives": self.revives,
            "audit_findings": len(self.audit_findings),
            "prefix_hits": self.prefix_hits,
            "prefill_tokens_saved": self.prefill_tokens_saved,
            "kv_evicted_conversations": self.kv_evicted_conversations,
            "kv_used_blocks": self.pool.used,
            "health": self.monitor.summary(),
            "breakers": {
                name: brk.snapshot() for name, brk in sorted(self._breakers.items())
            },
            "queue": {
                "offered": self.queue.stats.offered,
                "admitted": self.queue.stats.admitted,
                "rejected": self.queue.stats.rejected,
                "dropped": self.queue.stats.dropped,
                "peak_occupancy": self.queue.stats.peak_occupancy,
            },
        }
