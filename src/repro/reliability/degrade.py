"""Graceful degradation: health tracking and fallback policies (extension).

FACIL's flexible mapping and the PIM units are *accelerations*, not
correctness requirements: everything they do has a slower SoC-only
equivalent.  :class:`ResilientEngine` exploits that structure.  It wraps
an :class:`~repro.engine.policies.InferenceEngine` and keeps a per-
component health state machine:

    HEALTHY --fault--> DEGRADED --more faults--> FAILED (sticky)
        ^                 |
        +--successes------+

Transient faults cost bounded retries with exponential backoff (priced
into the query's latency); components that keep faulting are failed and
routed around via a fallback chain:

* ``facil`` with a failed **mapping** path -> ``hybrid-static`` (the
  paper's baseline: re-layout on the SoC, no flexible mapping needed);
* any PIM-decode policy with failed **pim** units -> SoC decode (and SoC
  prefill, since the PIM prefill path is equally gone).

Every query is still served; the *degradation latency* — how much slower
the served query was than its healthy-path pricing — is reported per
query and aggregated by the chaos campaign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.metrics import QueryLatency
from repro.engine.policies import POLICIES, InferenceEngine, decode_on_pim

__all__ = [
    "Health",
    "HealthMonitor",
    "ResilientEngine",
    "ResilientQuery",
    "RETRY_BASE_BACKOFF_NS",
]

#: First-retry backoff; doubles per retry (exponential backoff).
RETRY_BASE_BACKOFF_NS = 1_000.0


class Health(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class _ComponentState:
    health: Health = Health.HEALTHY
    consecutive_faults: int = 0
    consecutive_successes: int = 0
    permanent: bool = False
    transitions: List[Tuple[Health, Health]] = field(default_factory=list)
    #: sliding window of recent outcomes (True = fault), newest last
    recent: List[bool] = field(default_factory=list)

    def _move(self, new: Health) -> None:
        if new is not self.health:
            self.transitions.append((self.health, new))
            self.health = new

    def _observe(self, fault: bool, window: int) -> None:
        self.recent.append(fault)
        if len(self.recent) > window:
            del self.recent[: len(self.recent) - window]


class HealthMonitor:
    """Per-component health state machine.

    One fault degrades a component (``degrade_after=1``: be pessimistic
    fast), ``fail_after`` consecutive faults fail it, ``recover_after``
    consecutive successes restore a degraded component.  FAILED is
    sticky — a component that earned it needs explicit :meth:`reset`
    (maintenance), and *permanent* faults jump straight there.
    """

    def __init__(
        self,
        degrade_after: int = 1,
        fail_after: int = 3,
        recover_after: int = 3,
        window: int = 32,
    ):
        if not 0 < degrade_after <= fail_after:
            raise ValueError("need 0 < degrade_after <= fail_after")
        if window <= 0:
            raise ValueError("window must be positive")
        self.degrade_after = degrade_after
        self.fail_after = fail_after
        self.recover_after = recover_after
        self.window = window
        self._components: Dict[str, _ComponentState] = {}

    def _state(self, component: str) -> _ComponentState:
        state = self._components.get(component)
        if state is None:
            state = _ComponentState()
            self._components[component] = state
        return state

    def health(self, component: str) -> Health:
        state = self._components.get(component)
        return state.health if state is not None else Health.HEALTHY

    def fault_rate(self, component: str) -> float:
        """Fraction of faults over the last ``window`` observations
        (0.0 with no observations) — the circuit breakers trip on this."""
        state = self._components.get(component)
        if state is None or not state.recent:
            return 0.0
        return sum(state.recent) / len(state.recent)

    def observations(self, component: str) -> int:
        state = self._components.get(component)
        return len(state.recent) if state is not None else 0

    def record_fault(self, component: str, permanent: bool = False) -> Health:
        state = self._state(component)
        state._observe(True, self.window)
        state.consecutive_successes = 0
        state.consecutive_faults += 1
        if permanent:
            state.permanent = True
            state._move(Health.FAILED)
        elif state.health is not Health.FAILED:
            if state.consecutive_faults >= self.fail_after:
                state._move(Health.FAILED)
            elif state.consecutive_faults >= self.degrade_after:
                state._move(Health.DEGRADED)
        return state.health

    def record_success(self, component: str) -> Health:
        state = self._state(component)
        state._observe(False, self.window)
        state.consecutive_faults = 0
        if state.health is Health.DEGRADED:
            state.consecutive_successes += 1
            if state.consecutive_successes >= self.recover_after:
                state._move(Health.HEALTHY)
                state.consecutive_successes = 0
        return state.health

    def reset(self, component: str) -> None:
        """Explicit maintenance: return a component to HEALTHY."""
        state = self._state(component)
        state.permanent = False
        state.consecutive_faults = 0
        state.consecutive_successes = 0
        state.recent.clear()
        state._move(Health.HEALTHY)

    def transitions(self, component: str) -> List[Tuple[Health, Health]]:
        return list(self._state(component).transitions)

    def summary(self) -> Dict[str, str]:
        return {name: s.health.value for name, s in sorted(self._components.items())}


@dataclass(frozen=True)
class ResilientQuery:
    """One query served by :class:`ResilientEngine`."""

    requested_policy: str
    effective_policy: str  # policy actually priced (after fallbacks)
    latency: QueryLatency  # latency as served, retries/backoff included
    healthy_ttlt_ns: float  # what the requested policy would have cost
    retries: int
    backoff_ns: float
    fallbacks: Tuple[str, ...]
    served: bool

    @property
    def ttlt_ns(self) -> float:
        return self.latency.ttlt_ns

    @property
    def ttft_ns(self) -> float:
        return self.latency.ttft_ns

    @property
    def degradation_ns(self) -> float:
        """Latency paid for resilience: served minus healthy-path cost."""
        return self.latency.ttlt_ns - self.healthy_ttlt_ns

    @property
    def degraded(self) -> bool:
        return bool(self.fallbacks) or self.retries > 0


class ResilientEngine:
    """Serve queries through fallback chains instead of failing them."""

    #: component names used by the fallback logic
    PIM = "pim"
    MAPPING = "mapping"
    MEMORY = "memory"

    def __init__(
        self,
        engine: InferenceEngine,
        monitor: Optional[HealthMonitor] = None,
        max_retries: int = 3,
        base_backoff_ns: float = RETRY_BASE_BACKOFF_NS,
    ):
        self.engine = engine
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self.max_retries = max_retries
        self.base_backoff_ns = base_backoff_ns

    # -- fault reporting (the campaign / substrate calls these) ------------

    def note_fault(self, component: str, permanent: bool = False) -> Health:
        return self.monitor.record_fault(component, permanent=permanent)

    # -- policy fallback ---------------------------------------------------

    def effective_policy(self, policy: str) -> Tuple[str, Tuple[str, ...]]:
        """Resolve *policy* against current component health."""
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
        fallbacks: List[str] = []
        if policy == "facil" and self.monitor.health(self.MAPPING) is Health.FAILED:
            # Flexible mapping is gone: fall back to the re-layout baseline.
            policy = "hybrid-static"
            fallbacks.append("facil->hybrid-static (mapping failed)")
        return policy, tuple(fallbacks)

    # -- serving -----------------------------------------------------------

    def _soc_decode_fallback(
        self, policy: str, prefill_len: int, decode_len: int
    ) -> QueryLatency:
        """Price *policy* with all PIM work moved to the SoC."""
        breakdown: Dict[str, float] = {}
        if policy == "facil":
            ttft = self.engine.soc_prefill_ns(prefill_len, pim_layout=True)
            breakdown["prefill_soc"] = ttft
        else:  # hybrid-*: weights are in the PIM layout, so re-layout first
            relayout = self.engine.relayout_total_ns()
            gemm = self.engine.soc_prefill_ns(prefill_len)
            ttft = relayout + gemm
            breakdown["relayout"] = relayout
            breakdown["prefill_soc"] = gemm
        decode = self.engine.decode_total_ns(prefill_len, decode_len, on_pim=False)
        breakdown["decode_soc"] = decode
        return QueryLatency(
            policy=policy,
            prefill_tokens=prefill_len,
            decode_tokens=decode_len,
            ttft_ns=ttft,
            ttlt_ns=ttft + decode,
            breakdown=breakdown,
        )

    def run_query(
        self,
        policy: str,
        prefill_len: int,
        decode_len: int,
        transient_faults: int = 0,
    ) -> ResilientQuery:
        """Serve one query under current health.

        *transient_faults* is how many detected-and-recoverable faults hit
        this query (e.g. uncorrectable ECC words that needed a rewrite);
        each costs one bounded retry with exponential backoff, priced into
        the served latency.  More than ``max_retries`` aborts the query
        (``served=False``) — the only way this engine gives up.
        """
        healthy = self.engine.run_query(policy, prefill_len, decode_len)

        effective, fallbacks = self.effective_policy(policy)
        pim_failed = self.monitor.health(self.PIM) is Health.FAILED
        if effective != "soc-only" and pim_failed:
            latency = self._soc_decode_fallback(effective, prefill_len, decode_len)
            fallbacks = fallbacks + ("pim-decode->soc-decode (pim failed)",)
        elif effective == policy:
            latency = healthy
        else:
            latency = self.engine.run_query(effective, prefill_len, decode_len)

        # Bounded retry with exponential backoff for transient faults.
        retries = min(transient_faults, self.max_retries)
        served = transient_faults <= self.max_retries
        backoff_ns = 0.0
        retry_work_ns = 0.0
        if retries:
            step = (
                self.engine.pim_decode_step_ns
                if decode_on_pim(latency.policy) and not pim_failed
                else self.engine.soc_decode_step_ns
            )
            for attempt in range(retries):
                backoff_ns += self.base_backoff_ns * (2**attempt)
                retry_work_ns += step(prefill_len)  # replay the faulted op
        breakdown = dict(latency.breakdown)
        if retries:
            breakdown["retry"] = retry_work_ns
            breakdown["backoff"] = backoff_ns
        final = QueryLatency(
            policy=latency.policy,
            prefill_tokens=latency.prefill_tokens,
            decode_tokens=latency.decode_tokens,
            ttft_ns=latency.ttft_ns,
            ttlt_ns=latency.ttlt_ns + retry_work_ns + backoff_ns,
            breakdown=breakdown,
        )

        # Successful service is evidence of health for the components used.
        if served:
            if decode_on_pim(final.policy) and not pim_failed:
                self.monitor.record_success(self.PIM)
            if final.policy == "facil":
                self.monitor.record_success(self.MAPPING)

        return ResilientQuery(
            requested_policy=policy,
            effective_policy=final.policy,
            latency=final,
            healthy_ttlt_ns=healthy.ttlt_ns,
            retries=retries,
            backoff_ns=backoff_ns,
            fallbacks=fallbacks,
            served=served,
        )
