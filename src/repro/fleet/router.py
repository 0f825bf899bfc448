"""Prefix-locality-aware placement with load-aware spill and failover.

The router owns one piece of state: the **affinity map** from
conversation id to the device holding that conversation's shared-prefix
KV blocks.  Placement policy, in order:

1. **Locality** — a conversation with affinity goes back to its device
   while that device is routable (ACTIVE or DEGRADED) *and* its backlog
   is under the spill threshold.  Re-prefilling a resident prefix is
   pure waste; riding a drowning device is worse — hence the spill.
2. **Spill / fresh placement** — least-loaded routable device, ACTIVE
   preferred over DEGRADED, ties broken by device id (determinism).
   Spilled conversations *move*: affinity follows the placement, and
   the old residency is evicted so the pool does not pin dead prefixes.
3. **Shed** — no routable device: the caller accounts the request as
   shed (never silently dropped).

**Failover** is re-placement under duress: when a device dies, the
runtime drains its queue (plus the preempted in-flight request) and
offers each refugee back through :meth:`route` — the dead device is
QUARANTINED, so placement lands on a survivor and the conversation's
next turn re-prefills from scratch there (preempt-and-recompute; the
journals already proved device loss is crash-equivalent, so no KV state
needs to survive).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.fleet.device import DeviceState, FleetDevice
from repro.serving.workload import Request

__all__ = ["FleetRouter"]

#: placement preference by health (lower is better); non-routable
#: states are absent on purpose
_STATE_RANK = {DeviceState.ACTIVE: 0, DeviceState.DEGRADED: 1}


class FleetRouter:
    """Place requests on fleet devices (see the module docstring)."""

    def __init__(
        self,
        devices: Iterable[FleetDevice],
        spill_backlog_ns: float = 2e9,
    ) -> None:
        if spill_backlog_ns <= 0:
            raise ValueError("spill_backlog_ns must be positive")
        self.devices: Dict[int, FleetDevice] = {
            d.spec.device_id: d for d in devices
        }
        if not self.devices:
            raise ValueError("a fleet needs at least one device")
        #: devices in id order; the device set is fixed at construction
        self._by_id: List[FleetDevice] = [
            self.devices[did] for did in sorted(self.devices)
        ]
        self.spill_backlog_ns = spill_backlog_ns
        #: conversation id -> device id currently holding its prefix KV
        self.affinity: Dict[int, int] = {}
        self.placements = 0
        self.locality_hits = 0
        self.spills = 0
        self.failovers = 0
        self.shed_unroutable = 0

    # -- placement -------------------------------------------------------------

    def _candidates(self) -> List[FleetDevice]:
        return [dev for dev in self._by_id if dev.state in _STATE_RANK]

    def _least_loaded(self, now_ns: float) -> Optional[FleetDevice]:
        best: Optional[FleetDevice] = None
        best_key = None
        for dev in self._candidates():
            # backlog_ns already weights queued-but-unstarted work by
            # the device's service estimate (see FleetDevice.backlog_ns)
            key = (
                _STATE_RANK[dev.state],
                dev.backlog_ns(now_ns),
                dev.spec.device_id,
            )
            if best_key is None or key < best_key:
                best, best_key = dev, key
        return best

    def route(
        self, request: Request, now_ns: float, failover: bool = False
    ) -> Optional[FleetDevice]:
        """Pick the device for one arrival; ``None`` means shed.

        Does **not** enqueue — the caller offers to the returned
        device's admission queue (which may still reject under its own
        shed policy; that accounting stays per-device).
        """
        conv_id = request.conversation_id
        home: Optional[FleetDevice] = None
        if conv_id is not None and conv_id in self.affinity:
            home = self.devices.get(self.affinity[conv_id])
        if (
            home is not None
            and home.state in _STATE_RANK
            and home.backlog_ns(now_ns) < self.spill_backlog_ns
        ):
            self.placements += 1
            self.locality_hits += 1
            if failover:
                self.failovers += 1
            return home

        # locality miss: fresh or spilled placement
        chosen = self._least_loaded(now_ns)
        if chosen is None:
            self.shed_unroutable += 1
            return None
        self.placements += 1
        if failover:
            self.failovers += 1
        if conv_id is not None:
            previous = self.affinity.get(conv_id)
            if previous is not None and previous != chosen.spec.device_id:
                self.spills += 1
                old = self.devices.get(previous)
                if old is not None:
                    # the prefix moves with the conversation; a pinned
                    # copy on the old device would never be read again
                    old.evict_conversation(conv_id, now_ns)
            self.affinity[conv_id] = chosen.spec.device_id
        return chosen

    # -- failure / lifecycle hooks --------------------------------------------

    def on_device_lost(self, device_id: int, now_ns: float) -> List[int]:
        """Forget every affinity pinned to a dead device; returns the
        orphaned conversation ids (their next turn re-places fresh)."""
        orphans = [
            conv_id
            for conv_id in sorted(self.affinity)
            if self.affinity[conv_id] == device_id
        ]
        for conv_id in orphans:
            del self.affinity[conv_id]
        return orphans

    def summary(self) -> Dict[str, int]:
        return {
            "placements": self.placements,
            "locality_hits": self.locality_hits,
            "spills": self.spills,
            "failovers": self.failovers,
            "shed_unroutable": self.shed_unroutable,
        }
