"""FleetRuntime: the conservation law, failover, determinism, and
byte-identity of the single-device path with fleet code in the process."""

import random

import pytest

from repro.fleet.runtime import (
    TERMINAL_STATUSES,
    FleetConfig,
    FleetRuntime,
    build_fleet,
    fleet_workload,
)
from repro.fleet.workloads import DIURNAL
from repro.serving.workload import TenantSpec
from repro.telemetry import Telemetry


def _tenant(qps=20.0, mean_turns=2.0):
    return TenantSpec(
        name="chat", policy="facil", qps=qps, deadline_ms=2_000.0,
        mean_turns=mean_turns,
    )


def _run(n_devices=3, seed=0, kills=(), duration_ms=1_000.0, **cfg):
    config = FleetConfig(n_devices=n_devices, seed=seed, **cfg)
    requests = fleet_workload([_tenant()], duration_ms, shape=DIURNAL,
                              seed=seed)
    return FleetRuntime(config).run(requests, kills=kills), requests


def _kill_schedule(n, devices, gap_ms=100.0, seed=0):
    rng = random.Random(seed * 9973 + 65537)
    gap_ns = gap_ms * 1e6
    schedule, t = [], gap_ns
    for index in range(n):
        t += gap_ns * (rng.random() - 0.5)
        schedule.append((t, index % devices))
        t += gap_ns
    return sorted(schedule)


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="n_devices"):
            FleetConfig(n_devices=0)
        with pytest.raises(ValueError, match="standby_devices"):
            FleetConfig(n_devices=2, standby_devices=2)

    def test_build_fleet_is_heterogeneous(self):
        devices = build_fleet(FleetConfig(n_devices=4))
        platforms = {d.spec.platform.name for d in devices}
        assert len(platforms) == 4


class TestConservation:
    def test_every_request_reaches_one_terminal_outcome(self):
        report, requests = _run()
        assert report.none_lost
        assert report.offered == len(requests)
        assert {o.req_id for o in report.outcomes} == {
            r.req_id for r in requests
        }
        assert all(o.status in TERMINAL_STATUSES for o in report.outcomes)

    def test_conservation_holds_under_kills(self):
        kills = _kill_schedule(6, devices=3)
        report, requests = _run(kills=kills)
        assert report.kills == 6
        assert report.revives == 6
        assert report.none_lost
        assert report.offered == len(requests)
        assert report.audit_findings == []

    def test_accounting_identity(self):
        kills = _kill_schedule(4, devices=3)
        report, _ = _run(kills=kills)
        assert (
            report.served + report.shed + report.unserved == report.offered
        )

    def test_none_lost_detects_a_missing_outcome(self):
        """none_lost must compare against the offered ids — dropping an
        outcome (a stranded request) fails the law even though the
        remaining outcomes are unique and terminal."""
        report, requests = _run()
        assert requests and report.none_lost
        assert report.offered_req_ids == sorted(r.req_id for r in requests)
        report.outcomes.pop()
        assert not report.none_lost


class TestHealthQuarantine:
    def _faulty_fleet(self, n=2, seed=0, pim_fault_rate=0.75):
        """Devices whose PIM fault pressure crosses the quarantine
        watermark, with breakers held open-proof (huge min_observations)
        so the health window keeps filling."""
        from repro.fleet.device import DeviceSpec, FleetDevice
        from repro.platforms.specs import ALL_PLATFORMS

        return [
            FleetDevice(
                DeviceSpec(
                    device_id=i,
                    platform=ALL_PLATFORMS[i % len(ALL_PLATFORMS)],
                    pim_fault_rate=pim_fault_rate,
                    breaker_min_observations=10_000,
                ),
                seed=seed,
            )
            for i in range(n)
        ]

    def test_health_quarantine_fails_over_queue_and_revives(self):
        """A device quarantined by sustained fault pressure (no kill
        event) must not strand its admitted queue: refugees fail over,
        every offered request still gets a terminal outcome, and the
        timed revive returns the device to rotation."""
        config = FleetConfig(n_devices=2, seed=0, recovery_ms=20.0,
                             pim_fault_rate=0.75)
        requests = fleet_workload([_tenant(qps=40.0)], 1_000.0,
                                  shape=DIURNAL, seed=0)
        runtime = FleetRuntime(config, devices=self._faulty_fleet())
        report = runtime.run(requests)
        assert report.health_quarantines > 0
        assert report.kills == 0
        assert report.revives > 0  # health quarantines revive on a timer
        assert report.none_lost
        assert {o.req_id for o in report.outcomes} == {
            r.req_id for r in requests
        }
        quarantined = [
            d for d in runtime.devices
            if any(b == "quarantined" for _, _, b in d.transitions)
        ]
        assert quarantined
        # the revive edge fired: quarantined devices re-entered ACTIVE
        for device in quarantined:
            assert ("quarantined", "active") in [
                (a, b) for _, a, b in device.transitions
            ]


class TestFailover:
    def test_kills_force_failover_placements(self):
        kills = _kill_schedule(6, devices=2, gap_ms=80.0)
        report, _ = _run(n_devices=2, kills=kills,
                         shed_policy="drop-oldest")
        assert report.failovers > 0
        failed_over = [o for o in report.outcomes if o.failovers]
        assert failed_over
        # a failed-over request that was served landed on a live device
        for outcome in failed_over:
            if outcome.served:
                assert outcome.device_id >= 0

    def test_dead_device_requests_not_lost(self):
        kills = [(5e6, 0)]  # kill device 0 early, mid-backlog
        report, requests = _run(n_devices=2, kills=kills,
                                duration_ms=500.0)
        assert report.none_lost
        assert report.offered == len(requests)

    def test_kills_skip_standby_spares(self):
        """A kill landing on a STANDBY spare is skipped — applying it
        would revive the spare into ACTIVE, recruiting standby capacity
        behind the autoscaler's back."""
        config = FleetConfig(n_devices=3, standby_devices=1, seed=0)
        requests = fleet_workload([_tenant()], 500.0, shape=DIURNAL,
                                  seed=0)
        # device 2 is the parked spare; schedule its loss mid-run
        report = FleetRuntime(config).run(requests, kills=[(5e6, 2)])
        assert report.kills == 0
        assert report.revives == 0
        spare = [d for d in report.devices if d["device_id"] == 2][0]
        assert spare["state"] == "standby"
        assert report.none_lost


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        kills = _kill_schedule(4, devices=3)
        a, _ = _run(kills=kills)
        b, _ = _run(kills=kills)
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        a, _ = _run(seed=0)
        b, _ = _run(seed=1)
        assert a.to_json() != b.to_json()

    def test_telemetry_is_passive(self):
        kills = _kill_schedule(3, devices=3)
        plain, _ = _run(kills=kills)
        config = FleetConfig(n_devices=3, seed=0)
        requests = fleet_workload([_tenant()], 1_000.0, shape=DIURNAL,
                                  seed=0)
        telemetry = Telemetry()
        traced = FleetRuntime(config, telemetry=telemetry).run(
            requests, kills=kills
        )
        assert traced.to_json() == plain.to_json()

    def test_single_device_serving_unperturbed_by_fleet_run(self):
        """The fleet rides disjoint RNG streams: running a whole fleet
        (kills included) between two identical serving runs must leave
        the serving report byte-identical."""
        from repro.engine.policies import InferenceEngine
        from repro.platforms.specs import IPHONE_15_PRO
        from repro.serving import (
            ServingConfig,
            ServingRuntime,
            poisson_workload,
        )

        engine = InferenceEngine(IPHONE_15_PRO)
        tenant = TenantSpec(name="chat", policy="facil", qps=2.0,
                            deadline_ms=10_000.0)
        requests = poisson_workload([tenant], duration_ms=5_000.0, seed=0)

        def serve():
            return ServingRuntime(engine, ServingConfig(seed=0)).run(
                list(requests)
            )

        before = serve().to_json()
        _run(kills=_kill_schedule(4, devices=3))
        after = serve().to_json()
        assert before == after


class TestJournalBound:
    def test_device_journals_hold_no_committed_transactions(self):
        """Each residency change compacts the device's KV journal, so a
        long run keeps only in-flight transactions (none at rest)."""
        config = FleetConfig(n_devices=3, seed=0, kv_blocks=16)
        requests = fleet_workload(
            [_tenant(qps=40.0, mean_turns=3.0)], 2_000.0, shape=DIURNAL, seed=0
        )
        runtime = FleetRuntime(config)
        report = runtime.run(requests)
        assert report.none_lost
        assert sum(d.pool.allocs for d in runtime.devices) > 0
        assert sum(d.kv_evicted_conversations for d in runtime.devices) > 0
        for device in runtime.devices:
            assert device.journal.transactions() == device.journal.uncommitted()
            assert len(device.journal) == 0


class TestAutoscale:
    def test_autoscaler_recruits_standby_under_load(self):
        config = FleetConfig(
            n_devices=3, standby_devices=1, seed=0, autoscale=True,
            autoscale_high_backlog_ns=5e7, autoscale_low_backlog_ns=1e6,
            autoscale_interval_ms=20.0, autoscale_patience=2,
        )
        requests = fleet_workload(
            [_tenant(qps=80.0)], 2_000.0, seed=0
        )
        report = FleetRuntime(config).run(requests)
        assert report.autoscaler is not None
        assert report.none_lost
        # under sustained pressure the spare eventually joins
        assert report.autoscaler["scale_ups"] >= 1

    def test_autoscale_off_reports_none(self):
        report, _ = _run()
        assert report.autoscaler is None


class TestReportSurface:
    def test_render_mentions_every_device_lane(self):
        report, _ = _run()
        text = report.render()
        for lane in report.devices:
            assert f"dev{lane['device_id']}" in text

    def test_device_lanes_carry_breaker_snapshots(self):
        report, _ = _run()
        for lane in report.devices:
            assert set(lane["breakers"]) == {"pim", "mapping"}

    def test_to_dict_round_trips_through_json(self):
        import json

        report, _ = _run(kills=_kill_schedule(2, devices=3))
        assert json.loads(report.to_json())["none_lost"] is True
