"""Point evaluation: one sweep point -> one metrics dict.

The evaluator is the bridge between a :class:`~repro.dse.spec.SweepPoint`
and the existing simulation backends: it builds the platform's
:class:`InferenceEngine`, samples the point's workload shape on the
point's own seeded RNG substream, and runs the serving runtime — the
legacy loop or the paged-KV continuous-batching scheduler, selected by
the ``kv_blocks`` axis exactly as ``repro-facil serve`` would.

Every metric is a plain float so the result is JSON-stable and
byte-comparable across worker processes.  The four **objective**
metrics the Pareto layer trades off:

* ``goodput_qps``        (maximize) — served requests per simulated s;
* ``ttft_p99_ms``        (minimize) — served tail first-token latency;
* ``kv_mib``             (minimize) — KV pool footprint actually
  reserved (0 for the legacy loop);
* ``gemm_slowdown_pct``  (minimize) — the platform's Table III GEMM
  penalty for keeping weights PIM-resident, paid only by the ``facil``
  mapping family.

``evaluate_payload`` is the picklable worker entry point used by the
driver's process pool; it must stay a module-level function.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.engine.policies import InferenceEngine
from repro.llm.datasets import ALPACA_LIKE, HUMANEVAL_AUTOCOMPLETE_LIKE, DatasetSpec
from repro.platforms.specs import ALL_PLATFORMS, PlatformSpec
from repro.dse.spec import WORKLOADS

__all__ = ["DATASETS", "evaluate_point", "evaluate_payload"]

DATASETS: Dict[str, DatasetSpec] = {
    ALPACA_LIKE.name: ALPACA_LIKE,
    HUMANEVAL_AUTOCOMPLETE_LIKE.name: HUMANEVAL_AUTOCOMPLETE_LIKE,
}

def _platform(name: str) -> PlatformSpec:
    for platform in ALL_PLATFORMS:
        if platform.name == name:
            return platform
    known = ", ".join(p.name for p in ALL_PLATFORMS)
    raise ValueError(f"unknown platform {name!r}; known: {known}")


def _workload_spec(kind: str, config: Mapping, workload: Mapping):
    """Build the repro.workloads spec (or None for chat) plus a callable
    producing the extra tenants the workload shape needs."""
    def no_extra(_tenant):
        return []

    if kind == "chat":
        return None, no_extra
    from repro.workloads import (
        CoResidencySpec,
        ExpertPlacementSpec,
        SpeculativeSpec,
    )

    def knob(name: str) -> object:
        return config.get(name, workload[name])

    if kind == "speculative":
        return SpeculativeSpec(
            gamma=int(knob("gamma")),
            acceptance_rate=float(knob("acceptance_rate")),
        ), no_extra
    if kind == "moe":
        return ExpertPlacementSpec(
            n_experts=int(knob("n_experts")),
            experts_per_token=int(knob("experts_per_token")),
            resident_experts=int(knob("resident_experts")),
        ), no_extra
    if kind == "coresident":
        spec = CoResidencySpec(
            secondary_share=float(knob("secondary_share")),
        )

        def secondary(tenant):
            # the primary tenant's qps was already scaled down by the
            # secondary share; the remainder goes to the secondary model
            primary_share = 1.0 - spec.secondary_share
            from dataclasses import replace as _replace

            return [_replace(
                tenant,
                name=spec.secondary_tenant,
                qps=tenant.qps * spec.secondary_share / primary_share,
            )]

        return spec, secondary
    raise ValueError(f"unknown workload kind {kind!r}")


def evaluate_point(config: Mapping, seed: int) -> Dict[str, float]:
    """Run one sweep point and return its metrics.

    *config* is the fully-resolved point config produced by
    :meth:`SweepSpec.points`; *seed* is the point's derived substream
    seed.  The same ``(config, seed)`` pair always returns the same
    metrics — this is the property the resume key and the solo-repro
    command lean on.
    """
    # Local imports keep `import repro.dse` light for spec-only users.
    from repro.serving import ServingConfig, ServingRuntime, poisson_workload
    from repro.serving.workload import TenantSpec

    engine = InferenceEngine(_platform(str(config["platform"])))
    workload = WORKLOADS[str(config["workload"])]
    dataset = DATASETS[str(workload["dataset"])]
    mean_turns = float(config.get("mean_turns", workload["mean_turns"]))
    think_time_ms = float(
        config.get("think_time_ms", workload["think_time_ms"])
    )
    kind = str(workload.get("kind", "chat"))
    spec, extra_tenants = _workload_spec(kind, config, workload)
    tenant = TenantSpec(
        name=dataset.name,
        dataset=dataset,
        policy=str(config["mapping"]),
        qps=float(config["qps"]) * (
            1.0 - float(config.get(
                "secondary_share", workload.get("secondary_share", 0.0)
            ))
            if kind == "coresident"
            else 1.0
        ),
        deadline_ms=float(config["deadline_ms"]),
        mean_turns=mean_turns,
        think_time_ms=think_time_ms,
    )
    requests = poisson_workload(
        [tenant] + extra_tenants(tenant),
        duration_ms=float(config["duration_ms"]),
        seed=seed,
    )
    serving_config = ServingConfig(
        seed=seed,
        queue_capacity=int(config["queue_capacity"]),
        shed_policy=str(config["shed"]),
        kv_blocks=int(config["kv_blocks"]) if kind == "chat" else 0,
        block_tokens=int(config["block_tokens"]),
    )
    report = ServingRuntime(engine, serving_config, workload=spec).run(requests)

    kv_mib = 0.0
    if report.kv is not None:
        kv_mib = (
            float(report.kv["num_blocks"]) * float(report.kv["block_bytes"])
        ) / float(1 << 20)
    gemm_slowdown_pct = (
        engine.platform.gemm_layout_slowdown * 100.0
        if config["mapping"] == "facil"
        else 0.0
    )
    metrics = {
        "goodput_qps": report.goodput_qps,
        "ttft_p50_ms": report.ttft.p50_ns / 1e6,
        "ttft_p99_ms": report.ttft.p99_ns / 1e6,
        "ttlt_p99_ms": report.ttlt.p99_ns / 1e6,
        "kv_mib": kv_mib,
        "gemm_slowdown_pct": gemm_slowdown_pct,
        "slo_attainment": report.slo_attainment,
        "shed_rate": report.shed_rate,
        "offered": float(report.offered),
        "served": float(report.served),
        "unserved": float(report.unserved),
    }
    if report.workload is not None:
        # workload loops surface their conservation oracle as a metric
        # so a sweep can gate on it (chat points keep their exact keys)
        metrics["workload_conservation_findings"] = float(
            report.workload.get("conservation_findings", 0)
        )
    return metrics


def evaluate_payload(
    payload: Tuple[int, Dict[str, object], int],
) -> Tuple[int, Dict[str, float]]:
    """Process-pool entry: ``(index, config, seed) -> (index, metrics)``."""
    index, config, seed = payload
    return index, evaluate_point(config, seed)
