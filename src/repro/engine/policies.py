"""Execution policies for SoC-PIM cooperative inference (paper §VI).

Four policies are modeled:

* ``soc-only`` — everything on the SoC processor (no PIM).
* ``hybrid-static`` — the paper's baseline: weights live in the PIM
  layout; every prefill re-layouts each matrix on demand to run GEMM on
  the SoC; decode GEMVs run on PIM.
* ``hybrid-dynamic`` — the paper's optimized baseline: prefill GEMMs go
  to SoC *or* PIM depending on a profiled prefill-length threshold
  (tall-and-skinny GEMMs are faster on PIM than SoC-plus-re-layout).
* ``facil`` — the proposal: the SoC runs GEMM directly on the
  PIM-optimized layout through FACIL's flexible mapping (no re-layout; a
  conservative Table III slowdown is applied), decode runs on PIM.  The
  dataset experiments additionally enable the same dynamic offload.

All latencies come from the substrate models: the SoC roofline, the PIM
command-level GEMV model, and the re-layout cost model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.relayout import relayout_cost_ns
from repro.core.selector import MatrixConfig, select_mapping
from repro.engine.metrics import QueryLatency
from repro.llm.inference import AttentionCost, attention_cost
from repro.llm.layers import LinearSpec, linear_specs
from repro.llm.model_config import LlmConfig, model_by_name
from repro.pim.gemv import GemvLatency, gemv_latency
from repro.platforms.specs import PlatformSpec
from repro.soc.processor import SocProcessor

__all__ = ["InferenceEngine", "POLICIES", "PhasePricing", "decode_on_pim", "phase_pricing"]

POLICIES = ("soc-only", "hybrid-static", "hybrid-dynamic", "facil")


def decode_on_pim(policy: str) -> bool:
    """True when *policy* runs its decode GEMVs on the PIM units (i.e. it
    needs healthy PIM hardware for its normal decode path)."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    return policy != "soc-only"

#: Per-offloaded-op dispatch overhead for PIM command streams.
PIM_DISPATCH_NS = 2_000.0


@dataclass(frozen=True)
class _SpecCosts:
    """Precomputed per-instance costs of one linear spec."""

    spec: LinearSpec
    pim_gemv: GemvLatency
    relayout_ns: float


class PhasePricing:
    """Phase costs of one ``(platform, model, soc, huge_page_bytes,
    relayout_mode)`` content key, shared by every engine with that key.

    Holds the per-spec costs, the prefill memos and, per decode unit, a
    table of decode step costs indexed by context length.  A step is the
    context-independent linear term plus attention over the KV context,
    added in the same order as the per-token formula, so a table entry is
    bit-identical to pricing the step from its ``decode_step_plan``.
    Build it through :func:`phase_pricing`.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        model: LlmConfig,
        soc: SocProcessor,
        huge_page_bytes: int,
        relayout_mode: str,
    ):
        self.platform = platform
        self.model = model
        self.soc = soc
        specs = linear_specs(model)
        #: the model's linears, built once for every prefill and step price
        self.specs: Tuple[LinearSpec, ...] = tuple(specs)
        self.costs: Dict[str, _SpecCosts] = {}
        for spec in specs:
            matrix = spec.matrix_config()
            selection = select_mapping(
                matrix, platform.dram.org, platform.pim, huge_page_bytes
            )
            pim = gemv_latency(
                matrix,
                platform.dram,
                platform.pim,
                huge_page_bytes,
                selection=selection,
            )
            relayout = relayout_cost_ns(
                spec.bytes_per_instance, platform.dram, mode=relayout_mode
            )
            self.costs[spec.name] = _SpecCosts(
                spec=spec, pim_gemv=pim, relayout_ns=relayout.total_ns
            )
        self.relayout_total_ns = sum(
            c.spec.count * c.relayout_ns for c in self.costs.values()
        )
        self.soc_prefill: Dict[Tuple[int, bool], float] = {}
        self.pim_prefill: Dict[int, float] = {}
        # context-independent linear term of one decode step, per unit
        soc_linear = 0.0
        pim_linear = 0.0
        reduce_bytes = 0.0
        for spec in specs:
            soc_linear += spec.count * soc.gemv_time_ns(
                spec.out_features, spec.in_features, spec.dtype_bytes
            )
            cost = self.costs[spec.name]
            pim_linear += spec.count * (cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * cost.pim_gemv.soc_reduce_bytes
        self.linear_ns = {
            False: soc_linear,
            True: pim_linear + soc.stream_time_ns(reduce_bytes),
        }
        #: step cost by context length; index 0 is never a valid context
        self.steps: Dict[bool, List[float]] = {False: [math.nan], True: [math.nan]}

    def attention_ns(self, attention: AttentionCost) -> float:
        base = self.soc.op_time_ns(attention.flops, attention.bytes_moved)
        return base + (attention.n_kernels - 1) * self.soc.kernel_launch_ns

    def grow(self, on_pim: bool, context_len: int) -> None:
        """Fill the step table of *on_pim* up to *context_len*."""
        table = self.steps[on_pim]
        if context_len >= len(table):
            linear = self.linear_ns[on_pim]
            table.extend(
                linear + self.attention_ns(attention_cost(self.model, 1, ctx))
                for ctx in range(len(table), context_len + 1)
            )

    def price_soc_prefill(self, prefill_len: int, pim_layout: bool) -> float:
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        gemm_ns = 0.0
        for spec in self.specs:
            n = _gemm_batch(spec, prefill_len)
            gemm_ns += spec.count * self.soc.gemm_time_ns(
                spec.out_features, n, spec.in_features, spec.dtype_bytes
            )
        if pim_layout:
            gemm_ns *= 1.0 + self.platform.gemm_layout_slowdown
        attention = attention_cost(self.model, prefill_len, prefill_len)
        return gemm_ns + self.attention_ns(attention)

    def price_pim_prefill(self, prefill_len: int) -> float:
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        gemv_ns = 0.0
        reduce_bytes = 0.0
        for spec in self.specs:
            cost = self.costs[spec.name]
            n = _gemm_batch(spec, prefill_len)
            gemv_ns += spec.count * (n * cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * n * cost.pim_gemv.soc_reduce_bytes
        reduce_ns = self.soc.stream_time_ns(reduce_bytes)
        attention = attention_cost(self.model, prefill_len, prefill_len)
        return gemv_ns + reduce_ns + self.attention_ns(attention)


def _gemm_batch(spec: LinearSpec, batch_tokens: int) -> int:
    """Prefill batch size for a spec (the LM head only needs logits for
    the final position)."""
    return 1 if spec.name == "lm_head" else batch_tokens


@functools.lru_cache(maxsize=64)
def phase_pricing(
    platform: PlatformSpec,
    model: LlmConfig,
    soc: SocProcessor,
    huge_page_bytes: int,
    relayout_mode: str,
) -> PhasePricing:
    """The shared :class:`PhasePricing` of one content key (every field
    is a frozen dataclass or a scalar, so equal content shares)."""
    return PhasePricing(platform, model, soc, huge_page_bytes, relayout_mode)


class InferenceEngine:
    """Prices queries on one platform + model under each policy."""

    def __init__(
        self,
        platform: PlatformSpec,
        model: Optional[LlmConfig] = None,
        huge_page_bytes: int = 2 << 20,
        relayout_mode: str = "peak-bw",
        soc_override: Optional[SocProcessor] = None,
    ):
        self.platform = platform
        self.model = model if model is not None else model_by_name(platform.model_name)
        self.soc = soc_override if soc_override is not None else platform.soc
        self.huge_page_bytes = huge_page_bytes
        self._pricing = phase_pricing(
            platform, self.model, self.soc, huge_page_bytes, relayout_mode
        )
        self._costs = self._pricing.costs
        self._soc_steps = self._pricing.steps[False]
        self._pim_steps = self._pricing.steps[True]

    # ------------------------------------------------------------------
    # phase primitives
    # ------------------------------------------------------------------

    _gemm_batch = staticmethod(_gemm_batch)

    def _attention_ns(self, attention: AttentionCost) -> float:
        return self._pricing.attention_ns(attention)

    def soc_prefill_ns(self, prefill_len: int, pim_layout: bool = False) -> float:
        """Prefill entirely on the SoC.  With ``pim_layout`` the GEMMs run
        on the PIM-optimized layout (FACIL) and are scaled by the
        platform's conservative Table III slowdown."""
        memo = self._pricing.soc_prefill
        key = (prefill_len, pim_layout)
        ns = memo.get(key)
        if ns is None:
            ns = memo[key] = self._pricing.price_soc_prefill(prefill_len, pim_layout)
        return ns

    def relayout_total_ns(self) -> float:
        """On-demand re-layout of every weight matrix, paid once per
        prefill by the hybrid baseline."""
        return self._pricing.relayout_total_ns

    def pim_prefill_ns(self, prefill_len: int) -> float:
        """Prefill on PIM: the tall-and-skinny GEMM as L back-to-back
        GEMV passes (AiM holds one input vector at a time), attention and
        glue on the SoC."""
        memo = self._pricing.pim_prefill
        ns = memo.get(prefill_len)
        if ns is None:
            ns = memo[prefill_len] = self._pricing.price_pim_prefill(prefill_len)
        return ns

    def soc_decode_step_ns(self, context_len: int) -> float:
        if context_len <= 0:
            raise ValueError("context length must be positive")
        if context_len >= len(self._soc_steps):
            self._pricing.grow(False, context_len)
        return self._soc_steps[context_len]

    def pim_decode_step_ns(self, context_len: int) -> float:
        """One decode step with linear GEMVs on PIM; attention, glue, and
        partial-sum reduction on the SoC."""
        if context_len <= 0:
            raise ValueError("context length must be positive")
        if context_len >= len(self._pim_steps):
            self._pricing.grow(True, context_len)
        return self._pim_steps[context_len]

    # ------------------------------------------------------------------
    # phase-level pricing (the serving runtime schedules phases on
    # resources and applies per-phase breaker/brownout decisions)
    # ------------------------------------------------------------------

    def prefill_ns(
        self,
        policy: str,
        prefill_len: int,
        dynamic_offload: Optional[bool] = None,
    ) -> Tuple[float, str]:
        """Price the prefill phase of *policy* alone.

        Returns ``(ns, resource)`` where *resource* is ``"soc"`` or
        ``"pim"`` — the unit whose timeline the phase occupies (the
        serving runtime serializes work per resource).
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        if policy == "soc-only":
            return self.soc_prefill_ns(prefill_len), "soc"
        if policy == "hybrid-static":
            return self.relayout_total_ns() + self.soc_prefill_ns(prefill_len), "soc"
        if policy == "hybrid-dynamic":
            soc_path = self.relayout_total_ns() + self.soc_prefill_ns(prefill_len)
            pim_path = self.pim_prefill_ns(prefill_len)
            return (pim_path, "pim") if pim_path < soc_path else (soc_path, "soc")
        # facil
        soc_path = self.soc_prefill_ns(prefill_len, pim_layout=True)
        use_dynamic = True if dynamic_offload is None else dynamic_offload
        if use_dynamic:
            pim_path = self.pim_prefill_ns(prefill_len)
            if pim_path < soc_path:
                return pim_path, "pim"
        return soc_path, "soc"

    def decode_total_ns(
        self, prefill_len: int, decode_len: int, on_pim: bool
    ) -> float:
        """Price the decode phase: steps 2..D on the given unit (the first
        token comes from prefill), summed in token order."""
        if prefill_len <= 0 or decode_len <= 0:
            raise ValueError("prefill and decode lengths must be positive")
        table = self._pim_steps if on_pim else self._soc_steps
        end = prefill_len + decode_len
        if end > len(table):
            self._pricing.grow(bool(on_pim), end - 1)
        return sum(table[prefill_len + 1 : end])

    # ------------------------------------------------------------------
    # dynamic-offload profiling (paper §VI-C)
    # ------------------------------------------------------------------

    def prefill_crossover(self, max_len: int = 1024) -> int:
        """Profiled threshold: smallest prefill length at which the SoC
        path (re-layout + GEMM) beats PIM-executed prefill.  Queries
        shorter than this run their prefill on PIM under the
        hybrid-dynamic baseline."""
        length = 1
        while length <= max_len:
            soc = self.relayout_total_ns() + self.soc_prefill_ns(length)
            pim = self.pim_prefill_ns(length)
            if soc <= pim:
                return length
            length *= 2
        return max_len + 1

    def facil_crossover(self, max_len: int = 1024) -> int:
        """Same profiling for FACIL (no re-layout on the SoC path)."""
        length = 1
        while length <= max_len:
            soc = self.soc_prefill_ns(length, pim_layout=True)
            if soc <= self.pim_prefill_ns(length):
                return length
            length *= 2
        return max_len + 1

    # ------------------------------------------------------------------
    # policies
    # ------------------------------------------------------------------

    def run_query(
        self,
        policy: str,
        prefill_len: int,
        decode_len: int,
        dynamic_offload: Optional[bool] = None,
    ) -> QueryLatency:
        """Price one query under *policy*.

        ``dynamic_offload`` controls whether FACIL also applies the
        prefill-length-based SoC/PIM choice (defaults to True, matching
        the paper's dataset experiments).
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
        if prefill_len <= 0 or decode_len <= 0:
            raise ValueError("prefill and decode lengths must be positive")

        breakdown: Dict[str, float] = {}
        if policy == "soc-only":
            ttft = self.soc_prefill_ns(prefill_len)
            breakdown["prefill_soc"] = ttft
            decode = self.decode_total_ns(prefill_len, decode_len, on_pim=False)
            breakdown["decode_soc"] = decode
        elif policy == "hybrid-static":
            relayout = self.relayout_total_ns()
            gemm = self.soc_prefill_ns(prefill_len)
            ttft = relayout + gemm
            breakdown["relayout"] = relayout
            breakdown["prefill_soc"] = gemm
            decode = self.decode_total_ns(prefill_len, decode_len, on_pim=True)
            breakdown["decode_pim"] = decode
        elif policy == "hybrid-dynamic":
            soc_path = self.relayout_total_ns() + self.soc_prefill_ns(prefill_len)
            pim_path = self.pim_prefill_ns(prefill_len)
            if pim_path < soc_path:
                ttft = pim_path
                breakdown["prefill_pim"] = pim_path
            else:
                ttft = soc_path
                breakdown["relayout"] = self.relayout_total_ns()
                breakdown["prefill_soc"] = ttft - breakdown["relayout"]
            decode = self.decode_total_ns(prefill_len, decode_len, on_pim=True)
            breakdown["decode_pim"] = decode
        else:  # facil
            use_dynamic = True if dynamic_offload is None else dynamic_offload
            soc_path = self.soc_prefill_ns(prefill_len, pim_layout=True)
            if use_dynamic:
                pim_path = self.pim_prefill_ns(prefill_len)
                if pim_path < soc_path:
                    ttft = pim_path
                    breakdown["prefill_pim"] = pim_path
                else:
                    ttft = soc_path
                    breakdown["prefill_soc"] = soc_path
            else:
                ttft = soc_path
                breakdown["prefill_soc"] = soc_path
            decode = self.decode_total_ns(prefill_len, decode_len, on_pim=True)
            breakdown["decode_pim"] = decode

        return QueryLatency(
            policy=policy,
            prefill_tokens=prefill_len,
            decode_tokens=decode_len,
            ttft_ns=ttft,
            ttlt_ns=ttft + decode,
            breakdown=breakdown,
        )
