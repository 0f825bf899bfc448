"""Content-keyed phase pricing against the per-token formula.

The engine prices decode steps from a shared table (linear term plus
attention over the context) and memoizes prefills on a pricing object
shared by every engine with the same content key.  The oracle here is
the per-token formula the tables replace: each step priced from its
``decode_step_plan``, the phase summed token by token.  Every check is
bit-equality, not a tolerance.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.policies import (
    PIM_DISPATCH_NS,
    InferenceEngine,
    PhasePricing,
    phase_pricing,
)
from repro.llm.inference import decode_step_plan, prefill_plan
from repro.llm.model_config import PHI_1_5
from repro.platforms.specs import ALL_PLATFORMS, JETSON_ORIN, MACBOOK_PRO
from repro.soc.processor import ideal_npu

HUGE_PAGES = (2 << 20, 4 << 20)


def _engine(platform_index: int, npu: bool, huge_page_bytes: int) -> InferenceEngine:
    platform = ALL_PLATFORMS[platform_index]
    soc = ideal_npu(platform.peak_bw_gbps) if npu else None
    return InferenceEngine(
        platform, huge_page_bytes=huge_page_bytes, soc_override=soc
    )


def _bits(value):
    """Type and exact bits: the empty decode sum is the integer 0."""
    return type(value).__name__, float(value).hex()


# -- the per-token oracle ------------------------------------------------------


def oracle_step_ns(engine: InferenceEngine, context_len: int, on_pim: bool) -> float:
    plan = decode_step_plan(engine.model, context_len)
    gemv_ns = 0.0
    if not on_pim:
        for spec in plan.linears:
            gemv_ns += spec.count * engine.soc.gemv_time_ns(
                spec.out_features, spec.in_features, spec.dtype_bytes
            )
        return gemv_ns + engine._attention_ns(plan.attention)
    reduce_bytes = 0.0
    for spec in plan.linears:
        cost = engine._costs[spec.name]
        gemv_ns += spec.count * (cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
        reduce_bytes += spec.count * cost.pim_gemv.soc_reduce_bytes
    reduce_ns = engine.soc.stream_time_ns(reduce_bytes)
    return gemv_ns + reduce_ns + engine._attention_ns(plan.attention)


def oracle_decode_total_ns(engine, prefill_len, decode_len, on_pim):
    return sum(
        oracle_step_ns(engine, prefill_len + t, on_pim) for t in range(1, decode_len)
    )


def oracle_soc_prefill_ns(engine, prefill_len, pim_layout):
    plan = prefill_plan(engine.model, prefill_len)
    gemm_ns = 0.0
    for spec in plan.linears:
        n = 1 if spec.name == "lm_head" else plan.batch_tokens
        gemm_ns += spec.count * engine.soc.gemm_time_ns(
            spec.out_features, n, spec.in_features, spec.dtype_bytes
        )
    if pim_layout:
        gemm_ns *= 1.0 + engine.platform.gemm_layout_slowdown
    return gemm_ns + engine._attention_ns(plan.attention)


def oracle_pim_prefill_ns(engine, prefill_len):
    plan = prefill_plan(engine.model, prefill_len)
    gemv_ns = 0.0
    reduce_bytes = 0.0
    for spec in plan.linears:
        cost = engine._costs[spec.name]
        n = 1 if spec.name == "lm_head" else plan.batch_tokens
        gemv_ns += spec.count * (n * cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
        reduce_bytes += spec.count * n * cost.pim_gemv.soc_reduce_bytes
    reduce_ns = engine.soc.stream_time_ns(reduce_bytes)
    return gemv_ns + reduce_ns + engine._attention_ns(plan.attention)


# -- bit-equality against the oracle -------------------------------------------

engines = st.builds(
    _engine,
    st.integers(0, len(ALL_PLATFORMS) - 1),
    st.booleans(),
    st.sampled_from(HUGE_PAGES),
)


class TestAgainstPerTokenFormula:
    @settings(max_examples=60, deadline=None)
    @given(
        engines,
        st.booleans(),
        st.integers(1, 4096),
        st.one_of(st.just(1), st.integers(1, 600)),
    )
    def test_decode_steps_and_total(self, engine, on_pim, prefill_len, decode_len):
        step = engine.pim_decode_step_ns if on_pim else engine.soc_decode_step_ns
        for ctx in (prefill_len, prefill_len + decode_len):
            assert _bits(step(ctx)) == _bits(oracle_step_ns(engine, ctx, on_pim))
        total = engine.decode_total_ns(prefill_len, decode_len, on_pim)
        expected = oracle_decode_total_ns(engine, prefill_len, decode_len, on_pim)
        assert _bits(total) == _bits(expected)

    @settings(max_examples=40, deadline=None)
    @given(engines, st.integers(1, 2048))
    def test_prefill_paths(self, engine, prefill_len):
        for pim_layout in (False, True):
            # twice: the first call fills the memo, the second reads it
            for _ in range(2):
                assert _bits(engine.soc_prefill_ns(prefill_len, pim_layout)) == _bits(
                    oracle_soc_prefill_ns(engine, prefill_len, pim_layout)
                )
        for _ in range(2):
            assert _bits(engine.pim_prefill_ns(prefill_len)) == _bits(
                oracle_pim_prefill_ns(engine, prefill_len)
            )

    def test_single_token_decode_is_integer_zero(self):
        total = InferenceEngine(JETSON_ORIN).decode_total_ns(77, 1, True)
        assert total == 0 and type(total) is int


class TestTableGrowth:
    @pytest.mark.parametrize("on_pim", [False, True])
    def test_large_context_first_matches_small_first(self, on_pim):
        platform = JETSON_ORIN
        key = (platform, PHI_1_5, platform.soc, 2 << 20, "peak-bw")
        large_first = PhasePricing(*key)
        small_first = PhasePricing(*key)
        large_first.grow(on_pim, 3000)
        large_first.grow(on_pim, 7)
        small_first.grow(on_pim, 7)
        small_first.grow(on_pim, 3000)
        assert [x.hex() for x in large_first.steps[on_pim][1:]] == [
            x.hex() for x in small_first.steps[on_pim][1:]
        ]

    def test_engine_totals_independent_of_pricing_order(self):
        engine = InferenceEngine(MACBOOK_PRO, model=PHI_1_5)
        late = engine.decode_total_ns(5000, 40, True)
        early = engine.decode_total_ns(3, 12, True)
        assert _bits(late) == _bits(oracle_decode_total_ns(engine, 5000, 40, True))
        assert _bits(early) == _bits(oracle_decode_total_ns(engine, 3, 12, True))

    @pytest.mark.parametrize("ctx", [0, -1, -4096])
    def test_nonpositive_context_raises(self, ctx):
        engine = InferenceEngine(JETSON_ORIN)
        with pytest.raises(ValueError):
            engine.soc_decode_step_ns(ctx)
        with pytest.raises(ValueError):
            engine.pim_decode_step_ns(ctx)
        with pytest.raises(ValueError):
            engine.decode_total_ns(ctx, 4, True)
        with pytest.raises(ValueError):
            engine.decode_total_ns(4, ctx, False)


class TestSharing:
    def test_equal_content_shares_one_pricing_object(self):
        base = InferenceEngine(JETSON_ORIN)
        twin = InferenceEngine(
            replace(JETSON_ORIN),
            model=replace(base.model),
            soc_override=replace(JETSON_ORIN.soc),
        )
        assert twin._pricing is base._pricing
        assert twin._costs is base._costs

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(platform=replace(JETSON_ORIN, gemm_layout_slowdown=0.5)),
            dict(model=PHI_1_5),
            dict(soc_override=ideal_npu(JETSON_ORIN.peak_bw_gbps)),
            dict(huge_page_bytes=4 << 20),
        ],
        ids=["platform", "model", "soc", "huge_page_bytes"],
    )
    def test_one_differing_key_field_does_not_share(self, kwargs):
        base = InferenceEngine(JETSON_ORIN)
        platform = kwargs.pop("platform", JETSON_ORIN)
        other = InferenceEngine(platform, **kwargs)
        assert other._pricing is not base._pricing

    def test_relayout_mode_is_part_of_the_key(self):
        InferenceEngine(JETSON_ORIN)  # the peak-bw pricing is cached
        with pytest.raises(ValueError, match="simulated mode"):
            InferenceEngine(JETSON_ORIN, relayout_mode="simulated")

    def test_cache_is_bounded(self):
        assert phase_pricing.cache_info().maxsize == 64
