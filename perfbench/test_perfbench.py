"""Self-tests of the benchmark: smoke-sized runs of every workload, and the
agreement between what the runner emits and what ``BENCHMARK.json`` declares.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, HERE)
import run  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace, seconds="0.3", cwd=ROOT, seed="3"):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def test_spec_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]


def test_declared_units_match_the_runner():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert NAME.match(name)
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, name
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        shares = sum(v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=1e-6)


def test_same_seed_same_simulated_outputs():
    a = json.loads(_run("fleet-chat", 1).stdout.strip().splitlines()[-1])["metrics"]
    b = json.loads(_run("fleet-chat", 1).stdout.strip().splitlines()[-1])["metrics"]
    for name in ("sim_goodput_qps", "sim_ttft_p99_ms", "fleet.served", "kvcache.prefix_hits"):
        assert a[name]["value"] == b[name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run("tiny-llm", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tiny_llm_passes_a_reference_near_tie():
    """Batch 8 of seed 164856685 decodes token 226 where the reference's
    argmax is 280: their reference logits differ by 7e-6, a tie within
    the parity tolerance, so the batch is correct."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from suite import TinyLlm

    out = TinyLlm(164856685).run_batch(8)
    assert out.attempted == 5
    assert out.failures == []
