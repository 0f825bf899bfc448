"""Per-layer host-time attribution from a ``cProfile`` run.

A layer is a ``repro`` subpackage.  Python functions are charged to the
layer whose file defines them; time in C code, numpy and the standard
library is charged to the calling ``repro`` layer, split across callers
by the callee's per-caller self time.  Boundary calls and their
cumulative seconds come from the same profile.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Tuple

LAYERS = (
    "core", "dram", "os", "pim", "soc", "llm", "engine", "serving", "kvcache",
    "fleet", "workloads", "reliability", "adaptive", "analysis", "telemetry",
    "other",
)

#: boundary metric prefix -> "module:qualname" of the function it times
BOUNDARIES = {
    "core.translate_array": "repro.core.controller:MemoryController.translate_array",
    "dram.gather": "repro.dram.memory:PhysicalMemory.gather",
    "dram.scatter": "repro.dram.memory:PhysicalMemory.scatter",
    "pim.enumerate_placements": "repro.pim.chunk:enumerate_placements",
    "pim.pim_gemv": "repro.pim.functional:pim_gemv",
    "soc.soc_gemm": "repro.soc.kernels:soc_gemm",
    "core.pimalloc": "repro.core.pimalloc:PimAllocator.pimalloc",
    "core.switch_mapping": "repro.core.pimalloc:PimAllocator.switch_mapping",
    "core.migrate_pages": "repro.core.pimalloc:PimAllocator.migrate_pages",
    "core.recover": "repro.core.journal:recover",
    "os.mmap": "repro.os.vm:AddressSpace.mmap",
    "os.munmap": "repro.os.vm:AddressSpace.munmap",
    "engine.decode_total_ns": "repro.engine.policies:InferenceEngine.decode_total_ns",
    "engine.prefill_ns": "repro.engine.policies:InferenceEngine.prefill_ns",
    "kvcache.alloc": "repro.kvcache.pool:BlockPool.alloc",
    "kvcache.free": "repro.kvcache.pool:BlockPool.free",
    "fleet.route": "repro.fleet.router:FleetRouter.route",
    "fleet.serve_next": "repro.fleet.device:FleetDevice.serve_next",
}

_REPRO_FILE = re.compile(r"[/\\]repro[/\\](?:([A-Za-z_]+)[/\\])?[A-Za-z_]+\.py$")
_HERE = os.path.dirname(os.path.abspath(__file__))

Func = Tuple[str, int, str]


def _code_key(target: str) -> Func:
    import importlib

    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _own_layer(func: Func):
    """The layer a function's own time belongs to, or None when its time
    should be charged to its callers (C code, numpy, the stdlib)."""
    filename = func[0]
    match = _REPRO_FILE.search(filename)
    if match:
        package = match.group(1)
        return package if package in LAYERS else "other"
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "other"  # the benchmark's own code
    return None


def attribute(stats: Dict) -> Dict[str, float]:
    """Map ``pstats.Stats(...).stats`` to the per-layer metric values."""
    shares: Dict[Func, Dict[str, float]] = {}

    def layer_shares(func: Func, active: set) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        own = _own_layer(func)
        if own is not None:
            result = {own: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[3] for c, edge in callers.items()}
                total = sum(weights.values())
            if total <= 0 or func in active:
                return {"other": 1.0}
            active.add(func)
            result = {}
            for caller, weight in weights.items():
                for layer, share in layer_shares(caller, active).items():
                    result[layer] = result.get(layer, 0.0) + share * weight / total
            active.discard(func)
        shares[func] = result
        return result

    per_layer = dict.fromkeys(LAYERS, 0.0)
    total_self = 0.0
    for func, (_, _, tottime, _, _) in stats.items():
        total_self += tottime
        for layer, share in layer_shares(func, set()).items():
            per_layer[layer] += tottime * share
    metrics = {
        f"{layer}.self_share": (per_layer[layer] / total_self if total_self else 0.0)
        for layer in LAYERS
    }
    for name, target in BOUNDARIES.items():
        entry = stats.get(_code_key(target))
        metrics[f"{name}.calls"] = float(entry[1]) if entry else 0.0
        metrics[f"{name}.s"] = float(entry[3]) if entry else 0.0
    return metrics
