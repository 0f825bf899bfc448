"""Functional (bit-accurate) execution of GEMV on the near-bank PIM.

The executor emulates what the PIM hardware does — *without* knowing the
matrix layout a priori:

1. the host command generator derives, from the chunk placements, which
   input-vector segment each rank's global buffer must hold;
2. for every DRAM row holding chunk data, the PU multiplies the row's
   bytes (read straight from the bank array) with the matching global
   buffer slice and accumulates into its output registers (FP32
   accumulation over FP16 products, as AiM does);
3. output registers are drained, and — when the matrix was column-wise
   partitioned across channels — the SoC reduces the per-channel partial
   sums.

Because the weights are read from the raw bank arrays, this validates the
whole FACIL pipeline end-to-end: data stored by the SoC through virtual
addresses is directly consumable by PIM with no re-layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.pim.chunk import GemvStats, placement_plan

if TYPE_CHECKING:  # circular at runtime: pimalloc imports repro.pim
    from repro.core.pimalloc import PimTensor

__all__ = ["GemvStats", "pim_gemv"]


def pim_gemv(tensor: "PimTensor", x: np.ndarray) -> Tuple[np.ndarray, GemvStats]:
    """Compute ``y = W @ x`` on the PIM, functionally.

    Args:
        tensor: a pimalloc'ed weight matrix (``rows x cols``).
        x: input vector of length ``cols``; same element width as the
            tensor.

    Returns:
        ``(y, stats)`` with ``y`` of length ``rows`` — float32 for float
        tensors, int64 (exact) for integer tensors.
    """
    matrix = tensor.matrix
    x = np.asarray(x)
    if x.shape != (matrix.cols,):
        raise ValueError(f"expected input of shape ({matrix.cols},), got {x.shape}")
    if x.dtype.itemsize != matrix.dtype_bytes:
        raise ValueError("input element width does not match tensor")

    memory = tensor.allocator.controller.memory
    if memory is None:
        raise RuntimeError("functional PIM execution needs functional memory")

    # Host side: pad the input and slice it into global-buffer segments.
    # Accumulation datapath: FP32 over FP16 products (AiM-style) for
    # float tensors, exact INT32 for quantized integer tensors.
    x_padded = np.zeros(tensor.lda, dtype=x.dtype)
    x_padded[: matrix.cols] = x
    acc_dtype = np.float32 if matrix.kind == "float" else np.int64

    plan = placement_plan(tensor)
    # Every chunk-row segment's bytes straight from its bank row (one
    # gather, after the fault hook has seen each touched bank), times the
    # global-buffer segment its rank loaded, accumulated into the output
    # registers in load order.
    store = memory.access(plan.starts).view(matrix.numpy_dtype)
    segments = sliding_window_view(store, plan.elems)[plan.starts // matrix.dtype_bytes]
    weights = segments.astype(acc_dtype)
    gb = x_padded.astype(acc_dtype).reshape(-1, plan.elems)[plan.inputs]
    y = np.zeros(matrix.rows, dtype=acc_dtype)
    np.add.at(y, plan.rows, np.einsum("ij,ij->i", weights, gb))
    return y, plan.gemv_stats()
