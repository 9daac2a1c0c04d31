"""INT8 symmetric quantization kernels.

The production successors of the paper (TurboTransformers v2,
FasterTransformer) serve INT8 GEMMs: weights are quantized offline
per-output-channel, activations per-tensor at runtime, and the matmul
accumulates in int32 before dequantizing.  These NumPy kernels implement
that scheme exactly, so the accuracy cost of INT8 serving is measurable
(tests bound the error against the FP32 path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

INT8_MAX = 127
#: Smallest scale handed to the divide: ``amax / 127`` underflows to zero
#: in float32 for a subnormal ``amax``.
_MIN_SCALE = np.finfo(np.float32).tiny


def quantize_symmetric(
    x: np.ndarray, axis: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 quantization: returns (q, scale) with x ≈ q * scale.

    ``axis=None`` uses one scale for the whole tensor (activations);
    an integer axis keeps that axis un-reduced (per-channel weights:
    ``axis=1`` scales each output column of an ``[in, out]`` weight).
    """
    x = np.asarray(x, dtype=np.float32)
    if axis is None:
        amax = np.max(np.abs(x))
        scale = (np.float32(max(amax / INT8_MAX, _MIN_SCALE)) if amax > 0
                 else np.float32(1.0))
    else:
        reduce_axes = tuple(i for i in range(x.ndim) if i != axis)
        amax = np.max(np.abs(x), axis=reduce_axes, keepdims=True)
        scale = np.where(amax > 0, np.maximum(amax / INT8_MAX, _MIN_SCALE),
                         1.0).astype(np.float32)
    q = np.clip(np.rint(x / scale), -INT8_MAX, INT8_MAX).astype(np.int8)
    return q, scale


def dequantize(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_symmetric`."""
    return q.astype(np.float32) * np.asarray(scale, dtype=np.float32)


@dataclass(frozen=True)
class QuantizedLinear:
    """An ``[in, out]`` linear layer with per-output-channel int8 weights."""

    q_weight: np.ndarray      # int8 [in, out]
    weight_scale: np.ndarray  # float32 [1, out]
    bias: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.q_weight.dtype != np.int8:
            raise TypeError(f"q_weight must be int8, got {self.q_weight.dtype}")
        if self.q_weight.ndim != 2:
            raise ValueError(f"q_weight must be 2-D, got {self.q_weight.shape}")
        if np.shape(self.weight_scale)[-1] != self.q_weight.shape[1]:
            raise ValueError(
                f"weight_scale {np.shape(self.weight_scale)} does not match "
                f"out dim {self.q_weight.shape[1]}"
            )

    @classmethod
    def from_float(cls, weight: np.ndarray,
                   bias: Optional[np.ndarray] = None) -> "QuantizedLinear":
        q, scale = quantize_symmetric(weight, axis=1)
        return cls(q_weight=q, weight_scale=scale.reshape(1, -1), bias=bias)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """INT8 GEMM: quantize activations per-tensor, accumulate in int32,
        dequantize with the product of the two scales."""
        x = np.asarray(x)
        if x.shape[-1] != self.q_weight.shape[0]:
            raise ValueError(
                f"x last dim {x.shape[-1]} != weight in dim {self.q_weight.shape[0]}"
            )
        q_x, x_scale = quantize_symmetric(x)
        acc = q_x.astype(np.int32) @ self.q_weight.astype(np.int32)
        out = acc.astype(np.float32) * (x_scale * self.weight_scale)
        if self.bias is not None:
            out += self.bias
        return out

    @property
    def weight_bytes(self) -> int:
        """Stored weight bytes (4x smaller than FP32)."""
        return self.q_weight.nbytes + np.asarray(self.weight_scale).nbytes


def quantization_error(weight: np.ndarray, x: np.ndarray) -> float:
    """Relative L2 error of the INT8 linear vs the FP32 linear."""
    layer = QuantizedLinear.from_float(weight)
    exact = np.asarray(x) @ np.asarray(weight)
    approx = layer(x)
    denom = float(np.linalg.norm(exact))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx - exact)) / denom
