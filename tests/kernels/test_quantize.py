"""INT8 quantization kernels: round trips, error bounds, GEMM accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import (
    INT8_MAX,
    QuantizedLinear,
    dequantize,
    quantization_error,
    quantize_symmetric,
)


class TestQuantizeSymmetric:
    def test_round_trip_error_bounded_by_half_step(self, rng):
        x = rng.normal(0, 1, (64,)).astype(np.float32)
        q, scale = quantize_symmetric(x)
        err = np.abs(dequantize(q, scale) - x)
        assert err.max() <= scale / 2 + 1e-7

    def test_range_fully_used(self, rng):
        x = rng.normal(0, 1, (256,)).astype(np.float32)
        q, _ = quantize_symmetric(x)
        assert np.abs(q).max() == INT8_MAX

    def test_zero_tensor(self):
        q, scale = quantize_symmetric(np.zeros(8, np.float32))
        assert (q == 0).all()
        assert scale == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_amax_has_a_nonzero_scale(self):
        # amax / 127 underflows to 0 in float32; the divide must not see it.
        q, scale = quantize_symmetric(np.array([1e-45], np.float32))
        assert scale > 0 and np.isfinite(scale)
        assert np.allclose(dequantize(q, scale), [1e-45], atol=scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_channel_has_a_nonzero_scale(self):
        w = np.array([[1e-45, 0.0, 1.0], [-1e-45, 0.0, -2.0]], np.float32)
        q, scale = quantize_symmetric(w, axis=1)
        assert (scale > 0).all() and np.isfinite(scale).all()
        assert (q[:, 1] == 0).all() and scale[0, 1] == 1.0
        assert np.abs(q[:, 2]).max() == INT8_MAX

    def test_per_channel_scales(self, rng):
        w = rng.normal(0, 1, (4, 3)).astype(np.float32)
        w[:, 2] *= 100  # one loud channel
        q, scale = quantize_symmetric(w, axis=1)
        assert scale.shape == (1, 3)
        # The loud channel gets its own large scale; quiet ones stay fine.
        assert scale[0, 2] > 10 * scale[0, 0]
        np.testing.assert_allclose(dequantize(q, scale), w,
                                   atol=float(scale.max()) / 2 + 1e-6)

    @given(arrays(np.float32, st.integers(1, 64),
                  elements=st.floats(-100, 100, allow_nan=False, width=32)))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, x):
        q, scale = quantize_symmetric(x)
        assert q.dtype == np.int8
        err = np.abs(dequantize(q, scale) - x)
        assert err.max() <= float(scale) / 2 + 1e-5


class TestQuantizedLinear:
    def test_close_to_fp32(self, rng):
        w = rng.normal(0, 0.02, (128, 64)).astype(np.float32)
        x = rng.normal(0, 1, (8, 128)).astype(np.float32)
        assert quantization_error(w, x) < 0.03  # a few percent, as on GPUs

    def test_bias_applied(self, rng):
        w = rng.normal(0, 0.02, (16, 4)).astype(np.float32)
        bias = rng.normal(0, 1, 4).astype(np.float32)
        x = rng.normal(0, 1, (2, 16)).astype(np.float32)
        layer = QuantizedLinear.from_float(w, bias=bias)
        no_bias = QuantizedLinear.from_float(w)
        np.testing.assert_allclose(layer(x), no_bias(x) + bias, rtol=1e-5)

    def test_weight_compression_near_4x(self, rng):
        w = rng.normal(0, 0.02, (768, 768)).astype(np.float32)
        layer = QuantizedLinear.from_float(w)
        assert 3.5 < w.nbytes / layer.weight_bytes <= 4.0

    def test_batched_inputs(self, rng):
        w = rng.normal(0, 0.02, (16, 8)).astype(np.float32)
        x = rng.normal(0, 1, (2, 5, 16)).astype(np.float32)
        out = QuantizedLinear.from_float(w)(x)
        assert out.shape == (2, 5, 8)

    def test_shape_validation(self, rng):
        layer = QuantizedLinear.from_float(rng.normal(0, 1, (16, 8)).astype(np.float32))
        with pytest.raises(ValueError):
            layer(rng.normal(0, 1, (2, 15)))

    def test_dtype_validation(self, rng):
        with pytest.raises(TypeError):
            QuantizedLinear(
                q_weight=np.zeros((4, 4), np.float32),
                weight_scale=np.ones((1, 4), np.float32),
            )

    def test_per_channel_beats_per_tensor_on_skewed_weights(self, rng):
        """The reason production INT8 quantizes weights per channel."""
        w = rng.normal(0, 0.02, (64, 32)).astype(np.float32)
        w[:, 0] *= 50  # one loud output channel
        x = rng.normal(0, 1, (8, 64)).astype(np.float32)
        exact = x @ w
        per_channel = QuantizedLinear.from_float(w)(x)
        q_all, s_all = quantize_symmetric(w, axis=None)
        per_tensor = x @ dequantize(q_all, s_all)
        err_channel = np.linalg.norm(per_channel - exact)
        err_tensor = np.linalg.norm(per_tensor - exact)
        assert err_channel < 0.5 * err_tensor
