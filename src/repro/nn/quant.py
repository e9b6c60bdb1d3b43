"""Fixed-point (FXP) quantization of weights and activations.

Section V-A of the paper: "We quantize floating-point (FP) weights and
activations into fixed-point (FXP) format with 16 and 12 bits,
respectively" — the Table II NVCA column is "FXP 12-16" (A-W).  This
module provides symmetric per-tensor quantization:

    q = clip(round(x / scale), -2^(b-1), 2^(b-1) - 1),   x_hat = q * scale

Weight quantization is applied in place across a network; activation
quantization installs a :class:`QuantSpec` on each layer's
``activation_quant`` hook.  Activation specs may be *dynamic* (scale
derived from each tensor's max magnitude, the convention of
simulation-based accelerator studies) or *static* (calibrated scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantSpec", "quantize_network", "QuantReport"]


@dataclass
class QuantSpec:
    """Symmetric fixed-point quantizer for one tensor role."""

    bits: int
    scale: float | None = None  # None => dynamic per-tensor scale

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError(f"need >=2 bits, got {self.bits}")

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1))

    @classmethod
    def from_tensor(cls, x: np.ndarray, bits: int) -> "QuantSpec":
        """Choose the scale so the max magnitude maps to qmax."""
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        scale = max_abs / (2 ** (bits - 1) - 1) if max_abs > 0 else 1.0
        return cls(bits=bits, scale=scale)

    def _effective_scale(self, x: np.ndarray) -> float:
        if self.scale is not None:
            return self.scale
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        return max_abs / self.qmax if max_abs > 0 else 1.0

    def quantize(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Return (integer codes, scale)."""
        scale = self._effective_scale(x)
        codes = np.clip(np.round(x / scale), self.qmin, self.qmax).astype(np.int64)
        return codes, scale

    def dequantize(
        self, codes: np.ndarray, scale: float, dtype=np.float64
    ) -> np.ndarray:
        return codes.astype(dtype) * scale

    def fake_quant(self, x: np.ndarray) -> np.ndarray:
        """Quantize-dequantize round trip (the simulation workhorse),
        in ``x``'s dtype when that is a float dtype."""
        codes, scale = self.quantize(x)
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
        return self.dequantize(codes, scale, dtype)

    def quant_error(self, x: np.ndarray) -> float:
        """RMS quantization error of this spec on a tensor."""
        return float(np.sqrt(np.mean((x - self.fake_quant(x)) ** 2)))


@dataclass
class QuantReport:
    """Summary of a network quantization pass."""

    weight_bits: int
    activation_bits: int
    layers_quantized: int
    parameters_quantized: int
    max_weight_rms_error: float

    def __str__(self) -> str:
        return (
            f"QuantReport(W{self.weight_bits}/A{self.activation_bits}: "
            f"{self.layers_quantized} layers, "
            f"{self.parameters_quantized} parameters, "
            f"max weight RMS err {self.max_weight_rms_error:.3e})"
        )


def quantize_network(
    model,
    weight_bits: int = 16,
    activation_bits: int = 12,
) -> QuantReport:
    """Quantize all parameters in place and install activation quant hooks.

    ``model`` is any :class:`repro.nn.layers.Module`.  Weights and
    biases get per-tensor W-bit fixed point; every module exposing an
    ``activation_quant`` attribute gets a dynamic A-bit spec.  Returns a
    :class:`QuantReport` with aggregate error statistics.
    """
    max_err = 0.0
    n_params = 0
    for _, param in model.named_parameters():
        spec = QuantSpec.from_tensor(param.data, weight_bits)
        err = spec.quant_error(param.data)
        max_err = max(max_err, err)
        param.data = spec.fake_quant(param.data)
        n_params += 1

    n_layers = 0
    for module in model.modules():
        if hasattr(module, "activation_quant"):
            module.activation_quant = QuantSpec(bits=activation_bits)
            n_layers += 1
    return QuantReport(
        weight_bits=weight_bits,
        activation_bits=activation_bits,
        layers_quantized=n_layers,
        parameters_quantized=n_params,
        max_weight_rms_error=max_err,
    )
