"""Deformable convolution (DfConv), used by deformable compensation.

The paper's deformable compensation module (Fig. 2(d)) warps the
reference feature F_{t-1} with ``DfConv(N, 3, 1, G=2)``: a 3x3
convolution whose sampling taps are displaced by learned per-pixel
offsets, with channels split into G offset groups.  On the accelerator
this operation runs on the dedicated Deformable Convolution Core (DCC),
separate from the SFTC, because its gather pattern defeats the fast
transform algorithms.

Offset layout follows the torchvision convention: a ``(2*G*kH*kW, H, W)``
tensor ordered ``(group, tap_row, tap_col, [dy, dx])``.

Like the accelerator's sparse datapath, the kernel spends no work on
zero weights: per offset group it bilinear-samples only the taps whose
weight slice ``weight[:, group, i, j]`` has a nonzero entry.  A skipped
tap only ever contributed ``0 * sample`` terms, and adding a zero term
does not change a sum of finite values, so for finite inputs the
output is bit-for-bit that of sampling and contracting every tap.  The
codec's DfConv weight (the identity centre tap) samples one tap of
nine.  Offsets of skipped taps are never read, so even non-finite ones
cannot reach the output.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .init import he_normal
from .layers import Module, Parameter, as_activation

__all__ = ["DeformConv2d", "deform_conv2d"]


def deform_conv2d(
    x: np.ndarray,
    offsets: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 1,
    groups: int = 1,
) -> np.ndarray:
    """Functional deformable convolution.

    Shapes: x (C_in, H, W); offsets (2*groups*kH*kW, H_out, W_out);
    weight (C_out, C_in, kH, kW).  Sampling clamps at borders (the
    hardware's gather unit does the same).
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    if c_in % groups:
        raise ValueError(f"{c_in} channels not divisible into {groups} groups")
    _, h, w = x.shape
    ho = F.conv_output_size(h, kh, stride, padding)
    wo = F.conv_output_size(w, kw, stride, padding)
    expected = (2 * groups * kh * kw, ho, wo)
    if offsets.shape != expected:
        raise ValueError(f"offsets shape {offsets.shape}, expected {expected}")

    off = offsets.reshape(groups, kh, kw, 2, ho, wo)
    # Integer grid positions in the offsets' dtype (exact for any
    # feature map size), so float32 offsets keep float32 coordinates.
    grid_dtype = np.result_type(offsets, 1.0)
    base_y = (np.arange(ho) * stride - padding).astype(grid_dtype)[:, None]
    base_x = (np.arange(wo) * stride - padding).astype(grid_dtype)[None, :]
    group_size = c_in // groups

    out = np.zeros((c_out, ho, wo), dtype=np.result_type(x, offsets, weight))
    for g in range(groups):
        x_group = x[g * group_size : (g + 1) * group_size]
        w_group = weight[:, g * group_size : (g + 1) * group_size]
        nonzero = w_group != 0
        tap_i, tap_j = np.nonzero(nonzero.any(axis=(0, 1)))
        if not tap_i.size:
            continue
        # Gather only the live taps, in one batched bilinear lookup
        # (coordinates shaped (taps, ho, wo)).
        taps_y = tap_i.astype(grid_dtype)[:, None, None]
        taps_x = tap_j.astype(grid_dtype)[:, None, None]
        ys = base_y + taps_y + off[g, tap_i, tap_j, 0]
        xs = base_x + taps_x + off[g, tap_i, tap_j, 1]
        sampled = F.bilinear_sample(x_group, ys, xs)
        if nonzero.sum(axis=(1, 2, 3)).max() == 1:
            # Each output row is a single product w * s: exact in any
            # order.  This is the codec's case.
            rows, chans, ri, rj = np.nonzero(nonzero)
            slot = np.empty((kh, kw), dtype=int)
            slot[tap_i, tap_j] = np.arange(tap_i.size)
            weights = w_group[rows, chans, ri, rj][:, None, None]
            out[rows] += weights * sampled[chans, slot[ri, rj]]
        else:
            # Zero-fill the skipped taps and contract every tap, in the
            # channel-innermost layout a (C, H*W)[:, index] gather
            # returns, so einsum sums in the order it always has.
            full = np.zeros(
                (kh, kw, ho, wo, group_size), dtype=sampled.dtype
            ).transpose(4, 0, 1, 2, 3)
            full[:, tap_i, tap_j] = sampled
            out += np.einsum("ocij,cijhw->ohw", w_group, full)
    if bias is not None:
        out += bias[:, None, None]
    return out


class DeformConv2d(Module):
    """Deformable conv layer; offsets are a second forward argument."""

    op_kind = "dfconv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 2,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if padding is None:
            padding = kernel_size // 2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(
                rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.activation_quant = None

    def offset_channels(self) -> int:
        """Number of offset channels this layer consumes."""
        return 2 * self.groups * self.kernel_size * self.kernel_size

    def forward(self, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        out = deform_conv2d(
            x,
            offsets,
            as_activation(self.weight, x),
            as_activation(self.bias, x),
            self.stride,
            self.padding,
            self.groups,
        )
        if self.activation_quant is not None:
            out = self.activation_quant.fake_quant(out)
        return out
