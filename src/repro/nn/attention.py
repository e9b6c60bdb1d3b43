"""Shifted-window multi-head self-attention (SwinAtten).

Implements the attention primitive inside the paper's Swin-AM (Fig. 3):
``SwinAttn(C, R, Shf, P)`` — multi-head self-attention confined to
non-overlapping R x R windows, with an optional cyclic shift ``Shf``
that bridges features across window boundaries when consecutive
Swin-AMs alternate Shf = 0 and Shf = R - 1 (the paper uses R = 3 with
shifts 0 and 2).  A learned relative-position bias per head follows the
original Swin Transformer formulation.
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .init import xavier_uniform
from .layers import Module, Parameter, as_activation

__all__ = ["window_partition", "window_merge", "SwinAttention"]


def window_partition(x: np.ndarray, window: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Split (C, H, W) into (num_windows, window*window, C) tokens.

    H and W are zero-padded up to multiples of ``window``; the padded
    size is returned so :func:`window_merge` can crop back.
    """
    c, h, w = x.shape
    pad_h = (-h) % window
    pad_w = (-w) % window
    padded = np.pad(x, ((0, 0), (0, pad_h), (0, pad_w)))
    hp, wp = h + pad_h, w + pad_w
    tiles = padded.reshape(c, hp // window, window, wp // window, window)
    tiles = tiles.transpose(1, 3, 2, 4, 0)  # (nH, nW, R, R, C)
    tokens = tiles.reshape(-1, window * window, c)
    return tokens, (hp, wp)


def window_merge(
    tokens: np.ndarray, window: int, padded: tuple[int, int], out_hw: tuple[int, int]
) -> np.ndarray:
    """Inverse of :func:`window_partition`."""
    hp, wp = padded
    h, w = out_hw
    c = tokens.shape[-1]
    tiles = tokens.reshape(hp // window, wp // window, window, window, c)
    tiles = tiles.transpose(4, 0, 2, 1, 3)
    planes = tiles.reshape(c, hp, wp)
    return planes[:, :h, :w]


def _relative_index(window: int) -> np.ndarray:
    """Map each (query, key) token pair to a relative-position slot."""
    coords = np.stack(
        np.meshgrid(np.arange(window), np.arange(window), indexing="ij")
    ).reshape(2, -1)
    rel = coords[:, :, None] - coords[:, None, :]  # (2, T, T)
    rel = rel + (window - 1)
    return rel[0] * (2 * window - 1) + rel[1]


class SwinAttention(Module):
    """Window-based multi-head self-attention with optional cyclic shift.

    Parameters mirror the paper's ``SwinAttn(C, R, Shf, P)`` tuple:
    ``channels`` (2N in the compression auto-encoders), ``window`` R,
    ``shift`` Shf, and ``heads`` P.
    """

    op_kind = "attention"

    def __init__(
        self,
        channels: int,
        window: int = 3,
        shift: int = 0,
        heads: int = 4,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if channels % heads:
            raise ValueError(f"{channels} channels not divisible by {heads} heads")
        if not 0 <= shift < window:
            raise ValueError(f"shift {shift} must lie in [0, window)")
        self.channels = channels
        self.window = window
        self.shift = shift
        self.heads = heads
        self.head_dim = channels // heads
        rng = rng or np.random.default_rng(0)
        self.w_q = Parameter(xavier_uniform(rng, (channels, channels)))
        self.w_k = Parameter(xavier_uniform(rng, (channels, channels)))
        self.w_v = Parameter(xavier_uniform(rng, (channels, channels)))
        self.w_o = Parameter(xavier_uniform(rng, (channels, channels)))
        self.position_bias = Parameter(
            np.zeros((heads, (2 * window - 1) ** 2))
        )
        self._rel_index = _relative_index(window)
        self.activation_quant = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        shifted = (
            np.roll(x, (-self.shift, -self.shift), axis=(1, 2)) if self.shift else x
        )
        tokens, padded = window_partition(shifted, self.window)
        n_windows, t, _ = tokens.shape

        q = tokens @ as_activation(self.w_q, x).T
        k = tokens @ as_activation(self.w_k, x).T
        v = tokens @ as_activation(self.w_v, x).T
        # (nW, P, T, d)
        def split_heads(m: np.ndarray) -> np.ndarray:
            return m.reshape(n_windows, t, self.heads, self.head_dim).transpose(
                0, 2, 1, 3
            )

        qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
        # A Python float scales in the logits' dtype (a NumPy float64
        # scalar would promote float32 logits).
        scale = 1.0 / math.sqrt(self.head_dim)
        logits = np.einsum("wptd,wpsd->wpts", qh, kh) * scale
        bias = as_activation(self.position_bias, x)[:, self._rel_index]  # (P, T, T)
        logits = logits + bias[None]
        attn = F.softmax(logits, axis=-1)
        mixed = np.einsum("wpts,wpsd->wptd", attn, vh)
        merged = mixed.transpose(0, 2, 1, 3).reshape(n_windows, t, self.channels)
        out_tokens = merged @ as_activation(self.w_o, x).T
        out = window_merge(out_tokens, self.window, padded, (h, w))
        if self.shift:
            out = np.roll(out, (self.shift, self.shift), axis=(1, 2))
        if self.activation_quant is not None:
            out = self.activation_quant.fake_quant(out)
        return out

    def attention_macs(self, h: int, w: int) -> int:
        """Multiply count for one forward pass at spatial size (h, w),
        used by the hardware mapper for workload accounting."""
        hp = h + ((-h) % self.window)
        wp = w + ((-w) % self.window)
        tokens = hp * wp
        t = self.window * self.window
        proj = 4 * tokens * self.channels * self.channels
        attn = 2 * tokens * t * self.channels
        return int(proj + attn)
