"""Deterministic weight initializers, including structured (DCT) bases.

Training is out of scope (DESIGN.md §2): the codec must *work* without
it.  The key enabler is initializing the compression auto-encoders'
analysis/synthesis convolutions with orthonormal, DCT-derived bases so
that analysis followed by synthesis is (near-)perfect reconstruction —
the same construction that makes JPEG a codec without any learning.
Random initializers (seeded, reproducible) cover every other layer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "he_normal",
    "xavier_uniform",
    "dct_matrix",
    "dct2_kernel_bank",
    "orthonormal_analysis_weight",
    "identity_conv_weight",
]


def he_normal(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int | None = None
) -> np.ndarray:
    """He/Kaiming normal init for ReLU networks."""
    if fan_in is None:
        fan_in = int(np.prod(shape[1:]))
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot uniform init."""
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0] * int(np.prod(shape[2:])) if len(shape) > 1 else shape[0]
    limit = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-limit, limit, size=shape)


def dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix of size n x n (rows are basis)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


def dct2_kernel_bank(size: int, order: str = "zigzag") -> np.ndarray:
    """All 2-D DCT basis kernels, shape (size*size, size, size).

    Kernel index 0 is the DC kernel.  ``order`` controls the sequence:
    "raster" follows (b*size + a); "zigzag" sorts by total frequency
    b + a (the JPEG convention) so truncated banks keep the lowest
    frequencies — what the structured-initialization codec relies on
    for energy compaction.  The bank is orthonormal either way:
    ``<K_i, K_j> = delta_ij``.
    """
    basis = dct_matrix(size)
    bank = np.einsum("bi,aj->baij", basis, basis).reshape(size * size, size, size)
    if order == "raster":
        return bank
    if order == "zigzag":
        keys = sorted(
            range(size * size),
            key=lambda idx: (idx // size + idx % size, idx // size, idx % size),
        )
        return bank[keys]
    raise ValueError(f"unknown order {order!r}")


def orthonormal_analysis_weight(
    out_channels: int, in_channels: int, kernel: int, stride: int
) -> np.ndarray:
    """Conv weight implementing a (sub-sampled) block-DCT analysis.

    With ``stride == kernel`` and ``out_channels == in_channels *
    kernel**2`` this is an exactly invertible transform.  The codec uses
    stride < kernel (overlapping analysis), which remains a tight frame
    in the interior, so synthesis still reconstructs well.  Output
    channel o analyzes input channel ``o % in_channels`` with DCT kernel
    ``(o // in_channels) % kernel**2``; channel counts that do not cover
    every basis simply keep the lowest-frequency kernels, a reasonable
    energy-compaction prior.
    """
    bank = dct2_kernel_bank(kernel)
    weight = np.zeros((out_channels, in_channels, kernel, kernel))
    for o in range(out_channels):
        cin = o % in_channels
        basis_index = (o // in_channels) % (kernel * kernel)
        weight[o, cin] = bank[basis_index]
    # Normalize for the stride-induced frame redundancy so that a
    # round-trip through analysis+synthesis preserves magnitude.
    redundancy = (kernel / stride) ** 2
    return weight / np.sqrt(redundancy)


def identity_conv_weight(channels: int, kernel: int) -> np.ndarray:
    """Conv weight that passes each channel through unchanged."""
    weight = np.zeros((channels, channels, kernel, kernel))
    center = kernel // 2
    for c in range(channels):
        weight[c, c, center, center] = 1.0
    return weight
