"""United sparse fast convolution / deconvolution execution (Eq. 9).

Full-feature-map kernels built on :class:`~repro.core.transforms.
TransformSpec`: inputs are tiled, mapped to the transform domain
(``B^T X B`` — the PreU array's job), multiplied element-wise against
(optionally masked) transform-domain weights and reduced over input
channels (the SCU array), and mapped back (``A^T U A`` — the PostU
array).  The same code path therefore executes

* dense fast conv/deconv (``mask=None``),
* sparse fast conv/deconv (masked weights from
  :mod:`repro.core.pruning`),

and doubles as the functional reference for the hardware model's
operation counts.  ``SparseExecutor`` adapts these kernels to the
``compute_backend`` hook on :class:`repro.nn.layers.Conv2d` /
``ConvTranspose2d`` so any network can be switched to sparse fast
execution without touching its definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import as_activation

from .pruning import PrunedKernel
from .transforms import PAPER_F23, PAPER_T3_64, TransformSpec

__all__ = [
    "extract_tiles",
    "fast_conv2d",
    "fast_deconv2d",
    "SparseExecutor",
    "spec_for_layer",
    "multiplications",
]


def extract_tiles(x: np.ndarray, p: int, step: int, tiles_y: int, tiles_x: int):
    """View (C, H, W) as (C, Ty, Tx, p, p) tiles advancing by ``step``.

    The input must already be padded so every tile is in bounds.
    """
    c = x.shape[0]
    sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(c, tiles_y, tiles_x, p, p),
        strides=(sc, sh * step, sw * step, sh, sw),
        writeable=False,
    )


def _assemble_tiles(tiles: np.ndarray) -> np.ndarray:
    """(C, Ty, Tx, m, m) non-overlapping output tiles -> (C, Ty*m, Tx*m)."""
    c, ty, tx, m, _ = tiles.shape
    return tiles.transpose(0, 1, 3, 2, 4).reshape(c, ty * m, tx * m)


def _hadamard_reduce(e: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """SCU-array computation: U[o, t] = sum_i E[o, i] ⊙ X~[i, t].

    e: (OC, IC, mu, mu); xt: (IC, Ty, Tx, mu, mu) -> (OC, Ty, Tx, mu, mu).
    """
    oc, ic, mu, _ = e.shape
    flat_x = xt.reshape(ic, -1, mu * mu)
    flat_e = e.reshape(oc, ic, mu * mu)
    out = np.einsum("oik,itk->otk", flat_e, flat_x)
    return out.reshape(oc, *xt.shape[1:3], mu, mu)


def fast_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    spec: TransformSpec = PAPER_F23,
    padding: int = 1,
    transform_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Winograd convolution of a full feature map (stride 1).

    ``transform_weights`` — pre-computed (and possibly pruned)
    ``M ⊙ G W G^T`` of shape (OC, IC, mu, mu); when omitted it is
    derived densely from ``weight``.
    """
    if spec.kind != "conv":
        raise ValueError("fast_conv2d needs a conv TransformSpec")
    oc, ic, kh, kw = weight.shape
    if (kh, kw) != (spec.k, spec.k):
        raise ValueError(f"kernel {kh}x{kw} does not match spec k={spec.k}")
    if x.shape[0] != ic:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {ic}")
    _, h, w = x.shape
    ho = h + 2 * padding - spec.k + 1
    wo = w + 2 * padding - spec.k + 1
    tiles_y = -(-ho // spec.m)
    tiles_x = -(-wo // spec.m)
    need_h = (tiles_y - 1) * spec.m + spec.p
    need_w = (tiles_x - 1) * spec.m + spec.p
    padded = np.pad(
        x,
        (
            (0, 0),
            (padding, need_h - h - padding),
            (padding, need_w - w - padding),
        ),
    )
    e = (
        transform_weights
        if transform_weights is not None
        else spec.transform_kernel_2d(weight)
    )
    spec = spec.astype(np.result_type(x, e))
    xt = spec.transform_input_2d(
        extract_tiles(padded, spec.p, spec.m, tiles_y, tiles_x)
    )
    u = _hadamard_reduce(e, xt)
    out_tiles = spec.inverse_transform_2d(u)
    out = _assemble_tiles(out_tiles)[:, :ho, :wo]
    if bias is not None:
        out = out + bias[:, None, None]
    return out


def fast_deconv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    spec: TransformSpec = PAPER_T3_64,
    padding: int = 1,
    transform_weights: np.ndarray | None = None,
) -> np.ndarray:
    """FTA transposed convolution of a full feature map.

    Matches ``nn.functional.conv_transpose2d(x, weight, stride=spec.
    stride, padding=padding)``.  Tiles cover the *full* (uncropped)
    operator output starting at ``spec.output_offset``; zero-padding the
    input on the left by ``ceil((k-1)/s)`` samples slides coverage over
    the output's leading border, and the requested ``padding`` is
    cropped at the end.
    """
    if spec.kind != "deconv":
        raise ValueError("fast_deconv2d needs a deconv TransformSpec")
    oc, ic, kh, kw = weight.shape
    if (kh, kw) != (spec.k, spec.k):
        raise ValueError(f"kernel {kh}x{kw} does not match spec k={spec.k}")
    if x.shape[0] != ic:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {ic}")
    _, h, w = x.shape
    s, k, m, r = spec.stride, spec.k, spec.m, spec.input_step
    full_h = (h - 1) * s + k
    full_w = (w - 1) * s + k
    # Left zero-pad so tile coverage starts at or before full index 0.
    left = -(-(k - 1) // s)
    start = left * s - (k - 1)  # position of full index 0 in tile coverage
    tiles_y = -(-(full_h + start) // m)
    tiles_x = -(-(full_w + start) // m)
    need_h = (tiles_y - 1) * r + spec.p
    need_w = (tiles_x - 1) * r + spec.p
    padded = np.pad(
        x,
        (
            (0, 0),
            (left, max(0, need_h - h - left)),
            (left, max(0, need_w - w - left)),
        ),
    )
    e = (
        transform_weights
        if transform_weights is not None
        else spec.transform_kernel_2d(weight)
    )
    spec = spec.astype(np.result_type(x, e))
    xt = spec.transform_input_2d(
        extract_tiles(padded, spec.p, r, tiles_y, tiles_x)
    )
    u = _hadamard_reduce(e, xt)
    out_tiles = spec.inverse_transform_2d(u)
    covered = _assemble_tiles(out_tiles)
    out = covered[
        :,
        start + padding : start + full_h - padding,
        start + padding : start + full_w - padding,
    ]
    if bias is not None:
        out = out + bias[:, None, None]
    return out


def spec_for_layer(layer) -> TransformSpec | None:
    """The paper's TransformSpec for a supported nn layer, else None.

    F(2x2, 3x3) accelerates stride-1 3x3 convolutions; T3(6x6, 4x4)
    accelerates stride-2 4x4 deconvolutions — exactly the two shapes the
    SFTC supports (Section IV-B).
    """
    kind = getattr(layer, "op_kind", None)
    if kind == "conv" and layer.kernel_size == 3 and layer.stride == 1:
        return PAPER_F23
    if kind == "deconv" and layer.kernel_size == 4 and layer.stride == 2:
        return PAPER_T3_64
    return None


@dataclass
class SparseExecutor:
    """``compute_backend`` adapter running a layer via Eq. (9)."""

    pruned: PrunedKernel

    def __call__(self, layer, x: np.ndarray) -> np.ndarray:
        kernel = fast_conv2d if self.pruned.spec.kind == "conv" else fast_deconv2d
        # Weights in the activation's dtype, as the dense layers run.
        return kernel(
            x,
            as_activation(layer.weight, x),
            as_activation(layer.bias, x),
            spec=self.pruned.spec,
            padding=layer.padding,
            transform_weights=as_activation(self.pruned.values, x),
        )


def multiplications(
    spec: TransformSpec,
    out_channels: int,
    in_channels: int,
    out_h: int,
    out_w: int,
    density: float = 1.0,
) -> dict[str, float]:
    """Multiplication counts for one layer at a given output size.

    Returns direct, fast (dense transform-domain), and sparse counts —
    the quantities behind the paper's complexity-reduction claims.
    """
    tiles = (-(-out_h // spec.m)) * (-(-out_w // spec.m))
    per_tile = spec.multiplications_per_tile
    fast = tiles * per_tile * out_channels * in_channels
    direct = tiles * spec.direct_multiplications_per_tile() * out_channels * in_channels
    return {
        "direct": float(direct),
        "fast": float(fast),
        "sparse": float(fast * density),
    }
