"""CTVC-Net pipeline modules (Fig. 2 of the paper).

Five modules assemble the feature-space NVC framework of Fig. 1:
feature extraction, frame reconstruction, motion estimation, deformable
compensation, and the motion/residual compression auto-encoder (shared
topology, Fig. 2(e)) with Swin-AM attention.

Structured initialization (DESIGN.md §2)
----------------------------------------
Training is out of scope, so modules initialize to *functional*
operating points instead of random ones:

* analysis/synthesis transforms start as orthonormal DCT banks, making
  each auto-encoder a real (lossy, low-pass) transform codec; boundary
  windows use reflect padding so the tight-frame property holds right
  up to the edges;
* ResBlocks and Swin-AMs start near identity;
* the deformable path starts as exact bilinear warping driven by the
  decoded motion field;
* motion estimation provides a classical block-matching core whose
  result is embedded in the first two channels of the N-channel motion
  feature O_t — the conv stack of Fig. 2(c) is retained for the
  paper-topology mode and for workload accounting.

One documented topology substitution: in structured mode feature
extraction uses a DCT-initialized Conv(N, 4, 2) in place of
Conv(N, 3, 1) + MaxPool (information-destroying without training); the
hardware layer graph (repro.codec.layergraph) always uses the paper's
literal Fig. 2 topology.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn import (
    Conv2d,
    ConvTranspose2d,
    DeformConv2d,
    MaxPool2d,
    Module,
    ModuleList,
    ResBlock,
)
from repro.nn import functional as F
from repro.nn.init import identity_conv_weight, orthonormal_analysis_weight

from .swin_am import SwinAM

__all__ = [
    "FeatureExtraction",
    "FrameReconstruction",
    "MotionEstimation",
    "DeformableCompensation",
    "CompressionAE",
    "block_match",
    "dense_motion_field",
]

#: residual-branch scaling used by codec ResBlocks (near-identity init).
_CODEC_RES_SCALE = 0.02
#: Element budget of block_match's difference buffer.
_MATCH_BUFFER = 1 << 17


def _reflect_pad(x: np.ndarray, amount: int) -> np.ndarray:
    """Reflect-pad the spatial axes of a (C, H, W) tensor.

    Hand-rolled slice assignment (identical values to
    ``np.pad(mode="reflect")``, which pads axes sequentially): this
    runs in front of every strided conv/deconv in the codec, where
    np.pad's generic machinery dominates the actual copy.
    """
    if amount == 0:
        return x
    c, h, w = x.shape
    out = np.empty((c, h + 2 * amount, w + 2 * amount), dtype=x.dtype)
    out[:, amount : amount + h, amount : amount + w] = x
    for k in range(1, amount + 1):
        out[:, amount - k, amount : amount + w] = x[:, k]
        out[:, amount + h - 1 + k, amount : amount + w] = x[:, h - 1 - k]
    for k in range(1, amount + 1):
        out[:, :, amount - k] = out[:, :, amount + k]
        out[:, :, amount + w - 1 + k] = out[:, :, amount + w - 1 - k]
    return out


def _synthesis_weight_from_analysis(analysis: np.ndarray) -> np.ndarray:
    """Adjoint weights for ConvTranspose2d from an analysis bank."""
    return np.transpose(analysis, (1, 0, 2, 3))


class FeatureExtraction(Module):
    """Fig. 2(a): pixels (3, H, W) -> features (N, H/2, W/2).

    Structured mode: a DCT-frame Conv(N, 4, 2) over a reflect-padded
    frame (tight up to boundaries) followed by near-identity ResBlocks.
    Paper mode: Conv(N, 3, 1) + MaxPool(2), the literal topology.
    """

    def __init__(
        self,
        channels: int = 36,
        mode: str = "structured",
        num_resblocks: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.mode = mode
        if mode == "structured":
            self.head = Conv2d(3, channels, 4, stride=2, padding=0, rng=rng)
            self.head.weight.data = orthonormal_analysis_weight(channels, 3, 4, 2)
            self.head.bias.data[:] = 0.0
            self.pool = None
        elif mode == "paper":
            self.head = Conv2d(3, channels, 3, stride=1, rng=rng)
            self.pool = MaxPool2d(2)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.blocks = ModuleList(
            [
                ResBlock(channels, 3, rng=rng, residual_scale=_CODEC_RES_SCALE)
                for _ in range(num_resblocks)
            ]
        )

    def forward(self, frame: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Features of a pixel frame, computed in ``dtype`` (the
        substrate's; the nets run in the dtype of their input)."""
        # Level shift (the JPEG convention): remove the 128 pedestal so
        # feature magnitudes track texture rather than absolute level,
        # keeping the near-identity blocks' perturbation proportionate.
        shifted = (frame - 128.0).astype(dtype, copy=False)
        if self.mode == "structured":
            x = self.head(_reflect_pad(shifted, 1))
        else:
            x = self.pool(self.head(shifted))
        for block in self.blocks:
            x = block(x)
        return x


class FrameReconstruction(Module):
    """Fig. 2(b): features (N, H/2, W/2) -> pixels (3, H, W).

    The DeConv(3, 4, 2) is the adjoint of feature extraction's DCT
    analysis; reflect padding + crop keeps unit gain at the borders.
    """

    def __init__(
        self,
        channels: int = 36,
        num_resblocks: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.blocks = ModuleList(
            [
                ResBlock(channels, 3, rng=rng, residual_scale=_CODEC_RES_SCALE)
                for _ in range(num_resblocks)
            ]
        )
        self.up = ConvTranspose2d(channels, 3, 4, stride=2, padding=0, rng=rng)
        self.up.weight.data = _synthesis_weight_from_analysis(
            orthonormal_analysis_weight(channels, 3, 4, 2)
        )
        self.up.bias.data[:] = 0.0

    def forward(self, features: np.ndarray) -> np.ndarray:
        x = features
        for block in self.blocks:
            x = block(x)
        full = self.up(_reflect_pad(x, 1))
        h = 2 * features.shape[1]
        w = 2 * features.shape[2]
        # Undo the level shift applied by FeatureExtraction.
        return full[:, 3 : 3 + h, 3 : 3 + w] + 128.0


def validate_motion_fields(
    block_size: int, search_range: int, min_block_size: int
) -> None:
    """Check a codec config's motion fields at construction.

    ``search_range`` must be an int >= 0 and ``block_size`` an int >=
    ``min_block_size``; anything else would crash deep inside encode.
    """
    for name, value, least in (
        ("block_size", block_size, min_block_size),
        ("search_range", search_range, 0),
    ):
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, np.integer))
            or value < least
        ):
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis in the order of NumPy's ``pairwise_sum``.

    Fewer than 8 terms add in order; 8 to 128 terms run eight strided
    accumulators, fold them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    add the remainder in order; longer runs split at a multiple of 8.
    May return a view of ``terms`` (one term): never write into it.
    """
    n = terms.shape[-1]
    if n < 8:
        total = terms[..., 0]
        for k in range(1, n):
            total = total + terms[..., k]
        return total
    if n <= 128:
        full = n - n % 8
        acc = terms[..., :8]
        for k in range(8, full, 8):
            acc = acc + terms[..., k : k + 8]
        pairs = acc[..., 0::2] + acc[..., 1::2]
        total = pairs[..., 0::2] + pairs[..., 1::2]
        total = total[..., 0] + total[..., 1]
        for k in range(full, n):
            total += terms[..., k]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[..., :half]) + _pairwise_sum(terms[..., half:])


def block_sums(values: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block sums over the trailing (nby*bs, nbx*bs) axes.

    Returns (..., nby, nbx), bit-equal to NumPy's
    ``values.reshape(nby, bs, nbx, bs).sum(axis=(1, 3))`` of each
    C-contiguous plane.  NumPy sums a block row by row, in order, each
    row a pairwise sum over its ``bs`` columns — except when the plane
    is one block wide: then each block is one contiguous run of
    ``bs * bs`` values, summed pairwise as a whole.  Only float32 and
    float64 are emulated; other dtypes go to NumPy's own reduction.
    """
    *lead, h, w = values.shape
    bs = block_size
    nby, nbx = h // bs, w // bs
    if values.dtype not in (np.float32, np.float64):
        return values.reshape(*lead, nby, bs, nbx, bs).sum(axis=(-3, -1))
    # Every sum starts from NumPy's +0.0 identity (only the sign of a
    # zero total could tell).
    if nbx == 1:
        run = _pairwise_sum(values.reshape(*lead, nby, bs * bs))
        return (run + 0.0)[..., None]
    rows = _pairwise_sum(values.reshape(*lead, nby, bs, nbx, bs))
    total = rows[..., 0, :] + 0.0
    for k in range(1, bs):
        total += rows[..., k, :]
    return total


def block_match(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 4,
) -> np.ndarray:
    """Exhaustive block-matching motion estimation on one plane.

    Returns integer motion vectors (2, nby, nbx) such that
    ``current[block] ~= reference[block + mv]`` (mv = (dy, dx)).
    Planes are cropped to whole blocks; borders clamp; planes holding
    NaN or inf raise ``ValueError``.

    Contract, for every finite input:

    * a block's SAD is ``|current - reference|`` summed in NumPy's
      order for ``reshape(nby, bs, nbx, bs).sum(axis=(1, 3))`` — see
      :func:`block_sums`;
    * its cost is ``sad + 0.01 * (abs(dy) + abs(dx)) * block_size``,
      a slight zero-motion bias that stabilizes flat regions;
    * the winner is the first least cost in (dy, dx) scan order, dy
      outer, both from ``-search_range`` up; a block whose costs all
      overflow to inf keeps (0, 0).

    The search runs one block row at a time (narrow planes take a few
    together, up to a fixed buffer budget) and covers every dx of one
    dy in a single strided view, so working memory is
    O((2r+1) * block_size * width + (2r+1)**2 * nbx) whatever the
    frame height.
    """
    h, w = current.shape
    bs, r = block_size, search_range
    nby, nbx = h // bs, w // bs
    if nby == 0 or nbx == 0:
        raise ValueError(f"plane {h}x{w} smaller than block size {bs}")
    span = 2 * r + 1
    hc, wc = nby * bs, nbx * bs
    # The strided windows below read the padded reference unchecked.
    if reference.ndim != 2 or reference.shape[0] < hc or reference.shape[1] < wc:
        raise ValueError(
            f"reference {reference.shape} does not cover the {h}x{w} plane"
        )
    if not (np.isfinite(current).all() and np.isfinite(reference).all()):
        raise ValueError("block_match needs finite planes (found NaN or inf)")
    padded_ref = np.pad(reference, r, mode="edge")
    step_y, step_x = padded_ref.strides
    # Narrow planes search several block rows per pass; the buffers
    # stay within a fixed budget whatever the frame height.
    band = max(1, min(nby, _MATCH_BUFFER // (span * bs * wc)))
    dtype = np.result_type(current, padded_ref)
    diff_buffer = np.empty((span, band * bs, wc), dtype)
    # ``sad + bias`` keeps the dtype a NumPy sum plus a Python float has.
    cost_dtype = np.result_type(diff_buffer[:0].sum(), 0.01)
    bias = np.array(
        [[0.01 * (abs(dy) + abs(dx)) * bs for dx in range(-r, r + 1)]
         for dy in range(-r, r + 1)],
        dtype=cost_dtype,
    )[:, :, None, None]
    cost_buffer = np.empty((span, span, band, nbx), cost_dtype)
    best_mv = np.empty((2, nby, nbx), dtype=np.int64)
    for first in range(0, nby, band):
        rows = min(band, nby - first)
        top, bottom = first * bs, (first + rows) * bs
        cur_band = current[top:bottom, :wc]
        diff = diff_buffer[:, : bottom - top]
        costs = cost_buffer[:, :, :rows]
        # windows[i, j] is the reference band at dy = i - r shifted by
        # dx = j - r.  Copying a window into the buffer and subtracting
        # in place runs about twice as fast as subtracting from the view.
        windows = as_strided(
            padded_ref[top:],
            (span, span, bottom - top, wc),
            (step_y, step_x, step_y, step_x),
            writeable=False,
        )
        for i in range(span):
            diff[...] = windows[i]
            np.subtract(cur_band, diff, out=diff)
            np.abs(diff, out=diff)
            np.add(block_sums(diff, bs), bias[i], out=costs[i])
        flat = costs.reshape(span * span, rows * nbx)
        best = flat.argmin(axis=0)
        best[np.isinf(flat[best, np.arange(rows * nbx)])] = r * span + r
        dy, dx = np.divmod(best, span)
        best_mv[0, first : first + rows] = (dy - r).reshape(rows, nbx)
        best_mv[1, first : first + rows] = (dx - r).reshape(rows, nbx)
    return best_mv


def dense_motion_field(
    motion: np.ndarray, height: int, width: int, block_size: int = 8
) -> np.ndarray:
    """Expand per-block motion (2, nby, nbx) to a dense (2, H, W) field."""
    dense = np.repeat(np.repeat(motion, block_size, axis=1), block_size, axis=2)
    out = np.zeros((2, height, width))
    h = min(height, dense.shape[1])
    w = min(width, dense.shape[2])
    out[:, :h, :w] = dense[:, :h, :w]
    if h < height:
        out[:, h:, :] = out[:, h - 1 : h, :]
    if w < width:
        out[:, :, w:] = out[:, :, w - 1 : w]
    return out


class MotionEstimation(Module):
    """Fig. 2(c): (F_t, F_{t-1}) -> motion feature O_t (N, H/2, W/2).

    ``forward`` runs the paper's conv stack; ``estimate`` runs the
    structured path — block matching on half-resolution luma, with the
    resulting (dy, dx) field embedded in channels 0 and 1 of O_t.
    """

    def __init__(
        self,
        channels: int = 36,
        block_size: int = 8,
        search_range: int = 4,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.block_size = block_size
        self.search_range = search_range
        self.conv_in = Conv2d(2 * channels, 2 * channels, 3, rng=rng)
        self.conv_mid = Conv2d(2 * channels, channels, 3, rng=rng)
        self.conv_out = Conv2d(channels, channels, 3, rng=rng)

    def forward(self, f_cur: np.ndarray, f_ref: np.ndarray) -> np.ndarray:
        x = np.concatenate([f_cur, f_ref], axis=0)
        x = F.relu(self.conv_in(x))
        x = F.relu(self.conv_mid(x))
        return self.conv_out(x)

    def estimate(
        self, cur_luma_half: np.ndarray, ref_luma_half: np.ndarray, dtype=np.float64
    ):
        """Structured motion: block matching -> N-channel motion feature.

        Matching runs on the luma planes as given; the motion feature
        (integer vectors, exact in any float dtype) is built in
        ``dtype`` for the nets downstream."""
        mv = block_match(
            cur_luma_half, ref_luma_half, self.block_size, self.search_range
        )
        h, w = cur_luma_half.shape
        dense = dense_motion_field(mv, h, w, self.block_size)
        motion_feature = np.zeros((self.channels, h, w), dtype=dtype)
        motion_feature[:2] = dense
        return motion_feature, mv


class DeformableCompensation(Module):
    """Fig. 2(d): warp F_{t-1} with decoded motion into the prediction.

    The offset head (Conv(N, 3, 1) — with G = 2 groups and a 3x3 kernel
    its 2*G*3*3 = 36 offset channels coincide with N = 36) turns the
    motion feature into per-tap DfConv offsets; structured init selects
    channels 0/1 (the embedded dy/dx) for every tap of every group, and
    the DfConv weight starts as the identity center tap — together:
    exact bilinear warping.  Two refinement convolutions sit on a
    residual connection (the "+" paths of Fig. 2(d)) so they start
    transparent.
    """

    def __init__(
        self,
        channels: int = 36,
        groups: int = 2,
        refine_scale: float = _CODEC_RES_SCALE,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.groups = groups
        self.refine_scale = refine_scale
        kernel = 3
        n_offsets = 2 * groups * kernel * kernel
        self.offset_conv = Conv2d(channels, n_offsets, 3, rng=rng)
        self.offset_conv.weight.data[:] = 0.0
        self.offset_conv.bias.data[:] = 0.0
        center = kernel // 2
        for index in range(n_offsets):
            # Offset layout (group, tap_row, tap_col, [dy, dx]):
            # dy reads motion channel 0, dx channel 1.
            self.offset_conv.weight.data[index, index % 2, center, center] = 1.0
        self.dfconv = DeformConv2d(channels, channels, 3, groups=groups, rng=rng)
        self.dfconv.weight.data = identity_conv_weight(channels, 3)
        self.dfconv.bias.data[:] = 0.0
        self.refine1 = Conv2d(channels, channels, 3, rng=rng)
        self.refine2 = Conv2d(channels, channels, 3, rng=rng)

    def forward(self, motion_feature: np.ndarray, f_ref: np.ndarray) -> np.ndarray:
        offsets = self.offset_conv(motion_feature)
        warped = self.dfconv(f_ref, offsets)
        refined = self.refine2(F.relu(self.refine1(warped)))
        return warped + self.refine_scale * refined


class CompressionAE(Module):
    """Fig. 2(e): the motion/residual compression auto-encoder.

    Analysis: three stride-2 convolutions interleaved with ResBlocks and
    two Swin-AMs (shifts 0 and R-1), then a latent head to N channels at
    1/16 frame resolution (1/8 of the feature grid).  Synthesis: three
    (ResBlock, DeConv(N, 4, 2)) stages back to the feature grid.  All
    strided stages run over reflect-padded inputs so the DCT frames
    stay tight at boundaries; ``calibrate`` folds per-channel round-trip
    gains into the last deconvolution.
    """

    def __init__(
        self,
        channels: int = 36,
        window: int = 3,
        heads: int = 4,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        n, c2 = channels, 2 * channels
        self.channels = channels

        self.ana_conv1 = Conv2d(n, c2, 3, stride=2, padding=0, rng=rng)
        self.ana_blocks = ModuleList(
            [
                ResBlock(c2, 3, rng=rng, residual_scale=_CODEC_RES_SCALE)
                for _ in range(3)
            ]
        )
        self.ana_conv2 = Conv2d(c2, c2, 3, stride=2, padding=0, rng=rng)
        self.ana_attn1 = SwinAM(c2, window=window, shift=0, heads=heads, rng=rng)
        self.ana_conv3 = Conv2d(c2, c2, 3, stride=2, padding=0, rng=rng)
        self.ana_attn2 = SwinAM(
            c2, window=window, shift=window - 1, heads=heads, rng=rng
        )
        self.latent_head = Conv2d(c2, n, 3, stride=1, rng=rng)

        self.syn_blocks = ModuleList(
            [
                ResBlock(n, 3, rng=rng, residual_scale=_CODEC_RES_SCALE)
                for _ in range(3)
            ]
        )
        self.syn_deconvs = ModuleList(
            [ConvTranspose2d(n, n, 4, stride=2, padding=0, rng=rng) for _ in range(3)]
        )

        # -- structured initialization --------------------------------
        for conv, cin in (
            (self.ana_conv1, n),
            (self.ana_conv2, c2),
            (self.ana_conv3, c2),
        ):
            conv.weight.data = orthonormal_analysis_weight(conv.out_channels, cin, 3, 2)
            conv.bias.data[:] = 0.0
        self.latent_head.weight.data[:] = 0.0
        self.latent_head.bias.data[:] = 0.0
        for out_ch in range(n):
            self.latent_head.weight.data[out_ch, out_ch, 1, 1] = 1.0
        for deconv in self.syn_deconvs:
            deconv.weight.data = _synthesis_weight_from_analysis(
                orthonormal_analysis_weight(n, n, 4, 2)
            )
            deconv.bias.data[:] = 0.0
        self._calibrated = False

    def _strided(self, conv: Conv2d, x: np.ndarray) -> np.ndarray:
        """Run a stride-2 k=3 conv over a reflect-padded input
        (geometry identical to padding=1 for even sizes)."""
        return conv(_reflect_pad(x, 1))

    def _upsample(self, deconv: ConvTranspose2d, x: np.ndarray) -> np.ndarray:
        full = deconv(_reflect_pad(x, 1))
        h, w = 2 * x.shape[1], 2 * x.shape[2]
        return full[:, 3 : 3 + h, 3 : 3 + w]

    def analyze(self, x: np.ndarray) -> np.ndarray:
        y = self._strided(self.ana_conv1, x)
        for block in self.ana_blocks:
            y = block(y)
        y = self._strided(self.ana_conv2, y)
        y = self.ana_attn1(y)
        y = self._strided(self.ana_conv3, y)
        y = self.ana_attn2(y)
        return self.latent_head(y)

    def synthesize(self, latent: np.ndarray) -> np.ndarray:
        x = latent
        for block, deconv in zip(self.syn_blocks, self.syn_deconvs):
            x = block(x)
            x = self._upsample(deconv, x)
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.synthesize(self.analyze(x))

    def calibrate(self, spatial: tuple[int, int] = (32, 48), seed: int = 99) -> None:
        """Scale the last synthesis stage for unit round-trip gain.

        A smooth random calibration field is passed through the AE and
        per-channel least-squares gains are folded into the final
        deconvolution — deterministic, data-independent initialization.
        """
        if self._calibrated:
            return
        rng = np.random.default_rng(seed)
        h, w = spatial
        coarse = rng.standard_normal((self.channels, max(2, h // 8), max(2, w // 8)))
        field = np.repeat(np.repeat(coarse, 8, axis=1), 8, axis=2)[:, :h, :w]
        recon = self.forward(field)
        gains = np.empty(self.channels)
        for c in range(self.channels):
            denom = float(np.sum(recon[c] * recon[c]))
            gains[c] = (
                float(np.sum(field[c] * recon[c])) / denom if denom > 1e-12 else 1.0
            )
        gains = np.clip(gains, 1e-3, 1e3)
        # Output channel o of the last deconv scales by gains[o].
        self.syn_deconvs[2].weight.data *= gains[:, None, None, None]
        self._calibrated = True
