"""Tests for deformable convolution."""

import numpy as np
import pytest

from repro.codec import CTVCConfig, CTVCNet, SequenceBitstream
from repro.codec.modules import DeformableCompensation
from repro.nn import DeformConv2d, deform, deform_conv2d, identity_conv_weight
from repro.nn import functional as F
from repro.video import SceneConfig, generate_sequence


@pytest.fixture
def rng():
    return np.random.default_rng(4)


class TestDeformConv2d:
    def test_zero_offsets_match_plain_conv(self, rng):
        """DfConv with all-zero offsets must equal the regular conv."""
        x = rng.standard_normal((4, 10, 10))
        w = rng.standard_normal((6, 4, 3, 3))
        b = rng.standard_normal(6)
        offsets = np.zeros((2 * 2 * 9, 10, 10))
        out = deform_conv2d(x, offsets, w, b, stride=1, padding=1, groups=2)
        ref = F.conv2d(x, w, b, 1, 1)
        # Border taps read clamped samples instead of zero padding, so
        # compare the interior only.
        assert np.abs(out[:, 1:-1, 1:-1] - ref[:, 1:-1, 1:-1]).max() < 1e-10

    def test_integer_shift_offsets(self, rng):
        """A uniform (0, +1) offset equals convolving a shifted input."""
        x = rng.standard_normal((2, 12, 12))
        w = rng.standard_normal((2, 2, 3, 3))
        offsets = np.zeros((2 * 1 * 9, 12, 12))
        offsets[1::2] = 1.0  # dx = +1 everywhere, single group
        out = deform_conv2d(x, offsets, w, None, 1, 1, groups=1)
        shifted = np.roll(x, -1, axis=2)
        ref = F.conv2d(shifted, w, None, 1, 1)
        assert np.abs(out[:, 2:-2, 2:-2] - ref[:, 2:-2, 2:-2]).max() < 1e-10

    def test_group_offsets_independent(self, rng):
        """Different offsets per group affect only that group's channels."""
        x = rng.standard_normal((4, 8, 8))
        w = np.zeros((4, 4, 3, 3))
        for c in range(4):
            w[c, c, 1, 1] = 1.0  # per-channel identity kernel
        offsets = np.zeros((2 * 2 * 9, 8, 8))
        offsets[18 + 1 :: 2][: 0] = 0  # no-op, clarity
        # Group 1 (channels 2, 3) shifted by dx=+2.
        offsets = offsets.reshape(2, 9, 2, 8, 8)
        offsets[1, :, 1, :, :] = 2.0
        offsets = offsets.reshape(-1, 8, 8)
        out = deform_conv2d(x, offsets, w, None, 1, 1, groups=2)
        assert np.abs(out[:2, 2:-2, 2:-2] - x[:2, 2:-2, 2:-2]).max() < 1e-10
        ref_shift = np.roll(x[2:], -2, axis=2)
        assert np.abs(out[2:, 2:-2, 2:-2] - ref_shift[:, 2:-2, 2:-2]).max() < 1e-10

    def test_offset_shape_validated(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((2, 2, 3, 3))
        with pytest.raises(ValueError):
            deform_conv2d(x, np.zeros((10, 8, 8)), w, None, 1, 1, groups=1)

    def test_channel_group_divisibility(self, rng):
        x = rng.standard_normal((3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        offsets = np.zeros((2 * 2 * 9, 8, 8))
        with pytest.raises(ValueError):
            deform_conv2d(x, offsets, w, None, 1, 1, groups=2)


class TestDeformConvLayer:
    def test_layer_forward(self, rng):
        layer = DeformConv2d(4, 6, 3, groups=2, rng=rng)
        x = rng.standard_normal((4, 9, 9))
        offsets = 0.3 * rng.standard_normal((layer.offset_channels(), 9, 9))
        out = layer(x, offsets)
        assert out.shape == (6, 9, 9)

    def test_offset_channels(self):
        layer = DeformConv2d(4, 4, 3, groups=2)
        assert layer.offset_channels() == 2 * 2 * 9

    def test_op_kind(self):
        assert DeformConv2d(2, 2).op_kind == "dfconv"

    def test_smooth_in_offsets(self, rng):
        """Small offset perturbations produce small output changes
        (bilinear sampling is continuous)."""
        layer = DeformConv2d(2, 2, 3, groups=1, rng=rng)
        x = rng.standard_normal((2, 8, 8))
        off = 0.2 * rng.standard_normal((18, 8, 8))
        a = layer(x, off)
        b = layer(x, off + 1e-5)
        assert np.abs(a - b).max() < 1e-3


# --- Frozen reference kernels ----------------------------------------------
# Verbatim copies of the dense kernels that gathered and contracted every
# tap.  The tap-skipping kernels must reproduce them bit for bit.


def _reference_bilinear_sample(x, ys, xs):
    c, h, w = x.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    # Gather through flat indices on a (C, H*W) view: one stride of
    # advanced indexing instead of four broadcasted 2-axis lookups.
    flat = np.ascontiguousarray(x).reshape(c, h * w)
    row0 = y0 * w
    row1 = y1 * w
    tl = flat[:, row0 + x0]
    tr = flat[:, row0 + x1]
    bl = flat[:, row1 + x0]
    br = flat[:, row1 + x1]
    return (
        tl * (1 - fy) * (1 - fx)
        + tr * (1 - fy) * fx
        + bl * fy * (1 - fx)
        + br * fy * fx
    )


def _reference_deform_conv2d(
    x, offsets, weight, bias=None, stride=1, padding=1, groups=1
):
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
    base_y = (np.arange(ho) * stride - padding)[:, None]
    base_x = (np.arange(wo) * stride - padding)[None, :]
    group_size = c_in // groups

    tap_y = np.arange(kh)[:, None, None, None]
    tap_x = np.arange(kw)[None, :, None, None]
    out = np.zeros((c_out, ho, wo))
    for g in range(groups):
        x_group = x[g * group_size : (g + 1) * group_size]
        w_group = weight[:, g * group_size : (g + 1) * group_size]
        # Gather all kh*kw displaced taps for this group in one
        # batched bilinear lookup (coordinates shaped (kh, kw, ho, wo)).
        ys = base_y[None, None] + tap_y + off[g, :, :, 0]
        xs = base_x[None, None] + tap_x + off[g, :, :, 1]
        sampled = _reference_bilinear_sample(x_group, ys, xs)
        out += np.einsum("ocij,cijhw->ohw", w_group, sampled)
    if bias is not None:
        out += bias[:, None, None]
    return out


def _weights(kind, n, groups, rng):
    """A (n, n, 3, 3) DfConv weight of the named sparsity pattern."""
    weight = rng.standard_normal((n, n, 3, 3))
    if kind == "dense":
        return weight
    if kind == "single_tap":
        mask = np.zeros((3, 3), dtype=bool)
        mask[tuple(rng.integers(0, 3, size=2))] = True
        return weight * mask
    if kind == "partial_taps":
        # a different random subset of taps per group, never empty
        group_size = n // groups
        for g in range(groups):
            mask = rng.random((3, 3)) < 0.4
            mask[tuple(rng.integers(0, 3, size=2))] = True
            weight[:, g * group_size : (g + 1) * group_size] *= mask
        return weight
    if kind == "element_sparse":
        return weight * (rng.random(weight.shape) < 0.15)
    if kind == "zero_group":
        weight[:, : n // groups] = 0.0
        return weight
    if kind == "scaled_identity":
        return 0.75 * identity_conv_weight(n, 3)
    if kind == "one_per_row":
        # at most one nonzero per output row, at a random channel and tap
        sparse = np.zeros_like(weight)
        for row in range(n):
            if rng.random() < 0.8:
                c, i, j = rng.integers(0, n), *rng.integers(0, 3, size=2)
                sparse[row, c, i, j] = weight[row, c, i, j]
        return sparse
    raise AssertionError(kind)


WEIGHT_KINDS = (
    "dense",
    "single_tap",
    "partial_taps",
    "element_sparse",
    "zero_group",
    "scaled_identity",
    "one_per_row",
)


class TestTapSkippingExactness:
    """The tap-skipping kernel against the frozen dense reference."""

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("n", [8, 12, 36])
    def test_byte_identical_to_dense_kernel(self, kind, groups, n):
        rng = np.random.default_rng([n, groups, WEIGHT_KINDS.index(kind)])
        h, w = 7, 11
        x = rng.standard_normal((n, h, w))
        offsets = 1.5 * rng.standard_normal((2 * groups * 9, h, w))
        weight = _weights(kind, n, groups, rng)
        bias = rng.standard_normal(n)
        for b in (None, bias):
            got = deform_conv2d(x, offsets, weight, b, 1, 1, groups)
            ref = _reference_deform_conv2d(x, offsets, weight, b, 1, 1, groups)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_byte_identical_strided_rectangular_kernel(self, kind):
        rng = np.random.default_rng(WEIGHT_KINDS.index(kind))
        n, groups = 12, 2
        x = rng.standard_normal((n, 9, 14))
        weight = _weights(kind, n, groups, rng)[:5]  # C_out != C_in
        offsets = rng.standard_normal((2 * groups * 9, 5, 7))
        got = deform_conv2d(x, offsets, weight, None, 2, 1, groups)
        ref = _reference_deform_conv2d(x, offsets, weight, None, 2, 1, groups)
        assert got.tobytes() == ref.tobytes()

    def test_codec_weights_at_cif_feature_size(self):
        """The codec's DfConv layer as built, at CIF's 144x176 grid."""
        rng = np.random.default_rng(5)
        layer = DeformableCompensation(channels=12, groups=2, rng=rng).dfconv
        x = rng.standard_normal((12, 144, 176))
        offsets = 3.0 * rng.standard_normal((36, 144, 176))
        got = layer(x, offsets)
        ref = _reference_deform_conv2d(
            x, offsets, layer.weight.data, layer.bias.data, 1, 1, 2
        )
        assert got.tobytes() == ref.tobytes()

    def test_all_zero_weight_gives_bias_only(self, rng):
        x = rng.standard_normal((4, 6, 5))
        offsets = rng.standard_normal((36, 6, 5))
        bias = rng.standard_normal(4)
        out = deform_conv2d(x, offsets, np.zeros((4, 4, 3, 3)), bias, 1, 1, 2)
        assert np.array_equal(out, np.broadcast_to(bias[:, None, None], out.shape))

    def test_nan_offsets_on_zero_taps_never_reach_output(self, rng):
        """Offsets of all-zero taps are never read: NaN there is inert."""
        n, groups = 8, 2
        x = rng.standard_normal((n, 10, 9))
        weight = identity_conv_weight(n, 3)
        offsets = rng.standard_normal((2 * groups * 9, 10, 9))
        clean = deform_conv2d(x, offsets, weight, None, 1, 1, groups)
        poisoned = offsets.reshape(groups, 3, 3, 2, 10, 9).copy()
        centre = poisoned[:, 1, 1].copy()
        poisoned[:] = np.nan
        poisoned[:, 1, 1] = centre
        out = deform_conv2d(
            x, poisoned.reshape(offsets.shape), weight, None, 1, 1, groups
        )
        assert np.isfinite(out).all()
        assert out.tobytes() == clean.tobytes()


class TestBilinearSampleExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_byte_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 9, 13))
        # coordinates well outside the frame exercise the clamping
        ys = rng.uniform(-3, 12, size=(3, 4, 9, 13))
        xs = rng.uniform(-3, 16, size=(3, 4, 9, 13))
        got = F.bilinear_sample(x, ys, xs)
        ref = _reference_bilinear_sample(x, ys, xs)
        assert got.tobytes() == ref.tobytes()
        assert got.flags.c_contiguous and got.shape == (5, 3, 4, 9, 13)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_dtype_matches_reference(self, dtype):
        rng = np.random.default_rng(9)
        x = (10 * rng.standard_normal((2, 6, 7))).astype(dtype)
        ys = rng.uniform(0, 5, size=(6, 7))
        xs = rng.uniform(0, 6, size=(6, 7))
        got = F.bilinear_sample(x, ys, xs)
        ref = _reference_bilinear_sample(x, ys, xs)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


class TestCodecParity:
    """CTVC-Net streams and decoded frames do not change when the frozen
    dense kernel is swapped in.  Compared in-process: stored digests
    would depend on the BLAS kernels of the machine that made them."""

    @pytest.fixture(scope="class")
    def frames(self):
        return generate_sequence(SceneConfig(height=64, width=96, frames=3, seed=7))

    @pytest.mark.parametrize("variant", ["fp", "fxp", "sparse"])
    @pytest.mark.parametrize("channels", [12, 36])
    def test_streams_and_frames_byte_identical(
        self, frames, channels, variant, monkeypatch
    ):
        net = CTVCNet(CTVCConfig(channels=channels, qstep=8.0, gop=8, seed=1))
        if variant == "fxp":
            net.apply_fxp()
        elif variant == "sparse":
            net.apply_sparse(rho=0.5)

        def round_trip():
            blob = net.encode_sequence(frames).serialize()
            decoded = net.decode_sequence(SequenceBitstream.parse(blob))
            return blob, b"".join(frame.tobytes() for frame in decoded)

        blob, decoded = round_trip()
        with monkeypatch.context() as patch:
            patch.setattr(deform, "deform_conv2d", _reference_deform_conv2d)
            assert round_trip() == (blob, decoded)
