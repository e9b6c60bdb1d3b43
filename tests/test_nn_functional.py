"""Tests for the functional tensor ops against scipy references."""

import numpy as np
import pytest
from scipy import signal

from repro.codec import CTVCConfig, CTVCNet, SequenceBitstream
from repro.codec.modules import (
    CompressionAE,
    DeformableCompensation,
    FrameReconstruction,
)
from repro.nn import functional as F
from repro.video import SceneConfig, generate_sequence


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def conv2d_reference(x, w, bias, stride, padding):
    """Independent conv implementation via scipy.signal.correlate2d."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        acc = np.zeros((xp.shape[1] - kh + 1, xp.shape[2] - kw + 1))
        for i in range(c_in):
            acc += signal.correlate2d(xp[i], w[o, i], mode="valid")
        out[o] = acc[::stride, ::stride]
        if bias is not None:
            out[o] += bias[o]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_scipy(self, rng, stride, padding):
        x = rng.standard_normal((3, 12, 14))
        w = rng.standard_normal((5, 3, 3, 3))
        b = rng.standard_normal(5)
        ours = F.conv2d(x, w, b, stride, padding)
        ref = conv2d_reference(x, w, b, stride, padding)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() < 1e-10

    def test_1x1_conv_is_channel_mix(self, rng):
        x = rng.standard_normal((4, 6, 6))
        w = rng.standard_normal((2, 4, 1, 1))
        out = F.conv2d(x, w, None, 1, 0)
        ref = np.einsum("oi,ihw->ohw", w[:, :, 0, 0], x)
        assert np.abs(out - ref).max() < 1e-12

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(rng.standard_normal((2, 8, 8)), rng.standard_normal((4, 3, 3, 3)))

    def test_output_size_helper(self):
        assert F.conv_output_size(16, 3, 1, 1) == 16
        assert F.conv_output_size(16, 3, 2, 1) == 8
        assert F.conv_output_size(16, 4, 2, 1) == 8


class TestConvTranspose2d:
    def test_adjoint_property(self, rng):
        """<conv(x), y> == <x, conv_transpose(y)> — the defining identity.

        Size chosen so the strided conv tiles exactly ((H + 2p - k)
        divisible by s), making the transposed conv restore H."""
        x = rng.standard_normal((3, 11, 11))
        w = rng.standard_normal((5, 3, 3, 3))
        y_shape_out = F.conv2d(x, w, None, 2, 1)
        y = rng.standard_normal(y_shape_out.shape)
        lhs = float(np.sum(F.conv2d(x, w, None, 2, 1) * y))
        # conv_transpose goes from 5 channels back to 3: weight (3, 5, 3, 3)
        wt = np.transpose(w, (1, 0, 2, 3))
        rhs = float(np.sum(x * F.conv_transpose2d(y, wt, None, 2, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("stride,padding,k", [(2, 1, 4), (2, 0, 4), (1, 1, 3), (2, 1, 2)])
    def test_shapes(self, rng, stride, padding, k):
        x = rng.standard_normal((3, 7, 9))
        w = rng.standard_normal((4, 3, k, k))
        out = F.conv_transpose2d(x, w, None, stride, padding)
        eh = (7 - 1) * stride - 2 * padding + k
        ew = (9 - 1) * stride - 2 * padding + k
        assert out.shape == (4, eh, ew)

    def test_single_pixel_stamps_kernel(self, rng):
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 2.0
        w = rng.standard_normal((1, 1, 4, 4))
        out = F.conv_transpose2d(x, w, None, 2, 0)
        assert np.abs(out[0, 2:6, 2:6] - 2.0 * w[0, 0]).max() < 1e-12

    def test_bias_added(self, rng):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((3, 2, 4, 4))
        b = np.array([1.0, -2.0, 3.0])
        out = F.conv_transpose2d(x, w, b, 2, 1)
        out_nob = F.conv_transpose2d(x, w, None, 2, 1)
        assert np.allclose(out - out_nob, b[:, None, None])


class TestPooling:
    def test_max_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = F.max_pool2d(x, 2)
        assert out.shape == (1, 2, 2)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])

    def test_avg_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = F.avg_pool2d(x, 2)
        assert np.array_equal(out[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_odd_trailing_dropped(self):
        x = np.zeros((1, 5, 5))
        assert F.max_pool2d(x, 2).shape == (1, 2, 2)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(F.relu(x), [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        x = np.array([-10.0, 10.0])
        assert np.array_equal(F.leaky_relu(x, 0.1), [-1.0, 10.0])

    def test_sigmoid_range_and_symmetry(self, rng):
        # Moderate magnitudes: strictly inside (0, 1).
        x = rng.standard_normal(100) * 5
        s = F.sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        assert np.allclose(F.sigmoid(-x), 1 - s, atol=1e-12)
        # Extreme magnitudes may saturate to exactly 0/1 in float64 but
        # must stay within [0, 1].
        hard = F.sigmoid(rng.standard_normal(100) * 50)
        assert np.all((hard >= 0) & (hard <= 1))

    def test_sigmoid_extremes_stable(self):
        assert F.sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert F.sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((4, 7))
        s = F.softmax(x, axis=-1)
        assert np.allclose(s.sum(axis=-1), 1.0)

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal(9)
        assert np.allclose(F.softmax(x), F.softmax(x + 1000.0))


class TestBilinearSample:
    def test_integer_coords_exact(self, rng):
        x = rng.standard_normal((2, 6, 6))
        ys, xs = np.meshgrid(np.arange(6.0), np.arange(6.0), indexing="ij")
        out = F.bilinear_sample(x, ys, xs)
        assert np.abs(out - x).max() < 1e-12

    def test_halfway_interpolation(self):
        x = np.zeros((1, 2, 2))
        x[0] = [[0.0, 2.0], [4.0, 6.0]]
        out = F.bilinear_sample(x, np.array([[0.5]]), np.array([[0.5]]))
        assert out[0, 0, 0] == pytest.approx(3.0)

    def test_border_clamp(self):
        x = np.ones((1, 4, 4)) * 5.0
        out = F.bilinear_sample(x, np.array([[-3.0]]), np.array([[99.0]]))
        assert out[0, 0, 0] == pytest.approx(5.0)


# -- zero-weight skipping -------------------------------------------------
# Frozen copies of the dense kernels (GEMM for every weight, einsum over
# every input channel), kept verbatim so the zero-skipping kernels in
# repro.nn.functional can be checked byte for byte against them.


def _frozen_im2col(x, kernel, stride=1):
    c, h, w = x.shape
    kh, kw = kernel
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, ho, wo),
        strides=(sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(c * kh * kw, ho * wo), (ho, wo)


def _frozen_conv2d(x, weight, bias=None, stride=1, padding=0):
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    padded = F.pad2d(x, padding)
    cols, (ho, wo) = _frozen_im2col(padded, (kh, kw), stride)
    out = weight.reshape(c_out, -1) @ cols
    out = out.reshape(c_out, ho, wo)
    if bias is not None:
        out += bias[:, None, None]
    return out


def _frozen_conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    _, h, w = x.shape
    full_h = (h - 1) * stride + kh
    full_w = (w - 1) * stride + kw
    # GEMM formulation: cols = W^T X, then col2im scatter.
    x_mat = x.reshape(c_in, -1)  # (C_in, H*W)
    w_mat = weight.reshape(c_out, c_in, kh * kw)
    # stamps: (C_out, kH*kW, H*W)
    stamps = np.einsum("oik,il->okl", w_mat, x_mat)
    out = np.zeros((c_out, full_h, full_w), dtype=stamps.dtype)
    stamps = stamps.reshape(c_out, kh, kw, h, w)
    for dy in range(kh):
        for dx in range(kw):
            out[
                :,
                dy : dy + (h - 1) * stride + 1 : stride,
                dx : dx + (w - 1) * stride + 1 : stride,
            ] += stamps[:, dy, dx]
    if padding:
        out = out[:, padding : full_h - padding, padding : full_w - padding]
    if bias is not None:
        out += bias[:, None, None]
    return out


WEIGHT_KINDS = [
    "dense",
    "one_per_row",
    "diagonal",
    "every_third_input",  # FrameReconstruction.up's 4-of-12 pattern
    "one_per_row_zero_rows",
    "dense_zero_rows",
    "all_zero",
]


def _sparse_weight(kind, c_out, c_in, k, rng):
    """A weight of the given sparsity pattern; values are signed."""
    weight = np.zeros((c_out, c_in, k, k))
    if kind.startswith("dense"):
        weight = rng.standard_normal((c_out, c_in, k, k))
    elif kind.startswith("one_per_row"):
        for o in range(c_out):
            i, ky, kx = rng.integers((c_in, k, k))
            weight[o, i, ky, kx] = rng.standard_normal()
    elif kind == "diagonal":
        for o in range(c_out):
            weight[o, o % c_in] = rng.standard_normal((k, k))
    elif kind == "every_third_input":
        for o in range(c_out):
            weight[o, o % 3 :: 3] = rng.standard_normal((k, k))
    if kind.endswith("zero_rows"):
        weight[::2] = 0.0
    return weight


def _signed_input(c, h, w, rng):
    """Negatives and -0.0 samples, so w * x hits -0.0 under any sign of w."""
    x = rng.standard_normal((c, h, w))
    x[rng.random((c, h, w)) < 0.2] = -0.0
    x[rng.random((c, h, w)) < 0.1] = 0.0
    return x


# (kernel, stride, padding) of every conv and deconv the codec runs,
# plus the stride/padding corners around them
GEOMETRIES = [(3, 1, 1), (3, 2, 0), (3, 1, 2), (4, 2, 0), (4, 2, 1), (1, 1, 0)]


class TestZeroWeightExactness:
    """The zero-skipping kernels return the frozen dense kernels' bytes."""

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("n", [8, 12, 36])
    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_conv2d_byte_identical(self, kind, n, with_bias):
        rng = np.random.default_rng(n)
        for c_out, c_in in ((n, n), (3, n), (2 * n, n), (n, 2 * n)):
            x = _signed_input(c_in, 13, 17, rng)
            bias = rng.standard_normal(c_out) if with_bias else None
            for k, stride, padding in GEOMETRIES:
                weight = _sparse_weight(kind, c_out, c_in, k, rng)
                ours = F.conv2d(x, weight, bias, stride, padding)
                frozen = _frozen_conv2d(x, weight, bias, stride, padding)
                assert ours.dtype == frozen.dtype
                case = (c_out, c_in, k, stride, padding)
                assert ours.tobytes() == frozen.tobytes(), case

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("n", [8, 12, 36])
    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_conv_transpose2d_byte_identical(self, kind, n, with_bias):
        rng = np.random.default_rng(100 + n)
        for c_out, c_in in ((n, n), (3, n), (2 * n, n), (n, 2 * n)):
            x = _signed_input(c_in, 9, 11, rng)
            bias = rng.standard_normal(c_out) if with_bias else None
            for k, stride, padding in GEOMETRIES:
                weight = _sparse_weight(kind, c_out, c_in, k, rng)
                ours = F.conv_transpose2d(x, weight, bias, stride, padding)
                frozen = _frozen_conv_transpose2d(x, weight, bias, stride, padding)
                assert ours.dtype == frozen.dtype
                case = (c_out, c_in, k, stride, padding)
                assert ours.tobytes() == frozen.tobytes(), case

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_float32_byte_identical(self, kind):
        """The rule holds in the ``fast`` substrate's float32 too: the
        kernels compute in their operands' dtype, never upcasting."""
        rng = np.random.default_rng(200)
        for n in (8, 12, 36):
            for c_out, c_in in ((n, n), (3, n), (2 * n, n), (n, 2 * n)):
                x = _signed_input(c_in, 9, 11, rng).astype(np.float32)
                bias = rng.standard_normal(c_out).astype(np.float32)
                for k, stride, padding in GEOMETRIES:
                    weight = _sparse_weight(kind, c_out, c_in, k, rng)
                    weight = weight.astype(np.float32)
                    case = (n, c_out, c_in, k, stride, padding)
                    for ours, frozen in (
                        (F.conv2d, _frozen_conv2d),
                        (F.conv_transpose2d, _frozen_conv_transpose2d),
                    ):
                        got = ours(x, weight, bias, stride, padding)
                        want = frozen(x, weight, bias, stride, padding)
                        assert got.dtype == want.dtype == np.float32, case
                        assert got.tobytes() == want.tobytes(), case

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    @pytest.mark.parametrize("kind", ["every_third_input", "diagonal", "one_per_row"])
    def test_input_layouts_and_single_pixel_byte_identical(self, kind, layout):
        """einsum's summation order depends on the input's memory layout
        and changes for a lone (tap, pixel) pair; the kernels follow it."""
        rng = np.random.default_rng(7)
        for c_out, c_in in ((12, 12), (3, 36)):
            for k in (1, 2, 4):
                for h, w in ((1, 1), (1, 2), (2, 1), (5, 7)):
                    # channel magnitudes over six decades expose any reordering
                    base = _signed_input(c_in, 2 * h, 2 * w, rng)
                    base *= 10.0 ** rng.uniform(-3, 3, (c_in, 1, 1))
                    x = {
                        "c": base[:, :h, :w].copy(),
                        "fortran": np.asfortranarray(base[:, :h, :w]),
                        "strided": base[:, ::2, ::2],
                    }[layout]
                    weight = _sparse_weight(kind, c_out, c_in, k, rng)
                    kernels = [(F.conv_transpose2d, _frozen_conv_transpose2d)]
                    if h >= k and w >= k:
                        kernels.append((F.conv2d, _frozen_conv2d))
                    for stride in (1, 2):
                        for ours, frozen in kernels:
                            got = ours(x, weight, None, stride, 0)
                            want = frozen(x, weight, None, stride, 0)
                            case = (c_out, c_in, k, h, w)
                            assert got.tobytes() == want.tobytes(), case

    def test_negative_weight_on_padding_gives_positive_zero(self):
        x = np.ones((1, 2, 2))
        weight = np.zeros((1, 1, 3, 3))
        weight[0, 0, 0, 0] = -1.0  # reads the zero padding at the top-left
        out = F.conv2d(x, weight, None, 1, 1)
        assert out[0, 0, 0] == 0.0 and not np.signbit(out[0, 0, 0])
        assert out.tobytes() == _frozen_conv2d(x, weight, None, 1, 1).tobytes()

    @pytest.mark.parametrize("n", [12, 36])
    def test_codec_weights_at_cif_sizes(self, n):
        rng = np.random.default_rng(5)
        offset_conv = DeformableCompensation(n).offset_conv
        x = rng.standard_normal((n, 144, 176))
        args = (offset_conv.weight.data, offset_conv.bias.data, 1, 1)
        assert F.conv2d(x, *args).tobytes() == _frozen_conv2d(x, *args).tobytes()
        deconvs = [
            (CompressionAE(n).syn_deconvs[2], (n, 39, 47)),  # 74x90 after the crop
            (FrameReconstruction(n).up, (n, 146, 178)),  # 288x352 after the crop
        ]
        for deconv, shape in deconvs:
            x = rng.standard_normal(shape)
            args = (deconv.weight.data, deconv.bias.data, 2, 0)
            ours = F.conv_transpose2d(x, *args)
            assert ours.tobytes() == _frozen_conv_transpose2d(x, *args).tobytes()


class TestCodecParity:
    """CTVC-Net streams and decoded frames do not change when the frozen
    dense kernels are swapped in.  Compared in-process: stored digests
    would depend on the BLAS kernels of the machine that made them."""

    @pytest.fixture(scope="class")
    def frames(self):
        return generate_sequence(SceneConfig(height=64, width=96, frames=3, seed=7))

    @pytest.mark.parametrize("variant", ["fp", "fxp", "sparse"])
    @pytest.mark.parametrize("channels", [12, 36])
    def test_streams_and_frames_byte_identical(
        self, frames, channels, variant, monkeypatch
    ):
        net = CTVCNet(CTVCConfig(
            channels=channels, qstep=8.0, gop=8, seed=1, substrate="reference"
        ))
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
            patch.setattr(F, "conv2d", _frozen_conv2d)
            patch.setattr(F, "conv_transpose2d", _frozen_conv_transpose2d)
            assert round_trip() == (blob, decoded)
