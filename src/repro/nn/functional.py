"""Functional tensor operations for the NumPy DNN substrate.

These are the inference-grade primitives every network module in
``repro.codec`` is built from.  Conventions:

* activations are float64 arrays shaped ``(C, H, W)`` (no batch axis —
  the codec processes one frame at a time, as the paper's decoder does);
* convolution weights are ``(C_out, C_in, kH, kW)``;
* transposed-convolution weights are also ``(C_out, C_in, kH, kW)``
  where ``C_out`` is the number of *produced* channels (the layer-level
  view), internally mapped onto the scatter formulation.

Direct convolution uses an im2col/GEMM formulation; correctness is
pinned against ``scipy.signal`` in the test suite, and the fast
Winograd/FTA kernels in :mod:`repro.core` are in turn pinned against
these implementations.

Like the accelerator's sparse computing core, and like
:func:`repro.nn.deform.deform_conv2d`, :func:`conv2d` and
:func:`conv_transpose2d` spend no work on zero weights where that
cannot change a bit: for finite inputs the output is bit-for-bit that
of the dense kernel.  The sparsity is read from the weight on every
call, so weights that are reassigned need no cache.

* ``conv2d`` with at most one nonzero weight per output row (the
  codec's offset head and latent head) skips the GEMM: each output
  plane is that weight times one strided slice of the padded input.
  The GEMM sums from +0.0, so one product plus zero terms rounds once
  in any summation order; the only difference, a -0.0 product, is
  normalised to the GEMM's +0.0.  Rows with several nonzeros keep the
  full GEMM: BLAS sums them in a kernel-dependent fused order NumPy
  cannot reproduce, and a smaller GEMM changes the call shape, which
  can change bits.
* ``conv_transpose2d`` whose output channels each read at most half of
  the input channels (every synthesis deconv reads one, the frame
  reconstruction deconv a third) sums each stamp over just those
  inputs, in ascending order, multiplying then adding, as ``einsum``
  sums over all of them.  Denser weights keep the ``einsum``, and so
  do inputs it would sum in another order: one that is not
  C-contiguous, or a single tap over a single pixel.

A NaN or inf under a skipped zero weight no longer reaches the output,
so the rule holds for finite inputs only.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad2d",
    "im2col",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "avg_pool2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "softmax",
    "bilinear_sample",
    "conv_output_size",
    "deconv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def deconv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    return (size - 1) * stride - 2 * padding + kernel


def pad2d(x: np.ndarray, padding: int | tuple[int, int]) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of a (C, H, W) tensor.

    Hand-rolled (allocate + slice-assign) rather than ``np.pad``: this
    sits on the hot path of every convolution and np.pad's generic
    machinery costs more than the copy itself.
    """
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, ph : ph + h, pw : pw + w] = x
    return out


def _windows(
    x: np.ndarray, kernel: tuple[int, int], stride: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Read-only (C, kH, kW, H_out, W_out) sliding-window view of ``x``."""
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
    return windows, (ho, wo)


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: int = 1
) -> np.ndarray:
    """Unfold sliding windows into a (C*kH*kW, L) matrix.

    ``x`` is (C, H, W) already padded; L = H_out * W_out.  Built with
    stride tricks, so no data is copied until the final reshape.
    Returns ``(cols, (H_out, W_out))``.
    """
    windows, (ho, wo) = _windows(x, kernel, stride)
    return windows.reshape(-1, ho * wo), (ho, wo)


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D cross-correlation (the deep-learning "convolution").

    Shapes: x (C_in, H, W), weight (C_out, C_in, kH, kW) -> (C_out, H_out,
    W_out).  Skips the GEMM for a weight with at most one nonzero per
    output row (see the module docstring).
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    windows, (ho, wo) = _windows(pad2d(x, padding), (kh, kw), stride)
    nonzero = weight.reshape(c_out, -1) != 0
    if nonzero.sum(axis=1).max(initial=0) <= 1:
        # Each output plane is one weight times one strided slice of the
        # padded input; a row with no nonzero reads weight 0.
        flat = nonzero.argmax(axis=1)
        scale = weight.reshape(c_out, -1)[np.arange(c_out), flat]
        chans, ti, tj = np.unravel_index(flat, (c_in, kh, kw))
        out = scale[:, None, None] * windows[chans, ti, tj]
        if bias is None:
            out += 0.0  # GEMM's zero-started sum gives +0.0 where w * x is -0.0
    else:
        cols = windows.reshape(c_in * kh * kw, ho * wo)
        out = (weight.reshape(c_out, -1) @ cols).reshape(c_out, ho, wo)
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv_transpose2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D transposed convolution (deconvolution).

    Shapes: x (C_in, H, W), weight (C_out, C_in, kH, kW) -> (C_out,
    (H-1)*s - 2p + kH, ...).  Implemented as scatter-add of weighted
    kernel stamps, the textbook adjoint of :func:`conv2d`.  Stamps are
    summed only over the input channels an output channel reads when
    that is at most half of them (see the module docstring).
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    _, h, w = x.shape
    full_h = (h - 1) * stride + kh
    full_w = (w - 1) * stride + kw
    # GEMM formulation: stamps = W^T X, then col2im scatter.
    x_mat = x.reshape(c_in, -1)  # (C_in, H*W)
    w_mat = weight.reshape(c_out, c_in, kh * kw)
    out = np.zeros((c_out, full_h, full_w))

    def scatter(tap: int, stamp: np.ndarray) -> None:
        dy, dx = divmod(tap, kw)
        out[
            :,
            dy : dy + (h - 1) * stride + 1 : stride,
            dx : dx + (w - 1) * stride + 1 : stride,
        ] += stamp.reshape(c_out, h, w)

    live = (w_mat != 0).any(axis=2)  # (C_out, C_in) pairs with a nonzero tap
    depth = int(live.sum(axis=1).max(initial=0))
    # einsum sums the inputs in order only while its innermost loop runs
    # over taps or pixels: a C-contiguous input with more than one
    # (tap, pixel) pair.  Otherwise it runs a blocked dot product over
    # the inputs, which only einsum itself reproduces.
    in_order = x.flags.c_contiguous and kh * kw * h * w > 1
    if 2 * depth <= c_in and in_order:
        # Row o sums its live inputs in ascending order, as einsum sums
        # every input; rows with fewer than ``depth`` live inputs are
        # padded with dead ones, whose all-zero taps add only zeros.
        # An all-zero weight (depth 0) stamps nothing.
        order = np.argsort(~live, axis=1, kind="stable")[:, :depth]
        taps = w_mat[np.arange(c_out)[:, None], order]  # (C_out, depth, K)
        inputs = x_mat[order]  # (C_out, depth, H*W)
        for tap in range(kh * kw if depth else 0):
            stamp = taps[:, 0, tap, None] * inputs[:, 0]
            for r in range(1, depth):
                stamp += taps[:, r, tap, None] * inputs[:, r]
            scatter(tap, stamp)
    else:
        stamps = np.einsum("oik,il->okl", w_mat, x_mat)  # (C_out, kH*kW, H*W)
        for tap in range(kh * kw):
            scatter(tap, stamps[:, tap])
    if padding:
        out = out[:, padding : full_h - padding, padding : full_w - padding]
    if bias is not None:
        out += bias[:, None, None]
    return out


def max_pool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Max pooling over (C, H, W); trailing rows/cols that do not fill a
    window are dropped (floor semantics)."""
    stride = stride or kernel
    c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, ho, wo, kernel, kernel),
        strides=(sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return windows.max(axis=(3, 4))


def avg_pool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Average pooling with the same window semantics as max_pool2d."""
    stride = stride or kernel
    c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, ho, wo, kernel, kernel),
        strides=(sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return windows.mean(axis=(3, 4))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    return np.where(x >= 0.0, x, slope * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable split over sign.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=axis, keepdims=True)


def bilinear_sample(x: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample (C, H, W) at fractional coordinates with border clamping.

    ``ys``/``xs`` share an arbitrary shape S; the result is a fresh
    C-contiguous (C, *S) array, channel axis first and outermost.
    This is the sampling kernel of the deformable convolution (DfConv)
    in the paper's deformable compensation module.

    Each output is ``tl*(1-fy)*(1-fx) + tr*(1-fy)*fx + bl*fy*(1-fx) +
    br*fy*fx``, evaluated left to right with one rounding per operation,
    so the value does not depend on how the four corners are gathered.
    """
    c, h, w = x.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    gy = 1 - fy
    gx = 1 - fx
    # Gather the four corners through flat indices on a (C, H*W) view,
    # then accumulate in place in the formula's left-to-right order.
    # The dtype is the one the mixed-type expression would produce.
    flat = np.ascontiguousarray(x, dtype=np.result_type(x, fy)).reshape(c, h * w)
    row0 = y0 * w
    row1 = y1 * w
    out = np.take(flat, row0 + x0, axis=1)
    out *= gy
    out *= gx
    corners = ((row0 + x1, gy, fx), (row1 + x0, fy, gx), (row1 + x1, fy, fx))
    for index, wy, wx in corners:
        corner = np.take(flat, index, axis=1)
        corner *= wy
        corner *= wx
        out += corner
    return out
