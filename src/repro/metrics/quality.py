"""Objective video/image quality metrics: PSNR, SSIM, and MS-SSIM.

The paper (Section V-A) evaluates compression quality with PSNR and the
multi-scale structural similarity index (MS-SSIM) of Wang et al. (2003).
Both are implemented here from first principles on top of NumPy/SciPy so
the evaluation harness has no external dependencies.

All functions accept images either as (H, W) grayscale or (C, H, W) /
(H, W, C) arrays; multi-channel inputs are scored per channel and
averaged, which matches the common RGB-PSNR convention used by the NVC
literature the paper compares against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mse",
    "psnr",
    "ssim",
    "ms_ssim",
    "MS_SSIM_WEIGHTS",
]

#: Per-scale weights from Wang, Simoncelli & Bovik (2003), Table 1.
MS_SSIM_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])


def _as_channel_list(image: np.ndarray) -> list[np.ndarray]:
    """Split an image array into a list of 2-D float64 channel planes."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        return [arr]
    if arr.ndim == 3:
        # Accept both (C, H, W) and (H, W, C); channels are the small axis.
        if arr.shape[0] <= 4 and arr.shape[0] < arr.shape[-1]:
            return [arr[c] for c in range(arr.shape[0])]
        return [arr[..., c] for c in range(arr.shape[-1])]
    raise ValueError(f"expected 2-D or 3-D image, got shape {arr.shape}")


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two images of identical shape."""
    ref = np.asarray(reference, dtype=np.float64)
    tst = np.asarray(test, dtype=np.float64)
    if ref.shape != tst.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {tst.shape}")
    return float(np.mean((ref - tst) ** 2))


def psnr(reference: np.ndarray, test: np.ndarray, data_range: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB.

    Returns ``inf`` for identical inputs.  ``data_range`` is the dynamic
    range of the pixel representation (255 for 8-bit video, 1.0 for
    normalized floats).
    """
    err = mse(reference, test)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10((data_range**2) / err))


def _gaussian_kernel_1d(sigma: float, radius: int) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def _filter2(plane: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    """Separable Gaussian filter with reflective boundary handling."""
    from scipy.ndimage import convolve  # only (MS-)SSIM needs scipy.ndimage

    kernel = _gaussian_kernel_1d(sigma, radius)
    out = convolve(plane, kernel[:, None], mode="reflect")
    return convolve(out, kernel[None, :], mode="reflect")


def _ssim_components(
    ref: np.ndarray,
    tst: np.ndarray,
    data_range: float,
    sigma: float = 1.5,
    use_gaussian: bool = True,
    win_size: int = 11,
) -> tuple[np.ndarray, np.ndarray]:
    """Return per-pixel (luminance*contrast*structure, contrast*structure).

    The second map ("cs") is what MS-SSIM accumulates on all but the
    coarsest scale.
    """
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    if use_gaussian:
        radius = win_size // 2

        def smooth(x: np.ndarray) -> np.ndarray:
            return _filter2(x, sigma, radius)

    else:
        from scipy.ndimage import uniform_filter

        def smooth(x: np.ndarray) -> np.ndarray:
            return uniform_filter(x, size=win_size, mode="reflect")

    mu_x = smooth(ref)
    mu_y = smooth(tst)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_xx = smooth(ref * ref) - mu_xx
    sigma_yy = smooth(tst * tst) - mu_yy
    sigma_xy = smooth(ref * tst) - mu_xy

    cs_map = (2.0 * sigma_xy + c2) / (sigma_xx + sigma_yy + c2)
    ssim_map = ((2.0 * mu_xy + c1) / (mu_xx + mu_yy + c1)) * cs_map
    return ssim_map, cs_map


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 255.0,
    sigma: float = 1.5,
    win_size: int = 11,
) -> float:
    """Single-scale structural similarity (Wang et al., 2004)."""
    ref_planes = _as_channel_list(reference)
    tst_planes = _as_channel_list(test)
    if len(ref_planes) != len(tst_planes):
        raise ValueError("channel count mismatch")
    scores = []
    for ref, tst in zip(ref_planes, tst_planes):
        ssim_map, _ = _ssim_components(ref, tst, data_range, sigma, True, win_size)
        scores.append(float(ssim_map.mean()))
    return float(np.mean(scores))


def _downsample_2x(plane: np.ndarray) -> np.ndarray:
    """Average-pool a plane by 2x2, cropping odd edges (MS-SSIM convention)."""
    h, w = plane.shape
    h2, w2 = h - (h % 2), w - (w % 2)
    cropped = plane[:h2, :w2]
    return 0.25 * (
        cropped[0::2, 0::2]
        + cropped[1::2, 0::2]
        + cropped[0::2, 1::2]
        + cropped[1::2, 1::2]
    )


def ms_ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 255.0,
    weights: np.ndarray | None = None,
    sigma: float = 1.5,
    win_size: int = 11,
) -> float:
    """Multi-scale SSIM following Wang, Simoncelli & Bovik (2003).

    The product form ``prod(cs_i ** w_i) * ssim_L ** w_L`` is used with the
    published five-scale weights.  If the image is too small for five
    scales the weight vector is truncated and renormalized, keeping the
    metric well-defined on small synthetic test frames.
    """
    w = MS_SSIM_WEIGHTS if weights is None else np.asarray(weights, dtype=np.float64)
    ref_planes = _as_channel_list(reference)
    tst_planes = _as_channel_list(test)
    if len(ref_planes) != len(tst_planes):
        raise ValueError("channel count mismatch")

    scores = []
    for ref, tst in zip(ref_planes, tst_planes):
        # Number of scales the plane can support (filter needs win_size px).
        max_levels = 1
        size = min(ref.shape)
        while size // 2 >= win_size and max_levels < len(w):
            size //= 2
            max_levels += 1
        weights_used = w[:max_levels] / w[:max_levels].sum()

        mcs: list[float] = []
        cur_ref, cur_tst = ref, tst
        value = 1.0
        for level in range(max_levels):
            ssim_map, cs_map = _ssim_components(
                cur_ref, cur_tst, data_range, sigma, True, win_size
            )
            if level == max_levels - 1:
                luminance_term = float(np.clip(ssim_map.mean(), 1e-6, None))
                value = luminance_term ** weights_used[level]
            else:
                mcs.append(float(np.clip(cs_map.mean(), 1e-6, None)))
                cur_ref = _downsample_2x(cur_ref)
                cur_tst = _downsample_2x(cur_tst)
        for level, cs in enumerate(mcs):
            value *= cs ** weights_used[level]
        scores.append(value)
    return float(np.mean(scores))
