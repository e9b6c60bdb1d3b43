"""Bjøntegaard delta metrics (BD-rate / BD-quality).

Table I of the paper reports BDBR(%) — the average bitrate difference at
equal quality between a codec and the H.265 anchor — for both PSNR and
MS-SSIM.  This module implements the Bjøntegaard calculation two ways:

* ``method="cubic"`` — the original VCEG-M33 approach: a third-order
  polynomial fit of log-rate as a function of quality, integrated in
  closed form over the overlapping quality range.
* ``method="pchip"`` — piecewise cubic Hermite interpolation, the
  numerically robust variant standardized by JCT-VC for HEVC CTC.

Both operate on :class:`repro.metrics.rd.RDCurve`; MS-SSIM curves are
mapped onto a dB-like axis first (see ``RDCurve.quality_axis_db``).
"""

from __future__ import annotations

import numpy as np

from .rd import RDCurve

__all__ = ["bd_rate", "bd_quality", "bd_rate_table"]


def _prepare(curve: RDCurve) -> tuple[np.ndarray, np.ndarray]:
    """Return (quality_db, log10_rate) sorted by quality, deduplicated."""
    if len(curve) < 2:
        raise ValueError(f"curve {curve.name!r} needs >=2 points, has {len(curve)}")
    quality = curve.quality_axis_db()
    log_rate = np.log10(curve.rates)
    order = np.argsort(quality)
    quality, log_rate = quality[order], log_rate[order]
    if np.any(np.diff(quality) <= 0):
        # Strictly increasing quality is required for interpolation; nudge
        # exact ties apart rather than failing on flat synthetic curves.
        quality = quality + np.arange(len(quality)) * 1e-9
    return quality, log_rate


def _poly_integral(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Integrate a cubic least-squares fit of y(x) over [lo, hi].

    The fit runs on ``x`` centred at its mean: the same cubic, but
    far better conditioned than powers of raw ~40 dB qualities."""
    degree = min(3, len(x) - 1)
    centre = x.mean()
    coeffs = np.polyfit(x - centre, y, degree)
    antideriv = np.polyint(coeffs)
    return float(
        np.polyval(antideriv, hi - centre) - np.polyval(antideriv, lo - centre)
    )


def _pchip_integral(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    # imported here: scipy.interpolate costs ~0.3 s and only BD-rate uses it
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(x, y)
    return float(interp.integrate(lo, hi))


def bd_rate(anchor: RDCurve, test: RDCurve, method: str = "cubic") -> float:
    """Average bitrate difference of ``test`` versus ``anchor`` in percent.

    Negative values mean the test codec needs fewer bits for the same
    quality (a saving), matching the sign convention of the paper's
    Table I where e.g. CTVC-Net(Sparse) scores -35.19 % against H.265.
    """
    if anchor.metric != test.metric:
        raise ValueError(
            f"metric mismatch: {anchor.metric!r} vs {test.metric!r}"
        )
    q_a, r_a = _prepare(anchor)
    q_t, r_t = _prepare(test)
    lo = max(q_a.min(), q_t.min())
    hi = min(q_a.max(), q_t.max())
    if hi <= lo:
        raise ValueError(
            f"curves {anchor.name!r} and {test.name!r} share no quality overlap"
        )
    if method == "cubic":
        int_a = _poly_integral(q_a, r_a, lo, hi)
        int_t = _poly_integral(q_t, r_t, lo, hi)
    elif method == "pchip":
        int_a = _pchip_integral(q_a, r_a, lo, hi)
        int_t = _pchip_integral(q_t, r_t, lo, hi)
    else:
        raise ValueError(f"unknown method {method!r}")
    avg_log_diff = (int_t - int_a) / (hi - lo)
    return float((10.0**avg_log_diff - 1.0) * 100.0)


def bd_quality(anchor: RDCurve, test: RDCurve, method: str = "cubic") -> float:
    """Average quality difference (dB axis) at equal rate.

    Positive values mean the test codec achieves higher quality at the
    same bitrate (BD-PSNR when the metric is PSNR).
    """
    if anchor.metric != test.metric:
        raise ValueError(
            f"metric mismatch: {anchor.metric!r} vs {test.metric!r}"
        )
    q_a, r_a = _prepare(anchor)
    q_t, r_t = _prepare(test)
    lo = max(r_a.min(), r_t.min())
    hi = min(r_a.max(), r_t.max())
    if hi <= lo:
        raise ValueError(
            f"curves {anchor.name!r} and {test.name!r} share no rate overlap"
        )
    # Here the fit is quality as a function of log-rate.
    order_a = np.argsort(r_a)
    order_t = np.argsort(r_t)
    ra_sorted, qa_sorted = r_a[order_a], q_a[order_a]
    rt_sorted, qt_sorted = r_t[order_t], q_t[order_t]
    if method == "cubic":
        int_a = _poly_integral(ra_sorted, qa_sorted, lo, hi)
        int_t = _poly_integral(rt_sorted, qt_sorted, lo, hi)
    elif method == "pchip":
        int_a = _pchip_integral(ra_sorted, qa_sorted, lo, hi)
        int_t = _pchip_integral(rt_sorted, qt_sorted, lo, hi)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float((int_t - int_a) / (hi - lo))


def bd_rate_table(
    curves: dict[tuple[str, str], RDCurve],
    anchor: str,
    method: str = "cubic",
) -> dict[str, dict[str, float | None]]:
    """BD-rate of every codec against ``anchor``, per scene.

    ``curves`` is the ``{(codec, scene): RDCurve}`` mapping
    :func:`repro.metrics.rd.curves_from_reports` builds from a sweep.
    For each scene that has a curve for the anchor codec, every other
    codec's curve is scored with :func:`bd_rate` (negative = bits saved
    at equal quality, the paper's Table I convention).  Pairings that
    cannot be scored — fewer than two rate points, or no quality
    overlap with the anchor — map to ``None`` rather than aborting the
    table, so a sweep with one degenerate cell still reports the rest.

    Returns ``{scene: {codec: bd_rate_percent_or_None}}``.
    """
    scenes = sorted({scene for _, scene in curves})
    table: dict[str, dict[str, float | None]] = {}
    for scene in scenes:
        anchor_curve = curves.get((anchor, scene))
        if anchor_curve is None:
            continue
        row: dict[str, float | None] = {}
        for (codec, curve_scene), curve in sorted(curves.items()):
            if curve_scene != scene or codec == anchor:
                continue
            try:
                row[codec] = bd_rate(anchor_curve, curve, method=method)
            except ValueError:
                row[codec] = None
        table[scene] = row
    return table
