"""Calibrated rate-distortion models for the literature codecs.

We cannot retrain H.264, H.265, DVC, LU-ECCV20, FVC, or DCVC offline
(DESIGN.md §2), so Table I / Fig. 8 comparisons are regenerated from
*calibrated RD models*: per-dataset anchor curves for H.265 with each
method's curve derived by Bjøntegaard-consistent rate scaling anchored
to its published BDBR (the constants of the paper's Table I, recorded
verbatim below).  A small quality-dependent "tilt" per method keeps the
curves realistic (methods differ more at some rates than others), so
running the real BD machinery over these curves reproduces the paper's
numbers approximately rather than tautologically — deviations of a
percent or two are expected and reported in EXPERIMENTS.md.

The CTVC-Net FXP and Sparse rows can instead be derived from *measured*
degradation of the real pipeline (see ``repro.eval.table1``), which is
the honest part of the reproduction: the paper's claim that FXP and 50%
sparsity barely hurt is re-established by measurement, not calibration.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.rd import RDCurve

from .configs import DATASETS, METHODS, RDModelConfig, _normalize_dataset
from .rate_control import rate_controller_spec

__all__ = [
    "METHODS",
    "DATASETS",
    "LITERATURE_BDBR",
    "RDModelCodec",
    "RDModelConfig",
    "anchor_curve",
    "model_curve",
    "all_method_curves",
]

#: Paper Table I, verbatim: BDBR(%) against the H.265 anchor.
#: Keys: (method, dataset, metric).
LITERATURE_BDBR: dict[tuple[str, str, str], float] = {
    # -- PSNR ----------------------------------------------------------
    ("h264", "uvg", "psnr"): 35.27,
    ("h264", "hevcb", "psnr"): 28.12,
    ("h264", "mcljcv", "psnr"): 31.35,
    ("dvc", "uvg", "psnr"): 8.45,
    ("dvc", "hevcb", "psnr"): 4.85,
    ("dvc", "mcljcv", "psnr"): 13.94,
    ("h265", "uvg", "psnr"): 0.0,
    ("h265", "hevcb", "psnr"): 0.0,
    ("h265", "mcljcv", "psnr"): 0.0,
    ("lu-eccv20", "uvg", "psnr"): -7.34,
    ("lu-eccv20", "hevcb", "psnr"): -15.92,
    ("lu-eccv20", "mcljcv", "psnr"): 4.75,
    ("fvc", "uvg", "psnr"): -28.71,
    ("fvc", "hevcb", "psnr"): -23.75,
    ("fvc", "mcljcv", "psnr"): -21.08,
    ("dcvc", "uvg", "psnr"): -35.00,
    ("dcvc", "hevcb", "psnr"): -37.96,
    ("dcvc", "mcljcv", "psnr"): -23.08,
    ("ctvc-fp", "uvg", "psnr"): -36.62,
    ("ctvc-fp", "hevcb", "psnr"): -41.05,
    ("ctvc-fp", "mcljcv", "psnr"): -25.11,
    ("ctvc-fxp", "uvg", "psnr"): -35.91,
    ("ctvc-fxp", "hevcb", "psnr"): -40.32,
    ("ctvc-fxp", "mcljcv", "psnr"): -24.15,
    ("ctvc-sparse", "uvg", "psnr"): -35.19,
    ("ctvc-sparse", "hevcb", "psnr"): -39.85,
    ("ctvc-sparse", "mcljcv", "psnr"): -23.44,
    # -- MS-SSIM --------------------------------------------------------
    ("h264", "uvg", "ms-ssim"): 20.06,
    ("h264", "hevcb", "ms-ssim"): 16.81,
    ("h264", "mcljcv", "ms-ssim"): 18.99,
    ("dvc", "uvg", "ms-ssim"): 17.29,
    ("dvc", "hevcb", "ms-ssim"): 5.35,
    ("dvc", "mcljcv", "ms-ssim"): 22.70,
    ("h265", "uvg", "ms-ssim"): 0.0,
    ("h265", "hevcb", "ms-ssim"): 0.0,
    ("h265", "mcljcv", "ms-ssim"): 0.0,
    ("lu-eccv20", "uvg", "ms-ssim"): -27.57,
    ("lu-eccv20", "hevcb", "ms-ssim"): -10.58,
    ("lu-eccv20", "mcljcv", "ms-ssim"): 5.02,
    ("fvc", "uvg", "ms-ssim"): -49.14,
    ("fvc", "hevcb", "ms-ssim"): -53.97,
    ("fvc", "mcljcv", "ms-ssim"): -52.45,
    ("dcvc", "uvg", "ms-ssim"): -48.31,
    ("dcvc", "hevcb", "ms-ssim"): -50.72,
    ("dcvc", "mcljcv", "ms-ssim"): -49.36,
    ("ctvc-fp", "uvg", "ms-ssim"): -53.07,
    ("ctvc-fp", "hevcb", "ms-ssim"): -58.05,
    ("ctvc-fp", "mcljcv", "ms-ssim"): -56.75,
    ("ctvc-fxp", "uvg", "ms-ssim"): -52.13,
    ("ctvc-fxp", "hevcb", "ms-ssim"): -57.79,
    ("ctvc-fxp", "mcljcv", "ms-ssim"): -55.96,
    ("ctvc-sparse", "uvg", "ms-ssim"): -51.30,
    ("ctvc-sparse", "hevcb", "ms-ssim"): -57.11,
    ("ctvc-sparse", "mcljcv", "ms-ssim"): -55.09,
}

#: H.265 anchor operating ranges per dataset: (bpp_lo, bpp_hi,
#: quality_lo, quality_hi).  Values chosen to match the axis ranges of
#: the paper's Fig. 8 (PSNR ~31.5-39.5 dB, MS-SSIM ~0.955-0.99 over
#: bpp ~0.05-0.45).
_ANCHOR_RANGES: dict[tuple[str, str], tuple[float, float, float, float]] = {
    ("uvg", "psnr"): (0.05, 0.45, 34.0, 39.5),
    ("hevcb", "psnr"): (0.06, 0.50, 32.0, 38.0),
    ("mcljcv", "psnr"): (0.06, 0.50, 32.5, 38.5),
    ("uvg", "ms-ssim"): (0.05, 0.45, 0.958, 0.988),
    ("hevcb", "ms-ssim"): (0.06, 0.50, 0.952, 0.985),
    ("mcljcv", "ms-ssim"): (0.06, 0.50, 0.955, 0.986),
}

#: Per-method curve "tilt": relative rate-scaling slope across the
#: quality range (positive = the method's advantage shrinks at high
#: quality).  Small, hand-set values that make curves non-parallel —
#: the qualitative behaviour visible in the paper's Fig. 8.
_METHOD_TILT: dict[str, float] = {
    "h264": 0.02,
    "dvc": 0.04,
    "h265": 0.0,
    "lu-eccv20": 0.03,
    "fvc": -0.02,
    "dcvc": -0.03,
    "ctvc-fp": -0.02,
    "ctvc-fxp": -0.02,
    "ctvc-sparse": -0.02,
}


def anchor_curve(dataset: str, metric: str, num_points: int = 5) -> RDCurve:
    """The H.265 reference curve for a dataset/metric.

    Quality follows the standard logarithmic RD law q = a + b*ln(r),
    fitted through the range endpoints.
    """
    dataset = _normalize_dataset(dataset)
    try:
        lo_r, hi_r, lo_q, hi_q = _ANCHOR_RANGES[(dataset, metric)]
    except KeyError:
        raise KeyError(f"no anchor for ({dataset!r}, {metric!r})") from None
    rates = np.geomspace(lo_r, hi_r, num_points)
    slope = (hi_q - lo_q) / np.log(hi_r / lo_r)
    qualities = lo_q + slope * np.log(rates / lo_r)
    curve = RDCurve(name="h265", metric=metric, dataset=dataset)
    for r, q in zip(rates, qualities):
        curve.add(float(r), float(q))
    return curve


def model_curve(
    method: str, dataset: str, metric: str, num_points: int = 5
) -> RDCurve:
    """The calibrated RD curve of one literature method.

    The anchor's rates are scaled by ``1 + BDBR/100`` (which by
    construction reproduces the published BDBR under Bjøntegaard
    integration) with the method's tilt applied across the quality
    range (which perturbs it realistically).
    """
    dataset = _normalize_dataset(dataset)
    if method not in METHODS:
        raise KeyError(f"unknown method {method!r}; know {METHODS}")
    base = anchor_curve(dataset, metric, num_points)
    bdbr = LITERATURE_BDBR[(method, dataset, metric)]
    tilt = _METHOD_TILT[method]
    positions = np.linspace(-1.0, 1.0, num_points)
    curve = RDCurve(name=method, metric=metric, dataset=dataset)
    for point, z in zip(base.points, positions):
        factor = (1.0 + bdbr / 100.0) * (1.0 + tilt * z)
        curve.add(point.bpp * factor, point.quality)
    return curve


def all_method_curves(
    dataset: str, metric: str, num_points: int = 5
) -> dict[str, RDCurve]:
    """Curves for every Table I method on one dataset/metric."""
    return {
        method: model_curve(method, dataset, metric, num_points)
        for method in METHODS
    }


# -- registry-facing pseudo-codec -------------------------------------------
class RDModelCodec:
    """A calibrated literature method behind the codec-registry surface.

    Not an executable codec: there are no network weights and no
    bitstream, only the published RD behaviour (Table I BDBR anchored
    to H.265).  ``simulate`` returns the rate/quality the method would
    produce on a clip, which the :class:`~repro.pipeline.Pipeline`
    facade turns into an ordinary ``EncodeReport`` — so literature
    methods sweep through ``run_many`` grids next to measured codecs.

    The byte-level API (``encode_sequence`` / streaming sessions)
    raises :class:`NotImplementedError` with a pointer here, rather
    than fabricating bits that never existed.
    """

    def __init__(self, config: RDModelConfig | None = None):
        self.config = config or RDModelConfig()

    def simulate(
        self,
        num_frames: int,
        height: int,
        width: int,
        *,
        compute_msssim: bool = False,
    ) -> dict:
        """Rate/quality of this operating point on a clip.

        Returns a dict shaped like the measurable core of an
        ``EncodeReport``: ``stream_bytes``/``bpp`` from the PSNR-metric
        curve, per-frame quality constant at the curve point (the model
        is a sequence-level calibration, not a per-frame one).
        """
        cfg = self.config
        curve = model_curve(cfg.method, cfg.dataset, "psnr", cfg.num_points)
        bpp, quality = self._operating_point(curve, height, width)
        stream_bytes = int(round(bpp * height * width * num_frames / 8))
        total_bits = 8 * stream_bytes
        result = {
            "stream_bytes": stream_bytes,
            "bpp": float(bpp),
            "psnr_per_frame": [float(quality)] * num_frames,
            "mean_psnr": float(quality),
            "msssim_per_frame": [],
            "mean_msssim": None,
            "frame_bits": self._split_bits(total_bits, num_frames),
            "achieved_kbps": total_bits * cfg.fps / (num_frames * 1000.0),
        }
        if compute_msssim:
            ms_curve = model_curve(
                cfg.method, cfg.dataset, "ms-ssim", cfg.num_points
            )
            # the ms-ssim curve has its own bpp geometry: read the same
            # fixed point off it, and only interpolate when a rate
            # target moved this encode off the published points
            if self._rate_targeted():
                ms = self._quality_at(ms_curve, bpp)
            else:
                ms = ms_curve.points[cfg.point].quality
            result["msssim_per_frame"] = [float(ms)] * num_frames
            result["mean_msssim"] = float(ms)
        return result

    def _rate_targeted(self) -> bool:
        """True when an adaptive controller steers toward a target."""
        cfg = self.config
        return (
            cfg.rate_control is not None
            and cfg.target_kbps is not None
            and rate_controller_spec(cfg.rate_control).adaptive
        )

    def _operating_point(
        self, curve: RDCurve, height: int, width: int
    ) -> tuple[float, float]:
        """(bpp, quality) this config operates at on ``curve``.

        With an adaptive rate controller and a target, the calibrated
        curve is inverted at the target rate (clamped to the curve's
        published range — the model cannot extrapolate beyond it);
        otherwise the fixed ``point`` index is read off, and a ``"cqp"``
        controller deliberately ignores any target it carries.
        """
        cfg = self.config
        if not self._rate_targeted():
            point = curve.points[cfg.point]
            return float(point.bpp), float(point.quality)
        target_bpp = cfg.target_kbps * 1000.0 / (cfg.fps * height * width)
        bpps = [p.bpp for p in curve.points]
        bpp = min(max(target_bpp, min(bpps)), max(bpps))
        return bpp, self._quality_at(curve, bpp)

    @staticmethod
    def _quality_at(curve: RDCurve, bpp: float) -> float:
        """Quality at ``bpp``, log-rate interpolated along the curve
        (the same ln(rate) law the anchors are built from)."""
        points = sorted(curve.points, key=lambda p: p.bpp)
        bpps = np.array([p.bpp for p in points])
        quals = np.array([p.quality for p in points])
        bpp = float(min(max(bpp, bpps[0]), bpps[-1]))
        return float(np.interp(np.log(bpp), np.log(bpps), quals))

    @staticmethod
    def _split_bits(total_bits: int, num_frames: int) -> list[int]:
        """Per-frame bit counts summing exactly to ``total_bits``."""
        base, extra = divmod(total_bits, num_frames)
        return [base + (1 if i < extra else 0) for i in range(num_frames)]

    # -- the executable-codec surface deliberately refuses ----------------
    def _refuse(self, api: str):
        raise NotImplementedError(
            f"rd-model codec {self.config.method!r} is a calibrated RD model "
            f"of a literature method — it has no weights and produces no "
            f"bitstream, so {api} is not available; use Pipeline/run_many "
            f"(which report its calibrated rate/quality) or model_curve()."
        )

    def encode_sequence(self, frames):
        self._refuse("encode_sequence")

    def decode_sequence(self, stream):
        self._refuse("decode_sequence")

    def open_encoder(self):
        self._refuse("the streaming session API (open_encoder)")

    def open_decoder(self, header=None, version=4):
        self._refuse("the streaming session API (open_decoder)")
