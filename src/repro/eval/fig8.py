"""Fig. 8 — rate-distortion curves (PSNR and MS-SSIM, UVG and HEVC-B).

Regenerates the four panels as named series.  Literature codecs come
from the calibrated RD models; optionally, *measured* curves from this
repository's real codecs (the classical DCT codec and the structured-
initialization CTVC pipeline) are swept over quantization parameters on
the synthetic corpora and overlaid — their absolute position differs
from the trained-network literature (documented in EXPERIMENTS.md),
but their monotone shape and the FP/FXP/sparse spacing are genuine
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec.rd_models import all_method_curves
from repro.metrics import RDCurve
from repro.video import SceneConfig, load_dataset

from .ablations import round_trip
from .tables import render_series

__all__ = ["Fig8Panel", "measured_rd_curve", "generate_fig8"]

#: The four panels of Fig. 8.
PANELS = (
    ("uvg", "psnr"),
    ("uvg", "ms-ssim"),
    ("hevcb", "psnr"),
    ("hevcb", "ms-ssim"),
)


@dataclass
class Fig8Panel:
    """One panel: every method's RD curve on a dataset/metric."""

    dataset: str
    metric: str
    curves: dict[str, RDCurve] = field(default_factory=dict)

    def series(self) -> dict[str, list[tuple[float, float]]]:
        return {
            name: [(p.bpp, p.quality) for p in curve.points]
            for name, curve in self.curves.items()
        }

    def render(self) -> str:
        return render_series(
            self.series(),
            title=f"Fig. 8 — {self.metric.upper()} on {self.dataset}",
            y_label=self.metric,
        )

    def best_method_at_low_rate(self) -> str:
        """The method needing the fewest bits at its lowest point —
        the paper's 'lowest bit consumption at the same quality'."""
        anchor_quality = min(
            curve.points[0].quality for curve in self.curves.values()
        )
        best, best_rate = "", float("inf")
        for name, curve in self.curves.items():
            rate = np.interp(
                anchor_quality,
                curve.qualities,
                curve.rates,
                left=curve.rates[0],
                right=curve.rates[-1],
            )
            if rate < best_rate:
                best, best_rate = name, float(rate)
        return best


def measured_rd_curve(
    codec: str = "classical",
    dataset: str = "uvg-sim",
    metric: str = "psnr",
    qps: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0),
    channels: int = 12,
    frames: int = 3,
    variant: str = "fp",
) -> RDCurve:
    """Sweep a real codec over quantization parameters on a synthetic
    corpus sequence; returns a measured RD curve."""
    sequence = load_dataset(dataset).sequences()[0][:frames]
    _, height, width = sequence[0].shape
    scene = SceneConfig(height=height, width=width, frames=len(sequence))
    from repro.pipeline import create_codec

    curve = RDCurve(name=f"{codec}-{variant}-measured", metric=metric, dataset=dataset)
    for qp in qps:
        if codec == "classical":
            overrides = {"qp": qp}
        elif codec == "ctvc":
            overrides = {"channels": channels, "qstep": qp, "seed": 1}
        else:
            raise ValueError(
                f"measured_rd_curve knows the rate knobs of 'classical' and "
                f"'ctvc' only, got {codec!r}"
            )
        coder = create_codec(codec, **overrides)
        if variant == "fxp" and hasattr(coder, "apply_fxp"):
            coder.apply_fxp()
        elif variant == "sparse" and hasattr(coder, "apply_sparse"):
            coder.apply_sparse(rho=0.5)
        measured = round_trip(
            codec, coder, scene, sequence, compute_msssim=metric != "psnr"
        ).report()
        curve.add(
            measured.bpp,
            measured.mean_psnr if metric == "psnr" else measured.mean_msssim,
        )
    return curve


def generate_fig8(
    num_points: int = 5, include_measured: bool = False
) -> list[Fig8Panel]:
    """Regenerate all four Fig. 8 panels."""
    panels = []
    for dataset, metric in PANELS:
        panel = Fig8Panel(dataset=dataset, metric=metric)
        panel.curves = all_method_curves(dataset, metric, num_points)
        if include_measured:
            panel.curves["classical-meas"] = measured_rd_curve(
                "classical", f"{dataset}-sim", metric
            )
            panel.curves["ctvc-meas"] = measured_rd_curve(
                "ctvc", f"{dataset}-sim", metric
            )
        panels.append(panel)
    return panels
