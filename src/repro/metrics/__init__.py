"""Quality metrics and rate-distortion analysis (PSNR, MS-SSIM, BD-rate).

Sweep aggregation lives here too: :func:`curves_from_reports` folds the
encode reports of a ``run_many``/``repro sweep`` grid into per-(codec,
scene) :class:`RDCurve` objects and :func:`bd_rate_table` scores them
against an anchor codec — see ``docs/distributed.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bd": ("bd_quality", "bd_rate", "bd_rate_table"),
    ".quality": ("MS_SSIM_WEIGHTS", "ms_ssim", "mse", "psnr", "ssim"),
    ".rd": ("RDCurve", "RDPoint", "curves_from_reports", "scene_label"),
})
