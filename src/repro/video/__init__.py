"""Synthetic video sources and raw-video utilities."""

from repro._lazy import lazy_exports

# Names resolve on first use: ``SceneConfig`` loads no NumPy.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".datasets": ("DATASETS", "DatasetSpec", "dataset_names", "load_dataset"),
    ".scene": ("SceneConfig",),
    ".synthetic": ("VideoGenerator", "generate_sequence", "iter_sequence"),
    ".yuv": (
        "YUV420Reader", "read_yuv420", "rgb_to_ycbcr", "subsample_420",
        "upsample_420", "write_yuv420", "ycbcr_to_rgb",
    ),
})
