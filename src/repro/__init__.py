"""NVCA: a reproduction of "A Computationally Efficient Neural Video
Compression Accelerator Based on a Sparse CNN-Transformer Hybrid
Network" (Zhang, Mao, Shi, Wang - DATE 2024).

Package map
-----------
``repro.pipeline`` the composable front door: a string-keyed codec
                   registry, serializable configs, and a ``Pipeline``
                   facade producing typed encode/hardware reports.
``repro.core``     the paper's algorithmic contribution: Winograd/FTA
                   fast transforms, importance-weighted transform-domain
                   pruning, united sparse execution, co-design driver.
``repro.nn``       NumPy DNN substrate (conv/deconv/deformable/Swin
                   attention/quantization).
``repro.codec``    CTVC-Net codec, entropy coding, bitstreams, the
                   classical baseline, calibrated literature RD models.
``repro.hw``       NVCA accelerator model: SFTC/DCC, chaining dataflow,
                   performance/energy/area, pipeline simulator.
``repro.metrics``  PSNR, MS-SSIM, Bjontegaard deltas.
``repro.video``    synthetic corpora and raw-video utilities.
``repro.eval``     regenerates every table and figure.

Quick start
-----------
>>> from repro.pipeline import Pipeline, available_codecs
>>> available_codecs()
['classical', 'ctvc']
>>> report = Pipeline(
...     "ctvc", {"channels": 12, "qstep": 8.0},
...     scene={"height": 64, "width": 96, "frames": 4},
... ).run()
>>> report.bpp, report.mean_psnr        # typed EncodeReport
>>> report.to_dict()                    # JSON-ready

Sweeps fan out the same job spec, optionally over a work queue:

>>> from repro.pipeline import run_many
>>> reports = run_many(codecs=["ctvc", "classical"],
...                    scenes=[{"frames": 4}], backend="queue", workers=4)

Codecs are plugins — ``create_codec("ctvc", channels=12)`` builds one
directly, and ``register_codec`` adds new variants without touching
any caller.
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

# Names resolve on first use: ``import repro`` loads no NumPy.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".codec": ("CTVCConfig", "CTVCNet", "ClassicalCodec", "ClassicalCodecConfig"),
    ".core": ("NVCACodesign", "SparseStrategy"),
    ".hw": ("NVCAConfig",),
    ".metrics": ("bd_rate", "ms_ssim", "psnr"),
    ".pipeline": (
        "EncodeReport", "HardwareReport", "Pipeline", "available_codecs",
        "create_codec", "register_codec", "run_many",
    ),
    ".serialization": ("ConfigError", "SerializableConfig"),
    ".video": ("SceneConfig",),
})
__all__.append("__version__")
