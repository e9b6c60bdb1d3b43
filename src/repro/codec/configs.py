"""The codec config classes, importable without NumPy or SciPy.

:class:`ClassicalCodecConfig`, :class:`CTVCConfig` and
:class:`RDModelConfig` are defined here, not beside their codecs, so a
process that only builds and submits job specs (``repro sweep``, a
:class:`~repro.pipeline.dist.SweepRunner`) validates configs without
loading the codec stack.  :mod:`repro.codec.classical`,
:mod:`repro.codec.ctvc` and :mod:`repro.codec.rd_models` re-export the
same class objects.  Validation reads only NumPy-free registries: the
entropy-backend names (:mod:`repro.codec.entropy_registry`) and the
rate controllers (:mod:`repro.codec.rate_control`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.serialization import ConfigError, SerializableConfig

from .entropy_registry import validate_entropy_backend
from .rate_control import validate_rate_fields

__all__ = [
    "DATASETS",
    "METHODS",
    "SUBSTRATE_NAMES",
    "CTVCConfig",
    "ClassicalCodecConfig",
    "RDModelConfig",
    "validate_motion_fields",
]

#: numeric tiers of the CTVC-Net nets (``repro.codec.ctvc.SUBSTRATES``
#: maps each to the float dtype its activations run in).
SUBSTRATE_NAMES = ("fast", "reference")

#: Method keys in the paper's Table I row order.
METHODS = (
    "h264",
    "dvc",
    "h265",
    "lu-eccv20",
    "fvc",
    "dcvc",
    "ctvc-fp",
    "ctvc-fxp",
    "ctvc-sparse",
)

#: Dataset keys in the paper's Table I column order.
DATASETS = ("uvg", "hevcb", "mcljcv")


def _normalize_dataset(dataset: str) -> str:
    name = dataset.lower().replace("-sim", "")
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {dataset!r}; know {DATASETS}")
    return name


def validate_motion_fields(
    block_size: int, search_range: int, min_block_size: int
) -> None:
    """Check a codec config's motion fields at construction.

    ``search_range`` must be an int >= 0 and ``block_size`` an int >=
    ``min_block_size``; anything else would crash deep inside encode.
    """
    for name, value, least in (
        ("block_size", block_size, min_block_size),
        ("search_range", search_range, 0),
    ):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < least
        ):
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


@dataclass(frozen=True)
class ClassicalCodecConfig(SerializableConfig):
    """Operating parameters of the classical codec."""

    qp: float = 8.0  # quantization step for luma DCT coefficients
    chroma_qp_scale: float = 1.6
    block_size: int = 8  # motion block size (luma pixels)
    search_range: int = 8
    gop: int = 8  # I-frame interval
    support: int = 255  # symbol support for coefficient coding
    #: refine integer motion to half-pel precision (bilinear reference
    #: interpolation), as H.264-class codecs do.
    half_pel: bool = False
    #: entropy coder for coefficients and motion ("rans" is the fast
    #: vectorized default, "cacm" the paper-exact reference).
    entropy_backend: str = "rans"
    #: rate controller name ("cqp" / "abr" / "calibrated"; see
    #: :mod:`repro.codec.rate_control`) or None for plain fixed-QP.
    rate_control: str | None = None
    #: bitrate budget in kilobits per second (needs a rate controller).
    target_kbps: float | None = None
    #: frame rate the bitrate budget is measured against.
    fps: float = 30.0

    def __post_init__(self):
        validate_entropy_backend(self.entropy_backend)
        validate_rate_fields(self.rate_control, self.target_kbps, self.fps)
        # chroma planes search with half the luma block size
        validate_motion_fields(self.block_size, self.search_range, 2)


@dataclass(frozen=True)
class CTVCConfig(SerializableConfig):
    """Hyper-parameters of a CTVC-Net instance.

    The paper's operating point is ``channels=36`` (N), window 3,
    ``rho=0.5``; smaller channel counts run much faster and are used by
    the test suite.

    Fields split in two: :attr:`ARCHITECTURE_FIELDS` are what the nets'
    constructors read (the weights depend on them and on nothing else),
    :attr:`CODING_FIELDS` only steer how the nets' output is coded.
    Codecs whose configs differ in coding fields alone can share one
    set of nets (:meth:`CTVCNet.with_config`).
    """

    #: fields the net modules are built from.
    ARCHITECTURE_FIELDS = (
        "channels", "window", "heads", "block_size", "search_range", "seed",
    )
    #: fields that never reach a net module.
    CODING_FIELDS = (
        "qstep", "intra_qp", "gop", "entropy_backend", "rate_control",
        "target_kbps", "fps", "substrate",
    )

    channels: int = 36
    qstep: float = 8.0  # latent quantization step (rate control knob)
    intra_qp: float | None = None  # classical I-frame QP; None derives it
    gop: int = 8
    window: int = 3
    heads: int = 4
    block_size: int = 8
    search_range: int = 4
    seed: int = 0
    #: entropy coder for latents and intra planes ("rans" is the fast
    #: vectorized default, "cacm" the paper-exact reference).
    entropy_backend: str = "rans"
    #: rate controller name ("cqp" / "abr" / "calibrated"; see
    #: :mod:`repro.codec.rate_control`) or None for plain fixed-qstep.
    rate_control: str | None = None
    #: bitrate budget in kilobits per second (needs a rate controller).
    target_kbps: float | None = None
    #: frame rate the bitrate budget is measured against.
    fps: float = 30.0
    #: numeric tier of the nets (:data:`SUBSTRATE_NAMES`): "fast" (float32,
    #: the default) or "reference" (float64, byte-identical to streams
    #: written before the tier existed).  Recorded in the stream header.
    substrate: str = "fast"

    def __post_init__(self):
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.channels < 2:
            raise ConfigError(f"channels must be >= 2, got {self.channels}")
        if 2 * self.channels % self.heads:
            # the Swin attention modules run on 2N channels split over heads
            raise ConfigError(
                f"2*channels must be divisible by heads={self.heads}, "
                f"got channels={self.channels}"
            )
        validate_entropy_backend(self.entropy_backend)
        if self.substrate not in SUBSTRATE_NAMES:
            raise ConfigError(
                f"unknown substrate {self.substrate!r}; "
                f"available: {', '.join(SUBSTRATE_NAMES)}"
            )
        validate_rate_fields(self.rate_control, self.target_kbps, self.fps)
        validate_motion_fields(self.block_size, self.search_range, 1)

    def derived_intra_qp(self) -> float:
        """I-frame QP tracking the latent quantization step."""
        return self.intra_qp if self.intra_qp is not None else 2.0 * self.qstep

    def architecture(self) -> dict:
        """The fields the nets are built from: every field but the
        coding ones, so a field nobody classified never lets two
        different nets pass for one."""
        return {
            name: value
            for name, value in self.to_dict().items()
            if name not in self.CODING_FIELDS
        }


@dataclass(frozen=True)
class RDModelConfig(SerializableConfig):
    """Operating point of one calibrated literature method.

    ``point`` indexes the method's RD curve (``0`` = lowest rate,
    ``num_points - 1`` = highest), so a ``run_many`` grid over
    ``point`` sweeps the whole published curve through the same
    surface as the measured codecs.
    """

    method: str = "h265"
    dataset: str = "uvg"
    #: curve index in [0, num_points).
    point: int = 2
    num_points: int = 5
    #: rate controller name (see :mod:`repro.codec.rate_control`).
    #: With a target, ``simulate`` inverts the method's calibrated RD
    #: curve to the target rate instead of reading a fixed point — the
    #: fast calibration path for ladder planning.
    rate_control: str | None = None
    #: bitrate budget in kilobits per second (needs a rate controller).
    target_kbps: float | None = None
    #: frame rate the bitrate budget is measured against.
    fps: float = 30.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; know {', '.join(METHODS)}"
            )
        _normalize_dataset(self.dataset)  # raises on unknown names
        if self.num_points < 2:
            raise ValueError(f"num_points must be >= 2, got {self.num_points}")
        if not 0 <= self.point < self.num_points:
            raise ValueError(
                f"point must be in [0, {self.num_points}), got {self.point}"
            )
        validate_rate_fields(self.rate_control, self.target_kbps, self.fps)
