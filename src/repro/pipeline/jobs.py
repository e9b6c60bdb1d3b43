"""Job specs: the submitting side of ``run_many`` and the sweep runners.

:func:`build_jobs` turns every calling style into validated, JSON-ready
job specs, and :func:`encode_spec` builds the document of one encode
job: exactly what ``Pipeline(...).to_dict()`` returns.  Nothing here
imports NumPy or SciPy.  Configs validate through NumPy-free classes
(:mod:`repro.codec.configs`, :mod:`repro.video.scene`) and codec names
through the registry's names, so a process that only builds and submits
a grid (``repro sweep`` against a queue) never loads the codec stack.
A hardware grid imports the platform models when it expands.
:mod:`repro.pipeline.facade` re-exports :func:`build_jobs`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING

from repro.serialization import ConfigError, SerializableConfig
from repro.video.scene import SceneConfig

from .registry import _CODECS, _config_cls
from .tasks import normalize_spec

if TYPE_CHECKING:
    from repro.hw.arch import NVCAConfig

__all__ = ["build_jobs", "encode_configs", "encode_spec"]


def encode_configs(
    codec: str,
    codec_config: SerializableConfig | dict | None = None,
    scene: SceneConfig | dict | None = None,
    hardware: NVCAConfig | dict | bool | None = None,
) -> tuple[SerializableConfig, SceneConfig, NVCAConfig | None]:
    """The codec config, scene and hardware config an encode job of
    ``codec`` runs with.  Dicts validate through the config classes,
    ``None`` means defaults, ``hardware=True`` the default NVCA
    config; an unknown codec name raises the registry's error."""
    config_cls = _config_cls(codec)
    if isinstance(codec_config, dict):
        codec_config = config_cls.from_dict(codec_config)
    elif codec_config is not None and not isinstance(codec_config, config_cls):
        raise ConfigError(
            f"codec {codec!r} expects a {config_cls.__name__}, "
            f"got {type(codec_config).__name__}"
        )
    if isinstance(scene, dict):
        scene = SceneConfig.from_dict(scene)
    if hardware is False:
        hardware = None
    elif hardware is True or isinstance(hardware, dict):
        from repro.hw.arch import NVCAConfig

        hardware = NVCAConfig() if hardware is True else NVCAConfig.from_dict(hardware)
    return codec_config or config_cls(), scene or SceneConfig(), hardware


def encode_spec(
    codec: str,
    codec_config: SerializableConfig | dict | None = None,
    scene: SceneConfig | dict | None = None,
    *,
    compute_msssim: bool = False,
    hardware: NVCAConfig | dict | bool | None = None,
) -> dict:
    """The job document of one encode job (the schema in
    ``docs/distributed.md``)."""
    codec_config, scene, hardware = encode_configs(
        codec, codec_config, scene, hardware
    )
    return {
        "codec": codec,
        "codec_config": codec_config.to_dict(),
        "scene": scene.to_dict(),
        "compute_msssim": compute_msssim,
        "hardware": hardware.to_dict() if hardware else None,
    }


def _grid(registry, config_cls, names, configs, items):
    """``(name, overrides, item)`` over names x configs x items, once
    every name is known to ``registry``.  Dict overrides keep only the
    keys the name's config class (``config_cls(name)``) defines, so one
    grid can mix CTVC's ``qstep`` and classical's ``qp``."""
    registry.check(names)
    for name, overrides, item in itertools.product(names, configs, items):
        if isinstance(overrides, dict):
            fields = {f.name for f in dataclasses.fields(config_cls(name))}
            overrides = {k: v for k, v in overrides.items() if k in fields}
        yield name, overrides, item


def _encode_grid(codecs, codec_configs, scenes, compute_msssim) -> list[dict]:
    """Expand the codecs x codec_configs x scenes cross product."""
    return [
        encode_spec(codec, overrides, scene, compute_msssim=compute_msssim)
        for codec, overrides, scene in _grid(
            _CODECS,
            _config_cls,
            codecs,
            codec_configs if codec_configs is not None else [{}],
            scenes if scenes is not None else [SceneConfig()],
        )
    ]


def _hardware_grid(platforms, platform_configs, resolutions) -> list[dict]:
    """Expand the platforms x platform_configs x resolutions cross
    product into ``"hardware"`` task specs."""
    from .platforms import _PLATFORMS

    return [
        {
            "kind": "hardware",
            "platform": platform,
            "config": overrides,
            "height": int(height),
            "width": int(width),
        }
        for platform, overrides, (height, width) in _grid(
            _PLATFORMS,
            lambda name: _PLATFORMS.get(name).config_cls,
            platforms,
            platform_configs if platform_configs is not None else [{}],
            resolutions if resolutions is not None else [(1080, 1920)],
        )
    ]


def build_jobs(
    jobs=None,
    *,
    codecs=None,
    codec_configs=None,
    scenes=None,
    compute_msssim: bool = False,
    platforms=None,
    platform_configs=None,
    resolutions=None,
) -> list[dict]:
    """Normalize any ``run_many`` calling style to validated specs.

    Explicit ``jobs`` (``Pipeline`` objects or task-typed spec dicts —
    a dict without ``"kind"`` is an encode job) pass through per-kind
    validation one by one; a ``codecs`` grid expands the
    codecs x codec_configs x scenes cross product, skipping override
    keys a codec's config class does not define (so one grid can mix
    ``qstep`` and ``qp``); a ``platforms`` grid expands
    platforms x platform_configs x resolutions into ``"hardware"``
    analysis jobs the same way.  Codec, platform, and task-kind names
    are validated *up front* — before any job is built, let alone
    submitted to a queue — so a typo fails as one clear
    ``ValueError`` naming every offender instead of a worker traceback
    mid-sweep.

    Returns JSON-ready job-spec dicts (the on-wire unit of
    :mod:`repro.pipeline.dist`).
    """
    if jobs is None:
        if codecs is not None and platforms is not None:
            raise ValueError(
                "pass a codecs=[...] grid or a platforms=[...] grid, not "
                "both (build the two spec lists and concatenate them to mix)"
            )
        if codecs is not None:
            return _encode_grid(codecs, codec_configs, scenes, compute_msssim)
        if platforms is None:
            raise ValueError(
                "run_many needs jobs=... or a codecs=[...] / "
                "platforms=[...] grid"
            )
        if compute_msssim:
            raise ValueError("compute_msssim only applies to encode grids")
        jobs = _hardware_grid(platforms, platform_configs, resolutions)
    elif compute_msssim:
        raise ValueError(
            "compute_msssim only applies to grid mode; with explicit jobs, "
            "set it on each Pipeline"
        )
    specs = []
    for job in jobs:
        if isinstance(job, dict):
            specs.append(normalize_spec(job))
            continue
        from .facade import Pipeline  # already loaded if ``job`` is one

        if not isinstance(job, Pipeline):
            raise TypeError(
                f"run_many jobs must be Pipeline or dict, got {type(job).__name__}"
            )
        specs.append(job.to_dict())
    return specs
