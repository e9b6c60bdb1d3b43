"""Task kinds: typed dispatch for distributed job specs.

PR 4's queue layer assumed every job was an encode; this registry
generalizes the on-wire unit of work to *task kinds*.  A job spec is
still one JSON document, but a ``"kind"`` field now names which task it
is — and a spec with **no** ``kind`` field is an ``"encode"`` job, so
every pre-existing queue directory, resume state, and job id keeps
working unchanged.

Four kinds register at import:

* ``"encode"`` — a :class:`~repro.pipeline.Pipeline` run (codec,
  codec_config, scene, ...), hydrating to
  :class:`~repro.pipeline.EncodeReport`.
* ``"hardware"`` — a platform analysis (``platform`` registry name,
  platform ``config``, ``height``/``width``), hydrating to
  :class:`~repro.pipeline.PlatformReport`.
* ``"dse-point"`` — one NVCA design-space point (``label``, ``config``,
  resolution), hydrating to :class:`~repro.hw.DesignPoint`.
* ``"ladder-rendition"`` — one ABR ladder rung: an encode job plus the
  ``rendition`` (resolution + ``target_kbps``) it serves, hydrating to
  :class:`~repro.pipeline.RenditionReport`.

Each kind supplies three functions: ``normalize`` (validate a raw spec
up front — on the submitting side, before anything ships to a pool or
queue — and canonicalize it so content-derived job ids are stable),
``execute`` (spec in, JSON-ready result document out; what
:func:`repro.pipeline.dist.run_worker` runs), and ``hydrate`` (result
document back to a typed report on the aggregating side).  Custom kinds
plug in with :func:`register_task`; like codec and platform
registrations, runtime registrations reach the in-process drain and
``fork``-start processes only (``docs/distributed.md``).

>>> from repro.pipeline import available_tasks
>>> available_tasks()
['dse-point', 'encode', 'hardware', 'ladder-rendition']
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.serialization import ConfigError

__all__ = [
    "TaskKind",
    "TaskRegistryError",
    "WorkerContext",
    "available_tasks",
    "get_worker_context",
    "hydrate_result",
    "normalize_spec",
    "register_task",
    "reset_worker_context",
    "run_task",
    "spec_kind",
    "task_kind",
    "unregister_task",
]

#: the kind assumed when a job spec carries no "kind" field — the
#: shape every spec had before task typing existed.
DEFAULT_KIND = "encode"


class TaskRegistryError(ValueError):
    """Registration conflict or unknown-task-kind lookup."""


@dataclass(frozen=True)
class TaskKind:
    """One registry entry: the three phases of a typed job."""

    name: str
    #: raw spec -> validated canonical spec (raises on bad input).
    normalize: Callable[[dict], dict]
    #: canonical spec -> JSON-ready result document (the worker body).
    execute: Callable[[dict], dict]
    #: result document -> typed report object (the aggregating side).
    hydrate: Callable[[dict], Any]
    description: str = ""


_REGISTRY: dict[str, TaskKind] = {}


def register_task(
    name: str,
    *,
    normalize: Callable[[dict], dict],
    execute: Callable[[dict], dict],
    hydrate: Callable[[dict], Any],
    description: str = "",
    overwrite: bool = False,
) -> TaskKind:
    """Register a task kind under ``name``."""
    if not name or not isinstance(name, str):
        raise TaskRegistryError(
            f"task kind must be a non-empty string, got {name!r}"
        )
    if name in _REGISTRY and not overwrite:
        raise TaskRegistryError(
            f"task kind {name!r} is already registered "
            f"({_REGISTRY[name].description!r}); "
            "pass overwrite=True to replace it"
        )
    kind = TaskKind(
        name=name,
        normalize=normalize,
        execute=execute,
        hydrate=hydrate,
        description=description,
    )
    _REGISTRY[name] = kind
    return kind


def unregister_task(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def available_tasks() -> list[str]:
    """Sorted names of every registered task kind."""
    return sorted(_REGISTRY)


def task_kind(name: str) -> TaskKind:
    """Look up a registry entry, with a helpful unknown-name error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise TaskRegistryError(
            f"unknown task kind {name!r}; available: "
            f"{', '.join(available_tasks())}"
        ) from None


def spec_kind(spec: dict) -> str:
    """The task kind a job spec names (missing ``kind`` = encode)."""
    if not isinstance(spec, dict):
        raise TaskRegistryError(
            f"job spec must be a mapping, got {type(spec).__name__}"
        )
    kind = spec.get("kind", DEFAULT_KIND)
    if not isinstance(kind, str):
        raise TaskRegistryError(
            f"job spec 'kind' must be a string, got {type(kind).__name__}"
        )
    return kind


def normalize_spec(spec: dict) -> dict:
    """Validate and canonicalize one job spec, whatever its kind.

    This is the up-front check every submission path runs *before* a
    job reaches a pool or queue, so a typo'd codec, platform, or task
    name is one clear ``ValueError`` on the submitting side instead of
    a worker traceback mid-sweep.
    """
    return task_kind(spec_kind(spec)).normalize(spec)


def run_task(spec: dict) -> dict:
    """Execute one job spec to its result document (the worker body)."""
    return task_kind(spec_kind(spec)).execute(spec)


def hydrate_result(spec: dict, result: dict) -> Any:
    """Turn a worker's result document back into the typed report the
    spec's kind produces."""
    return task_kind(spec_kind(spec)).hydrate(result)


# -- the warm-worker cache --------------------------------------------------
class WorkerContext:
    """Per-process cache of the expensive-to-build, cheap-to-reuse
    pieces of a job: codec instances and rendered scene frames.

    A cold worker pays codec construction (model tables, entropy
    backends) and frame synthesis for *every* job; a warm worker pays
    once per distinct config.  Keys are canonical JSON of the codec
    config / scene config, so two specs that normalize identically
    share an entry.  Both caches are LRU-bounded, and ``stats()``
    exposes the hit/miss split (BENCH records it as the warm/cold
    ratio).

    Reuse is only sound because codecs are deterministic and
    stateless across encoder and decoder sessions — a property the
    distributed parity tests pin (serial runs build fresh codecs, warm
    workers reuse them, and the aggregated results must stay
    byte-identical).  Cached frames are returned as per-frame copies so
    an in-place consumer can never corrupt the cache.
    """

    def __init__(self, *, max_codecs: int = 32, max_scenes: int = 8):
        self._codecs: OrderedDict[str, Any] = OrderedDict()
        self._scenes: OrderedDict[str, list] = OrderedDict()
        self._max_codecs = int(max_codecs)
        self._max_scenes = int(max_scenes)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(document: dict) -> str:
        return json.dumps(document, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _count(resource: str, outcome: str) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_warm_cache_total",
            "warm-worker cache lookups by resource and outcome",
        ).inc(resource=resource, outcome=outcome)

    def codec(self, name: str, config) -> Any:
        """The cached codec instance for ``(name, config)``, building
        one on first use."""
        from .registry import create_codec

        config_doc = config.to_dict() if hasattr(config, "to_dict") else config
        key = f"{name}\x00{self._key(dict(config_doc or {}))}"
        with self._lock:
            if key in self._codecs:
                self._codecs.move_to_end(key)
                self.hits += 1
                self._count("codec", "hit")
                return self._codecs[key]
            self.misses += 1
            self._count("codec", "miss")
        built = create_codec(name, config)
        with self._lock:
            self._codecs[key] = built
            while len(self._codecs) > self._max_codecs:
                self._codecs.popitem(last=False)
        return built

    def frames(self, scene, *, loader=None) -> list:
        """Rendered frames for ``scene`` (per-frame copies of the
        cached originals).  ``loader`` overrides how a cache miss is
        filled — the shared-memory transport uses it to attach a
        segment instead of re-synthesizing."""
        scene_doc = scene.to_dict() if hasattr(scene, "to_dict") else scene
        key = self._key(dict(scene_doc))
        with self._lock:
            cached = self._scenes.get(key)
            if cached is not None:
                self._scenes.move_to_end(key)
                self.hits += 1
                self._count("scene", "hit")
                return [frame.copy() for frame in cached]
            self.misses += 1
            self._count("scene", "miss")
        rendered = None
        if loader is not None:
            rendered = loader()
        if rendered is None:
            from repro.video import SceneConfig, generate_sequence

            if isinstance(scene, dict):
                scene = SceneConfig.from_dict(scene)
            rendered = generate_sequence(scene)
        with self._lock:
            self._scenes[key] = rendered
            while len(self._scenes) > self._max_scenes:
                self._scenes.popitem(last=False)
        return [frame.copy() for frame in rendered]

    def stats(self) -> dict:
        """Hit/miss counters and cache occupancy (JSON-ready)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "codecs": len(self._codecs),
                "scenes": len(self._scenes),
            }

    def clear(self) -> None:
        with self._lock:
            self._codecs.clear()
            self._scenes.clear()
            self.hits = 0
            self.misses = 0


_WORKER_CONTEXT = WorkerContext()


def get_worker_context() -> WorkerContext:
    """This process's warm cache (what the execute paths use)."""
    return _WORKER_CONTEXT


def reset_worker_context() -> None:
    """Empty the process cache (tests; cold-start benchmarking)."""
    _WORKER_CONTEXT.clear()


# -- "encode" ---------------------------------------------------------------
#: transport-only spec fields: annotations a runner may attach for the
#: worker's benefit that are *not* part of the job's identity — they
#: are stripped before hashing, validation, and execution semantics.
TRANSPORT_FIELDS = ("frames_shm",)


def strip_transport_fields(spec: dict) -> dict:
    """Copy of ``spec`` without transport annotations (job identity)."""
    return {k: v for k, v in spec.items() if k not in TRANSPORT_FIELDS}


def _strip_kind(spec: dict) -> dict:
    return {k: v for k, v in spec.items() if k != "kind"}


def _shm_loader(descriptor):
    """A :meth:`WorkerContext.frames` loader that attaches a shared
    frame segment, or ``None`` (fall back to synthesis) when the
    segment is unreachable — a remote/HTTP worker, or a runner that
    already tore the segment down."""
    if descriptor is None:
        return None

    def load():
        from repro.pipeline.dist.shm import attach_frames

        return attach_frames(descriptor)

    return load


def _warm_encode_session(pipeline, shm_descriptor=None):
    """An :class:`~repro.pipeline.facade.EncodeSession` with its codec
    (and, for real codecs, its frames) injected from the worker
    cache."""
    context = get_worker_context()
    session = pipeline.session()
    session.codec = context.codec(pipeline.codec, pipeline.codec_config)
    if not hasattr(session.codec, "simulate"):
        session.frames = context.frames(
            pipeline.scene, loader=_shm_loader(shm_descriptor)
        )
    return session


def _normalize_encode(spec: dict) -> dict:
    # Canonical form carries no "kind" (and no transport annotations):
    # byte-identical to every job document written before task typing,
    # so content-derived ids (and therefore --resume against old queue
    # directories) are stable.
    from .facade import Pipeline

    return Pipeline.from_dict(_strip_kind(strip_transport_fields(spec))).to_dict()


def _execute_encode(spec: dict) -> dict:
    from .facade import Pipeline

    shm_descriptor = spec.get("frames_shm")
    pipeline = Pipeline.from_dict(_strip_kind(strip_transport_fields(spec)))
    report = _warm_encode_session(pipeline, shm_descriptor).run()
    report.hardware = pipeline.run_hardware() if pipeline.hardware else None
    return report.to_dict()


def _hydrate_encode(result: dict):
    from .reports import EncodeReport

    return EncodeReport.from_dict(result)


# -- "hardware" -------------------------------------------------------------
_HARDWARE_FIELDS = ("kind", "platform", "config", "height", "width")


def _check_fields(spec: dict, known: tuple[str, ...], kind: str) -> None:
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ConfigError(
            f"{kind} job spec: unknown field(s) {', '.join(unknown)}; "
            f"valid fields: {', '.join(known)}"
        )


def _resolution(spec: dict, kind: str) -> tuple[int, int]:
    height = spec.get("height", 1080)
    width = spec.get("width", 1920)
    for label, value in (("height", height), ("width", width)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(
                f"{kind} job spec: {label} must be a positive int, "
                f"got {value!r}"
            )
    return height, width


def _platform_config(spec: dict, kind: str):
    """Resolve (platform name, canonical config dict), validating the
    name against the platform registry up front."""
    from .platforms import platform_entry

    platform = spec.get("platform", "nvca")
    entry = platform_entry(platform)  # raises listing what is available
    config = spec.get("config")
    if config is None:
        config = entry.config_cls()
    elif isinstance(config, dict):
        config = entry.config_cls.from_dict(config)
    elif not isinstance(config, entry.config_cls):
        raise ConfigError(
            f"{kind} job spec: platform {platform!r} expects a "
            f"{entry.config_cls.__name__} config, got {type(config).__name__}"
        )
    return platform, entry, config


def _normalize_hardware(spec: dict) -> dict:
    _check_fields(spec, _HARDWARE_FIELDS, "hardware")
    platform, _, config = _platform_config(spec, "hardware")
    height, width = _resolution(spec, "hardware")
    return {
        "kind": "hardware",
        "platform": platform,
        "config": config.to_dict(),
        "height": height,
        "width": width,
    }


def _execute_hardware(spec: dict) -> dict:
    from .platforms import create_platform

    model = create_platform(spec.get("platform", "nvca"), spec.get("config"))
    height, width = _resolution(spec, "hardware")
    return model.analyze(height, width).to_dict()


def _hydrate_hardware(result: dict):
    from .reports import PlatformReport

    return PlatformReport.from_dict(result)


# -- "dse-point" ------------------------------------------------------------
_DSE_FIELDS = ("kind", "label", "platform", "config", "height", "width")


def _normalize_dse_point(spec: dict) -> dict:
    from repro.hw import NVCAConfig

    _check_fields(spec, _DSE_FIELDS, "dse-point")
    platform, entry, config = _platform_config(spec, "dse-point")
    if not (
        isinstance(entry.config_cls, type)
        and issubclass(entry.config_cls, NVCAConfig)
    ):
        raise ConfigError(
            f"dse-point job spec: platform {platform!r} is a fixed "
            "reference platform with no design space; DSE needs a "
            "modeled platform ('nvca')"
        )
    height, width = _resolution(spec, "dse-point")
    label = spec.get("label")
    if label is None:
        label = (
            f"{config.pif}x{config.pof}@rho={config.rho:.2f}"
            f"@{config.frequency_mhz:g}MHz"
        )
    elif not isinstance(label, str) or not label:
        raise ConfigError(
            f"dse-point job spec: label must be a non-empty string, "
            f"got {label!r}"
        )
    return {
        "kind": "dse-point",
        "label": label,
        "platform": platform,
        "config": config.to_dict(),
        "height": height,
        "width": width,
    }


def _execute_dse_point(spec: dict) -> dict:
    from .platforms import create_platform

    model = create_platform(spec.get("platform", "nvca"), spec.get("config"))
    height, width = _resolution(spec, "dse-point")
    return model.design_point(height, width, spec["label"]).to_dict()


def _hydrate_dse_point(result: dict):
    from repro.hw import DesignPoint

    return DesignPoint.from_dict(result)


# -- "ladder-rendition" -----------------------------------------------------
_LADDER_FIELDS = (
    "kind",
    "codec",
    "codec_config",
    "scene",
    "compute_msssim",
    "hardware",
    "rendition",
)


def _ladder_parts(spec: dict):
    """Split a ladder-rendition spec into (Rendition, encode sub-spec),
    cross-checking that the encode job actually serves the rung."""
    from .facade import Pipeline
    from .ladder import Rendition

    spec = strip_transport_fields(spec)
    _check_fields(spec, _LADDER_FIELDS, "ladder-rendition")
    if "rendition" not in spec:
        raise ConfigError(
            "ladder-rendition job spec needs a 'rendition' mapping "
            "(height, width, target_kbps)"
        )
    rendition = Rendition.from_dict(spec["rendition"])
    encode = {k: v for k, v in spec.items() if k not in ("kind", "rendition")}
    pipeline = Pipeline.from_dict(encode)
    scene = pipeline.scene
    if (scene.height, scene.width) != (rendition.height, rendition.width):
        raise ConfigError(
            f"ladder-rendition job spec: scene is "
            f"{scene.width}x{scene.height} but the rendition says "
            f"{rendition.width}x{rendition.height}"
        )
    target = pipeline.codec_config.to_dict().get("target_kbps")
    if target != rendition.target_kbps:
        raise ConfigError(
            f"ladder-rendition job spec: codec_config target_kbps is "
            f"{target!r} but the rendition says {rendition.target_kbps}"
        )
    return rendition, pipeline


def _normalize_ladder_rendition(spec: dict) -> dict:
    rendition, pipeline = _ladder_parts(spec)
    return {
        "kind": "ladder-rendition",
        "rendition": rendition.to_dict(),
        **pipeline.to_dict(),
    }


def _execute_ladder_rendition(spec: dict) -> dict:
    shm_descriptor = spec.get("frames_shm")
    _, pipeline = _ladder_parts(spec)
    report = _warm_encode_session(pipeline, shm_descriptor).run()
    report.hardware = pipeline.run_hardware() if pipeline.hardware else None
    return {
        "rendition": dict(spec["rendition"]),
        "encode": report.to_dict(),
    }


def _hydrate_ladder_rendition(result: dict):
    from .ladder import RenditionReport

    return RenditionReport.from_result(result)


# -- built-in registrations -------------------------------------------------
register_task(
    "encode",
    normalize=_normalize_encode,
    execute=_execute_encode,
    hydrate=_hydrate_encode,
    description="one Pipeline encode/decode/measure run -> EncodeReport",
)
register_task(
    "hardware",
    normalize=_normalize_hardware,
    execute=_execute_hardware,
    hydrate=_hydrate_hardware,
    description="one platform analysis -> PlatformReport",
)
register_task(
    "dse-point",
    normalize=_normalize_dse_point,
    execute=_execute_dse_point,
    hydrate=_hydrate_dse_point,
    description="one NVCA design-space point -> DesignPoint",
)
register_task(
    "ladder-rendition",
    normalize=_normalize_ladder_rendition,
    execute=_execute_ladder_rendition,
    hydrate=_hydrate_ladder_rendition,
    description="one ABR ladder rung encode -> RenditionReport",
)
