"""``repro.pipeline`` — the package's composable front door.

Layers, designed to be scripted, queued, and sharded:

* **registries** — ``register_codec`` / ``create_codec`` /
  ``available_codecs``: codecs are named plugins behind the
  :class:`VideoCodec` protocol (``"ctvc"`` and ``"classical"``
  register at import); ``register_platform`` / ``create_platform`` /
  ``available_platforms``: accelerator platforms are named plugins
  behind the :class:`AcceleratorModel` protocol (``"nvca"`` plus the
  four published Table II references).
* **configs** — every config class serializes (``to_dict`` /
  ``from_dict`` / JSON) with validation, so jobs travel as documents.
* **facade** — :class:`Pipeline` composes source → codec →
  bitstream round-trip → metrics → optional NVCA hardware analysis
  into one ``run()`` returning typed :class:`EncodeReport` /
  :class:`HardwareReport`; :func:`analyze_hardware` and the platform
  models return :class:`PlatformReport`; :func:`run_many` sweeps
  (codec, config, scene) and (platform, config, resolution) grids
  inline or — via ``backend="queue"`` — on the work-queue execution
  layer.
* **tasks** — distributed jobs are *task-typed*
  (:mod:`repro.pipeline.tasks`): a job spec's ``"kind"`` field names
  its body — ``"encode"``, ``"hardware"``, ``"dse-point"``,
  ``"ladder-rendition"``, or a :func:`register_task` plugin — and a
  spec without ``kind`` stays an encode job, so pre-existing queue
  state keeps working.
* **dist** — sharded execution (:mod:`repro.pipeline.dist`): a
  claim/lease/ack :class:`~repro.pipeline.dist.JobQueue` (in-memory
  or directory-backed, so workers can live in other processes or on
  other hosts sharing a filesystem), the kind-dispatching worker
  loop, and :class:`~repro.pipeline.dist.QueueRunner` fleets —
  :class:`~repro.pipeline.dist.SweepRunner` aggregating RD curves +
  BD-rate (``repro sweep``), :class:`DSERunner` aggregating
  design-point tables + Pareto fronts (``repro dse``,
  :mod:`repro.pipeline.dse`), and :class:`LadderRunner` building ABR
  ladders rung-by-rung (``repro ladder``,
  :mod:`repro.pipeline.ladder`).  See ``docs/distributed.md`` and
  ``docs/hardware.md``.

Codecs stream: the :class:`VideoCodec` protocol includes
``open_encoder()``/``open_decoder()`` frame-at-a-time sessions
(:mod:`repro.codec.sessions`), and the facade's
``session().run(output=..., progress=...)`` writes the incremental
version-4 container with O(1) frame memory.  The registered
``rd-model`` pseudo-codec sweeps calibrated literature RD curves
through this same surface (simulated reports — it has no bitstream).

Entropy backends plug in one layer below: both built-in codec configs
carry an ``entropy_backend`` field (``"rans"`` fast path by default,
``"cacm"`` paper-exact reference — see
:func:`available_entropy_backends`), it serializes with the rest of the
job document, and the chosen backend is recorded in every bitstream
header so decode always follows the stream, not the local config.
"""

from repro.codec import available_entropy_backends

from .configs import CONFIG_TYPES, ConfigError, load_config
from .facade import (
    EncodeSession,
    Pipeline,
    analyze_hardware,
    build_jobs,
    run_many,
)
from .dist import (
    HttpJobQueue,
    QueueRunner,
    QueueServer,
    SweepResult,
    SweepRunner,
    WorkerFleet,
    spawn_worker,
)
from .dse import DSEResult, DSERunner, dse_grid, dse_point_spec
from .ladder import (
    LadderReport,
    LadderRunner,
    LadderSpec,
    Rendition,
    RenditionReport,
)
from .platforms import (
    AcceleratorModel,
    NVCAModel,
    PlatformEntry,
    PlatformRegistryError,
    ReferencePlatform,
    ReferencePlatformConfig,
    available_platforms,
    create_platform,
    platform_entry,
    register_platform,
    unregister_platform,
)
from .registry import (
    CodecRegistryError,
    CodecSpec,
    VideoCodec,
    available_codecs,
    codec_spec,
    create_codec,
    register_codec,
    unregister_codec,
)
from .reports import EncodeReport, HardwareReport, PlatformReport
from .tasks import (
    TaskKind,
    TaskRegistryError,
    available_tasks,
    hydrate_result,
    normalize_spec,
    register_task,
    run_task,
    spec_kind,
    task_kind,
    unregister_task,
)

__all__ = [
    "CONFIG_TYPES",
    "AcceleratorModel",
    "CodecRegistryError",
    "CodecSpec",
    "ConfigError",
    "DSEResult",
    "DSERunner",
    "EncodeReport",
    "EncodeSession",
    "HardwareReport",
    "HttpJobQueue",
    "LadderReport",
    "LadderRunner",
    "LadderSpec",
    "NVCAModel",
    "Pipeline",
    "PlatformEntry",
    "PlatformRegistryError",
    "PlatformReport",
    "QueueRunner",
    "QueueServer",
    "ReferencePlatform",
    "ReferencePlatformConfig",
    "Rendition",
    "RenditionReport",
    "SweepResult",
    "SweepRunner",
    "TaskKind",
    "TaskRegistryError",
    "VideoCodec",
    "WorkerFleet",
    "analyze_hardware",
    "available_codecs",
    "available_entropy_backends",
    "available_platforms",
    "available_tasks",
    "build_jobs",
    "codec_spec",
    "create_codec",
    "create_platform",
    "dse_grid",
    "dse_point_spec",
    "hydrate_result",
    "load_config",
    "normalize_spec",
    "platform_entry",
    "register_codec",
    "register_platform",
    "register_task",
    "run_many",
    "run_task",
    "spawn_worker",
    "spec_kind",
    "task_kind",
    "unregister_codec",
    "unregister_platform",
    "unregister_task",
]
