"""``repro.pipeline`` — the package's composable front door.

Layers, designed to be scripted, queued, and sharded:

* **registries** — ``register_codec`` / ``create_codec`` /
  ``available_codecs``: codecs are named plugins behind the
  :class:`VideoCodec` protocol (``"ctvc"``, ``"classical"`` and
  ``"rd-model"`` are built-ins whose modules load on first use); ``register_platform`` / ``create_platform`` /
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.codec": ("available_entropy_backends",),
    ".configs": ("CONFIG_TYPES", "ConfigError", "load_config"),
    ".facade": ("EncodeSession", "Pipeline", "analyze_hardware", "run_many"),
    ".jobs": ("build_jobs",),
    ".dist": (
        "HttpJobQueue", "QueueRunner", "QueueServer", "SweepResult",
        "SweepRunner", "WorkerFleet", "spawn_worker",
    ),
    ".dse": ("DSEResult", "DSERunner", "dse_grid", "dse_point_spec"),
    ".ladder": (
        "LadderReport", "LadderRunner", "LadderSpec", "Rendition",
        "RenditionReport",
    ),
    ".platforms": (
        "AcceleratorModel", "NVCAModel", "PlatformEntry",
        "PlatformRegistryError", "ReferencePlatform",
        "ReferencePlatformConfig", "available_platforms", "create_platform",
        "platform_entry", "register_platform", "unregister_platform",
    ),
    ".registry": (
        "CodecRegistryError", "CodecSpec", "VideoCodec", "available_codecs",
        "codec_spec", "create_codec", "register_codec", "unregister_codec",
    ),
    ".reports": ("EncodeReport", "HardwareReport", "PlatformReport"),
    ".tasks": (
        "TaskKind", "TaskRegistryError", "available_tasks", "hydrate_result",
        "normalize_spec", "register_task", "run_task", "spec_kind",
        "task_kind", "unregister_task",
    ),
})
