"""``repro.pipeline.dist`` — sharded sweep execution over work queues.

PR 1 made every :class:`~repro.pipeline.Pipeline` job a JSON document
precisely so grids could one day shard beyond a process pool; this
package is that seam made real.  Three layers, bottom up:

* :mod:`~repro.pipeline.dist.queues` — the :class:`JobQueue`
  claim/lease/ack protocol with an in-memory implementation
  (:class:`MemoryJobQueue`, drained in the runner's own process) and a
  directory-backed one
  (:class:`DirectoryJobQueue`, atomic-rename claims; any number of
  worker processes, on one host or across hosts sharing a filesystem).
* :mod:`~repro.pipeline.dist.worker` — the worker loop
  (:func:`run_worker`) and the process/remote-host entry point
  (:func:`worker_entry`): claim spec, dispatch it by task kind through
  :func:`repro.pipeline.tasks.run_task` (encode pipelines, hardware
  analyses, and DSE points share one fleet), ack the result; failures
  are retried by whoever claims next.
* :mod:`~repro.pipeline.dist.net` — the network transport:
  :class:`QueueServer` serves any backing queue as JSON-over-HTTP (the
  ``repro serve`` daemon); :class:`HttpJobQueue` is the client
  implementing the same :class:`JobQueue` protocol over the wire, so
  runners and workers on any host that can reach the server
  participate unchanged (``repro worker --queue-url``).
* :mod:`~repro.pipeline.dist.fleet` — :func:`spawn_worker` starts a
  worker process; :class:`WorkerFleet` replaces the dead and sizes the
  fleet to observed queue depth and lease expiries, for the sweep
  runner's fixed-size fleet and ``repro serve --autoscale`` alike.
* :mod:`~repro.pipeline.dist.sweep` — :class:`QueueRunner`: submit a
  spec list, babysit the fleet (lease reaping, crash respawns), drain
  results incrementally (verifying each result's checksum), quarantine
  poison jobs via a circuit breaker, and hand terminal payloads to an
  aggregation.  :class:`SweepRunner` folds encode reports into
  per-(codec, scene) :class:`~repro.metrics.RDCurve` objects with
  BD-rate deltas; :class:`~repro.pipeline.dse.DSERunner` folds design
  points into Pareto fronts.
* :mod:`~repro.pipeline.dist.shm` — shared-memory frame transport:
  :func:`publish_frames` / :func:`attach_frames` /
  :func:`unlink_segments` move rendered scene frames to local process
  workers through ``multiprocessing.shared_memory`` instead of
  re-synthesizing them per job; a worker that cannot attach falls back
  to regenerating byte-identical frames from the scene config.
* :mod:`~repro.pipeline.dist.chaos` — fault injection for all of the
  above: :class:`ChaosQueue` (queue-level faults: dropped/duplicated
  acks, stolen leases), :class:`ChaosTransport` (wire-level faults for
  :class:`HttpJobQueue`), :class:`CrashPlan` (kill workers at
  scheduled checkpoints via :class:`InjectedCrash`), and the
  ``"chaos-poison"`` task kind.  All seeded and budgeted, so a chaos
  run is deterministic enough to pin in CI: faults on, byte-identical
  curves out.

Front doors: ``run_many(backend="queue", ...)`` and the ``repro
serve`` / ``repro worker`` / ``repro sweep`` / ``repro dse`` CLI
subcommands.  Protocol semantics, the job-spec schema, and the HTTP
wire schema are documented in ``docs/distributed.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": (
        "POISON_KIND", "ChaosPlan", "ChaosQueue", "ChaosTransport",
        "CrashPlan", "InjectedCrash", "poison_spec", "register_poison_task",
    ),
    ".fleet": ("WorkerFleet", "spawn_worker"),
    ".net": (
        "HttpJobQueue", "HttpQueueError", "QueueServer", "http_worker_entry",
    ),
    ".queues": (
        "DirectoryJobQueue", "Job", "JobQueue", "MemoryJobQueue", "QueueStats",
    ),
    ".shm": (
        "active_segments", "attach_frames", "publish_frames",
        "unlink_segments",
    ),
    ".sweep": (
        "QueueRunner", "SweepResult", "SweepRunner", "auto_bundle",
        "job_id_for_spec",
    ),
    ".worker": (
        "Heartbeat", "JobTimeoutError", "attach_result_checksum",
        "default_worker_id", "result_checksum", "run_worker",
        "verify_result_checksum", "worker_entry",
    ),
})
