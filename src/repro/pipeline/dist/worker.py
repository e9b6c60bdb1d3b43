"""The sweep worker loop: pop job specs, run tasks, ack results.

A worker is deliberately dumb: it claims a job — or, with
``bundle=N``, up to N jobs under one lease — at a time from a
:class:`~repro.pipeline.dist.queues.JobQueue`, dispatches the spec by
its task kind through :func:`repro.pipeline.tasks.run_task` (a spec
without a ``"kind"`` field is an encode job — every pre-task-typing
spec still runs), and acks the resulting document.  All coordination —
retries, lease recovery, result aggregation — lives in the queue and
the :class:`~repro.pipeline.dist.sweep.SweepRunner`, so the same loop
body serves every deployment shape: a drain inside the runner's own
process (any queue, e.g. a
:class:`~repro.pipeline.dist.queues.MemoryJobQueue`), local processes
over a :class:`~repro.pipeline.dist.queues.DirectoryJobQueue` or an
HTTP queue, or processes on other hosts pointed at either (run
:func:`~repro.pipeline.dist.fleet.worker_entry` there).  One fleet can
drain a mixed queue — encode sweeps, hardware analyses, and DSE grids
interleave freely.

A job that raises is ``fail()``-ed with its traceback and will be
retried by whoever claims it next, up to the queue's ``max_attempts``;
the worker itself keeps going.  Workers exit when the queue is fully
drained (nothing pending *and* nothing claimed), so a straggler's
death can still be recovered by the remaining workers rather than
orphaning its lease.

Hardening seams (all opt-in, all default-off):

* **watchdog** — ``job_timeout_seconds`` bounds one job's wall clock;
  a job that blows the budget is failed with a
  :class:`JobTimeoutError` traceback instead of silently eating the
  whole lease (and then the next lease, and the next).
* **result checksums** — every acked result document carries a CRC32
  of its canonical JSON (:func:`attach_result_checksum`); the runner
  verifies and strips it on drain, so a result corrupted in transit
  or at rest is caught before it poisons an aggregation.
* **checkpoints** — ``checkpoint(stage, job)`` fires at
  ``"after-claim"``, ``"mid-encode"`` (inside the execution
  envelope), ``"before-ack"``, ``"after-ack"``, and — when bundling —
  ``"mid-bundle"`` (after job *k* of a bundle finished, before job
  *k+1* starts; the job passed is the one just finished).  This is the
  fault-injection seam: a
  :class:`~repro.pipeline.dist.chaos.CrashPlan` raises
  :class:`~repro.pipeline.dist.chaos.InjectedCrash` (a
  ``BaseException``, deliberately *not* caught by the job-failure
  handler below) at a scheduled checkpoint to simulate a worker dying
  at exactly that point in the claim/execute/ack cycle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import threading
import time
import traceback
import zlib

from repro.obs.metrics import get_registry
from repro.obs.tracing import drain_spans, set_job_id, span

from .queues import Job, JobQueue

__all__ = [
    "Heartbeat",
    "JobTimeoutError",
    "attach_result_checksum",
    "default_worker_id",
    "result_checksum",
    "run_worker",
    "verify_result_checksum",
]

#: key under which a result document carries its own CRC32.
_CHECKSUM_KEY = "_crc32"


class JobTimeoutError(RuntimeError):
    """A job blew its per-job wall-clock budget (the watchdog fired)."""


def default_worker_id() -> str:
    """``host-pid`` — unique enough to attribute leases in a shared
    queue directory."""
    return f"{socket.gethostname()}-{os.getpid()}"


# -- result integrity -------------------------------------------------------
def result_checksum(doc: dict) -> int:
    """CRC32 of a result document's canonical JSON (checksum field
    excluded), so both sides of any transport agree on the bytes."""
    payload = {k: v for k, v in doc.items() if k != _CHECKSUM_KEY}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def attach_result_checksum(doc: dict) -> dict:
    """Copy of ``doc`` carrying its own CRC32 under ``"_crc32"``."""
    return {**doc, _CHECKSUM_KEY: result_checksum(doc)}


def verify_result_checksum(doc: dict) -> tuple[dict, bool]:
    """``(payload, ok)``: the document with its checksum stripped, and
    whether the checksum matched.  A document without a checksum — a
    pre-integrity worker's, or a hand-written one — verifies trivially
    (there is nothing to check against)."""
    if _CHECKSUM_KEY not in doc:
        return dict(doc), True
    payload = {k: v for k, v in doc.items() if k != _CHECKSUM_KEY}
    return payload, int(doc[_CHECKSUM_KEY]) == result_checksum(payload)


@dataclasses.dataclass(frozen=True)
class Heartbeat:
    """One structured liveness report from a worker loop.

    Emitted through ``run_worker``'s ``on_heartbeat`` callback at
    startup and after every job outcome.  Over HTTP they reach the
    :class:`~repro.pipeline.dist.net.QueueServer`, which reports fleet
    liveness under ``/stats`` so an operator can see progress without
    scraping queue state.  ``last_job_id`` is ``None`` until the first job
    finishes (either way).

    Observability rides the same wire: ``metrics`` is a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the
    worker's registry, ``spans`` the flight-recorder records since the
    previous beat (only when tracing is on), ``version`` the build
    that produced them.  All three are optional — an old worker's
    heartbeat without them is still valid, and :meth:`to_dict` omits
    the ones left ``None`` so the pre-observability wire form is
    byte-for-byte unchanged when unused.
    """

    worker_id: str
    completed: int
    failed: int
    last_job_id: str | None = None
    version: str | None = None
    metrics: dict | None = None
    spans: list | None = None

    def to_dict(self) -> dict:
        """JSON-ready document (the ``/heartbeat`` wire form)."""
        doc = dataclasses.asdict(self)
        for optional in ("version", "metrics", "spans"):
            if doc[optional] is None:
                del doc[optional]
        return doc


def execute_job(job: Job) -> dict:
    """Run one job spec to its result document (the worker's unit of
    work; import deferred so queue modules stay import-light).

    Dispatch is by the spec's ``"kind"`` field via the task registry
    (:mod:`repro.pipeline.tasks`); a spec with no ``kind`` runs as an
    ``"encode"`` job, exactly as every worker before task typing did.
    """
    from repro.pipeline.tasks import run_task

    return run_task(job.spec)


def _execute_with_watchdog(execute, job: Job, timeout_seconds: float):
    """Run ``execute(job)`` on a watched thread; raise
    :class:`JobTimeoutError` if it outlives ``timeout_seconds``.

    The hung thread is daemonic and abandoned — Python cannot safely
    kill it — so its (eventual) result is discarded: by the time it
    finishes, the job has been failed and possibly re-leased, and a
    late ack would be rejected as stale anyway.
    """
    outcome: dict = {}

    def body() -> None:
        try:
            outcome["result"] = execute(job)
        except BaseException as exc:  # relayed to the worker thread
            outcome["error"] = exc

    thread = threading.Thread(
        target=body, name=f"watchdog-{job.job_id}", daemon=True
    )
    thread.start()
    thread.join(timeout_seconds)
    if thread.is_alive():
        raise JobTimeoutError(
            f"watchdog: job {job.job_id} exceeded its {timeout_seconds}s "
            "wall-clock budget (worker abandoned it; the lease machinery "
            "owns any re-run)"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def run_worker(
    queue: JobQueue,
    worker_id: str | None = None,
    *,
    lease_seconds: float = 60.0,
    poll_seconds: float = 0.05,
    max_jobs: int | None = None,
    stop_when_drained: bool = True,
    execute=execute_job,
    on_heartbeat=None,
    checkpoint=None,
    job_timeout_seconds: float | None = None,
    bundle: int = 1,
) -> int:
    """Drain jobs from ``queue``; returns how many this worker completed.

    ``lease_seconds`` bounds how long one job may take before the
    runner assumes this worker died and requeues the job — size it well
    above the slowest expected job.  ``max_jobs`` caps the number of
    claims (useful for tests and batch-sized workers);
    ``stop_when_drained=False`` keeps the worker polling forever (a
    long-lived fleet fed by an external submitter).  ``execute`` is the
    job body, injectable for tests.

    ``job_timeout_seconds`` arms the per-job watchdog: a job still
    running after that many wall-clock seconds is failed with a
    :class:`JobTimeoutError` traceback and the worker moves on, instead
    of a hung job silently consuming lease after lease.  Size it below
    ``lease_seconds`` so the failure is recorded by *this* worker
    rather than by lease expiry.

    ``on_heartbeat`` receives a :class:`Heartbeat` at startup and after
    every job outcome (ack or fail); the default is a no-op.  A raising
    callback kills the worker — wrap best-effort reporting (e.g. over a
    flaky network) in its own try/except.

    ``checkpoint(stage, job)`` is the fault-injection seam (see the
    module docstring for the stages); ``None`` costs nothing.

    ``bundle=N`` claims up to N jobs per queue round-trip (one lease
    deadline for the whole bundle — size ``lease_seconds`` for the
    *bundle's* wall clock, not one job's).  Acks stay per-job, so a
    worker dying after acking job *k* of N strands only the unacked
    remainder, recovered by lease expiry like any dead worker's claim.

    Acks and fails carry this worker's id, so a straggler whose lease
    was reaped and whose job was re-run elsewhere gets a clean stale
    rejection instead of double-recording the result or cutting the
    new claimer's lease short.  Every acked
    result carries a CRC32 of its canonical JSON (stripped and
    verified runner-side), so transport or at-rest corruption is
    detected before aggregation.
    """
    if worker_id is None:
        worker_id = default_worker_id()
    if bundle < 1:
        raise ValueError(f"bundle must be >= 1, got {bundle}")
    completed = 0
    failed = 0
    last_job_id: str | None = None
    registry = get_registry()

    def beat() -> None:
        if on_heartbeat is not None:
            import repro

            fresh_spans = drain_spans()
            on_heartbeat(
                Heartbeat(
                    worker_id=worker_id,
                    completed=completed,
                    failed=failed,
                    last_job_id=last_job_id,
                    version=getattr(repro, "__version__", None),
                    metrics=registry.snapshot(),
                    spans=fresh_spans or None,
                )
            )

    beat()
    while max_jobs is None or completed < max_jobs:
        # Never claim past the max_jobs cap: a bundle claimed but not
        # run would strand its jobs until lease expiry for no reason.
        want = (
            bundle
            if max_jobs is None
            else max(1, min(bundle, max_jobs - completed))
        )
        jobs = queue.claim_batch(
            worker_id, lease_seconds=lease_seconds, limit=want
        )
        registry.counter(
            "repro_worker_claims_total", "claim round-trips by outcome"
        ).inc(outcome="claimed" if jobs else "empty")
        if not jobs:
            # Recover orphaned leases ourselves — a serial run has no
            # runner loop reaping alongside, and in a fleet this lets
            # any surviving worker pick up a dead peer's job.
            if queue.reap_expired():
                continue  # something became claimable; retry now
            stats = queue.stats()
            if stop_when_drained and stats.pending == 0 and stats.claimed == 0:
                break
            time.sleep(poll_seconds)
            continue
        for position, job in enumerate(jobs):
            kind = str(job.spec.get("kind") or "encode")
            if checkpoint is not None:
                checkpoint("after-claim", job)
            set_job_id(job.job_id)
            job_t0 = time.perf_counter()
            try:
                if checkpoint is not None:
                    checkpoint("mid-encode", job)
                with span("worker.execute", kind=kind):
                    if job_timeout_seconds is None:
                        result = execute(job)
                    else:
                        result = _execute_with_watchdog(
                            execute, job, job_timeout_seconds
                        )
            except Exception:
                set_job_id(None)
                queue.fail(
                    job.job_id, traceback.format_exc(), worker_id=worker_id
                )
                registry.counter(
                    "repro_jobs_failed_total", "jobs failed with a traceback"
                ).inc(kind=kind)
                failed += 1
                last_job_id = job.job_id
                beat()
            else:
                set_job_id(None)
                registry.histogram(
                    "repro_job_seconds", "claim-to-ack execution time per job"
                ).observe(time.perf_counter() - job_t0, kind=kind)
                result = attach_result_checksum(result)
                if checkpoint is not None:
                    checkpoint("before-ack", job)
                if queue.ack(job.job_id, result, worker_id=worker_id):
                    completed += 1
                    registry.counter(
                        "repro_jobs_completed_total", "jobs acked and accepted"
                    ).inc(kind=kind)
                else:
                    # Stale ack — the lease expired and someone else
                    # owns the job now; drop the result and move on.
                    registry.counter(
                        "repro_acks_rejected_total",
                        "acks rejected as stale (lease was reaped)",
                    ).inc(kind=kind)
                if checkpoint is not None:
                    checkpoint("after-ack", job)
                last_job_id = job.job_id
                beat()
            if checkpoint is not None and position + 1 < len(jobs):
                # The crash-mid-bundle seam: this worker just finished
                # job k of N and still holds N-k claimed jobs.
                checkpoint("mid-bundle", job)
    return completed

