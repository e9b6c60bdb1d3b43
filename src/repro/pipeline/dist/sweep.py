"""Sweep orchestration: submit a grid, babysit workers, aggregate RD.

:class:`QueueRunner` is the generic driver: submit job specs with
content-derived ids to a
:class:`~repro.pipeline.dist.queues.JobQueue`, run the workers —
worker processes for a queue other processes can reach, otherwise a
drain in this process — requeue expired leases while waiting, and
hand the terminal payloads to a subclass's ``_aggregate``.  Two
aggregations ship: :class:`SweepRunner` here (RD curves + BD-rate,
behind ``run_many(backend="queue")`` and ``repro sweep``) and
:class:`~repro.pipeline.dse.DSERunner` (design-point tables + Pareto
fronts, behind ``repro dse``).

:class:`SweepRunner` expands a (codec, config, scene) grid — or any
explicit list of task-typed job specs — and folds the surviving
encode reports into :class:`~repro.metrics.RDCurve` objects per
(codec, scene) with BD-rate deltas against an anchor codec; results
of other task kinds (``"hardware"``, ``"dse-point"``) hydrate to
their own report types and ride along in ``reports`` untouched by the
RD aggregation.

Determinism: job results depend only on their specs, never on which
worker ran them or in what order, so a sweep's aggregated
:class:`SweepResult` — reports in submission order, curves, BD-rate
table — is byte-identical between ``workers=0`` (serial) and any
worker count.  The CI distributed smoke step pins exactly that.

Failure tolerance: a worker that dies mid-job loses its lease and the
job is retried elsewhere (``max_attempts`` total tries); a job whose
spec itself is broken dead-letters with its traceback into
``SweepResult.failures`` instead of sinking the sweep.  Dead workers
— worker processes *or* the in-process drain — are replaced while
work remains, from one respawn budget.

Integrity and poison handling (this runner is the last line of
defense before aggregation):

* every drained result's CRC32 (attached worker-side by
  :func:`~repro.pipeline.dist.worker.attach_result_checksum`) is
  verified and stripped; a mismatch lands in ``failures`` as a
  checksum error instead of poisoning the curves.
* a **poison job** — one that kills every worker that claims it, so
  it never fails cleanly, just leaves a trail of expired leases — is
  quarantined by a circuit breaker once it has burned
  ``poison_threshold`` attempts (the queue's own monotonic per-job
  counter, bumped by every reap no matter who reaps).  A job that
  dead-letters by lease-expiry exhaustion first is upgraded to
  quarantined retroactively (same diagnosis, different race winner).
  Either way
  ``repro failures`` shows it flagged and ``repro retry`` can
  resubmit it once the underlying cause is fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from repro.metrics import RDCurve, bd_rate_table, curves_from_reports
from repro.obs.metrics import get_registry
from repro.obs.tracing import span

from .chaos import InjectedCrash
from .fleet import WorkerFleet, _worker_location, open_queue, spawn_worker
from .net import HttpQueueError
from .queues import JobQueue, QueueStats
from .worker import run_worker, verify_result_checksum

__all__ = [
    "QueueRunner",
    "SweepResult",
    "SweepRunner",
    "auto_bundle",
    "job_id_for_spec",
]

#: hard cap on crashed-worker replacements, so a fleet whose workers
#: die on arrival (bad interpreter, OOM box) fails instead of flapping.
_MAX_RESPAWNS = 16


def job_id_for_spec(index: int, spec: dict) -> str:
    """Deterministic job id: submission index + content digest.

    The digest makes resubmission idempotent (``--resume`` replays the
    grid and the queue skips ids it already finished); the zero-padded
    index keeps duplicate specs distinct and makes lexicographic id
    order equal submission order, which is how results are re-ordered
    after out-of-order completion.  Transport annotations
    (``frames_shm``) never reach the digest, so how frames travel can
    change between runs without invalidating ``--resume`` state.
    """
    from repro.pipeline.tasks import strip_transport_fields

    canonical = json.dumps(
        strip_transport_fields(spec), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]
    return f"{index:05d}-{digest}"


def auto_bundle(num_jobs: int, workers: int) -> int:
    """Bundle-size heuristic: big enough to amortize queue round-trips,
    small enough that the fleet stays load-balanced (roughly two claims
    per worker over the run, capped at 16 jobs per claim).  Serial
    drains take everything in one claim."""
    if num_jobs < 1:
        return 1
    if workers <= 0:
        return max(1, num_jobs)
    return max(1, min(16, num_jobs // (workers * 2) or 1))


@dataclass
class SweepResult:
    """Aggregated outcome of one sweep.

    ``reports`` hold the completed jobs in submission order (failures
    are absent — see ``failures``); ``curves`` and ``bd_rate`` are the
    RD aggregation over those reports, keyed as
    :func:`repro.metrics.curves_from_reports` and
    :func:`repro.metrics.bd_rate_table` document.
    """

    job_ids: list[str]
    reports: list  # list[EncodeReport]
    failures: dict[str, str]
    curves: dict[tuple[str, str], RDCurve]
    bd_rate: dict[str, dict[str, float | None]] | None
    anchor: str | None
    metric: str
    elapsed_seconds: float
    workers: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """JSON document (the ``repro sweep --json`` payload).

        ``curves`` and ``bd_rate`` depend only on the job specs, so
        they compare byte-identically across worker counts; ``reports``
        carry per-run timings and do not.
        """
        return {
            "jobs": len(self.job_ids),
            "completed": len(self.reports),
            "failed": dict(self.failures),
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "metric": self.metric,
            "anchor": self.anchor,
            "reports": [report.to_dict() for report in self.reports],
            "curves": [
                {"codec": codec, "scene": scene, **curve.to_dict()}
                for (codec, scene), curve in sorted(self.curves.items())
            ],
            "bd_rate": self.bd_rate,
        }

    def render(self) -> str:
        """Human summary: per-job table, curves, BD-rate deltas."""
        lines = [
            f"sweep: {len(self.job_ids)} jobs, {len(self.reports)} completed, "
            f"{len(self.failures)} failed in {self.elapsed_seconds:.1f}s "
            f"({self.workers} workers)"
        ]
        from repro.metrics import scene_label
        from repro.pipeline.reports import EncodeReport

        for report in self.reports:
            if isinstance(report, EncodeReport):
                lines.append(
                    f"  {report.codec:10s} {scene_label(report.scene):14s} "
                    f"{report.bpp:7.3f} bpp  {report.mean_psnr:6.2f} dB"
                )
            else:
                # hardware / dse-point jobs riding in a mixed sweep
                lines.append("  " + report.render().splitlines()[0])
        if self.curves:
            lines.append(f"RD curves ({self.metric}):")
            for (codec, scene), curve in sorted(self.curves.items()):
                first, last = curve.points[0], curve.points[-1]
                lines.append(
                    f"  {curve.name}: {first.bpp:.3f} bpp/{first.quality:.2f}"
                    f" -> {last.bpp:.3f} bpp/{last.quality:.2f}"
                    f" ({len(curve)} points)"
                )
        if self.bd_rate:
            lines.append(f"BD-rate vs {self.anchor} (negative = bits saved):")
            for scene, row in sorted(self.bd_rate.items()):
                cells = ", ".join(
                    f"{codec} {value:+.2f}%" if value is not None
                    else f"{codec} n/a"
                    for codec, value in sorted(row.items())
                )
                lines.append(f"  {scene}: {cells}")
        for job_id, error in sorted(self.failures.items()):
            lines.append(f"  FAILED {job_id}: {error.strip().splitlines()[-1]}")
        return "\n".join(lines)


class QueueRunner:
    """Run a list of job specs on a queue to completion.

    The fleet-orchestration core every sharded grid shares: submission
    with idempotent content-derived ids, worker babysitting (lease
    reaping, crash respawns), and the drain loop.  Subclasses supply
    the normalized job specs and an ``_aggregate(results, failures,
    elapsed)`` that folds terminal payloads into their result type.

    ``queue`` is the queue object to run on, kept as given
    (``self.queue is queue``); without one, ``queue_dir`` names a queue
    directory and neither an in-memory queue
    (:func:`~repro.pipeline.dist.fleet.open_queue`).  ``workers`` is the
    number of worker processes, and only a queue other processes can
    reach gets them:

    * ``DirectoryJobQueue`` (``queue_dir`` or a queue instance) —
      ``workers`` local child processes; additional processes on other
      hosts may attach to the same directory with
      :func:`~repro.pipeline.dist.fleet.worker_entry` and the runner
      simply sees jobs complete faster.
    * ``HttpJobQueue`` (pass a client pointed at a ``repro serve``
      daemon) — ``workers`` local child processes talking to the
      server over the wire; remote hosts join the same fleet with
      ``repro worker --queue-url``.  Results drain incrementally
      through the paginated ``results`` endpoint as jobs finish.
    * everything else — ``workers=0``, a ``MemoryJobQueue`` (the
      default), a ``ChaosQueue`` proxy, any other queue object — drains
      in this process (deterministic scheduling; the parity baseline).
      ``self.workers`` reads 0 there, and so does the result's
      ``workers``: it counts the processes that ran.

    ``lease_seconds`` must comfortably exceed the slowest single job:
    an expired lease is treated as a dead worker and the job re-runs
    (at-least-once semantics; results are idempotent because jobs are
    pure functions of their spec).

    ``bundle`` sizes the workers' batched claims: ``N`` claims up to N
    jobs per queue round-trip under one lease (size ``lease_seconds``
    for a whole bundle), ``"auto"`` picks :func:`auto_bundle` from the
    grid and fleet size, ``1`` (default) keeps classic per-job claims.
    ``share_frames`` publishes each distinct scene once through
    :mod:`repro.pipeline.dist.shm` and annotates submitted specs with
    the segment handle; the default (``None``) enables it exactly when
    workers live in other processes.  Both knobs change *transport
    only* — results stay byte-identical (the distributed parity tests
    pin this across bundle sizes, backends, and worker counts).

    ``poison_threshold`` arms the poison-job circuit breaker: a job
    that burns that many attempts without finishing — a job that
    *kills* workers instead of failing, so no traceback is ever
    recorded, just lease expiry after lease expiry — is quarantined
    rather than allowed to grind through the rest of the fleet.  The
    evidence is the queue's own per-job attempt counter
    (``queue.attempts``), which rises on every reap no matter who
    performs it.  Keep the threshold above the attempt churn a
    *recoverable* job can accumulate (worker crashes plus injected
    faults under chaos testing reach three).  ``job_timeout_seconds`` arms the per-job
    watchdog in every worker this runner spawns; ``checkpoint`` is the
    fault-injection seam passed to the in-process drain (a
    :class:`~repro.pipeline.dist.chaos.CrashPlan` hook — not
    picklable, so process fleets ignore it).
    """

    def __init__(
        self,
        specs: list[dict],
        *,
        queue: JobQueue | None = None,
        queue_dir: str | os.PathLike | None = None,
        workers: int = 2,
        lease_seconds: float = 120.0,
        max_attempts: int | None = None,
        poison_threshold: int = 5,
        job_timeout_seconds: float | None = None,
        checkpoint=None,
        bundle: int | str = 1,
        share_frames: bool | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if queue is not None and queue_dir is not None:
            raise ValueError("pass queue or queue_dir, not both")
        self.specs = list(specs)
        if queue is None:
            queue = open_queue(queue_dir=queue_dir, max_attempts=max_attempts)
        self.queue = queue
        # Worker processes need a queue they can reach; any other queue
        # drains in this process.
        if _worker_location(queue) is None:
            workers = 0
        self.workers = workers
        if bundle == "auto":
            bundle = auto_bundle(len(self.specs), workers)
        if not isinstance(bundle, int) or isinstance(bundle, bool) or bundle < 1:
            raise ValueError(
                f"bundle must be a positive int or 'auto', got {bundle!r}"
            )
        self.bundle = bundle
        self.lease_seconds = lease_seconds
        self.poison_threshold = poison_threshold
        self.job_timeout_seconds = job_timeout_seconds
        self.checkpoint = checkpoint
        if share_frames is None:
            # Auto: worth a segment only when workers live in *other*
            # processes (the in-process drain already shares this
            # process's warm cache).
            share_frames = workers > 0
        self.share_frames = bool(share_frames)
        #: segment names this runner published (reclaimed in run()).
        self._shm_names: list[str] = []
        self.job_ids: list[str] = []
        # incremental result drain state (results_page cursor + cache)
        self._drained: dict[str, dict] = {}
        self._results_cursor: str | None = None
        # robustness ledgers: lease expiries seen per job (the poison
        # breaker's evidence), checksum-failed drains, quarantined ids
        self._lease_expiries: dict[str, int] = {}
        self._checksum_failures: dict[str, str] = {}
        self.quarantined: list[str] = []

    def submit(self) -> list[str]:
        """Submit every spec (idempotent: ids derive from content, so a
        resumed sweep re-submits and the queue keeps finished work).

        With ``share_frames`` on, each distinct scene is rendered once
        here and published as a shared-memory segment; submitted specs
        carry a ``frames_shm`` transport annotation pointing at it.
        Ids ignore the annotation (see :func:`job_id_for_spec`), so
        shared-frames and plain runs are resume-compatible."""
        with span("runner.submit", jobs=len(self.specs)):
            specs = self._annotated_specs() if self.share_frames else self.specs
            self.job_ids = [
                self.queue.submit(spec, job_id=job_id_for_spec(index, spec))
                for index, spec in enumerate(specs)
            ]
        get_registry().counter(
            "repro_runner_submitted_total", "job specs submitted by runners"
        ).inc(len(self.job_ids))
        return self.job_ids

    def _annotated_specs(self) -> list[dict]:
        """Job specs with ``frames_shm`` annotations, one published
        segment per distinct scene.  Anything that goes wrong — no
        shared-memory filesystem, an unrenderable scene — degrades to
        the clean spec: the annotation is an optimization, never a
        requirement."""
        from repro.pipeline.tasks import spec_kind
        from repro.pipeline.registry import codec_spec
        from repro.video import SceneConfig, generate_sequence

        try:
            from .shm import publish_frames
        except Exception:  # numpy-less or shm-less build: ship clean
            return self.specs

        descriptors: dict[str, dict | None] = {}
        annotated: list[dict] = []
        for spec in self.specs:
            scene = spec.get("scene")
            try:
                framed = (
                    isinstance(scene, dict)
                    and spec_kind(spec) in ("encode", "ladder-rendition")
                    # simulated codecs never touch frames; skip the render
                    and not hasattr(
                        codec_spec(str(spec.get("codec"))).factory, "simulate"
                    )
                )
            except Exception:
                framed = False
            if not framed:
                annotated.append(spec)
                continue
            key = json.dumps(scene, sort_keys=True, separators=(",", ":"))
            if key not in descriptors:
                try:
                    frames = generate_sequence(SceneConfig.from_dict(scene))
                    descriptor = publish_frames(frames)
                    self._shm_names.append(descriptor["name"])
                except Exception:
                    descriptor = None  # cannot publish here: ship clean
                descriptors[key] = descriptor
            descriptor = descriptors[key]
            annotated.append(
                {**spec, "frames_shm": descriptor} if descriptor else spec
            )
        return annotated

    def release_shared_frames(self) -> int:
        """Unlink every segment this runner published (idempotent;
        ``run()`` calls it in its ``finally``)."""
        from .shm import unlink_segments

        names, self._shm_names = self._shm_names, []
        return unlink_segments(names)

    # -- worker fleet -------------------------------------------------
    def _spawn(self, index: int):
        """Start worker ``index`` of the fleet: a process for a queue
        other processes can reach, else a drain in this process that
        returns ``None`` once the queue is drained or the worker died.

        In this process an
        :class:`~repro.pipeline.dist.chaos.InjectedCrash` (from a
        crash plan's checkpoint or a poison job) and a transport error
        that escapes the worker loop both mean the same thing a dead
        process means — this worker is gone, its lease will expire,
        the babysitter in :meth:`run` owns replacement.  Containing
        them here keeps a *simulated* death from spraying a traceback
        over the run.
        """
        if self.workers:
            return spawn_worker(
                self.queue,
                worker_id=f"sweep-w{index}-{os.getpid()}",
                lease_seconds=self.lease_seconds,
                job_timeout_seconds=self.job_timeout_seconds,
                bundle=self.bundle,
            )
        try:
            run_worker(
                self.queue,
                f"sweep-inline{index}",
                lease_seconds=self.lease_seconds,
                checkpoint=self.checkpoint,
                job_timeout_seconds=self.job_timeout_seconds,
                bundle=self.bundle,
            )
        except (InjectedCrash, HttpQueueError):
            pass  # worker died; lease recovery + respawn take over

    def _admit(self, job_id: str, doc: dict) -> None:
        """Verify one drained result's checksum; admit the stripped
        payload to the local cache, or dead-letter the job locally.

        A result corrupted between the worker's ack and this drain —
        on disk, over the wire, by a buggy proxy — is recorded as a
        failure instead of flowing into the aggregation.  Documents
        without a checksum (pre-integrity workers) verify trivially.
        """
        payload, ok = verify_result_checksum(doc)
        if ok:
            if job_id not in self._drained:
                get_registry().counter(
                    "repro_runner_results_drained_total",
                    "verified results admitted to the runner cache",
                ).inc()
            self._drained[job_id] = payload
        else:
            get_registry().counter(
                "repro_runner_checksum_failures_total",
                "drained results rejected by checksum verification",
            ).inc()
            self._checksum_failures[job_id] = (
                "result checksum mismatch: the acked document was "
                "corrupted in transit or at rest; discarded before "
                "aggregation"
            )

    def _drain_results(self, page_size: int = 100) -> None:
        """Pull any newly finished result pages into the local cache.

        Runs every poll, so results cross the queue boundary (one page
        of jobs at a time) as they finish — a server never has to
        buffer a whole sweep's reports into a single response, and by
        the time the grid completes the aggregation inputs are already
        local.

        Pages are id-ordered but jobs *finish* out of order, so the
        durable cursor is a low-water mark: it only advances across
        the contiguous prefix of submitted ids that are already
        drained.  Everything past the mark is re-scanned next poll —
        a small window bounded by how far completion order strays
        from submission order — so a job that finishes late but sorts
        early is never skipped.
        """
        cursor = self._results_cursor
        while True:
            page, last = self.queue.results_page(
                after=cursor, limit=page_size
            )
            if not page:
                break
            for job_id, doc in page.items():
                self._admit(job_id, doc)
            cursor = last
        watermark = self._results_cursor
        for job_id in sorted(set(self.job_ids)):
            if watermark is not None and job_id <= watermark:
                continue
            if job_id not in self._drained:
                break  # pending, in flight, or failed: re-scan from here
            watermark = job_id
        self._results_cursor = watermark

    def _load_finished(self) -> tuple[dict[str, dict], dict[str, str]]:
        """Terminal payloads for this sweep's jobs (final drain of the
        incremental cache)."""
        wanted = set(self.job_ids)
        self._drain_results()
        results = {
            k: v for k, v in self._drained.items() if k in wanted
        }
        failures = {
            k: v for k, v in self.queue.failures().items() if k in wanted
        }
        for job_id, error in self._checksum_failures.items():
            if job_id in wanted:
                failures.setdefault(job_id, error)
        return results, failures

    def _poison_attempts(self, job_ids: list[str]) -> dict[str, int]:
        """The breaker's evidence per job: the queue's monotonic
        attempt counter, or the runner's own count of reaps it happened
        to win if that is higher.  One bulk read: over HTTP, one
        round-trip per check, not per job.

        The queue-side counter is the reliable source — idle workers
        race the runner for ``reap_expired`` and systematically win it
        (a worker's reap restarts the lease on the worker's own poll
        cadence, phase-locking every expiry to a worker poll), so a
        runner that only counts its *own* reaps can watch a poison job
        kill the entire fleet while observing zero expiries.
        """
        counts = self.queue.attempts_map(job_ids)
        return {
            job_id: max(
                counts.get(job_id, 0), self._lease_expiries.get(job_id, 0)
            )
            for job_id in job_ids
        }

    def _break_poison_jobs(self) -> None:
        """The poison-job circuit breaker.

        A poison job kills every worker that claims it, so it never
        ``fail()``s with a traceback — its only trace is lease expiry
        after lease expiry, each one bumping the job's attempt counter.
        Proactively: once a still-unfinished job has burned
        ``poison_threshold`` attempts (read from the queue itself — see
        :meth:`_poison_attempts` for why runner-observed reaps are not
        trustworthy evidence), it is quarantined (terminal, excluded
        from claiming) before it can grind through more of the fleet.
        Retroactively: a poison job can exhaust the queue's
        ``max_attempts`` and dead-letter as a plain lease-expiry
        failure before the threshold is reached — any of this sweep's
        jobs that dead-lettered purely by lease expiry (the poison
        signature: workers died, no traceback was ever recorded) is
        upgraded to quarantined, so the diagnosis reads the same
        whichever race was won.
        """
        wanted = set(self.job_ids)
        unfinished = sorted(wanted - self.queue.finished_ids())
        counts = self._poison_attempts(unfinished)
        for job_id in unfinished:
            if job_id in self.quarantined:
                continue
            count = counts[job_id]
            if count < self.poison_threshold:
                continue
            reason = (
                f"poison job: burned {count} attempts with no result and "
                "no failure ever recorded — it keeps killing its workers; "
                "quarantined by the runner's circuit breaker"
            )
            if self.queue.quarantine(job_id, reason):
                self.quarantined.append(job_id)
        for job_id, error in self.queue.failures().items():
            if job_id not in wanted or job_id in self.quarantined:
                continue
            if not error.startswith("lease expired"):
                continue  # a real traceback: broken spec, not poison
            reason = (
                f"poison job: {error.strip()}, no failure ever recorded "
                "— its workers died instead; quarantined by the "
                "runner's circuit breaker"
            )
            if self.queue.quarantine(job_id, reason):
                self.quarantined.append(job_id)

    def _quarantine_unrunnable(self, wanted: set[str]) -> None:
        """Terminal-state the jobs a dead fleet can never run (the
        circuit breaker's backstop — reachable only when every worker
        died *and* the respawn budget is spent, i.e. something is
        systematically killing workers faster than one poison job)."""
        unfinished = sorted(wanted - self.queue.finished_ids())
        counts = self._poison_attempts(unfinished)
        for job_id in unfinished:
            if job_id in self.quarantined:
                continue
            if self.queue.quarantine(
                job_id,
                "worker fleet exhausted: all workers dead and the "
                f"respawn budget spent with this job unfinished "
                f"({counts[job_id]} attempts burned)",
            ):
                self.quarantined.append(job_id)

    def run(self, progress=None, *, poll_seconds: float = 0.05) -> SweepResult:
        """Run the sweep to completion and aggregate.

        ``progress(stats)`` fires with a
        :class:`~repro.pipeline.dist.queues.QueueStats` snapshot each
        poll.  Returns a :class:`SweepResult`; job failures land in
        ``result.failures`` rather than raising, so partial sweeps
        still aggregate what completed.
        """
        if not self.job_ids:
            self.submit()
        start = time.monotonic()
        # A fixed-size fleet: ``workers`` processes, or one in-process
        # drain, with dead ones replaced from one respawn budget.
        size = max(self.workers, 1)
        fleet = WorkerFleet(
            self._spawn,
            min_workers=size,
            max_workers=size,
            cooldown_seconds=0.0,
            max_spawns=size + _MAX_RESPAWNS,
        )
        fleet.start()
        wanted = set(self.job_ids)
        # Poison evidence only changes on lease-expiry/claim timescales,
        # so the breaker runs on its own (slower) cadence — polling it
        # every drain tick is pure queue chatter, and over HTTP that
        # chatter competes with the workers for CPU.  A reap won by the
        # runner is fresh evidence, so it re-arms the breaker at once.
        breaker_seconds = max(poll_seconds, min(self.lease_seconds, 4.0) / 4)
        next_breaker = time.monotonic()
        try:
            while True:
                reaped = self.queue.reap_expired()
                for job_id in reaped:
                    get_registry().counter(
                        "repro_runner_lease_reaps_total",
                        "expired leases reaped by the runner poll loop",
                    ).inc()
                    if job_id in wanted:
                        self._lease_expiries[job_id] = (
                            self._lease_expiries.get(job_id, 0) + 1
                        )
                now = time.monotonic()
                if reaped or now >= next_breaker:
                    self._break_poison_jobs()
                    next_breaker = now + breaker_seconds
                self._drain_results()
                if progress is not None:
                    progress(self.queue.stats())
                if wanted <= self.queue.finished_ids():
                    break
                # Babysit: replace the dead while work remains and the
                # respawn budget holds.  The in-process drain only gets
                # here dead (it returns once the queue is drained).
                stats = self.queue.stats()
                if stats.pending + stats.claimed > 0:
                    respawned = fleet.step(stats, expired=len(reaped))["spawned"]
                    if respawned:
                        get_registry().counter(
                            "repro_runner_respawns_total",
                            "dead workers replaced by the babysitter",
                        ).inc(respawned)
                    if fleet.exhausted:
                        # Every worker is dead and the respawn budget is
                        # spent, so the remaining jobs can never run.
                        # Quarantine them (terminal) so the sweep ends
                        # with an honest dead-letter record instead of
                        # spinning forever.
                        self._quarantine_unrunnable(wanted)
                time.sleep(poll_seconds)
        finally:
            fleet.join(timeout=max(self.lease_seconds, 10.0))
            # Reclaim shared frame segments whatever happened above —
            # including killed workers and raised exceptions.  Workers
            # copy frames out at attach time, so a straggler never
            # holds a reference into a segment we unlink.
            self.release_shared_frames()
        elapsed = time.monotonic() - start
        results, failures = self._load_finished()
        return self._aggregate(results, failures, elapsed)

    def _hydrated_reports(self, results: dict[str, dict]) -> list:
        """Completed results in submission order, hydrated to the
        typed report each job's task kind produces (submission order ==
        lexicographic id order, thanks to the id's index prefix)."""
        from repro.pipeline.tasks import hydrate_result

        spec_by_id = dict(zip(self.job_ids, self.specs))
        return [
            hydrate_result(spec_by_id[job_id], results[job_id])
            for job_id in sorted(set(self.job_ids))
            if job_id in results
        ]

    def _aggregate(
        self, results: dict[str, dict], failures: dict[str, str], elapsed: float
    ):
        raise NotImplementedError  # subclasses fold into their result type


class SweepRunner(QueueRunner):
    """Submit a grid of jobs to a queue and aggregate RD curves.

    Job sources (same two styles as :func:`repro.pipeline.run_many`):
    explicit ``jobs`` (``Pipeline`` objects or task-typed spec dicts —
    encode, hardware, and dse-point jobs can mix in one sweep), or a
    ``codecs``/``codec_configs``/``scenes`` encode grid /
    ``platforms``/``platform_configs``/``resolutions`` hardware grid.
    Execution semantics (``workers``/``queue_dir``/``lease_seconds``)
    are :class:`QueueRunner`'s; the RD aggregation
    (:class:`~repro.metrics.RDCurve` per (codec, scene) + BD-rate vs
    ``anchor``) folds over the encode reports only — other kinds pass
    through in ``SweepResult.reports`` as their own report types.
    """

    def __init__(
        self,
        jobs=None,
        *,
        codecs=None,
        codec_configs=None,
        scenes=None,
        compute_msssim: bool = False,
        platforms=None,
        platform_configs=None,
        resolutions=None,
        queue: JobQueue | None = None,
        queue_dir: str | os.PathLike | None = None,
        workers: int = 2,
        lease_seconds: float = 120.0,
        max_attempts: int | None = None,
        poison_threshold: int = 5,
        job_timeout_seconds: float | None = None,
        checkpoint=None,
        bundle: int | str = 1,
        share_frames: bool | None = None,
        metric: str = "psnr",
        anchor: str | None = None,
    ):
        from repro.pipeline.facade import build_jobs

        specs = build_jobs(
            jobs,
            codecs=codecs,
            codec_configs=codec_configs,
            scenes=scenes,
            compute_msssim=compute_msssim,
            platforms=platforms,
            platform_configs=platform_configs,
            resolutions=resolutions,
        )
        super().__init__(
            specs,
            queue=queue,
            queue_dir=queue_dir,
            workers=workers,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            poison_threshold=poison_threshold,
            job_timeout_seconds=job_timeout_seconds,
            checkpoint=checkpoint,
            bundle=bundle,
            share_frames=share_frames,
        )
        self.metric = metric
        self.anchor = anchor

    def _aggregate(
        self, results: dict[str, dict], failures: dict[str, str], elapsed: float
    ) -> SweepResult:
        from repro.pipeline.reports import EncodeReport

        reports = self._hydrated_reports(results)
        curves = curves_from_reports(
            [r for r in reports if isinstance(r, EncodeReport)],
            metric=self.metric,
        )
        table = None
        if self.anchor is not None:
            if all(codec != self.anchor for codec, _ in curves):
                raise ValueError(
                    f"anchor codec {self.anchor!r} produced no curve in "
                    f"this sweep; curves: "
                    f"{', '.join(sorted(c for c, _ in curves))}"
                )
            table = bd_rate_table(curves, self.anchor)
        return SweepResult(
            job_ids=list(self.job_ids),
            reports=reports,
            failures=failures,
            curves=curves,
            bd_rate=table,
            anchor=self.anchor,
            metric=self.metric,
            elapsed_seconds=elapsed,
            workers=self.workers,
        )
