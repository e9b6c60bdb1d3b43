"""Fault injection for the distributed layer: break it on purpose.

Production means partial failure is the steady state — workers die
mid-job, acks vanish, leases get stolen, responses come back mangled.
This module makes every one of those faults *injectable on demand*, so
the recovery machinery (lease expiry + reaping, stale-ack rejection,
idempotent submission, retry budgets, the poison-job circuit breaker)
is exercised by tests and CI instead of trusted on faith.  The
standing invariant a chaos run must uphold: **faults on, byte-identical
curves out** — aggregated sweep results depend only on job specs,
never on which faults fired where.

Three injection seams, one per layer:

* :class:`ChaosQueue` — a proxy wrapping any
  :class:`~repro.pipeline.dist.queues.JobQueue`, injecting queue-level
  faults on the worker-facing verbs: dropped and duplicated acks,
  duplicated submissions, stolen leases (a phantom claimer grabs a
  pending job under a micro-lease and vanishes), delayed claims.
* :class:`ChaosTransport` — a ``transport_hook`` for
  :class:`~repro.pipeline.dist.net.HttpJobQueue`, injecting wire-level
  faults per request: connections dropped before the request leaves,
  responses lost *after* the server executed (the dangerous half of a
  retry), garbled response bodies, stalls.
* :class:`CrashPlan` — a ``checkpoint`` hook for
  :func:`~repro.pipeline.dist.worker.run_worker`, killing a worker (via
  :class:`InjectedCrash`, a ``BaseException`` the worker's job-failure
  handler deliberately does not catch) at a scheduled point in the
  claim/execute/ack cycle: after claim, mid-encode, before ack, after
  ack.  Each point exercises a distinct recovery path.

**Determinism.** Every plan draws its decisions from a private
``random.Random(seed)`` and spends them against explicit budgets
(``ack_drops=2`` means *at most two* acks are ever dropped), with at
most ``max_faults_per_job`` faults charged to any single job.  The
decision sequence is seed-deterministic and replayable; under
concurrent workers the *assignment* of decisions to calls follows
arrival order, but the budgets and the per-job cap bound the blast
radius regardless of interleaving — which is what lets a chaos sweep
guarantee completion and byte-identical aggregation no matter how the
workers race.  Every fault fired is recorded in ``events`` /
``report()`` for assertions and post-mortems.

The ``"chaos-poison"`` task kind (:func:`register_poison_task` /
:func:`poison_spec`) is a job whose *execution* raises
:class:`InjectedCrash` — it kills every worker that claims it, which is
exactly what the :class:`~repro.pipeline.dist.sweep.QueueRunner`
circuit breaker exists to quarantine.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry

from .queues import Job, JobQueue

__all__ = [
    "ChaosPlan",
    "ChaosQueue",
    "ChaosTransport",
    "CrashPlan",
    "InjectedCrash",
    "POISON_KIND",
    "poison_spec",
    "register_poison_task",
]

#: task kind whose execution kills its worker (see register_poison_task).
POISON_KIND = "chaos-poison"


class InjectedCrash(BaseException):
    """A simulated worker death.

    Subclasses :class:`BaseException` — *not* :class:`Exception` — on
    purpose: :func:`~repro.pipeline.dist.worker.run_worker` catches
    ``Exception`` around job execution to fail-and-continue, and a
    crash must bypass that handler entirely.  An ``InjectedCrash``
    unwinds the whole worker loop exactly like a SIGKILL would end the
    process: no ``fail()`` is recorded, the lease is simply orphaned,
    and recovery is the lease machinery's job.
    """


@dataclass
class ChaosPlan:
    """Seeded, budgeted schedule of queue-level faults.

    Each ``*_budget``-style knob caps how many times that fault may
    fire across the whole run; ``probability`` is the per-eligible-call
    chance of spending a unit of budget (``1.0`` = spend greedily, so
    fault *counts* are exact).  ``max_faults_per_job`` bounds how many
    faults may ever be charged against one job id, which is what keeps
    a legitimate job from accumulating enough lease expiries to trip
    the poison circuit breaker.
    """

    seed: int = 0
    ack_drops: int = 0
    ack_dups: int = 0
    submit_dups: int = 0
    lease_thefts: int = 0
    claim_delays: int = 0
    delay_seconds: float = 0.005
    #: lease used by the phantom thief — tiny, so the stolen lease
    #: expires (and the job recovers) almost immediately.
    theft_lease_seconds: float = 0.01
    probability: float = 0.5
    max_faults_per_job: int = 1
    #: every fault fired: ``{"fault", "op", "job_id"}`` in firing order.
    events: list = field(default_factory=list)

    def __post_init__(self):
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._budgets = {
            "ack-drop": int(self.ack_drops),
            "ack-dup": int(self.ack_dups),
            "submit-dup": int(self.submit_dups),
            "lease-theft": int(self.lease_thefts),
            "claim-delay": int(self.claim_delays),
        }
        self._per_job: dict[str, int] = {}

    def take(self, fault: str, op: str, job_id: str | None = None) -> bool:
        """Spend one unit of ``fault`` budget, or decline.

        Declines when the budget is exhausted, the per-job fault cap is
        reached, or the seeded coin says not this time.  Thread-safe;
        fires are recorded in ``events``.
        """
        with self._lock:
            if self._budgets.get(fault, 0) <= 0:
                return False
            if (
                job_id is not None
                and self._per_job.get(job_id, 0) >= self.max_faults_per_job
            ):
                return False
            if self._rng.random() >= self.probability:
                return False
            self._budgets[fault] -= 1
            if job_id is not None:
                self._per_job[job_id] = self._per_job.get(job_id, 0) + 1
            self.events.append({"fault": fault, "op": op, "job_id": job_id})
        get_registry().counter(
            "repro_chaos_events_total", "injected faults fired, by kind"
        ).inc(layer="queue", fault=fault)
        return True

    def charge(self, fault: str, job_id: str) -> None:
        """Name the victim of the newest unattributed ``fault`` event (a
        lease thief's job is only known after it fires) and charge it
        against ``max_faults_per_job``.  Thread-safe."""
        with self._lock:
            event = next(
                e for e in reversed(self.events)
                if e["fault"] == fault and e["job_id"] is None
            )
            event["job_id"] = job_id
            self._per_job[job_id] = self._per_job.get(job_id, 0) + 1

    def report(self) -> dict:
        """Fault counts by kind plus the remaining budgets."""
        with self._lock:
            fired: dict[str, int] = {}
            for event in self.events:
                fired[event["fault"]] = fired.get(event["fault"], 0) + 1
            return {
                "fired": fired,
                "remaining": dict(self._budgets),
                "total": len(self.events),
            }


class ChaosQueue(JobQueue):
    """A :class:`~repro.pipeline.dist.queues.JobQueue` proxy that
    injects faults from a :class:`ChaosPlan` on the worker-facing
    verbs, and forwards everything else untouched.

    Faults and the recovery path each one exercises:

    * **dropped ack** — the ack never reaches the queue (the worker
      sees a rejection and moves on); the lease expires, the job is
      reaped and re-run, and the re-run's ack lands.  At-least-once
      execution, idempotent results.
    * **duplicated ack** — the ack is delivered twice; the second is
      rejected as stale (the job is already done).  Exactly-once
      recording.
    * **duplicated submit** — the submission is delivered twice; the
      queue keeps the first (idempotent submission by job id).
    * **lease theft** — before a real claim, a phantom claimer grabs
      one pending job under a micro-lease and vanishes without acking;
      the stolen lease expires and the job recovers via reaping.
    * **delayed claim** — a claim stalls briefly (slow network, slow
      disk); nothing breaks, everything is just later.

    The proxy is itself a valid ``JobQueue`` (it passes the runtime
    protocol check), so runners, workers, and servers accept it
    anywhere a queue goes.  Reads (stats, results, failures) are never
    faulted: observation must stay trustworthy or nothing is testable.
    """

    def __init__(self, inner: JobQueue, plan: ChaosPlan):
        self.inner = inner
        self.plan = plan

    # -- faulted verbs ------------------------------------------------
    def submit(self, spec: dict, *, job_id: str) -> str:
        if self.plan.take("submit-dup", "submit", job_id):
            self.inner.submit(spec, job_id=job_id)
        return self.inner.submit(spec, job_id=job_id)

    def claim_batch(
        self, worker_id: str, *, lease_seconds: float, limit: int = 1
    ) -> list[Job]:
        # Explicit wrapper (not __getattr__ delegation) so every claim
        # stays inside the fault plan: the theft/delay faults fire once
        # per claim round-trip, whatever its size.
        if self.plan.take("lease-theft", "claim"):
            stolen = self.inner.claim(
                "chaos-thief",
                lease_seconds=self.plan.theft_lease_seconds,
            )
            if stolen is not None:
                # The thief vanishes without acking; record who got hit
                # so the per-job ledger sees the (single) fault.
                self.plan.charge("lease-theft", stolen.job_id)
        if self.plan.take("claim-delay", "claim"):
            import time as _time

            _time.sleep(self.plan.delay_seconds)
        return self.inner.claim_batch(
            worker_id, lease_seconds=lease_seconds, limit=limit
        )

    def ack(
        self, job_id: str, result: dict, *, worker_id: str | None = None
    ) -> bool:
        if self.plan.take("ack-drop", "ack", job_id):
            # The ack vanishes in flight: the queue never hears it, the
            # worker sees a rejection.  Lease expiry re-runs the job.
            return False
        accepted = self.inner.ack(job_id, result, worker_id=worker_id)
        if accepted and self.plan.take("ack-dup", "ack", job_id):
            # Delivered twice; the duplicate must be rejected as stale.
            self.inner.ack(job_id, result, worker_id=worker_id)
        return accepted

    # -- clean pass-through -------------------------------------------
    def fail(
        self, job_id: str, error: str, *, worker_id: str | None = None
    ) -> None:
        self.inner.fail(job_id, error, worker_id=worker_id)

    def reap_expired(self) -> list[str]:
        return self.inner.reap_expired()

    def attempts(self, job_id: str) -> int:
        return self.inner.attempts(job_id)

    def attempts_map(self, job_ids) -> dict[str, int]:
        return self.inner.attempts_map(job_ids)

    def stats(self):
        return self.inner.stats()

    def finished_ids(self) -> set[str]:
        return self.inner.finished_ids()

    def results_page(self, *, after: str | None = None, limit: int = 100):
        return self.inner.results_page(after=after, limit=limit)

    def failures(self) -> dict[str, str]:
        return self.inner.failures()

    def failure_details(self) -> dict[str, dict]:
        return self.inner.failure_details()

    def retry(self, job_id: str) -> bool:
        return self.inner.retry(job_id)

    def quarantine(self, job_id: str, reason: str) -> bool:
        return self.inner.quarantine(job_id, reason)

    def __getattr__(self, name: str):
        # Extras beyond the protocol (heartbeat, health, fleet, ...)
        # delegate so the proxy is drop-in for any concrete queue.
        return getattr(self.inner, name)


class ChaosTransport:
    """Wire-level fault plan: a ``transport_hook`` for
    :class:`~repro.pipeline.dist.net.HttpJobQueue`.

    Budgeted and seeded like :class:`ChaosPlan`.  Faults fire only on a
    request's *first* attempt and only for paths in ``fault_paths``
    (the worker-facing verbs by default), so the client's bounded
    retries always converge and the runner's own submit/drain traffic
    is never sabotaged — the point is to prove worker-side recovery,
    not to break the experimenter's instruments.

    Actions returned to the hook seam:

    * ``"drop"`` — connection failure before the request leaves; the
      server never hears it.  Pure retry.
    * ``"lose-response"`` — the request executes server-side, the
      response dies on the way back.  The retry proves server-side
      idempotency (``/submit``) or leans on lease recovery
      (``/claim``).
    * ``"garble"`` — the response body is corrupted; the client raises
      a clean :class:`~repro.pipeline.dist.net.HttpQueueError` (a dead
      worker, a reaped lease — never silent garbage).
    * ``"delay"`` — a brief stall.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drops: int = 0,
        lost_responses: int = 0,
        garbles: int = 0,
        delays: int = 0,
        probability: float = 0.5,
        fault_paths: tuple = ("/claim", "/ack", "/fail", "/heartbeat"),
    ):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._budgets = {
            "drop": int(drops),
            "lose-response": int(lost_responses),
            "garble": int(garbles),
            "delay": int(delays),
        }
        self.fault_paths = tuple(fault_paths)
        self.probability = float(probability)
        #: every fault fired: ``{"action", "method", "path"}`` in order.
        self.events: list = []

    def __call__(self, method: str, path: str, attempt: int) -> str | None:
        if attempt > 0 or path not in self.fault_paths:
            return None
        with self._lock:
            for action, remaining in self._budgets.items():
                if remaining <= 0:
                    continue
                if self._rng.random() >= self.probability:
                    continue
                self._budgets[action] -= 1
                self.events.append(
                    {"action": action, "method": method, "path": path}
                )
                get_registry().counter(
                    "repro_chaos_events_total",
                    "injected faults fired, by kind",
                ).inc(layer="transport", fault=action)
                return action
        return None

    def report(self) -> dict:
        """Fault counts by action plus the remaining budgets."""
        with self._lock:
            fired: dict[str, int] = {}
            for event in self.events:
                fired[event["action"]] = fired.get(event["action"], 0) + 1
            return {
                "fired": fired,
                "remaining": dict(self._budgets),
                "total": len(self.events),
            }


class CrashPlan:
    """Kill workers at scheduled checkpoints in the claim/execute/ack
    cycle.

    Each argument lists zero-based *occurrence indices* of that
    checkpoint, counted fleet-wide: ``before_ack=(2,)`` crashes
    whichever worker is third to reach the before-ack checkpoint.
    Every scheduled crash fires exactly once (the occurrence counter
    only moves forward), so a respawned worker re-running the same job
    sails past the checkpoint that killed its predecessor — no crash
    loops by construction.

    Wire it into a worker with
    ``run_worker(queue, checkpoint=crash_plan.checkpoint)`` or let
    :class:`~repro.pipeline.dist.sweep.QueueRunner` pass it to its
    in-process drain (``checkpoint=...``; it replaces each worker the
    plan kills, at any ``workers`` count).  The recovery path each
    stage exercises:

    * ``after-claim`` — died holding an untouched lease: expiry +
      reap re-runs the job from scratch.
    * ``mid-encode`` — died inside job execution: partial work is
      lost, the re-run must be deterministic.
    * ``before-ack`` — died with the result computed but unrecorded:
      the re-run repeats work already done; idempotent results make
      that safe.
    * ``after-ack`` — died right after recording: nothing to recover,
      but a sloppy runner would double-count.  The stale-ack rejection
      and result-keyed aggregation must shrug.
    * ``mid-bundle`` — died after acking job *k* of a claimed bundle:
      the acked results stand, the unacked remainder sits claimed under
      the bundle's shared lease until expiry reaps and re-runs it.  The
      stage only fires for workers running with ``bundle > 1``.
    """

    def __init__(
        self,
        *,
        after_claim: tuple = (),
        mid_encode: tuple = (),
        before_ack: tuple = (),
        after_ack: tuple = (),
        mid_bundle: tuple = (),
    ):
        self._scheduled = {
            "after-claim": set(after_claim),
            "mid-encode": set(mid_encode),
            "before-ack": set(before_ack),
            "after-ack": set(after_ack),
            "mid-bundle": set(mid_bundle),
        }
        self._counters = {stage: 0 for stage in self._scheduled}
        self._lock = threading.Lock()
        #: every crash fired: ``{"stage", "occurrence", "job_id"}``.
        self.crashes: list = []

    def checkpoint(self, stage: str, job: Job) -> None:
        """The ``run_worker`` checkpoint hook; raises
        :class:`InjectedCrash` when this occurrence is scheduled."""
        with self._lock:
            if stage not in self._counters:
                return
            occurrence = self._counters[stage]
            self._counters[stage] += 1
            due = occurrence in self._scheduled[stage]
            if due:
                self.crashes.append(
                    {
                        "stage": stage,
                        "occurrence": occurrence,
                        "job_id": job.job_id,
                    }
                )
        if due:
            get_registry().counter(
                "repro_chaos_events_total", "injected faults fired, by kind"
            ).inc(layer="worker", fault=f"crash-{stage}")
            raise InjectedCrash(
                f"injected crash at {stage} "
                f"(occurrence {occurrence}, job {job.job_id})"
            )


# -- the poison job ---------------------------------------------------------
def poison_spec(tag: str = "poison") -> dict:
    """A job spec that kills every worker claiming it (register the
    kind first with :func:`register_poison_task`)."""
    return {"kind": POISON_KIND, "tag": str(tag)}


def _poison_execute(spec: dict) -> dict:
    raise InjectedCrash(
        f"poison job {spec.get('tag', 'poison')!r}: simulated hard worker "
        "death during execution"
    )


def register_poison_task() -> None:
    """Register the ``"chaos-poison"`` task kind (idempotent).

    Its execution raises :class:`InjectedCrash`, so the claiming worker
    dies instead of failing the job — the signature of a poison job:
    no traceback ever reaches ``fail()``, just a trail of dead workers
    and expired leases.  Quarantining it is the
    :class:`~repro.pipeline.dist.sweep.QueueRunner` circuit breaker's
    job.  Call this in any process that might *claim* a poison job
    (the runner's in-process drain shares the caller's registration;
    forked worker processes inherit it).
    """
    from repro.pipeline.tasks import register_task

    register_task(
        POISON_KIND,
        normalize=dict,
        execute=_poison_execute,
        hydrate=dict,
        description="chaos testing: kills the claiming worker",
        overwrite=True,
    )
