"""Work queues for sharded sweeps: claim / lease / ack with retry.

A queue holds *job specs* — the JSON documents
:meth:`repro.pipeline.Pipeline.to_dict` produces — and hands them to
workers under a **lease**: a claim expires after ``lease_seconds``
unless the worker acks a result first, so a worker that dies mid-job
(OOM kill, node loss, ctrl-C) never strands work.  The next
:meth:`~JobQueue.reap_expired` call returns the job to the pending set
with its attempt counter bumped; a job that keeps failing moves to the
dead-letter set after ``max_attempts`` tries instead of looping
forever.  The full protocol semantics (state diagram, at-least-once
caveats) are specified in ``docs/distributed.md``.

Two implementations share the :class:`JobQueue` protocol:

* :class:`MemoryJobQueue` — a ``threading.Lock``-guarded in-process
  queue.  Its workers run in the submitting process (the runner's
  in-process drain); this is what serial execution and the fast tests
  use.  The lock stays: ``repro serve`` shares one queue between its
  HTTP handler threads.
* :class:`DirectoryJobQueue` — a filesystem-backed queue: every job is
  one JSON file that moves between ``pending/``, ``claimed/``,
  ``done/`` and ``failed/`` subdirectories via atomic ``os.rename``.
  Claiming *is* the rename, so any number of worker processes — on one
  host or on many hosts sharing a filesystem — can pop from the same
  directory without locks, and the queue state survives restarts
  (which is what ``repro sweep --resume`` relies on).

Job identity is caller-chosen (the sweep runner derives ids from the
spec content, making resubmission idempotent).  Lease deadlines and
attempt counters ride in the *filename* of a claimed job, so every
state transition is a single atomic rename with no read-modify-write
window.

A third implementation lives in :mod:`repro.pipeline.dist.net`:
:class:`~repro.pipeline.dist.net.HttpJobQueue` speaks this same
protocol over JSON/HTTP to a :class:`~repro.pipeline.dist.net.QueueServer`
wrapping either queue above, so workers need no shared filesystem at
all.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

_LOG = logging.getLogger(__name__)

__all__ = [
    "DirectoryJobQueue",
    "Job",
    "JobQueue",
    "MemoryJobQueue",
    "QueueStats",
]

#: characters allowed in job and worker ids (they become file names).
_SAFE = re.compile(r"[^A-Za-z0-9._-]+")
#: field separator inside queue file names; sanitization above
#: guarantees it cannot appear in a job or worker id.
_SEP = "~~"


def _sanitize(name: str) -> str:
    return _SAFE.sub("-", str(name)) or "anon"


@dataclass(frozen=True)
class Job:
    """One claimed unit of work: the spec plus its queue bookkeeping."""

    job_id: str
    spec: dict
    #: how many times this job has been claimed before (0 first try).
    attempts: int = 0


@dataclass(frozen=True)
class QueueStats:
    """Point-in-time queue census (one entry per job, states disjoint)."""

    pending: int
    claimed: int
    done: int
    failed: int

    @property
    def total(self) -> int:
        return self.pending + self.claimed + self.done + self.failed

    @property
    def finished(self) -> int:
        """Jobs in a terminal state (completed or dead-lettered)."""
        return self.done + self.failed


@runtime_checkable
class JobQueue(Protocol):
    """What the worker loop and the sweep runner require of a queue.

    Semantics (both implementations):

    * ``submit`` is idempotent per ``job_id`` — resubmitting an id that
      is already pending, claimed, done, or failed is a no-op returning
      the id, so a resumed sweep can replay its whole grid.
    * ``claim`` transfers one pending job to the caller under a lease;
      ``None`` means nothing is pending right now (work may still be
      claimed by others — check :meth:`stats`).
    * ``claim_batch`` transfers up to ``limit`` pending jobs in one
      call — a *bundle* — under one lease deadline, amortizing queue
      round-trips over many tiny jobs.  Acks stay per-job: a worker
      that dies after acking job *k* of *N* strands only the unacked
      remainder, which ``reap_expired`` returns to pending when the
      shared deadline passes.  An empty list means nothing is pending.
    * ``ack`` finishes a claimed job with its result document and
      returns ``True``.  A **stale** ack — the job's lease was already
      reaped (and possibly reassigned to another worker, when
      ``worker_id`` is given), or the job already finished — is
      *rejected*: ``ack`` returns ``False``, the existing state is
      untouched, and nothing double-aggregates.  Rejection is clean,
      never an exception, so a straggler worker just moves on.
    * ``fail`` records an error on a claimed job; the job returns to
      pending until it has been attempted ``max_attempts`` times, then
      dead-letters.  A **stale** ``fail`` — the job is not claimed
      (reaped, finished, or never handed out), or, when ``worker_id``
      is given, claimed by another worker now — is ignored, so a late
      report can never bump attempts, requeue a job twice, or cut the
      next claimer's lease short.
    * ``reap_expired`` requeues every claimed job whose lease deadline
      passed (the crashed-worker recovery path).
    * ``attempts`` reads one job's attempt counter: how many times it
      has been handed out and lost (lease reaps and recorded failures
      both bump it, whoever triggers them).  Monotonic until ``retry``
      resets it — which makes it the poison-job circuit breaker's
      evidence: the runner can see a job churning through workers even
      when workers win every ``reap_expired`` race.
    * ``results_page`` reads one lexicographic page of completed
      results after a cursor, so huge grids drain incrementally
      instead of materializing every payload at once (``results`` is
      the drain-everything convenience).
    * ``quarantine`` force-dead-letters a pending or claimed job
      *now*, skipping the remaining attempts — the circuit breaker's
      verb for a poison job that keeps killing its workers.  Returns
      ``False`` if the job is unknown or already terminal.
    * ``failure_details`` is the dead-letter ledger: every failed job
      with its error text, attempt count, original spec, and a
      ``quarantined`` marker — enough to triage (``repro failures``)
      and to resubmit.
    * ``retry`` moves one dead-lettered job back to pending with a
      fresh attempt budget (``repro retry``); ``False`` if the id is
      not in the failed set.
    """

    def submit(self, spec: dict, *, job_id: str) -> str: ...

    def claim(self, worker_id: str, *, lease_seconds: float) -> Job | None: ...

    def claim_batch(
        self, worker_id: str, *, lease_seconds: float, limit: int = 1
    ) -> list[Job]: ...

    def ack(
        self, job_id: str, result: dict, *, worker_id: str | None = None
    ) -> bool: ...

    def fail(
        self, job_id: str, error: str, *, worker_id: str | None = None
    ) -> None: ...

    def reap_expired(self) -> list[str]: ...

    def attempts(self, job_id: str) -> int: ...

    def stats(self) -> QueueStats: ...

    def finished_ids(self) -> set[str]: ...

    def results(self) -> dict[str, dict]: ...

    def results_page(
        self, *, after: str | None = None, limit: int = 100
    ) -> tuple[dict[str, dict], str | None]: ...

    def failures(self) -> dict[str, str]: ...

    def failure_details(self) -> dict[str, dict]: ...

    def retry(self, job_id: str) -> bool: ...

    def quarantine(self, job_id: str, reason: str) -> bool: ...


class MemoryJobQueue:
    """In-process :class:`JobQueue`: a lock, four dicts, no I/O.

    Workers against this queue live in the submitting process: the
    runner drains it there.  Used by ``repro sweep`` when neither
    ``--queue-dir`` nor ``--queue-url`` is given, by ``repro serve``
    without ``--queue-dir`` (its HTTP handler threads share the queue,
    which is why the lock stays), and by the fast tests.
    """

    def __init__(self, *, max_attempts: int = 3):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        self._specs: dict[str, dict] = {}
        self._attempts: dict[str, int] = {}
        self._pending: list[str] = []
        #: job_id -> (worker_id, monotonic deadline)
        self._claimed: dict[str, tuple[str, float]] = {}
        self._done: dict[str, dict] = {}
        self._failed: dict[str, str] = {}
        self._quarantined: set[str] = set()

    def submit(self, spec: dict, *, job_id: str) -> str:
        job_id = _sanitize(job_id)
        with self._lock:
            if job_id not in self._specs:
                self._specs[job_id] = dict(spec)
                self._attempts[job_id] = 0
                self._pending.append(job_id)
        return job_id

    def claim(self, worker_id: str, *, lease_seconds: float) -> Job | None:
        jobs = self.claim_batch(worker_id, lease_seconds=lease_seconds)
        return jobs[0] if jobs else None

    def claim_batch(
        self, worker_id: str, *, lease_seconds: float, limit: int = 1
    ) -> list[Job]:
        """Claim up to ``limit`` pending jobs under one lease deadline.

        One lock acquisition pops the whole bundle, so N tiny jobs cost
        one queue round-trip instead of N.  Acks remain per-job."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        worker = _sanitize(worker_id)
        with self._lock:
            deadline = time.monotonic() + lease_seconds
            jobs: list[Job] = []
            while self._pending and len(jobs) < limit:
                job_id = self._pending.pop(0)
                self._claimed[job_id] = (worker, deadline)
                jobs.append(
                    Job(job_id, dict(self._specs[job_id]), self._attempts[job_id])
                )
            return jobs

    def ack(
        self, job_id: str, result: dict, *, worker_id: str | None = None
    ) -> bool:
        with self._lock:
            lease = self._claimed.get(job_id)
            if lease is None:
                # Stale: the lease was reaped (job is pending again or
                # already finished elsewhere).  Reject; state untouched.
                return False
            if worker_id is not None and lease[0] != _sanitize(worker_id):
                # Stale: reaped *and* reassigned — the current claim
                # belongs to another worker now.
                return False
            del self._claimed[job_id]
            self._done[job_id] = result
            return True

    def fail(
        self, job_id: str, error: str, *, worker_id: str | None = None
    ) -> None:
        with self._lock:
            lease = self._claimed.get(job_id)
            if lease is None:
                return  # stale: reaped, finished, or never claimed
            if worker_id is not None and lease[0] != _sanitize(worker_id):
                return  # stale: reaped and reassigned to another worker
            del self._claimed[job_id]
            self._attempts[job_id] = self._attempts.get(job_id, 0) + 1
            if self._attempts[job_id] >= self.max_attempts:
                self._failed[job_id] = error
            else:
                self._pending.append(job_id)

    def reap_expired(self) -> list[str]:
        now = time.monotonic()
        reaped = []
        with self._lock:
            for job_id, (worker, deadline) in list(self._claimed.items()):
                if deadline > now:
                    continue
                del self._claimed[job_id]
                self._attempts[job_id] = self._attempts.get(job_id, 0) + 1
                if self._attempts[job_id] >= self.max_attempts:
                    self._failed[job_id] = (
                        f"lease expired {self._attempts[job_id]} times "
                        f"(last worker: {worker})"
                    )
                else:
                    self._pending.append(job_id)
                reaped.append(job_id)
        return reaped

    def attempts(self, job_id: str) -> int:
        """How many attempts this job has burned (reaps + failures)."""
        with self._lock:
            return self._attempts.get(_sanitize(job_id), 0)

    def stats(self) -> QueueStats:
        with self._lock:
            return QueueStats(
                pending=len(self._pending),
                claimed=len(self._claimed),
                done=len(self._done),
                failed=len(self._failed),
            )

    def finished_ids(self) -> set[str]:
        """Ids in a terminal state — cheap to poll, no payload access."""
        with self._lock:
            return set(self._done) | set(self._failed)

    def results(self) -> dict[str, dict]:
        with self._lock:
            return dict(self._done)

    def results_page(
        self, *, after: str | None = None, limit: int = 100
    ) -> tuple[dict[str, dict], str | None]:
        """One lexicographic page of results with ids after ``after``.

        Returns ``(page, cursor)``; ``cursor`` is the last id of the
        page (pass it back as ``after``) or ``None`` when the page is
        empty.  Pagination is stable because job ids only ever *enter*
        the done set.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            ids = sorted(
                job_id for job_id in self._done
                if after is None or job_id > after
            )[:limit]
            page = {job_id: self._done[job_id] for job_id in ids}
        return page, (ids[-1] if ids else None)

    def failures(self) -> dict[str, str]:
        with self._lock:
            return dict(self._failed)

    def failure_details(self) -> dict[str, dict]:
        """Dead-letter ledger: error, attempts, spec per failed job."""
        with self._lock:
            out: dict[str, dict] = {}
            for job_id, error in self._failed.items():
                record = {
                    "error": error,
                    "attempts": self._attempts.get(job_id, 0),
                    "spec": dict(self._specs.get(job_id, {})),
                }
                if job_id in self._quarantined:
                    record["quarantined"] = True
                out[job_id] = record
            return out

    def retry(self, job_id: str) -> bool:
        """Move one dead-lettered job back to pending, attempts reset."""
        job_id = _sanitize(job_id)
        with self._lock:
            if job_id not in self._failed:
                return False
            del self._failed[job_id]
            self._quarantined.discard(job_id)
            self._attempts[job_id] = 0
            self._pending.append(job_id)
            return True

    def quarantine(self, job_id: str, reason: str) -> bool:
        """Dead-letter a pending or claimed job immediately (the
        poison-job circuit breaker's verb — no more attempts).  A job
        already dead-lettered is *upgraded* in place — the breaker's
        diagnosis replaces a generic lease-expiry error — so the
        record reads the same whichever race the breaker won.  Only a
        completed job refuses quarantine."""
        job_id = _sanitize(job_id)
        with self._lock:
            if job_id in self._done:
                return False
            if job_id in self._failed:
                self._failed[job_id] = reason
                self._quarantined.add(job_id)
                return True
            if job_id in self._claimed:
                del self._claimed[job_id]
            elif job_id in self._pending:
                self._pending.remove(job_id)
            elif job_id not in self._specs:
                return False
            self._failed[job_id] = reason
            self._quarantined.add(job_id)
            return True


class DirectoryJobQueue:
    """Filesystem-backed :class:`JobQueue` for cross-process workers.

    Layout under ``root``::

        pending/{id}~~{attempts}.json            the job spec
        claimed/{id}~~{attempts}~~{deadline_ms}~~{worker}.json
        done/{id}.json                           the result document
        failed/{id}.json                         {"error": ..., "spec": ...}

    Every transition is one atomic ``os.rename`` (claim, requeue) or a
    write-then-unlink (ack, fail), so concurrent workers — including
    workers on other hosts sharing the filesystem — cannot double-run a
    job: whichever rename wins owns the claim, the loser gets
    ``FileNotFoundError`` and moves on.  Lease deadlines are wall-clock
    epoch milliseconds in the claimed filename; hosts sharing a queue
    directory should have loosely synchronized clocks (skew merely
    shortens or stretches leases).

    The directory is durable state: a sweep interrupted and restarted
    with the same root resumes from ``done/`` instead of re-encoding
    (``repro sweep --resume``).
    """

    _STATES = ("pending", "claimed", "done", "failed")

    def __init__(self, root: str | os.PathLike, *, max_attempts: int = 3):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = os.fspath(root)
        self.max_attempts = max_attempts
        #: malformed filenames already warned about (warn once each —
        #: every scan revisits them, and a stray file must not spam).
        self._warned: set[str] = set()
        for state in self._STATES:
            os.makedirs(os.path.join(self.root, state), exist_ok=True)

    # -- path helpers -------------------------------------------------
    def _dir(self, state: str) -> str:
        return os.path.join(self.root, state)

    def _pending_path(self, job_id: str, attempts: int) -> str:
        return os.path.join(
            self._dir("pending"), f"{job_id}{_SEP}{attempts}.json"
        )

    def _terminal_path(self, state: str, job_id: str) -> str:
        return os.path.join(self._dir(state), f"{job_id}.json")

    @staticmethod
    def _parse_name(name: str) -> list[str]:
        return name[: -len(".json")].split(_SEP)

    def _warn_malformed(self, state: str, name: str, why: str) -> None:
        key = f"{state}/{name}"
        if key not in self._warned:
            self._warned.add(key)
            _LOG.warning(
                "skipping malformed job file %s in %s: %s "
                "(not produced by this queue; remove it to silence this)",
                name, os.path.join(self.root, state), why,
            )

    def _parse_pending(self, name: str) -> tuple[str, int] | None:
        """``{id}~~{attempts}.json`` -> (id, attempts), or ``None``
        (with a one-time warning) for a file this queue never wrote —
        a corrupt or foreign filename must never abort a whole scan."""
        parts = self._parse_name(name)
        if len(parts) == 2 and parts[1].isdigit():
            return parts[0], int(parts[1])
        self._warn_malformed(
            "pending", name, "want {id}~~{attempts}.json"
        )
        return None

    def _parse_claimed(self, name: str) -> tuple[str, int, int, str] | None:
        """``{id}~~{attempts}~~{deadline_ms}~~{worker}.json`` parsed,
        or ``None`` (with a one-time warning) when malformed."""
        parts = self._parse_name(name)
        if len(parts) == 4 and parts[1].isdigit() and parts[2].isdigit():
            return parts[0], int(parts[1]), int(parts[2]), parts[3]
        self._warn_malformed(
            "claimed", name,
            "want {id}~~{attempts}~~{deadline_ms}~~{worker}.json",
        )
        return None

    def _find_job(self, state: str, job_id: str) -> str | None:
        prefix = f"{job_id}{_SEP}"
        for name in os.listdir(self._dir(state)):
            if name.startswith(prefix):
                return name
        return None

    @staticmethod
    def _write_json(path: str, payload: dict) -> None:
        # Write-then-rename so a concurrently listing worker never sees
        # a half-written JSON document.
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)

    # -- protocol -----------------------------------------------------
    def submit(self, spec: dict, *, job_id: str) -> str:
        job_id = _sanitize(job_id)
        if not self._known(job_id):
            self._write_json(self._pending_path(job_id, 0), dict(spec))
        return job_id

    def _known(self, job_id: str) -> bool:
        for state in ("done", "failed"):
            if os.path.exists(self._terminal_path(state, job_id)):
                return True
        return any(
            self._find_job(state, job_id) for state in ("pending", "claimed")
        )

    def claim(self, worker_id: str, *, lease_seconds: float) -> Job | None:
        jobs = self.claim_batch(worker_id, lease_seconds=lease_seconds)
        return jobs[0] if jobs else None

    def claim_batch(
        self, worker_id: str, *, lease_seconds: float, limit: int = 1
    ) -> list[Job]:
        """Claim up to ``limit`` pending jobs under one shared deadline.

        One directory listing feeds the whole bundle; each job is still
        claimed by its own atomic rename (losing a race skips to the
        next candidate), so concurrent bundling workers never
        double-claim.  Acks remain per-job."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        worker_id = _sanitize(worker_id)
        deadline_ms = int((time.time() + lease_seconds) * 1000)
        jobs: list[Job] = []
        for name in sorted(os.listdir(self._dir("pending"))):
            if len(jobs) >= limit:
                break
            if not name.endswith(".json") or ".tmp." in name:
                continue
            parsed = self._parse_pending(name)
            if parsed is None:
                continue  # junk file; warned, skip, keep scanning
            job_id, attempts = parsed
            target = os.path.join(
                self._dir("claimed"),
                f"{job_id}{_SEP}{attempts}{_SEP}{deadline_ms}{_SEP}"
                f"{worker_id}.json",
            )
            try:
                os.rename(os.path.join(self._dir("pending"), name), target)
            except FileNotFoundError:
                continue  # lost the race; try the next pending job
            with open(target, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
            jobs.append(Job(job_id, spec, int(attempts)))
        return jobs

    def ack(
        self, job_id: str, result: dict, *, worker_id: str | None = None
    ) -> bool:
        claimed = self._find_job("claimed", job_id)
        if claimed is None:
            # Stale ack: the lease was reaped (job pending again) or
            # the job already finished.  Reject cleanly; whatever state
            # exists — including a result acked by the re-run — stands.
            return False
        if worker_id is not None:
            parsed = self._parse_claimed(claimed)
            if parsed is not None and parsed[3] != _sanitize(worker_id):
                # Stale: reaped *and* reassigned; the claim belongs to
                # another worker now.
                return False
        self._write_json(self._terminal_path("done", job_id), result)
        try:
            os.unlink(os.path.join(self._dir("claimed"), claimed))
        except FileNotFoundError:
            pass
        return True

    def fail(
        self, job_id: str, error: str, *, worker_id: str | None = None
    ) -> None:
        claimed = self._find_job("claimed", job_id)
        if claimed is None or os.path.exists(
            self._terminal_path("done", job_id)
        ):
            return
        path = os.path.join(self._dir("claimed"), claimed)
        parsed = self._parse_claimed(claimed)
        if parsed is None:
            return  # junk file matching the id prefix; never ours
        if worker_id is not None and parsed[3] != _sanitize(worker_id):
            return  # stale: reaped and reassigned to another worker
        attempts = parsed[1] + 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except FileNotFoundError:
            return  # someone else already moved it
        if attempts >= self.max_attempts:
            self._write_json(
                self._terminal_path("failed", job_id),
                {"error": error, "attempts": attempts, "spec": spec},
            )
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        else:
            try:
                os.rename(path, self._pending_path(job_id, attempts))
            except FileNotFoundError:
                pass

    def reap_expired(self) -> list[str]:
        now_ms = int(time.time() * 1000)
        reaped = []
        for name in os.listdir(self._dir("claimed")):
            if not name.endswith(".json") or ".tmp." in name:
                continue
            parsed = self._parse_claimed(name)
            if parsed is None:
                continue  # junk file; warned, skip, keep scanning
            job_id, attempts, deadline_ms, worker = parsed
            if deadline_ms > now_ms:
                continue
            path = os.path.join(self._dir("claimed"), name)
            attempts = attempts + 1
            if attempts >= self.max_attempts:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        spec = json.load(handle)
                    self._write_json(
                        self._terminal_path("failed", job_id),
                        {
                            "error": (
                                f"lease expired {attempts} times "
                                f"(last worker: {worker})"
                            ),
                            "attempts": attempts,
                            "spec": spec,
                        },
                    )
                    os.unlink(path)
                except FileNotFoundError:
                    continue
            else:
                try:
                    os.rename(path, self._pending_path(job_id, attempts))
                except FileNotFoundError:
                    continue  # claimer acked or another reaper won
            reaped.append(job_id)
        return reaped

    def attempts(self, job_id: str) -> int:
        """How many attempts this job has burned (reaps + failures).

        Free to answer: the counter rides in the pending/claimed
        filename and in the failed record, so no state is added — any
        process sharing the directory sees the same number."""
        job_id = _sanitize(job_id)
        for state in ("pending", "claimed"):
            name = self._find_job(state, job_id)
            if name is None:
                continue
            parsed = (
                self._parse_pending(name)
                if state == "pending"
                else self._parse_claimed(name)
            )
            if parsed is not None:
                return int(parsed[1])
        try:
            with open(
                self._terminal_path("failed", job_id), encoding="utf-8"
            ) as handle:
                return int(json.load(handle).get("attempts", 0))
        except (FileNotFoundError, json.JSONDecodeError, TypeError, ValueError):
            return 0  # unknown or done: no attempt churn worth reporting

    def _count(self, state: str) -> int:
        return sum(
            1
            for name in os.listdir(self._dir(state))
            if name.endswith(".json") and ".tmp." not in name
        )

    def stats(self) -> QueueStats:
        return QueueStats(
            pending=self._count("pending"),
            claimed=self._count("claimed"),
            done=self._count("done"),
            failed=self._count("failed"),
        )

    def finished_ids(self) -> set[str]:
        """Ids in a terminal state, from filenames alone — the cheap
        thing to poll (no JSON parsing; result payloads load once via
        :meth:`results` when the sweep completes)."""
        out: set[str] = set()
        for state in ("done", "failed"):
            for name in os.listdir(self._dir(state)):
                if name.endswith(".json") and ".tmp." not in name:
                    out.add(name[: -len(".json")])
        return out

    def _load_terminal(self, state: str) -> dict[str, dict]:
        out = {}
        directory = self._dir(state)
        for name in os.listdir(directory):
            if not name.endswith(".json") or ".tmp." in name:
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name[: -len(".json")]] = json.load(fh)
        return out

    def results(self) -> dict[str, dict]:
        return self._load_terminal("done")

    def results_page(
        self, *, after: str | None = None, limit: int = 100
    ) -> tuple[dict[str, dict], str | None]:
        """One lexicographic page of results with ids after ``after``
        — only the page's files are opened, so a runner can drain a
        huge grid without ever loading every payload at once.

        Returns ``(page, cursor)``; ``cursor`` is the last id of the
        page (pass it back as ``after``) or ``None`` when empty.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        directory = self._dir("done")
        ids = sorted(
            name[: -len(".json")]
            for name in os.listdir(directory)
            if name.endswith(".json") and ".tmp." not in name
            and (after is None or name[: -len(".json")] > after)
        )[:limit]
        page: dict[str, dict] = {}
        for job_id in ids:
            try:
                with open(
                    os.path.join(directory, f"{job_id}.json"),
                    encoding="utf-8",
                ) as handle:
                    page[job_id] = json.load(handle)
            except FileNotFoundError:
                continue  # raced with nothing we mind about
        return page, (ids[-1] if ids else None)

    def failures(self) -> dict[str, str]:
        return {
            job_id: record.get("error", "unknown error")
            for job_id, record in self._load_terminal("failed").items()
        }

    def failure_details(self) -> dict[str, dict]:
        """Dead-letter ledger: error, attempts, spec per failed job
        (``failed/{id}.json`` already stores all three)."""
        out: dict[str, dict] = {}
        for job_id, record in self._load_terminal("failed").items():
            detail = {
                "error": record.get("error", "unknown error"),
                "attempts": int(record.get("attempts", 0)),
                "spec": record.get("spec") or {},
            }
            if record.get("quarantined"):
                detail["quarantined"] = True
            out[job_id] = detail
        return out

    def retry(self, job_id: str) -> bool:
        """Move one dead-lettered job back to pending, attempts reset.

        The failed record keeps the original spec, so replay needs no
        other source of truth; concurrent retries of the same id
        converge (the pending write is idempotent, one unlink wins).
        """
        job_id = _sanitize(job_id)
        path = self._terminal_path("failed", job_id)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return False
        self._write_json(
            self._pending_path(job_id, 0), dict(record.get("spec") or {})
        )
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass  # lost a retry race; the pending file stands either way
        return True

    def quarantine(self, job_id: str, reason: str) -> bool:
        """Dead-letter a pending or claimed job immediately (the
        poison-job circuit breaker's verb — no more attempts).  A job
        already dead-lettered is *upgraded* in place — the breaker's
        diagnosis replaces a generic lease-expiry error — so the
        record reads the same whichever race the breaker won.  Only a
        completed job refuses quarantine."""
        job_id = _sanitize(job_id)
        if os.path.exists(self._terminal_path("done", job_id)):
            return False
        failed_path = self._terminal_path("failed", job_id)
        try:
            with open(failed_path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            record = None
        if record is not None:
            record["error"] = reason
            record["quarantined"] = True
            self._write_json(failed_path, record)
            return True
        for state in ("pending", "claimed"):
            name = self._find_job(state, job_id)
            if name is None:
                continue
            parsed = (
                self._parse_pending(name)
                if state == "pending"
                else self._parse_claimed(name)
            )
            if parsed is None:
                continue  # junk file matching the id prefix; never ours
            path = os.path.join(self._dir(state), name)
            try:
                with open(path, encoding="utf-8") as handle:
                    spec = json.load(handle)
            except FileNotFoundError:
                continue  # raced with a claim/ack; check the other state
            self._write_json(
                self._terminal_path("failed", job_id),
                {
                    "error": reason,
                    "attempts": int(parsed[1]),
                    "spec": spec,
                    "quarantined": True,
                },
            )
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            if os.path.exists(self._terminal_path("done", job_id)):
                # The claimer acked inside our race window; its result
                # wins — withdraw the quarantine record.
                try:
                    os.unlink(self._terminal_path("failed", job_id))
                except FileNotFoundError:
                    pass
                return False
            return True
        return False
