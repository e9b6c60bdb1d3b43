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

One state machine, two storages.  Every transition — id cleaning,
the lease-owner check, attempt counting and dead-lettering,
quarantine, retry, pagination — is written once, in the core both
queues inherit.  The core sees jobs as *entries* (a state plus job
id, attempts, lease deadline and worker) that a storage lists, finds,
reads, writes, moves and removes:

* :class:`MemoryJobQueue` — the entries are dicts, guarded by a
  ``threading.Lock`` the core takes for each verb.  Its workers run in
  the submitting process (the runner's in-process drain); this is what
  serial execution and the fast tests use.  The lock stays: ``repro
  serve`` shares one queue between its HTTP handler threads.
* :class:`DirectoryJobQueue` — every entry is one JSON file under
  ``pending/``, ``claimed/``, ``done/`` or ``failed/``, its fields in
  the file *name*, and a move is one atomic ``os.rename``.  Claiming
  *is* the rename, so any number of worker processes — on one host or
  on many hosts sharing a filesystem — can pop from the same directory
  without locks, and the queue state survives restarts (which is what
  ``repro sweep --resume`` relies on).

Job identity is caller-chosen (the sweep runner derives ids from the
spec content, making resubmission idempotent).

A third implementation lives in :mod:`repro.pipeline.dist.net`:
:class:`~repro.pipeline.dist.net.HttpJobQueue` speaks this same
protocol over JSON/HTTP to a :class:`~repro.pipeline.dist.net.QueueServer`
wrapping either queue above, so workers need no shared filesystem at
all.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Protocol, runtime_checkable

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
#: field separator inside queue file names; cleaning above guarantees
#: it cannot appear in a job or worker id.
_SEP = "~~"
_STATES = ("pending", "claimed", "done", "failed")
#: tries a job gets when neither the opener nor the queue names a number.
DEFAULT_MAX_ATTEMPTS = 3


def _clean(name: str) -> str:
    """The id every verb works on: unsafe characters become ``-``."""
    return _SAFE.sub("-", str(name)) or "anon"


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


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

    Semantics (every implementation):

    * Every verb cleans the ids it is given (unsafe characters become
      ``-``), so ``"b c"`` and ``"b-c"`` name one job everywhere.
    * ``submit`` is idempotent per ``job_id`` — resubmitting an id that
      is already pending, claimed, done, or failed is a no-op returning
      the id, so a resumed sweep can replay its whole grid.
    * ``claim`` transfers one pending job to the caller under a lease;
      ``None`` means nothing is pending right now (work may still be
      claimed by others — check :meth:`stats`).  It is exactly
      ``claim_batch(limit=1)``.
    * ``claim_batch`` transfers up to ``limit`` pending jobs in one
      call — a *bundle* — under one lease deadline, amortizing queue
      round-trips over many tiny jobs.  Pending jobs are claimed in
      job-id order (for sweep ids, submission order).  Acks stay
      per-job: a worker that dies after acking job *k* of *N* strands
      only the unacked remainder, which ``reap_expired`` returns to
      pending when the shared deadline passes.  An empty list means
      nothing is pending.  A lease that is not finite, or negative, is
      a ``ValueError``: it could never be reaped.
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
      both bump it, whoever triggers them).  While the job is
      unfinished it is monotonic until ``retry`` resets it — which
      makes it the poison-job circuit breaker's evidence: the runner
      can see a job churning through workers even when workers win
      every ``reap_expired`` race.  A done job (and an unknown id)
      reads 0: a result document has no place for the counter.
      ``attempts_map`` reads many counters in one call.
    * ``results_page`` reads one lexicographic page of completed
      results after a cursor, so huge grids drain incrementally
      instead of materializing every payload at once (``results`` is
      the drain-everything convenience).
    * ``quarantine`` force-dead-letters a pending or claimed job
      *now*, skipping the remaining attempts — the circuit breaker's
      verb for a poison job that keeps killing its workers.  A job
      already dead-lettered is upgraded in place; ``False`` if the
      job is unknown or done.
    * ``failure_details`` is the dead-letter ledger: every failed job
      with its error text, attempt count, original spec, and a
      ``quarantined`` marker — enough to triage (``repro failures``)
      and to resubmit.
    * ``retry`` moves one dead-lettered job back to pending with a
      fresh attempt budget (``repro retry``); ``False`` if the id is
      not in the failed set.
    """

    def submit(self, spec: dict, *, job_id: str) -> str: ...

    def claim(self, worker_id: str, *, lease_seconds: float) -> Job | None:
        jobs = self.claim_batch(worker_id, lease_seconds=lease_seconds)
        return jobs[0] if jobs else None

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

    def attempts_map(self, job_ids) -> dict[str, int]: ...

    def stats(self) -> QueueStats: ...

    def finished_ids(self) -> set[str]: ...

    def results(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        cursor: str | None = None
        while True:
            page, cursor = self.results_page(after=cursor, limit=100)
            if not page:
                return out
            out.update(page)

    def results_page(
        self, *, after: str | None = None, limit: int = 100
    ) -> tuple[dict[str, dict], str | None]: ...

    def failures(self) -> dict[str, str]: ...

    def failure_details(self) -> dict[str, dict]: ...

    def retry(self, job_id: str) -> bool: ...

    def quarantine(self, job_id: str, reason: str) -> bool: ...


class _Entry(NamedTuple):
    """One job in one state, as a storage holds it (for the directory
    queue, exactly the fields of its file name)."""

    state: str
    job_id: str
    attempts: int = 0
    #: lease deadline of a claimed job, in the storage's clock units.
    deadline: float = 0
    worker: str = ""


def _failure_record(error, attempts, spec, quarantined=False) -> dict:
    """The dead-letter record: stored as-is, and the ledger's shape."""
    record = {"error": error, "attempts": int(attempts), "spec": spec}
    if quarantined:
        record["quarantined"] = True
    return record


class _QueueCore(JobQueue):
    """Every :class:`JobQueue` transition, written once over a storage.

    A storage supplies ``_lock`` (held for each verb), ``_clock`` and
    six entry primitives: ``_list(state)``, ``_find(job_id, state)``,
    ``_read(entry)`` (``None`` once the entry is gone), ``_write(entry,
    document)``, ``_move(entry, target)`` and ``_remove(entry)`` (both
    ``False`` when they lost a race).
    """

    def __init__(self, *, max_attempts: int | None = None):
        if max_attempts is None:
            max_attempts = DEFAULT_MAX_ATTEMPTS
        _require_positive("max_attempts", max_attempts)
        self.max_attempts = max_attempts

    # -- transitions ----------------------------------------------------
    def submit(self, spec: dict, *, job_id: str) -> str:
        job_id = _clean(job_id)
        with self._lock:
            # terminal states first: one cheap lookup each
            if not any(self._find(job_id, s) for s in reversed(_STATES)):
                self._write(_Entry("pending", job_id), dict(spec))
        return job_id

    def claim_batch(
        self, worker_id: str, *, lease_seconds: float, limit: int = 1
    ) -> list[Job]:
        """Claim up to ``limit`` pending jobs, in job-id order, under one
        lease deadline.  One listing feeds the whole bundle; each job is
        still claimed by its own move, and losing a race skips to the
        next candidate, so concurrent claimers never double-claim."""
        _require_positive("limit", limit)
        if not (math.isfinite(lease_seconds) and lease_seconds >= 0):
            raise ValueError(
                f"lease_seconds must be finite and >= 0, got {lease_seconds}"
            )
        worker = _clean(worker_id)
        jobs: list[Job] = []
        with self._lock:
            deadline = self._clock(lease_seconds)
            for entry in sorted(self._list("pending")):
                if len(jobs) == limit:
                    break
                lease = entry._replace(
                    state="claimed", deadline=deadline, worker=worker
                )
                spec = self._read(lease) if self._move(entry, lease) else None
                if spec is not None:
                    jobs.append(Job(entry.job_id, spec, entry.attempts))
        return jobs

    def _owned(self, job_id: str, worker_id: str | None) -> _Entry | None:
        """The live claim ``ack`` and ``fail`` act on, or ``None`` when
        the report is stale: the job is not claimed, or (``worker_id``
        given) another worker holds it now."""
        lease = self._find(_clean(job_id), "claimed")
        if lease is None or (
            worker_id is not None and lease.worker != _clean(worker_id)
        ):
            return None
        return lease

    def ack(
        self, job_id: str, result: dict, *, worker_id: str | None = None
    ) -> bool:
        with self._lock:
            lease = self._owned(job_id, worker_id)
            if lease is None:
                return False
            self._write(_Entry("done", lease.job_id), result)
            # Removing the claim is what accepts the ack: of two acks
            # racing past the ownership check, only one removes it.
            return self._remove(lease)

    def fail(
        self, job_id: str, error: str, *, worker_id: str | None = None
    ) -> None:
        with self._lock:
            lease = self._owned(job_id, worker_id)
            # A result that landed mid-ack already finished the job.
            if lease is not None and not self._find(lease.job_id, "done"):
                self._burn(lease, error)

    def reap_expired(self) -> list[str]:
        reaped = []
        with self._lock:
            now = self._clock()
            for lease in self._list("claimed"):
                if lease.deadline > now:
                    continue
                if self._find(lease.job_id, "done"):
                    # An ack wrote its result and has not removed the
                    # claim yet (or died before it could): the job is
                    # finished, so the claim goes, not the job.
                    self._remove(lease)
                    continue
                burnt = self._burn(lease)
                if burnt is None:
                    continue
                if self._find(lease.job_id, "done"):
                    # The ack's result landed while this reap moved the
                    # claim: the result stands, the requeue goes.
                    self._remove(burnt)
                else:
                    reaped.append(lease.job_id)
        return reaped

    def _burn(self, lease: _Entry, error: str | None = None) -> _Entry | None:
        """One attempt lost: attempts + 1, then dead-letter at
        ``max_attempts`` or requeue.  A reap passes no error.  Returns
        the entry the job moved to, ``None`` when it lost a race."""
        attempts = lease.attempts + 1
        if attempts < self.max_attempts:
            target = _Entry("pending", lease.job_id, attempts)
            return target if self._move(lease, target) else None
        if error is None:
            error = (
                f"lease expired {attempts} times (last worker: {lease.worker})"
            )
        target = _Entry("failed", lease.job_id)
        return target if self._bury(lease, error, attempts) else None

    def _bury(
        self, entry: _Entry, error: str, attempts: int, quarantined=False
    ) -> bool:
        """Dead-letter a pending or claimed ``entry`` with its spec."""
        spec = self._read(entry)
        if spec is None:
            return False  # a concurrent claim, ack or reap moved it
        self._write(
            _Entry("failed", entry.job_id),
            _failure_record(error, attempts, spec, quarantined),
        )
        self._remove(entry)
        return True

    def retry(self, job_id: str) -> bool:
        """Move one dead-lettered job back to pending, attempts reset.
        The failed record keeps the original spec, so replay needs no
        other source of truth."""
        failed = _Entry("failed", _clean(job_id))
        with self._lock:
            record = self._read(failed)
            if record is None:
                return False
            self._write(
                _Entry("pending", failed.job_id), dict(record.get("spec") or {})
            )
            self._remove(failed)
            return True

    def quarantine(self, job_id: str, reason: str) -> bool:
        """Dead-letter a pending or claimed job immediately (the
        poison-job circuit breaker's verb — no more attempts).  A job
        already dead-lettered is *upgraded* in place — the breaker's
        diagnosis replaces a generic lease-expiry error — so the
        record reads the same whichever race the breaker won.  Only a
        completed job refuses quarantine."""
        job_id = _clean(job_id)
        failed = _Entry("failed", job_id)
        with self._lock:
            if self._find(job_id, "done"):
                return False
            record = self._read(failed)
            if record is not None:
                record.update(error=reason, quarantined=True)
                self._write(failed, record)
                return True
            for state in ("pending", "claimed"):
                entry = self._find(job_id, state)
                if entry is None or not self._bury(
                    entry, reason, entry.attempts, True
                ):
                    continue  # absent, or raced with a claim/ack
                if self._find(job_id, "done"):
                    # The claimer acked inside our race window; its
                    # result wins — withdraw the quarantine record.
                    self._remove(failed)
                    return False
                return True
            return False

    # -- reads ----------------------------------------------------------
    def attempts(self, job_id: str) -> int:
        """How many attempts this job has burned (reaps + failures)."""
        (count,) = self.attempts_map([job_id]).values()
        return count

    def attempts_map(self, job_ids) -> dict[str, int]:
        """Attempt counters for many jobs, each state listed once.  A
        done or unknown job reads 0."""
        with self._lock:
            live = {
                entry.job_id: entry.attempts
                for state in ("pending", "claimed")
                for entry in self._list(state)
            }
            out: dict[str, int] = {}
            for job_id in map(_clean, job_ids):
                if job_id in live:
                    out[job_id] = live[job_id]
                else:
                    record = self._read(_Entry("failed", job_id)) or {}
                    out[job_id] = int(record.get("attempts", 0))
            return out

    def stats(self) -> QueueStats:
        with self._lock:
            return QueueStats(*(len(self._list(state)) for state in _STATES))

    def finished_ids(self) -> set[str]:
        """Ids in a terminal state — cheap to poll, no payload access."""
        with self._lock:
            return {
                entry.job_id
                for state in ("done", "failed")
                for entry in self._list(state)
            }

    def results_page(
        self, *, after: str | None = None, limit: int = 100
    ) -> tuple[dict[str, dict], str | None]:
        """One lexicographic page of results with ids after ``after``;
        only the page's documents are read.

        Returns ``(page, cursor)``; ``cursor`` is the last id of the
        page (pass it back as ``after``) or ``None`` when the page is
        empty.  Pagination is stable because job ids only ever *enter*
        the done set.
        """
        _require_positive("limit", limit)
        with self._lock:
            ids = sorted(
                entry.job_id
                for entry in self._list("done")
                if after is None or entry.job_id > after
            )[:limit]
            page = {}
            for job_id in ids:
                document = self._read(_Entry("done", job_id))
                if document is not None:
                    page[job_id] = document
        return page, (ids[-1] if ids else None)

    def failure_details(self) -> dict[str, dict]:
        """Dead-letter ledger: error, attempts, spec per failed job."""
        out: dict[str, dict] = {}
        with self._lock:
            for entry in self._list("failed"):
                record = self._read(entry)
                if record is not None:
                    out[entry.job_id] = _failure_record(
                        record.get("error", "unknown error"),
                        record.get("attempts", 0),
                        record.get("spec") or {},
                        bool(record.get("quarantined")),
                    )
        return out

    def failures(self) -> dict[str, str]:
        return {
            job_id: record["error"]
            for job_id, record in self.failure_details().items()
        }


class MemoryJobQueue(_QueueCore):
    """In-process :class:`JobQueue`: a lock, four dicts, no I/O.

    Workers against this queue live in the submitting process: the
    runner drains it there.  Used by ``repro sweep`` when neither
    ``--queue-dir`` nor ``--queue-url`` is given, by ``repro serve``
    without ``--queue-dir`` (its HTTP handler threads share the queue,
    which is why the lock stays), and by the fast tests.
    """

    def __init__(self, *, max_attempts: int | None = None):
        super().__init__(max_attempts=max_attempts)
        self._lock = threading.Lock()
        #: state -> job id -> (entry, spec or result or failure record)
        self._states: dict[str, dict[str, tuple[_Entry, dict]]] = {
            state: {} for state in _STATES
        }

    def _clock(self, lease_seconds: float = 0.0) -> float:
        return time.monotonic() + lease_seconds

    def _list(self, state: str) -> list[_Entry]:
        return [entry for entry, _ in self._states[state].values()]

    def _find(self, job_id: str, state: str) -> _Entry | None:
        return self._states[state].get(job_id, (None,))[0]

    def _read(self, entry: _Entry) -> dict | None:
        stored = self._states[entry.state].get(entry.job_id)
        return dict(stored[1]) if stored and stored[0] == entry else None

    def _write(self, entry: _Entry, document: dict) -> None:
        self._states[entry.state][entry.job_id] = (entry, document)

    def _move(self, entry: _Entry, target: _Entry) -> bool:
        document = self._read(entry)
        if document is None:
            return False
        self._remove(entry)
        self._write(target, document)
        return True

    def _remove(self, entry: _Entry) -> bool:
        return self._states[entry.state].pop(entry.job_id, None) is not None


class DirectoryJobQueue(_QueueCore):
    """Filesystem-backed :class:`JobQueue` for cross-process workers.

    Layout under ``root``::

        pending/{id}~~{attempts}.json            the job spec
        claimed/{id}~~{attempts}~~{deadline_ms}~~{worker}.json
        done/{id}.json                           the result document
        failed/{id}.json                         {"error", "attempts", "spec"}

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
    (``repro sweep --resume``).  It also records, in ``queue.json``,
    the ``max_attempts`` it was created with (or the default, 3):
    every later opener that names no value uses it, and one naming a
    different value is a ``ValueError``, so a runner and the workers
    attached to its directory by hand agree on when a job dead-letters.
    A directory without the record (made before it existed) leaves
    each opener its own value.
    """

    #: atomic renames serialize claimers across processes; no lock.
    _lock = contextlib.nullcontext()
    #: file name per state: the leading entry fields joined by ``~~``.
    _LAYOUT = {
        "pending": "{id}~~{attempts}.json",
        "claimed": "{id}~~{attempts}~~{deadline_ms}~~{worker}.json",
        "done": "{id}.json",
        "failed": "{id}.json",
    }

    #: the settings a queue directory was created with.
    _RECORD = "queue.json"

    def __init__(
        self, root: str | os.PathLike, *, max_attempts: int | None = None
    ):
        if max_attempts is not None:
            _require_positive("max_attempts", max_attempts)
        self.root = os.fspath(root)
        #: malformed filenames already warned about (warn once each —
        #: every scan revisits them, and a stray file must not spam).
        self._warned: set[str] = set()
        created = not all(
            os.path.isdir(os.path.join(self.root, state)) for state in _STATES
        )
        os.makedirs(self.root, exist_ok=True)
        if created:
            # recorded before the state directories exist, so an opener
            # that finds them also finds the record
            self._record({"max_attempts": max_attempts or DEFAULT_MAX_ATTEMPTS})
        super().__init__(max_attempts=self._recorded_attempts(max_attempts))
        for state in _STATES:
            os.makedirs(os.path.join(self.root, state), exist_ok=True)

    def _record(self, settings: dict) -> None:
        """Write the settings record unless one exists: linking a
        complete temporary file into place fails if another creator
        got there first, whose record then stands."""
        path = os.path.join(self.root, self._RECORD)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(settings, handle, sort_keys=True)
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
        finally:
            os.unlink(tmp)

    def _recorded_attempts(self, requested: int | None) -> int | None:
        """``max_attempts`` as the record has it, checked against the
        opener's ``requested`` value (``None``: none named)."""
        try:
            with open(os.path.join(self.root, self._RECORD), encoding="utf-8") as handle:
                recorded = json.load(handle)["max_attempts"]
        except FileNotFoundError:
            return requested
        if requested is not None and requested != recorded:
            raise ValueError(
                f"queue directory {self.root!r} was created with "
                f"max_attempts={recorded}; got max_attempts={requested}"
            )
        return recorded

    def _clock(self, lease_seconds: float = 0.0) -> int:
        return int((time.time() + lease_seconds) * 1000)

    def _name(self, entry: _Entry) -> str:
        fields = entry[1 : 2 + self._LAYOUT[entry.state].count(_SEP)]
        return _SEP.join(map(str, fields)) + ".json"

    def _path(self, entry: _Entry) -> str:
        return os.path.join(self.root, entry.state, self._name(entry))

    def _parse(self, state: str, name: str) -> _Entry | None:
        """A file name back to its entry, or ``None`` (with a one-time
        warning) for a file this queue never wrote — a corrupt or
        foreign filename must never abort a whole scan."""
        parts = name[: -len(".json")].split(_SEP)
        try:
            entry = _Entry(state, parts[0], *map(int, parts[1:3]), *parts[3:])
        except (TypeError, ValueError):
            entry = None
        if entry is not None and self._name(entry) == name:
            return entry
        if f"{state}/{name}" not in self._warned:
            self._warned.add(f"{state}/{name}")
            _LOG.warning(
                "skipping malformed job file %s in %s: want %s "
                "(not produced by this queue; remove it to silence this)",
                name, os.path.join(self.root, state), self._LAYOUT[state],
            )
        return None

    def _list(self, state: str) -> list[_Entry]:
        entries = (
            self._parse(state, name)
            for name in os.listdir(os.path.join(self.root, state))
            if name.endswith(".json")  # not a half-written ".tmp.{pid}.{tid}"
        )
        return [entry for entry in entries if entry is not None]

    def _find(self, job_id: str, state: str) -> _Entry | None:
        if state in ("done", "failed"):
            entry = _Entry(state, job_id)
            return entry if os.path.exists(self._path(entry)) else None
        prefix = f"{job_id}{_SEP}"
        for name in os.listdir(os.path.join(self.root, state)):
            if name.startswith(prefix) and name.endswith(".json"):
                entry = self._parse(state, name)
                if entry is not None:
                    return entry
        return None

    def _read(self, entry: _Entry) -> dict | None:
        try:
            with open(self._path(entry), encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def _write(self, entry: _Entry, document: dict) -> None:
        # Write-then-rename so a concurrently listing worker never sees
        # a half-written JSON document.  The temporary name is unique
        # per thread (``repro serve`` handlers share one process) and
        # never ends in ".json", so no listing picks it up.
        path = self._path(entry)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        os.replace(tmp, path)

    def _move(self, entry: _Entry, target: _Entry) -> bool:
        try:
            os.rename(self._path(entry), self._path(target))
        except FileNotFoundError:
            return False  # lost the race; the winner owns the job
        return True

    def _remove(self, entry: _Entry) -> bool:
        try:
            os.unlink(self._path(entry))
        except FileNotFoundError:
            return False
        return True
