"""One queue state machine: every ``JobQueue`` backend against one
reference model, plus the directory queue's durable layout and its
filesystem cost per verb.

* The hypothesis ``RuleBasedStateMachine`` drives four queues in
  lockstep — memory, directory, HTTP over memory and HTTP over
  directory — and checks every answer against a small pure-Python
  model.  Leases need no clock: a claim with ``lease_seconds=0`` has
  already expired when the next ``reap_expired`` runs, one with 3600
  stays live for the whole run.
* The layout test pins the exact file names and JSON documents a fixed
  script of verbs leaves on disk, so ``--resume`` and ``repro retry``
  keep reading queue directories written by earlier versions.
* The operation-count test pins ``os.listdir``/``rename``/``replace``/
  ``unlink`` and ``open`` calls per directory-queue verb (the path
  ``repro serve --queue-dir`` runs for every worker request).
"""

from __future__ import annotations

import builtins
import collections
import contextlib
import json
import os
import re
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.pipeline.dist import (
    DirectoryJobQueue,
    HttpJobQueue,
    MemoryJobQueue,
    QueueServer,
    QueueStats,
)

MAX_ATTEMPTS = 2
#: raw job ids: two spellings of one id ("b c" cleans to "b-c"), an id
#: that is a prefix of another ("a" / "a-b": job-id order differs from
#: file-name order), and one that looks like a temp-file suffix.
RAW_IDS = ["a", "a-b", "a,b", "b c", "b-c", "c.tmp.d", "z"]
WORKERS = ["w1", "w 2"]
#: pinned so the run is identical every time and bounded in CI time.
MODEL_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=75,
    stateful_step_count=30,
)


def _clean(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name) or "anon"


@dataclass
class _ModelJob:
    spec: dict
    state: str = "pending"
    attempts: int = 0
    worker: str = ""
    expired: bool = False
    result: dict | None = None
    error: str = ""
    quarantined: bool = False


class QueueModelMachine(RuleBasedStateMachine):
    """Reference model: one dict of jobs, every transition in a few
    lines.  Subclassed per test run with ``servers`` (two running
    :class:`QueueServer` instances whose backing queue is swapped per
    example) and ``base`` (a scratch directory)."""

    servers: tuple = ()
    base: str = ""

    def __init__(self):
        super().__init__()
        self.model: dict[str, _ModelJob] = {}
        self.roots = [tempfile.mkdtemp(dir=self.base) for _ in range(2)]
        over_memory, over_directory = self.servers
        over_memory.queue = MemoryJobQueue(max_attempts=MAX_ATTEMPTS)
        over_directory.queue = DirectoryJobQueue(
            self.roots[1], max_attempts=MAX_ATTEMPTS
        )
        self.queues = {
            "memory": MemoryJobQueue(max_attempts=MAX_ATTEMPTS),
            "directory": DirectoryJobQueue(
                self.roots[0], max_attempts=MAX_ATTEMPTS
            ),
            "http-memory": HttpJobQueue(over_memory.url),
            "http-directory": HttpJobQueue(over_directory.url),
        }

    def teardown(self):
        for queue in self.queues.values():
            if isinstance(queue, HttpJobQueue):
                queue.close()
        for root in self.roots:
            shutil.rmtree(root, ignore_errors=True)

    # -- helpers ------------------------------------------------------
    def _expect(self, expected, call):
        for name, queue in self.queues.items():
            got = call(queue)
            assert got == expected, f"{name}: got {got!r}, model {expected!r}"

    def _in(self, *states) -> list[str]:
        return sorted(j for j, job in self.model.items() if job.state in states)

    def _spelling(self, data, job_id: str) -> str:
        spellings = [raw for raw in RAW_IDS if _clean(raw) == job_id]
        return data.draw(st.sampled_from(spellings or [job_id]))

    def _owns(self, job: _ModelJob | None, worker: str | None) -> bool:
        return (
            job is not None
            and job.state == "claimed"
            and (worker is None or _clean(worker) == job.worker)
        )

    def _burn(self, job: _ModelJob, error: str | None) -> None:
        job.attempts += 1
        if job.attempts < MAX_ATTEMPTS:
            job.state = "pending"
            return
        job.state = "failed"
        job.error = error or (
            f"lease expired {job.attempts} times (last worker: {job.worker})"
        )

    def _take(self, worker: str, limit: int, expired: bool) -> list[tuple]:
        """Claim in the model: the first ``limit`` pending ids."""
        taken = []
        for job_id in self._in("pending")[:limit]:
            job = self.model[job_id]
            taken.append((job_id, job.spec, job.attempts))
            job.state, job.worker, job.expired = "claimed", _clean(worker), expired
        return taken

    def _ack(self, raw_id: str, worker: str | None) -> None:
        job = self.model.get(_clean(raw_id))
        accepted = self._owns(job, worker)
        result = {"from": str(worker)}
        if accepted:
            job.state, job.result = "done", result
        self._expect(
            accepted, lambda q: q.ack(raw_id, result, worker_id=worker)
        )

    def _fail(self, raw_id: str, worker: str | None) -> None:
        job = self.model.get(_clean(raw_id))
        error = f"boom from {worker}"
        if self._owns(job, worker):
            self._burn(job, error)
        self._expect(None, lambda q: q.fail(raw_id, error, worker_id=worker))

    # -- rules --------------------------------------------------------
    @initialize(raw_ids=st.lists(st.sampled_from(RAW_IDS), max_size=6))
    def submit_some(self, raw_ids):
        for n, raw_id in enumerate(raw_ids):
            self.submit(raw_id, n)

    @rule(raw_id=st.sampled_from(RAW_IDS), n=st.integers(0, 3))
    def submit(self, raw_id, n):
        job_id = _clean(raw_id)
        self.model.setdefault(job_id, _ModelJob(spec={"n": n}))
        self._expect(job_id, lambda q: q.submit({"n": n}, job_id=raw_id))

    @rule(
        worker=st.sampled_from(WORKERS),
        limit=st.integers(1, 3),
        expired=st.booleans(),
    )
    def claim_batch(self, worker, limit, expired):
        lease = 0.0 if expired else 3600.0
        self._expect(
            self._take(worker, limit, expired),
            lambda q: [
                (j.job_id, j.spec, j.attempts)
                for j in q.claim_batch(worker, lease_seconds=lease, limit=limit)
            ],
        )

    @rule(worker=st.sampled_from(WORKERS), expired=st.booleans())
    def claim(self, worker, expired):
        taken = self._take(worker, 1, expired)
        lease = 0.0 if expired else 3600.0

        def call(queue):
            job = queue.claim(worker, lease_seconds=lease)
            return None if job is None else (job.job_id, job.spec, job.attempts)

        self._expect(taken[0] if taken else None, call)

    @precondition(lambda self: self._in("claimed"))
    @rule(data=st.data(), by_owner=st.booleans())
    def ack(self, data, by_owner):
        job_id = data.draw(st.sampled_from(self._in("claimed")))
        worker = self.model[job_id].worker if by_owner else None
        self._ack(self._spelling(data, job_id), worker)

    @rule(
        raw_id=st.sampled_from(RAW_IDS),
        worker=st.sampled_from(WORKERS + [None]),
    )
    def stale_ack(self, raw_id, worker):
        self._ack(raw_id, worker)

    @precondition(lambda self: self._in("claimed"))
    @rule(data=st.data(), by_owner=st.booleans())
    def fail(self, data, by_owner):
        job_id = data.draw(st.sampled_from(self._in("claimed")))
        worker = self.model[job_id].worker if by_owner else None
        self._fail(self._spelling(data, job_id), worker)

    @rule(raw_id=st.sampled_from(RAW_IDS), worker=st.sampled_from(WORKERS))
    def stale_fail(self, raw_id, worker):
        self._fail(raw_id, worker)

    @rule()
    def reap(self):
        # A model job is never claimed and done at once, so the queues'
        # rule for a claim whose result is already written (drop the
        # claim, reap nothing) has no model state here; the race tests
        # at the end of this file drive it.
        reaped = [
            job_id for job_id in self._in("claimed")
            if self.model[job_id].expired
        ]
        for job_id in reaped:
            self._burn(self.model[job_id], None)
        self._expect(reaped, lambda q: sorted(q.reap_expired()))

    @rule(raw_id=st.sampled_from(RAW_IDS))
    def retry(self, raw_id):
        job = self.model.get(_clean(raw_id))
        retried = job is not None and job.state == "failed"
        if retried:
            job.state, job.attempts, job.quarantined = "pending", 0, False
        self._expect(retried, lambda q: q.retry(raw_id))

    @rule(raw_id=st.sampled_from(RAW_IDS))
    def quarantine(self, raw_id):
        job = self.model.get(_clean(raw_id))
        accepted = job is not None and job.state != "done"
        if accepted:
            job.state, job.error, job.quarantined = "failed", "poison", True
        self._expect(accepted, lambda q: q.quarantine(raw_id, "poison"))

    @rule(raw_ids=st.lists(st.sampled_from(RAW_IDS), min_size=1, max_size=3))
    def attempts(self, raw_ids):
        def count(raw_id):
            job = self.model.get(_clean(raw_id))
            live = job is not None and job.state != "done"
            return job.attempts if live else 0

        self._expect(count(raw_ids[0]), lambda q: q.attempts(raw_ids[0]))
        self._expect(
            {_clean(raw): count(raw) for raw in raw_ids},
            lambda q: q.attempts_map(raw_ids),
        )

    @rule(
        after=st.sampled_from([None] + sorted({_clean(r) for r in RAW_IDS})),
        limit=st.integers(1, 3),
    )
    def results_page(self, after, limit):
        ids = [j for j in self._in("done") if after is None or j > after]
        ids = ids[:limit]
        page = {job_id: self.model[job_id].result for job_id in ids}
        self._expect(
            (page, ids[-1] if ids else None),
            lambda q: q.results_page(after=after, limit=limit),
        )

    # -- invariants ---------------------------------------------------
    @invariant()
    def census_and_ledger_match(self):
        states = [job.state for job in self.model.values()]
        self._expect(
            tuple(states.count(s) for s in ("pending", "claimed", "done", "failed")),
            lambda q: (lambda s: (s.pending, s.claimed, s.done, s.failed))(
                q.stats()
            ),
        )
        ledger = {}
        for job_id in self._in("failed"):
            job = self.model[job_id]
            ledger[job_id] = {
                "error": job.error, "attempts": job.attempts, "spec": job.spec
            }
            if job.quarantined:
                ledger[job_id]["quarantined"] = True
        self._expect(ledger, lambda q: q.failure_details())
        self._expect(
            set(self._in("done", "failed")), lambda q: q.finished_ids()
        )


@pytest.fixture(scope="module")
def model_servers():
    with QueueServer(MemoryJobQueue()) as over_memory, QueueServer(
        MemoryJobQueue()
    ) as over_directory:
        yield over_memory, over_directory


def test_every_queue_matches_the_reference_model(model_servers, tmp_path):
    machine = type(
        "Machine",
        (QueueModelMachine,),
        {"servers": model_servers, "base": str(tmp_path)},
    )
    run_state_machine_as_test(machine, settings=MODEL_SETTINGS)


# -- recorded settings --------------------------------------------------------
def _fail_until_dead(queue, job_id: str) -> int:
    """Claim and fail ``job_id`` until it dead-letters; the tries taken."""
    tries = 0
    while queue.claim("w", lease_seconds=3600.0) is not None:
        queue.fail(job_id, "boom", worker_id="w")
        tries += 1
    return tries


def test_directory_records_max_attempts_for_later_openers(tmp_path):
    """A second opener that names no ``max_attempts`` (a hand-started
    ``repro worker``, ``repro serve``) dead-letters a job after the
    tries the directory was created with, not after the default 3."""
    DirectoryJobQueue(tmp_path / "q", max_attempts=5)
    later = DirectoryJobQueue(tmp_path / "q")
    assert later.max_attempts == 5
    later.submit({"x": 1}, job_id="flaky")
    assert _fail_until_dead(later, "flaky") == 5
    assert later.failure_details()["flaky"]["attempts"] == 5
    assert later.stats().failed == 1


def test_directory_refuses_a_conflicting_max_attempts(tmp_path):
    DirectoryJobQueue(tmp_path / "q", max_attempts=5)
    assert DirectoryJobQueue(tmp_path / "q", max_attempts=5).max_attempts == 5
    with pytest.raises(ValueError, match="max_attempts=5.*max_attempts=3"):
        DirectoryJobQueue(tmp_path / "q", max_attempts=3)
    # created without a value: the record holds the default
    DirectoryJobQueue(tmp_path / "d")
    assert DirectoryJobQueue(tmp_path / "d").max_attempts == 3
    with pytest.raises(ValueError, match="max_attempts=3.*max_attempts=4"):
        DirectoryJobQueue(tmp_path / "d", max_attempts=4)


def test_directory_without_a_record_keeps_each_openers_value(tmp_path):
    """Queue directories written before the record existed: every
    opener keeps its own value, and none writes a record."""
    root = tmp_path / "q"
    for state in ("pending", "claimed", "done", "failed"):
        (root / state).mkdir(parents=True)
    assert DirectoryJobQueue(root, max_attempts=5).max_attempts == 5
    assert DirectoryJobQueue(root, max_attempts=2).max_attempts == 2
    assert DirectoryJobQueue(root).max_attempts == 3
    assert not (root / "queue.json").exists()


# -- durable layout ----------------------------------------------------------
def _layout(root) -> dict[str, dict]:
    """Every file under the queue root -> its JSON document, with the
    claimed lease deadline (wall-clock milliseconds) masked."""
    out = {}
    for state in ("pending", "claimed", "done", "failed"):
        for name in sorted(os.listdir(os.path.join(root, state))):
            with open(os.path.join(root, state, name), encoding="utf-8") as fh:
                document = json.load(fh)
            parts = name.split("~~")
            if state == "claimed":
                assert parts[2].isdigit(), name
                parts[2] = "<deadline>"
            out[f"{state}/{'~~'.join(parts)}"] = document
    return out


def test_directory_layout_is_pinned(tmp_path):
    queue = DirectoryJobQueue(tmp_path / "q", max_attempts=2)
    root = tmp_path / "q"
    for i in range(4):
        queue.submit({"i": i}, job_id=f"job-{i}")
    assert _layout(root) == {
        f"pending/job-{i}~~0.json": {"i": i} for i in range(4)
    }
    bundle = queue.claim_batch("w1", lease_seconds=3600.0, limit=3)
    assert [job.job_id for job in bundle] == ["job-0", "job-1", "job-2"]
    assert _layout(root) == {
        "pending/job-3~~0.json": {"i": 3},
        "claimed/job-0~~0~~<deadline>~~w1.json": {"i": 0},
        "claimed/job-1~~0~~<deadline>~~w1.json": {"i": 1},
        "claimed/job-2~~0~~<deadline>~~w1.json": {"i": 2},
    }
    assert queue.ack("job-0", {"bpp": 0.5}, worker_id="w1")
    queue.fail("job-1", "boom", worker_id="w1")
    (job,) = queue.claim_batch("w 2", lease_seconds=3600.0, limit=1)
    assert (job.job_id, job.attempts) == ("job-1", 1)
    queue.fail("job-1", "boom again", worker_id="w 2")
    assert _layout(root) == {
        "pending/job-3~~0.json": {"i": 3},
        "claimed/job-2~~0~~<deadline>~~w1.json": {"i": 2},
        "done/job-0.json": {"bpp": 0.5},
        "failed/job-1.json": {
            "attempts": 2, "error": "boom again", "spec": {"i": 1}
        },
    }
    assert queue.quarantine("job-2", "poison")
    assert queue.retry("job-1")
    assert _layout(root) == {
        "pending/job-1~~0.json": {"i": 1},
        "pending/job-3~~0.json": {"i": 3},
        "done/job-0.json": {"bpp": 0.5},
        "failed/job-2.json": {
            "attempts": 0,
            "error": "poison",
            "quarantined": True,
            "spec": {"i": 2},
        },
    }
    # the raw bytes too: sorted keys, default separators, no newline
    with open(root / "failed" / "job-2.json", encoding="utf-8") as fh:
        assert fh.read() == (
            '{"attempts": 0, "error": "poison", "quarantined": true, '
            '"spec": {"i": 2}}'
        )


# -- filesystem cost per verb ------------------------------------------------
@contextlib.contextmanager
def _counting_fs_ops(monkeypatch):
    counts: collections.Counter = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for name in ("listdir", "rename", "replace", "unlink"):
            patch.setattr(os, name, counted(name, getattr(os, name)))
        patch.setattr(builtins, "open", counted("open", builtins.open))
        yield counts


def _ops_of(monkeypatch, verb) -> dict[str, int]:
    with _counting_fs_ops(monkeypatch) as counts:
        verb()
    return dict(counts)


def test_directory_verbs_touch_the_filesystem_no_more_than_pinned(
    tmp_path, monkeypatch
):
    """Upper bounds per verb, measured on the previous implementation
    (a verb may get cheaper, never dearer)."""
    queue = DirectoryJobQueue(tmp_path / "q", max_attempts=3)
    for i in range(8):
        queue.submit({"i": i}, job_id=f"job-{i}")
    measured = {
        "claim_batch(limit=3) of 8": _ops_of(
            monkeypatch,
            lambda: queue.claim_batch("w", lease_seconds=3600.0, limit=3),
        ),
        "ack": _ops_of(monkeypatch, lambda: queue.ack("job-0", {"ok": 1})),
        "fail, requeue": _ops_of(
            monkeypatch, lambda: queue.fail("job-1", "boom", worker_id="w")
        ),
    }
    queue.claim_batch("w", lease_seconds=0.0, limit=2)  # job-1, job-3
    measured["reap_expired, 2 requeued"] = _ops_of(
        monkeypatch, queue.reap_expired
    )
    queue.claim_batch("w", lease_seconds=3600.0, limit=1)  # job-1 again
    measured["fail, dead-letter"] = _ops_of(
        monkeypatch, lambda: queue.fail("job-1", "boom", worker_id="w")
    )
    measured["stats"] = _ops_of(monkeypatch, queue.stats)
    ceilings = {
        "claim_batch(limit=3) of 8": {"listdir": 1, "rename": 3, "open": 3},
        "ack": {"listdir": 1, "open": 1, "replace": 1, "unlink": 1},
        "fail, requeue": {"listdir": 1, "open": 1, "rename": 1},
        "reap_expired, 2 requeued": {"listdir": 1, "rename": 2},
        "fail, dead-letter": {
            "listdir": 1, "open": 2, "replace": 1, "unlink": 1
        },
        "stats": {"listdir": 4},
    }
    for verb, ops in measured.items():
        for op, count in ops.items():
            assert count <= ceilings[verb].get(op, 0), (verb, op, ops)


# -- shared state under threads ----------------------------------------------
def _race_claimers(queue, job_ids, threads=8):
    """Drain ``queue`` from ``threads`` claimers started together,
    switching threads every microsecond; returns (claimed, acked)."""
    claimed: list[str] = []
    acked: list[str] = []
    errors: list[BaseException] = []
    start = threading.Barrier(threads)

    def drain(worker):
        start.wait()
        try:
            while jobs := queue.claim_batch(worker, lease_seconds=3600.0):
                for job in jobs:
                    claimed.append(job.job_id)
                    if queue.ack(job.job_id, {"by": worker}, worker_id=worker):
                        acked.append(job.job_id)
        except BaseException as exc:  # surfaced by the caller's asserts
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=drain, args=(f"w{n}",))
            for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []
    return sorted(claimed), sorted(acked)


@pytest.mark.parametrize("make_queue, rounds", [
    (lambda root: MemoryJobQueue(), 20),
    (lambda root: DirectoryJobQueue(root), 3),
], ids=["memory", "directory"])
def test_threads_racing_claims_run_every_job_once(tmp_path, make_queue, rounds):
    """``repro serve`` handler threads share one queue: more claimers
    than cores must still hand each job to exactly one of them (a race
    shows in some rounds, not all: the memory rounds are cheap)."""
    for round_ in range(rounds):
        queue = make_queue(tmp_path / f"q{round_}")
        job_ids = [
            queue.submit({"i": i}, job_id=f"job-{i:03d}") for i in range(200)
        ]
        assert _race_claimers(queue, job_ids) == (job_ids, job_ids)
        assert queue.stats() == QueueStats(
            pending=0, claimed=0, done=200, failed=0
        )


# -- ack races on the directory queue ----------------------------------------
def test_reap_between_ack_write_and_claim_unlink_keeps_the_job_done(
    tmp_path, monkeypatch
):
    """A reap (here: another process's queue over the same directory)
    that runs after ``ack`` wrote the result but before it removed the
    claim drops the claim instead of requeueing a finished job."""
    queue = DirectoryJobQueue(tmp_path / "q")
    reaper = DirectoryJobQueue(tmp_path / "q")
    queue.submit({"i": 0}, job_id="job-0")
    queue.claim_batch("w", lease_seconds=0.0)  # expired at once
    real_unlink = os.unlink
    reaped = []

    def reap_first(path, *args, **kwargs):
        if not reaped and f"{os.sep}claimed{os.sep}" in os.fspath(path):
            reaped.append(None)
            reaped[0] = reaper.reap_expired()
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", reap_first)
    # the reap removed the claim, so this ack's removal lost the race
    assert queue.ack("job-0", {"ok": 1}, worker_id="w") is False
    monkeypatch.undo()
    assert reaped == [[]]
    assert queue.stats() == QueueStats(pending=0, claimed=0, done=1, failed=0)
    assert queue.results() == {"job-0": {"ok": 1}}
    assert queue.claim("w2", lease_seconds=60.0) is None


def test_reap_drops_a_claim_left_by_an_ack_that_died_mid_way(tmp_path):
    queue = DirectoryJobQueue(tmp_path / "q")
    queue.submit({"i": 0}, job_id="job-0")
    queue.claim_batch("w", lease_seconds=0.0)
    # the ack's first half only: the result is written, the claim stays
    (tmp_path / "q" / "done" / "job-0.json").write_text('{"ok": 1}')
    assert queue.reap_expired() == []
    assert queue.stats() == QueueStats(pending=0, claimed=0, done=1, failed=0)


def test_two_threads_acking_one_job_accept_exactly_one(tmp_path, monkeypatch):
    """``repro serve`` handler threads share one directory queue: two
    acks of one job racing through the result write (both held at a
    barrier before ``os.replace``) give one acceptance, not an error."""
    queue = DirectoryJobQueue(tmp_path / "q")
    queue.submit({"i": 0}, job_id="job-0")
    queue.claim_batch("w", lease_seconds=60.0)
    barrier = threading.Barrier(2, timeout=10)
    real_replace = os.replace
    temp_names = []

    def replace_together(src, dst):
        temp_names.append(os.path.basename(src))
        barrier.wait()
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_together)
    answers, errors = [], []

    def ack():
        try:
            answers.append(queue.ack("job-0", {"ok": 1}, worker_id="w"))
        except Exception as exc:  # pragma: no cover - the bug under test
            errors.append(exc)

    threads = [threading.Thread(target=ack) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert errors == []
    assert sorted(answers) == [False, True]
    assert len(set(temp_names)) == 2
    assert not any(name.endswith(".json") for name in temp_names)
    assert queue.stats() == QueueStats(pending=0, claimed=0, done=1, failed=0)


def test_ack_landing_while_a_reap_moves_the_claim_keeps_the_job_done(
    tmp_path, monkeypatch
):
    """The other order of the same race: the reap finds no result, the
    ack writes one, the reap requeues the claim, and the ack's claim
    removal finds nothing.  The reap withdraws its requeue."""
    queue = DirectoryJobQueue(tmp_path / "q")
    reaper = DirectoryJobQueue(tmp_path / "q")
    queue.submit({"i": 0}, job_id="job-0")
    queue.claim_batch("w", lease_seconds=0.0)
    real_rename, real_unlink = os.rename, os.unlink
    held = []  # the ack's claim removal, held until the reap is done

    def hold_unlink(path, *args, **kwargs):
        if f"{os.sep}claimed{os.sep}" in os.fspath(path):
            held.append(path)
            return None
        return real_unlink(path, *args, **kwargs)

    def ack_then_rename(src, dst):
        if not held and f"{os.sep}claimed{os.sep}" in os.fspath(src):
            assert queue.ack("job-0", {"ok": 1}, worker_id="w")
        return real_rename(src, dst)

    monkeypatch.setattr(os, "unlink", hold_unlink)
    monkeypatch.setattr(os, "rename", ack_then_rename)
    assert reaper.reap_expired() == []
    monkeypatch.undo()
    with pytest.raises(FileNotFoundError):
        os.unlink(held[0])  # the ack's removal, released: the claim is gone
    assert queue.stats() == QueueStats(pending=0, claimed=0, done=1, failed=0)
    assert queue.claim("w2", lease_seconds=60.0) is None
