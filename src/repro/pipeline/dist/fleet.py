"""Where queues meet processes: one opener, one worker entry point,
one supervisor.

:func:`open_queue` is the only place a queue location becomes a queue:
a ``queue_url`` an :class:`~repro.pipeline.dist.net.HttpJobQueue`, a
``queue_dir`` a :class:`~repro.pipeline.dist.queues.DirectoryJobQueue`,
neither an in-process
:class:`~repro.pipeline.dist.queues.MemoryJobQueue`.
:func:`worker_entry` is the one worker process body, for either
transport: it opens its queue by location and drains it, shipping
heartbeats (and with them metrics and spans) when the queue is a
server.  :func:`spawn_worker` starts one such process against a queue
other processes can reach; :class:`WorkerFleet` keeps a set of them
sized to the queue depth and lease expiries its caller observes,
replacing the dead.  :class:`~repro.pipeline.dist.sweep.QueueRunner`
runs it as a fixed-size fleet (``min_workers = max_workers =
workers``, a spawn budget, workers that exit once the queue is
drained); ``repro serve --autoscale`` runs it between a floor and a
ceiling with a cooldown, its workers staying up on an empty queue.
The fleet never calls the queue itself, so supervision costs a caller
that already polls ``reap_expired``/``stats`` no extra round-trip.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time

from repro.obs.metrics import reset_registry
from repro.obs.tracing import reset_recorder

from .net import HttpJobQueue, HttpQueueError
from .queues import DirectoryJobQueue, JobQueue, MemoryJobQueue, QueueStats
from .worker import run_worker

__all__ = [
    "WorkerFleet",
    "open_queue",
    "spawn_worker",
    "worker_entry",
]


def open_queue(
    *,
    queue_dir: str | os.PathLike | None = None,
    queue_url: str | None = None,
    max_attempts: int | None = None,
) -> JobQueue:
    """The queue a location names.

    ``queue_url`` (``http://host:port``, or a scheme-less
    ``host:port``) is a ``repro serve`` daemon; its backing queue owns
    ``max_attempts``.  ``queue_dir`` is a queue directory, created if
    missing.  Neither is a fresh in-memory queue, drained in this
    process.  Both at once is a ``ValueError``.  ``max_attempts=None``
    takes the value a queue directory was created with, else 3.
    """
    if queue_dir is not None and queue_url is not None:
        raise ValueError("pass queue_url or queue_dir, not both")
    if queue_url is not None:
        return HttpJobQueue(queue_url)
    if queue_dir is not None:
        return DirectoryJobQueue(queue_dir, max_attempts=max_attempts)
    return MemoryJobQueue(max_attempts=max_attempts)


def worker_entry(
    queue_dir: str | os.PathLike | None = None,
    worker_id: str | None = None,
    *,
    queue_url: str | None = None,
    max_attempts: int | None = None,
    lease_seconds: float = 60.0,
    max_jobs: int | None = None,
    poll_seconds: float = 0.05,
    stop_when_drained: bool = True,
    job_timeout_seconds: float | None = None,
    bundle: int = 1,
) -> int:
    """Process entry point: open the queue a location names and work it.

    This is what :func:`spawn_worker` starts and what ``repro worker``
    runs.  A remote host joins a fleet the same way, with the queue
    directory over a shared filesystem or the daemon's URL over the
    network::

        python -c "from repro.pipeline.dist import worker_entry; \\
                   worker_entry(queue_url='http://hostA:8642')"

    Over HTTP, heartbeats go to the server (best-effort: a lost one
    never kills the worker, the lease machinery is the real liveness
    truth); they carry the worker's metrics and, with tracing on, its
    spans.  Top-level (picklable) on purpose, so it works under both
    the ``fork`` and ``spawn`` multiprocessing start methods.

    The process's metrics registry and span ring start empty: a forked
    worker inherits its parent's, and its heartbeats would ship them as
    its own (the submitter's request counts, the runner's spans).
    """
    if queue_dir is None and queue_url is None:
        raise ValueError("worker_entry needs queue_dir or queue_url")
    reset_registry()
    reset_recorder()
    queue = open_queue(
        queue_dir=queue_dir, queue_url=queue_url, max_attempts=max_attempts
    )
    on_heartbeat = None
    if queue_url is not None:
        def on_heartbeat(beat) -> None:
            try:
                queue.heartbeat(beat)
            except HttpQueueError:
                pass  # liveness is best-effort; the next claim re-proves it

    return run_worker(
        queue,
        worker_id,
        lease_seconds=lease_seconds,
        max_jobs=max_jobs,
        poll_seconds=poll_seconds,
        stop_when_drained=stop_when_drained,
        on_heartbeat=on_heartbeat,
        job_timeout_seconds=job_timeout_seconds,
        bundle=bundle,
    )


def _worker_location(queue) -> dict | None:
    """:func:`worker_entry`'s location for a queue that worker processes
    can reach, or ``None`` for one that lives in this process only.

    The test is the queue's type, not a ``url``/``root`` attribute: a
    proxy such as :class:`~repro.pipeline.dist.chaos.ChaosQueue`
    forwards attributes to the queue it wraps, and a process opened at
    that location would bypass the proxy's faults.
    """
    if isinstance(queue, HttpJobQueue):
        return {"queue_url": queue.url}
    if isinstance(queue, DirectoryJobQueue):
        return {"queue_dir": queue.root, "max_attempts": queue.max_attempts}
    return None


def spawn_worker(
    queue, *, worker_id: str | None = None, stop_when_drained: bool = True,
    **worker_kwargs,
):
    """Start one :func:`worker_entry` process against ``queue`` and
    return its handle.

    ``queue`` is an :class:`~repro.pipeline.dist.net.HttpJobQueue` or a
    :class:`~repro.pipeline.dist.queues.DirectoryJobQueue` (whose
    ``max_attempts`` the worker keeps); any other queue lives in this
    process only (``TypeError``).  Extra kwargs (lease, bundle, job
    timeout, ...) pass through to the entry point.
    """
    location = _worker_location(queue)
    if location is None:
        raise TypeError(
            f"worker processes need a DirectoryJobQueue or HttpJobQueue, "
            f"got {type(queue).__name__}"
        )
    process = multiprocessing.Process(
        target=worker_entry,
        kwargs={
            **location, **worker_kwargs,
            "worker_id": worker_id, "stop_when_drained": stop_when_drained,
        },
        daemon=True,
    )
    process.start()
    return process


class WorkerFleet:
    """Keep a fleet of worker handles sized to observed queue pressure.

    Parameters
    ----------
    spawn:
        ``spawn(index)`` returns a started worker handle with
        ``is_alive()`` / ``terminate()`` / ``join()`` (a
        ``multiprocessing.Process``), or ``None`` for a worker that has
        already finished when it returns (a drain in this process);
        ``index`` counts the workers spawned before (0, 1, ...).
    min_workers / max_workers:
        Hard fleet bounds.  ``min_workers=0`` lets an idle fleet scale
        to nothing; ``min_workers = max_workers`` is a fixed-size fleet
        whose dead workers are replaced while work remains.
    backlog_per_worker:
        Scale-up threshold: target at most this many pending jobs per
        alive worker.
    cooldown_seconds:
        Minimum time between scaling actions (observations still
        happen every :meth:`step`).
    max_spawns:
        Total workers this fleet may ever spawn (``None``: no limit).
        Once spent and every worker is dead, :attr:`exhausted` is true.
    clock:
        Injectable monotonic clock, for tests.
    """

    def __init__(
        self,
        spawn=None,
        *,
        min_workers: int = 0,
        max_workers: int = 4,
        backlog_per_worker: int = 4,
        cooldown_seconds: float = 2.0,
        max_spawns: int | None = None,
        clock=time.monotonic,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if not 0 <= min_workers <= max_workers:
            raise ValueError(
                f"need 0 <= min_workers <= max_workers, got "
                f"{min_workers}/{max_workers}"
            )
        if backlog_per_worker < 1:
            raise ValueError(
                f"backlog_per_worker must be >= 1, got {backlog_per_worker}"
            )
        self.spawn = spawn
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.backlog_per_worker = backlog_per_worker
        self.cooldown_seconds = cooldown_seconds
        self.max_spawns = max_spawns
        self._clock = clock
        self._workers: list = []
        self._last_action: float | None = None
        #: workers spawned so far (the next ``spawn`` index)
        self.spawned = 0

    # -- decision (pure) ----------------------------------------------
    def desired_workers(
        self, *, pending: int, claimed: int, expired: int = 0
    ) -> int:
        """How many workers the observed queue state wants, clamped to
        ``[min_workers, max_workers]``.

        Depth asks for ``ceil(pending / backlog_per_worker)``; any
        in-flight work asks for at least one; each freshly expired
        lease asks for one more hand (a worker just died mid-job).  An
        idle queue asks for ``min_workers``.
        """
        if pending == 0 and claimed == 0 and expired == 0:
            need = 0
        else:
            need = math.ceil(pending / self.backlog_per_worker)
            if claimed > 0 or pending > 0:
                need = max(need, 1)
            need += expired
        return max(self.min_workers, min(self.max_workers, need))

    # -- actuation ----------------------------------------------------
    @property
    def workers(self) -> list:
        """Worker handles (dead ones are pruned by :meth:`step`)."""
        return list(self._workers)

    @property
    def exhausted(self) -> bool:
        """Whether the spawn budget is spent and no worker is alive."""
        return (
            self.max_spawns is not None
            and self.spawned >= self.max_spawns
            and not any(w.is_alive() for w in self._workers)
        )

    def _spawn(self, count: int) -> int:
        """Spawn up to ``count`` workers within the budget; returns how
        many were started."""
        if self.max_spawns is not None:
            count = min(count, self.max_spawns - self.spawned)
        for _ in range(count):
            index, self.spawned = self.spawned, self.spawned + 1
            worker = self.spawn(index)
            if worker is not None:
                self._workers.append(worker)
        return max(count, 0)

    def start(self) -> int:
        """Spawn the floor (``min_workers``).  The floor is the fleet's
        standing size, not a scaling action, so the cooldown stays
        unarmed."""
        return self._spawn(self.min_workers - len(self._workers))

    def _prune_dead(self) -> None:
        alive = []
        for worker in self._workers:
            if worker.is_alive():
                alive.append(worker)
            else:
                worker.join()
        self._workers = alive

    def _cooled_down(self, now: float) -> bool:
        return (
            self._last_action is None
            or now - self._last_action >= self.cooldown_seconds
        )

    def step(self, stats: QueueStats, *, expired: int = 0) -> dict:
        """One decide→act cycle on the caller's observations; returns
        a summary document.

        ``stats`` is a fresh queue census and ``expired`` the number of
        leases the caller just reaped.  Prunes and joins dead handles,
        then — if the cooldown allows — spawns up to the desired count
        (within the spawn budget), or terminates excess workers *only
        when the queue is fully idle* so no in-flight job is ever
        killed.
        """
        now = self._clock()
        self._prune_dead()
        desired = self.desired_workers(
            pending=stats.pending, claimed=stats.claimed, expired=expired
        )
        alive = len(self._workers)
        action, spawned = "hold", 0
        if desired > alive and self._cooled_down(now):
            spawned = self._spawn(desired - alive)
            if spawned:
                action = f"scale-up:{spawned}"
                self._last_action = now
        elif (
            desired < alive
            and stats.pending == 0
            and stats.claimed == 0
            and self._cooled_down(now)
        ):
            excess = self._workers[desired:]
            self._workers = self._workers[:desired]
            for worker in excess:
                worker.terminate()
            for worker in excess:
                worker.join()
            action = f"scale-down:{len(excess)}"
            self._last_action = now
        return {
            "action": action,
            "alive": len(self._workers),
            "desired": desired,
            "spawned": spawned,
        }

    def join(self, timeout: float | None = None) -> None:
        """Wait up to ``timeout`` seconds for each worker to exit;
        forget the ones that did."""
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._workers = [w for w in self._workers if w.is_alive()]

    def shutdown(self) -> None:
        """Terminate and join every worker (idempotent)."""
        for worker in self._workers:
            worker.terminate()
        self.join()
