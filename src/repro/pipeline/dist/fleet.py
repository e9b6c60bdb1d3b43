"""One supervisor for local worker processes.

:func:`spawn_worker` starts one worker process against a queue other
processes can reach; :class:`WorkerFleet` keeps a set of them sized to
the queue depth and lease expiries its caller observes, replacing the
dead.  :class:`~repro.pipeline.dist.sweep.QueueRunner` runs it as a
fixed-size fleet (``min_workers = max_workers = workers``, a spawn
budget, workers that exit once the queue is drained); ``repro serve
--autoscale`` runs it between a floor and a ceiling with a cooldown,
its workers staying up on an empty queue.  The fleet never calls the
queue itself, so supervision costs a caller that already polls
``reap_expired``/``stats`` no extra round-trip.
"""

from __future__ import annotations

import math
import multiprocessing
import time

from .net import HttpJobQueue, http_worker_entry
from .queues import DirectoryJobQueue, QueueStats
from .worker import worker_entry

__all__ = [
    "WorkerFleet",
    "spawn_worker",
]


def spawn_worker(
    queue, *, worker_id: str | None = None, stop_when_drained: bool = True,
    **worker_kwargs,
):
    """Start one worker process against ``queue`` and return its handle.

    An :class:`~repro.pipeline.dist.net.HttpJobQueue` gets
    :func:`~repro.pipeline.dist.net.http_worker_entry` against its URL,
    a :class:`~repro.pipeline.dist.queues.DirectoryJobQueue`
    :func:`~repro.pipeline.dist.worker.worker_entry` against its root
    with the queue's own ``max_attempts``; any other queue lives in
    this process only (``TypeError``).  Extra kwargs (lease, bundle,
    job timeout, ...) pass through to the entry point.
    """
    if isinstance(queue, HttpJobQueue):
        target, args = http_worker_entry, (queue.url,)
    elif isinstance(queue, DirectoryJobQueue):
        target, args = worker_entry, (queue.root,)
        worker_kwargs["max_attempts"] = queue.max_attempts
    else:
        raise TypeError(
            f"worker processes need a DirectoryJobQueue or HttpJobQueue, "
            f"got {type(queue).__name__}"
        )
    worker_kwargs.update(
        worker_id=worker_id, stop_when_drained=stop_when_drained
    )
    process = multiprocessing.Process(
        target=target, args=args, kwargs=worker_kwargs, daemon=True
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
