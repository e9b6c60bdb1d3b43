#!/usr/bin/env python
"""RD sweep over the network transport, with an autoscaled fleet.

Stands up an in-process :class:`QueueServer` (the same JSON-over-HTTP
daemon behind ``repro serve``) over an in-memory queue, points a
:class:`SweepRunner` at it through :class:`HttpJobQueue` so two worker
*processes* pull encode jobs over loopback HTTP, and asserts the
aggregated RD curves and BD-rate table are byte-identical to the
serial in-process run.  A second act drains a DSE grid with a
:class:`WorkerFleet` sizing itself from live queue depth instead of a
fixed ``--workers`` count — the supervisor behind
``repro serve --autoscale``.

Run: PYTHONPATH=src python examples/network_sweep.py
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.pipeline import SweepRunner, dse_grid, normalize_spec  # noqa: E402
from repro.pipeline.dist import (  # noqa: E402
    HttpJobQueue,
    MemoryJobQueue,
    QueueServer,
    WorkerFleet,
    job_id_for_spec,
    spawn_worker,
)

SCENE = {"height": 32, "width": 48, "frames": 2}
GRID = dict(
    codecs=["classical", "ctvc"],
    codec_configs=[{"qp": 8, "qstep": 8, "channels": 8}],
    scenes=[{"seed": 0, **SCENE}, {"seed": 1, **SCENE}],
)


def canon(result) -> str:
    """Stable aggregates only — per-report wall-clock timings vary."""
    payload = result.to_dict()
    stable = {
        key: payload[key]
        for key in ("curves", "bd_rate", "jobs", "completed", "failed")
    }
    return json.dumps(stable, sort_keys=True)


def run_sweep_over_http() -> None:
    print("=== Act 1: RD sweep, serial vs 2 HTTP worker processes ===")
    serial = SweepRunner(**GRID, workers=0, anchor="classical").run()
    assert serial.ok, serial.failures

    with QueueServer(MemoryJobQueue(), port=0) as server:
        print(f"queue server listening on {server.url}")
        networked = SweepRunner(
            **GRID,
            queue=HttpJobQueue(server.url),
            workers=2,
            anchor="classical",
        ).run()
    assert networked.ok, networked.failures
    assert canon(serial) == canon(networked), (
        "HTTP-worker sweep must aggregate byte-identically to serial"
    )
    print(f"backend parity: serial == HTTP x{networked.workers} "
          f"({len(networked.reports)} jobs, byte-identical)\n")
    print(serial.render())


def run_autoscaled_dse() -> None:
    print("\n=== Act 2: DSE grid drained by an autoscaled HTTP fleet ===")
    specs = [
        normalize_spec(spec)
        for spec in dse_grid("geometry", values=((6, 6), (12, 12), (18, 18)))
    ]
    queue = MemoryJobQueue()
    with QueueServer(queue, port=0) as server:
        for index, spec in enumerate(specs):
            queue.submit(spec, job_id=job_id_for_spec(index, spec))
        client = HttpJobQueue(server.url)
        fleet = WorkerFleet(
            lambda index: spawn_worker(
                client, stop_when_drained=False, lease_seconds=30.0
            ),
            min_workers=0,
            max_workers=2,
            backlog_per_worker=2,
            cooldown_seconds=0.0,
        )
        # The supervision loop: observe the queue, let the fleet act.
        peak = 0
        try:
            while True:
                expired = len(queue.reap_expired())
                stats = queue.stats()
                if stats.done + stats.failed >= len(specs):
                    break
                peak = max(peak, fleet.step(stats, expired=expired)["alive"])
                time.sleep(0.1)
        finally:
            fleet.shutdown()
    assert stats.done == len(specs), stats
    print(f"fleet drained {stats.done} design points "
          f"(peak {peak} workers, shut down once the grid was done)")


def main() -> int:
    run_sweep_over_http()
    run_autoscaled_dse()
    return 0


if __name__ == "__main__":
    sys.exit(main())
