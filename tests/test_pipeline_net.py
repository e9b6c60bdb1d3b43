"""Network job transport: the HTTP queue protocol end to end —
wire-level semantics, stale-ack rejection across every queue backend,
sweep/DSE parity over HTTP worker processes (including a killed
worker), server restart + resume over a durable backend, and the
worker fleet's scaling decisions."""

import http.client
import json
import multiprocessing
import os
import re
import socket
import struct
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.pipeline import run_many
from repro.pipeline.dist import (
    DirectoryJobQueue,
    HttpJobQueue,
    HttpQueueError,
    MemoryJobQueue,
    QueueServer,
    SweepRunner,
    WorkerFleet,
    job_id_for_spec,
    run_worker,
)
from repro.pipeline.dse import DSERunner, dse_grid

SCENE = {"height": 32, "width": 48, "frames": 2}


def _mp_context():
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


def _claim_and_die_http(url, lease_seconds):
    """Worker that dies mid-job over the wire: claims, never acks."""
    queue = HttpJobQueue(url)
    job = queue.claim("doomed-http", lease_seconds=lease_seconds)
    assert job is not None
    os._exit(1)


@pytest.fixture
def http_queue():
    """An HttpJobQueue talking to an in-process server over loopback."""
    with QueueServer(MemoryJobQueue(max_attempts=2)) as server:
        yield HttpJobQueue(server.url)


@pytest.fixture(params=["memory", "directory", "http"])
def any_queue(request, tmp_path):
    """One queue per backend, same protocol — the parametrization the
    stale-ack race contract is pinned across."""
    if request.param == "memory":
        yield MemoryJobQueue(max_attempts=3)
    elif request.param == "directory":
        yield DirectoryJobQueue(tmp_path / "q", max_attempts=3)
    else:
        with QueueServer(MemoryJobQueue(max_attempts=3)) as server:
            yield HttpJobQueue(server.url)


class TestHttpProtocol:
    def test_submit_claim_ack_cycle(self, http_queue):
        job_id = http_queue.submit({"x": 1}, job_id="job-a")
        assert http_queue.stats().pending == 1
        job = http_queue.claim("w1", lease_seconds=30.0)
        assert job.job_id == job_id and job.spec == {"x": 1}
        assert job.attempts == 0
        assert http_queue.claim("w2", lease_seconds=30.0) is None
        assert http_queue.ack(job_id, {"ok": True}, worker_id="w1")
        stats = http_queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, 1)
        assert http_queue.results() == {job_id: {"ok": True}}
        assert http_queue.finished_ids() == {job_id}

    def test_submit_is_idempotent(self, http_queue):
        http_queue.submit({"x": 1}, job_id="dup")
        http_queue.submit({"x": 2}, job_id="dup")
        assert http_queue.stats().pending == 1
        assert http_queue.claim("w", lease_seconds=30.0).spec == {"x": 1}

    def test_fail_requeues_then_dead_letters(self, http_queue):
        http_queue.submit({"x": 1}, job_id="flaky")  # max_attempts=2
        job = http_queue.claim("w", lease_seconds=30.0)
        http_queue.fail(job.job_id, "boom 1")
        assert http_queue.stats().pending == 1
        job = http_queue.claim("w", lease_seconds=30.0)
        assert job.attempts == 1
        http_queue.fail(job.job_id, "boom 2")
        stats = http_queue.stats()
        assert (stats.pending, stats.failed) == (0, 1)
        assert "boom 2" in http_queue.failures()["flaky"]

    def test_claim_batch_is_one_round_trip(self, http_queue):
        for index in range(5):
            http_queue.submit({"x": index}, job_id=f"job-{index}")
        bundle = http_queue.claim_batch("w1", lease_seconds=30.0, limit=3)
        assert [job.spec["x"] for job in bundle] == [0, 1, 2]
        stats = http_queue.stats()
        assert (stats.pending, stats.claimed) == (2, 3)
        # past the queue depth: what's left, no error
        rest = http_queue.claim_batch("w2", lease_seconds=30.0, limit=10)
        assert [job.spec["x"] for job in rest] == [3, 4]
        assert http_queue.claim_batch("w3", lease_seconds=30.0, limit=2) == []
        for job in bundle + rest:
            assert http_queue.ack(job.job_id, {"ok": True})
        assert http_queue.stats().done == 5

    def test_claim_batch_wire_response_keeps_single_job_field(
        self, http_queue
    ):
        """The batched /claim response carries "jobs" plus the legacy
        "job" (first-of-bundle) so pre-batching clients keep working."""
        http_queue.submit({"x": 1}, job_id="compat")
        payload = http_queue._request(
            "POST",
            "/claim",
            {"worker_id": "w", "lease_seconds": 30.0, "batch": 2},
        )
        assert [doc["job_id"] for doc in payload["jobs"]] == ["compat"]
        assert payload["job"]["job_id"] == "compat"

    def test_claim_batch_rejects_nonpositive_batch(self, http_queue):
        # client-side: before any request goes out
        with pytest.raises(ValueError, match="limit"):
            http_queue.claim_batch("w", lease_seconds=30.0, limit=0)
        # server-side: a hand-rolled batch=0 is a clean wire error
        with pytest.raises(HttpQueueError):
            http_queue._request(
                "POST",
                "/claim",
                {"worker_id": "w", "lease_seconds": 30.0, "batch": 0},
            )

    def test_attempts_map_is_one_round_trip(self, http_queue):
        """The bulk /attempts form returns every requested counter at
        once — the runner's poison breaker polls it instead of one
        request per unfinished job."""
        for name in ("burned", "fresh"):
            http_queue.submit({"x": 1}, job_id=name)
        assert http_queue.claim("w", lease_seconds=0.05).job_id == "burned"
        time.sleep(0.08)
        assert http_queue.reap_expired() == ["burned"]
        counts = http_queue.attempts_map(["burned", "fresh", "unknown"])
        assert counts == {"burned": 1, "fresh": 0, "unknown": 0}
        assert http_queue.attempts_map([]) == {}
        # the single-job wire form stays intact
        assert http_queue.attempts("burned") == 1

    def test_attempts_map_keeps_an_id_holding_a_comma(self, http_queue):
        """Ids travel comma-joined; one holding a comma is sent as its
        cleaned form, so the answer is the in-memory queue's."""
        from repro.pipeline.dist import MemoryJobQueue

        memory = MemoryJobQueue()
        for queue in (http_queue, memory):
            queue.submit({}, job_id="a,b")
        assert http_queue.attempts_map(["a,b"]) == {"a-b": 0}
        assert memory.attempts_map(["a,b"]) == {"a-b": 0}
        assert http_queue.attempts_map(["a,b", "c d", "z"]) == memory.attempts_map(
            ["a,b", "c d", "z"]
        )

    def test_lease_expiry_reaps_over_the_wire(self, http_queue):
        http_queue.submit({"x": 1}, job_id="leased")
        assert http_queue.claim("w1", lease_seconds=0.05) is not None
        time.sleep(0.08)
        assert http_queue.reap_expired() == ["leased"]
        job = http_queue.claim("w2", lease_seconds=30.0)
        assert job.job_id == "leased" and job.attempts == 1

    def test_results_paginate(self, http_queue):
        for i in range(7):
            job_id = http_queue.submit({"n": i}, job_id=f"{i:05d}-x")
            job = http_queue.claim("w", lease_seconds=30.0)
            http_queue.ack(job.job_id, {"n": job.spec["n"]})
        page, cursor = http_queue.results_page(limit=3)
        assert sorted(page) == ["00000-x", "00001-x", "00002-x"]
        assert cursor == "00002-x"
        page, cursor = http_queue.results_page(after=cursor, limit=3)
        assert sorted(page) == ["00003-x", "00004-x", "00005-x"]
        # drained via pages, reassembled complete
        assert len(http_queue.results()) == 7

    def test_health_and_heartbeat_feed_stats(self, http_queue):
        health = http_queue.health()
        assert health["ok"] and health["backend"] == "MemoryJobQueue"
        http_queue.heartbeat(
            {"worker_id": "w9", "completed": 3, "failed": 1,
             "last_job_id": "00002-x"}
        )
        fleet = http_queue.fleet()
        assert fleet["w9"]["completed"] == 3
        assert fleet["w9"]["failed"] == 1
        assert fleet["w9"]["last_seen_unix"] > 0

    def test_unknown_endpoint_and_bad_body_are_clean_errors(self, http_queue):
        with pytest.raises(HttpQueueError, match="404"):
            http_queue._request("GET", "/nope")
        with pytest.raises(HttpQueueError, match="400"):
            http_queue._request("POST", "/submit", {"spec": {"x": 1}})  # no id

    def test_unreachable_server_raises_after_bounded_retries(self):
        queue = HttpJobQueue(
            "http://127.0.0.1:9", timeout=0.5, retries=2,
            backoff_seconds=0.01,
        )
        start = time.monotonic()
        with pytest.raises(HttpQueueError, match="cannot reach"):
            queue.stats()
        assert time.monotonic() - start < 5.0  # bounded, not hung

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="plain http"):
            HttpJobQueue("https://example.com:8642")

    def test_url_round_trips_an_ipv6_host(self):
        # spawned workers rebuild their client from ``queue.url``
        queue = HttpJobQueue("http://[::1]:8642/q")
        assert queue.url == "http://[::1]:8642/q"
        assert HttpJobQueue(queue.url).url == queue.url


class TestObservabilityEndpoints:
    """``GET /metrics`` (fleet-merged Prometheus text), ``GET /trace``
    (JSONL span tail), heartbeat TTL pruning with ``age_seconds``, and
    the retired-worker fold that keeps fleet counters monotone."""

    def _beat(self, worker_id, completed, *, version=None, metrics=None,
              spans=None):
        doc = {"worker_id": worker_id, "completed": completed, "failed": 0,
               "last_job_id": None}
        if version is not None:
            doc["version"] = version
        if metrics is not None:
            doc["metrics"] = metrics
        if spans is not None:
            doc["spans"] = spans
        return doc

    def _worker_snapshot(self, completed):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro_jobs_completed_total", "jobs acked").inc(
            completed, kind="encode"
        )
        reg.histogram("repro_job_seconds", buckets=(0.1, 1.0)).observe(0.05)
        return reg.snapshot()

    def test_metrics_merges_worker_snapshots_and_queue_gauges(self, http_queue):
        http_queue.submit({"x": 1}, job_id="j1")
        job = http_queue.claim("w1", lease_seconds=30.0)
        http_queue.ack(job.job_id, {"ok": True})
        for worker_id, completed in (("w1", 3), ("w2", 2)):
            http_queue.heartbeat(self._beat(
                worker_id, completed,
                metrics=self._worker_snapshot(completed),
            ))
        text = http_queue.metrics_text()
        # worker counters sum across the fleet; histograms bucket-sum
        assert 'repro_jobs_completed_total{kind="encode"} 5' in text
        assert 'repro_job_seconds_bucket{le="0.1"} 2' in text
        # the server's own series and live queue-depth gauges ride along
        assert "repro_heartbeats_total 2" in text
        assert 'repro_queue_jobs{state="done"} 1' in text
        assert "repro_fleet_workers 2" in text

    def test_fleet_reports_age_and_version(self, http_queue):
        http_queue.heartbeat(self._beat("w1", 0, version="9.9.9"))
        entry = http_queue.fleet()["w1"]
        assert entry["version"] == "9.9.9"
        assert 0.0 <= entry["age_seconds"] < 60.0

    def test_ttl_prunes_silent_workers_but_folds_their_counters(self):
        with QueueServer(
            MemoryJobQueue(), heartbeat_ttl_seconds=0.05
        ) as server:
            queue = HttpJobQueue(server.url)
            queue.heartbeat(self._beat(
                "w1", 4, metrics=self._worker_snapshot(4)
            ))
            assert "w1" in queue.fleet()
            time.sleep(0.1)
            # silent past the TTL: gone from /stats ...
            assert queue.fleet() == {}
            text = queue.metrics_text()
            assert "repro_fleet_workers 0" in text
            # ... yet the fleet counter never regresses (retired fold)
            assert 'repro_jobs_completed_total{kind="encode"} 4' in text

    def test_heartbeat_replacement_keeps_fleet_sum_monotone(self, http_queue):
        for completed in (1, 3):
            http_queue.heartbeat(self._beat(
                "w1", completed, metrics=self._worker_snapshot(completed)
            ))
        # the second snapshot replaces (not adds to) the first
        assert 'repro_jobs_completed_total{kind="encode"} 3' \
            in http_queue.metrics_text()

    def test_trace_tail_is_jsonl_with_meta_header(self, http_queue):
        spans = [
            {"kind": "span", "name": f"s{i}", "span_id": f"x-{i}",
             "parent_id": None, "job_id": None, "start_unix": float(i),
             "dur_s": 0.001}
            for i in range(5)
        ]
        http_queue.heartbeat(self._beat("w1", 0, spans=spans))
        lines = http_queue.trace_tail(limit=2).strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["kind"] == "meta" and rows[0]["version"]
        assert [r["name"] for r in rows[1:]] == ["s3", "s4"]  # newest

    def test_trace_rejects_bad_limit(self, http_queue):
        with pytest.raises(HttpQueueError, match="400"):
            http_queue.trace_tail(limit=0)

    def test_server_rejects_nonpositive_ttl(self):
        with pytest.raises(ValueError, match="heartbeat_ttl_seconds"):
            QueueServer(MemoryJobQueue(), heartbeat_ttl_seconds=0.0)

    def test_worker_loop_ships_metrics_over_the_wire(self, http_queue):
        from repro.obs.metrics import reset_registry

        reset_registry()
        for index in range(2):
            http_queue.submit({"x": index}, job_id=f"0000{index}-x")
        completed = run_worker(
            http_queue, "obs-worker", lease_seconds=30.0,
            execute=lambda job: {"ok": True},
            on_heartbeat=http_queue.heartbeat,
        )
        assert completed == 2
        text = http_queue.metrics_text()
        assert 'repro_jobs_completed_total{kind="encode"} 2' in text
        assert 'repro_worker_claims_total{outcome="claimed"} 2' in text
        # the client instruments its own transport
        assert 'repro_http_requests_total{path="/claim",status="200"}' in text
        fleet = http_queue.fleet()
        import repro

        assert fleet["obs-worker"]["version"] == repro.__version__


class TestClientHangUp:
    def test_response_to_a_closed_socket_is_dropped_quietly(
        self, monkeypatch, capfd
    ):
        """A client that sends a request and hangs up before reading the
        response costs the server nothing: no traceback on stderr, and
        the next request is answered."""
        from repro.pipeline.dist import net

        entered, release = threading.Event(), threading.Event()
        routes = dict(net._ROUTES)

        def held_stats(server, body):
            entered.set()
            release.wait(10)
            return routes[("GET", "/stats")](server, body)

        monkeypatch.setitem(net._ROUTES, ("GET", "/stats"), held_stats)
        with QueueServer(MemoryJobQueue()) as server:
            host, port = server.url.removeprefix("http://").split(":")
            client = socket.create_connection((host, int(port)))
            client.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            assert entered.wait(10)
            # linger 0: close() resets the connection instead of a FIN
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()
            release.set()
            time.sleep(0.2)
            assert HttpJobQueue(server.url).stats().total == 0
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err and "ConnectionResetError" not in err


class TestStaleAck:
    def test_ack_after_reap_is_rejected(self, any_queue):
        """The lease-expiry race: a straggler whose job was reaped and
        re-acked elsewhere must get a clean rejection — idempotent, no
        double-aggregation."""
        queue = any_queue
        queue.submit({"x": 1}, job_id="raced")
        slow = queue.claim("w1", lease_seconds=0.05)
        time.sleep(0.08)
        assert queue.reap_expired() == ["raced"]
        fast = queue.claim("w2", lease_seconds=30.0)
        assert queue.ack(fast.job_id, {"from": "w2"}, worker_id="w2") is True
        # the straggler returns: job is already terminal
        assert queue.ack(slow.job_id, {"from": "w1"}, worker_id="w1") is False
        assert queue.stats().done == 1
        assert queue.results()["raced"] == {"from": "w2"}

    def test_ack_after_reassignment_is_rejected(self, any_queue):
        """Straggler acks while the *new* owner still holds the claim:
        the worker-id check must refuse the old owner's result."""
        queue = any_queue
        queue.submit({"x": 1}, job_id="stolen")
        stale = queue.claim("w1", lease_seconds=0.05)
        time.sleep(0.08)
        queue.reap_expired()
        assert queue.claim("w2", lease_seconds=30.0) is not None
        assert queue.ack(stale.job_id, {"from": "w1"}, worker_id="w1") is False
        stats = queue.stats()
        assert (stats.claimed, stats.done) == (1, 0)  # w2 still owns it
        assert queue.ack(stale.job_id, {"from": "w2"}, worker_id="w2") is True
        assert queue.results()["stolen"] == {"from": "w2"}

    def test_worker_loop_drops_stale_ack(self, any_queue):
        """run_worker itself must not count a stale ack as completed."""
        queue = any_queue
        queue.submit({"x": 1}, job_id="slowjob")

        done_elsewhere = {}

        def slow_execute(job):
            # w1 outlives its lease; meanwhile w2 takes and finishes
            # the job, so w1's eventual ack must be stale
            time.sleep(0.08)
            queue.reap_expired()
            stolen = queue.claim("w2", lease_seconds=30.0)
            if stolen is not None:
                queue.ack(stolen.job_id, {"late": False}, worker_id="w2")
                done_elsewhere[stolen.job_id] = True
            return {"late": True}

        completed = run_worker(
            queue, "w1", lease_seconds=0.05, max_jobs=1,
            execute=slow_execute,
        )
        assert done_elsewhere  # the race actually happened
        assert completed == 0  # w1's ack was stale, not counted
        assert queue.results()["slowjob"] == {"late": False}


class TestHttpSweepParity:
    GRID = dict(
        codecs=["classical", "ctvc"],
        codec_configs=[{"qp": 8.0, "qstep": 8.0, "channels": 8}],
        scenes=[SCENE],
        anchor="classical",
    )

    def canon(self, result):
        payload = result.to_dict()
        return (
            json.dumps(payload["curves"], sort_keys=True),
            json.dumps(payload["bd_rate"], sort_keys=True),
        )

    def test_http_workers_match_serial(self):
        serial = SweepRunner(workers=0, **self.GRID).run()
        assert serial.ok
        with QueueServer(MemoryJobQueue()) as server:
            net = SweepRunner(
                queue=HttpJobQueue(server.url), workers=2,
                lease_seconds=60.0, **self.GRID,
            ).run()
        assert net.ok, net.failures
        assert self.canon(net) == self.canon(serial)

    def test_http_sweep_survives_killed_worker(self):
        """One worker claims over the wire and dies; the sweep still
        completes byte-identically."""
        serial = SweepRunner(
            codecs=["classical"],
            codec_configs=[{"qp": 8.0}, {"qp": 16.0}, {"qp": 32.0}],
            scenes=[SCENE], workers=0,
        ).run()
        with QueueServer(MemoryJobQueue()) as server:
            runner = SweepRunner(
                codecs=["classical"],
                codec_configs=[{"qp": 8.0}, {"qp": 16.0}, {"qp": 32.0}],
                scenes=[SCENE],
                queue=HttpJobQueue(server.url),
                workers=2,
                lease_seconds=0.3,
            )
            runner.submit()
            victim = _mp_context().Process(
                target=_claim_and_die_http, args=(server.url, 0.3)
            )
            victim.start()
            victim.join(timeout=30)
            assert victim.exitcode == 1
            result = runner.run()
        assert result.ok, result.failures
        assert len(result.reports) == 3
        assert self.canon(result) == self.canon(serial)

    def test_run_many_queue_url_matches_inline(self):
        inline = run_many(codecs=["classical"],
                          codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
                          scenes=[SCENE])
        with QueueServer(MemoryJobQueue()) as server:
            queued = run_many(codecs=["classical"],
                              codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
                              scenes=[SCENE],
                              backend="queue", workers=2,
                              queue_url=server.url)
        for a, b in zip(inline, queued):
            a_dict, b_dict = a.to_dict(), b.to_dict()
            for key in ("encode_seconds", "decode_seconds"):
                a_dict.pop(key), b_dict.pop(key)
            assert a_dict == b_dict

    def test_queue_url_demands_queue_backend(self):
        with pytest.raises(ValueError, match="queue_url"):
            run_many(codecs=["classical"], scenes=[SCENE],
                     queue_url="http://127.0.0.1:1")


class TestHttpDSEParity:
    def test_dse_grid_over_http_matches_serial(self):
        specs = dse_grid("geometry", values=((6, 6), (12, 12), (18, 18)))
        serial = DSERunner(specs, workers=0).run()
        assert serial.ok
        with QueueServer(MemoryJobQueue()) as server:
            net = DSERunner(
                specs, queue=HttpJobQueue(server.url), workers=2,
                lease_seconds=60.0,
            ).run()
        assert net.ok, net.failures

        def canon(result):
            payload = result.to_dict()
            return json.dumps(
                {"points": payload["points"], "pareto": payload["pareto"]},
                sort_keys=True,
            )

        assert canon(net) == canon(serial)


class TestServerRestartResume:
    def test_directory_backend_survives_server_restart(self, tmp_path):
        """Durable state lives in the backing queue, not the server: a
        new server over the same directory resumes the grid."""
        root = str(tmp_path / "q")
        grid = dict(
            codecs=["classical"],
            codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
            scenes=[SCENE],
        )
        server = QueueServer(
            DirectoryJobQueue(root, max_attempts=3)
        ).start()
        try:
            runner = SweepRunner(
                queue=HttpJobQueue(server.url), workers=0, **grid
            )
            runner.submit()
            # complete exactly one job through the first server
            run_worker(runner.queue, "w1", lease_seconds=60.0, max_jobs=1)
            assert runner.queue.stats().done == 1
        finally:
            server.stop()

        # first server is gone; its client now fails fast
        with pytest.raises(HttpQueueError):
            HttpJobQueue(server.url, retries=0, timeout=0.5).stats()

        restarted = QueueServer(
            DirectoryJobQueue(root, max_attempts=3)
        ).start()
        try:
            queue = HttpJobQueue(restarted.url)
            assert queue.stats().done == 1  # state survived
            resumed = SweepRunner(queue=queue, workers=0, **grid)
            result = resumed.run()
        finally:
            restarted.stop()
        assert result.ok, result.failures
        assert len(result.reports) == 2
        serial = SweepRunner(workers=0, **grid).run()
        assert json.dumps(result.to_dict()["curves"], sort_keys=True) == \
            json.dumps(serial.to_dict()["curves"], sort_keys=True)


class _FakeWorker:
    def __init__(self):
        self.alive = True
        self.terminated = False

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.alive = False
        self.terminated = True

    def join(self, timeout=None):
        pass


def _observe(fleet, queue) -> dict:
    """One supervision cycle as a caller runs it: reap, read stats,
    step the fleet on those observations."""
    expired = len(queue.reap_expired())
    return fleet.step(queue.stats(), expired=expired)


class TestWorkerFleet:
    def test_desired_workers_decision_table(self):
        scaler = WorkerFleet(
            min_workers=0, max_workers=4, backlog_per_worker=4
        )
        assert scaler.desired_workers(pending=0, claimed=0) == 0
        assert scaler.desired_workers(pending=1, claimed=0) == 1
        assert scaler.desired_workers(pending=8, claimed=0) == 2
        assert scaler.desired_workers(pending=100, claimed=0) == 4  # clamp
        assert scaler.desired_workers(pending=0, claimed=1) == 1
        # a freshly expired lease asks for an extra hand
        assert scaler.desired_workers(pending=4, claimed=0, expired=1) == 2
        floor = WorkerFleet(min_workers=2, max_workers=4)
        assert floor.desired_workers(pending=0, claimed=0) == 2

    def test_step_scales_up_then_down_when_idle(self):
        queue = MemoryJobQueue()
        for i in range(8):
            queue.submit({"n": i}, job_id=f"{i:05d}-x")
        clock = {"t": 0.0}
        scaler = WorkerFleet(
            lambda index: _FakeWorker(),
            min_workers=0, max_workers=4, backlog_per_worker=4,
            cooldown_seconds=10.0, clock=lambda: clock["t"],
        )
        summary = _observe(scaler, queue)
        assert summary["action"] == "scale-up:2"
        assert len(scaler.workers) == 2
        # cooldown holds even though depth would ask for more
        for i in range(8, 16):
            queue.submit({"n": i}, job_id=f"{i:05d}-x")
        assert _observe(scaler, queue)["action"] == "hold"
        clock["t"] = 11.0
        assert _observe(scaler, queue)["action"] == "scale-up:2"
        # drain the queue; idle fleet scales to nothing after cooldown
        while True:
            job = queue.claim("w", lease_seconds=30.0)
            if job is None:
                break
            queue.ack(job.job_id, {})
        clock["t"] = 30.0
        summary = _observe(scaler, queue)
        assert summary["action"] == "scale-down:4"
        assert scaler.workers == []

    def test_no_scale_down_while_jobs_in_flight(self):
        queue = MemoryJobQueue()
        queue.submit({"n": 0}, job_id="00000-x")
        clock = {"t": 0.0}
        scaler = WorkerFleet(
            lambda index: _FakeWorker(), min_workers=0, max_workers=2,
            cooldown_seconds=0.0, clock=lambda: clock["t"],
        )
        _observe(scaler, queue)
        assert len(scaler.workers) == 1
        assert queue.claim("w", lease_seconds=30.0) is not None
        clock["t"] = 100.0
        # claimed=1 keeps desired at 1 and forbids termination
        assert _observe(scaler, queue)["action"] == "hold"
        assert len(scaler.workers) == 1

    def test_shutdown_terminates_fleet(self):
        queue = MemoryJobQueue()
        queue.submit({"n": 0}, job_id="00000-x")
        scaler = WorkerFleet(lambda index: _FakeWorker(), cooldown_seconds=0.0)
        _observe(scaler, queue)
        workers = scaler.workers
        assert workers
        scaler.shutdown()
        assert scaler.workers == []
        assert all(w.terminated for w in workers)

    def test_autoscaled_http_fleet_drains_a_real_grid(self):
        """End to end: server + fleet-spawned HTTP worker processes
        complete a queue nobody else is draining."""
        backing = MemoryJobQueue()
        with QueueServer(backing) as server:
            from repro.pipeline.dist import spawn_worker
            from repro.pipeline.tasks import normalize_spec

            specs = [
                normalize_spec(spec)
                for spec in dse_grid(
                    "geometry", values=((6, 6), (12, 12))
                )
            ]
            queue = HttpJobQueue(server.url)
            for index, spec in enumerate(specs):
                queue.submit(spec, job_id=job_id_for_spec(index, spec))
            scaler = WorkerFleet(
                lambda index: spawn_worker(
                    queue, stop_when_drained=False, lease_seconds=30.0
                ),
                min_workers=0, max_workers=2, backlog_per_worker=1,
                cooldown_seconds=0.0,
            )
            try:
                deadline = time.time() + 60
                while queue.stats().done < len(specs):
                    _observe(scaler, queue)
                    assert time.time() < deadline, "fleet never drained grid"
                    time.sleep(0.05)
            finally:
                scaler.shutdown()
            assert queue.stats().done == len(specs)
            assert len(queue.results()) == len(specs)
            # heartbeats from the fleet's workers reached /stats
            assert queue.fleet()

    def test_spawned_worker_ships_only_its_own_metrics_and_spans(self):
        """A forked worker starts from an empty registry and span ring:
        the requests and spans its parent made before the fork never
        reach the daemon as the worker's."""
        from repro.obs import tracing
        from repro.pipeline.dist import spawn_worker
        from repro.pipeline.tasks import normalize_spec

        spec = normalize_spec(dse_grid("geometry", values=((6, 6),))[0])
        was_enabled = tracing.enabled()
        tracing.enable()
        try:
            with QueueServer(MemoryJobQueue()) as server:
                queue = HttpJobQueue(server.url)
                queue.submit(spec, job_id=job_id_for_spec(0, spec))
                for _ in range(3):
                    queue.results()
                with tracing.span("parent.before-fork"):
                    pass
                worker = spawn_worker(queue, lease_seconds=30.0)
                worker.join(60)
                assert worker.exitcode == 0
                assert queue.stats().done == 1
                metrics = server.metrics_text()
                spans = server.trace_text()
        finally:
            tracing.enable(was_enabled)
        # the worker's own requests arrive; the parent's do not
        assert 'repro_http_requests_total{path="/claim",status="200"}' in metrics
        assert 'path="/submit"' not in metrics
        assert 'path="/results"' not in metrics
        assert "parent.before-fork" not in spans
        assert "worker.execute" in spans


def _storage(name, tmp_path):
    return (
        MemoryJobQueue() if name == "memory"
        else DirectoryJobQueue(tmp_path / "q")
    )


@pytest.fixture(params=["memory", "directory", "http-memory", "http-directory"])
def storage_queue(request, tmp_path):
    """Both storages, called directly and served over HTTP."""
    transport, _, storage = request.param.rpartition("-")
    if not transport:
        yield _storage(storage, tmp_path)
    else:
        with QueueServer(_storage(storage, tmp_path)) as server:
            yield HttpJobQueue(server.url)


class TestLeaseValidation:
    @pytest.mark.parametrize(
        "lease", [float("inf"), float("-inf"), float("nan"), -1.0]
    )
    def test_unbounded_or_negative_lease_is_refused(self, storage_queue,
                                                    lease):
        """A lease that could never expire (or expires before it
        starts) is a clean error on every storage — a 400 over the
        wire — and the job stays pending."""
        storage_queue.submit({"x": 1}, job_id="j")
        error, match = (
            (HttpQueueError, "HTTP 400: .*lease_seconds must be finite")
            if isinstance(storage_queue, HttpJobQueue)
            else (ValueError, "lease_seconds must be finite")
        )
        with pytest.raises(error, match=match):
            storage_queue.claim_batch("w", lease_seconds=lease)
        stats = storage_queue.stats()
        assert (stats.pending, stats.claimed) == (1, 0)

    @pytest.mark.parametrize("storage", ["memory", "directory"])
    def test_raw_overflowing_lease_is_a_400(self, storage, tmp_path):
        """``1e999`` parses to infinity on the server: refused, never a
        lease that outlives every reap (memory storage) or a 500 from
        the clock's overflow (directory storage)."""
        with QueueServer(_storage(storage, tmp_path)) as server:
            queue = HttpJobQueue(server.url)
            queue.submit({"x": 1}, job_id="j")
            connection = http.client.HTTPConnection(server.host, server.port)
            connection.request(
                "POST", "/claim",
                body=b'{"worker_id": "w", "lease_seconds": 1e999}',
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"lease_seconds" in response.read()
            connection.close()
            assert queue.stats().pending == 1

    @pytest.mark.parametrize("path, body", [
        ("/claim", b'{"worker_id": "w", "lease_seconds": 5, "batch": 1e999}'),
        ("/heartbeat", b'{"worker_id": "w", "completed": 1e999}'),
    ])
    def test_infinite_count_is_a_400(self, path, body):
        """An infinite number where the server wants an int is bad
        input, not a 500 carrying the server's traceback."""
        with QueueServer(MemoryJobQueue()) as server:
            connection = http.client.HTTPConnection(server.host, server.port)
            connection.request("POST", path, body=body)
            response = connection.getresponse()
            assert response.status == 400
            assert b"OverflowError" in response.read()
            connection.close()

    def test_zero_lease_still_claims_and_expires(self, storage_queue):
        storage_queue.submit({"x": 1}, job_id="j")
        assert [job.job_id for job in storage_queue.claim_batch(
            "w", lease_seconds=0.0)] == ["j"]
        time.sleep(0.01)
        assert storage_queue.reap_expired() == ["j"]


#: the HTTP queue's wire traffic for one scripted session
#: (``TestWireGolden``): every request's method, target and body, and
#: every response's status, content type and body, time-varying values
#: masked.
WIRE_GOLDEN = Path(__file__).with_name("golden_wire.json")

_MASKS = (
    # fleet liveness: seconds since the beat, and its wall-clock time
    (re.compile(r'"(age_seconds|last_seen_unix)": [-+.eE0-9]+'),
     r'"\1": "<masked>"'),
    # latency histograms in the Prometheus text
    (re.compile(r"(_seconds_(?:bucket|sum|count)(?:\{[^}]*\})?) \S+"),
     r"\1 <masked>"),
    # the trace's meta row names the serving process
    (re.compile(r'^\{"kind": "meta".*$', re.MULTILINE), "<meta>"),
)


def _masked(text: str) -> str:
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def _wire_session(queue: HttpJobQueue) -> None:
    """Every ``HttpJobQueue`` verb once (claim and attempts in both
    forms), then a 404 and a 400, against a ``max_attempts=2`` queue."""
    queue.health()
    queue.submit({"n": 1}, job_id="a")
    queue.submit({"n": 2}, job_id="b")
    queue.submit({"n": 3, "tags": ["x", "y"]}, job_id="c d")
    queue.claim_batch("w1", lease_seconds=30.0, limit=2)
    queue.ack("a", {"bpp": 0.5, "psnr": 31.25}, worker_id="w1")
    queue.fail("b", "boom", worker_id="w1")
    queue.claim("w2", lease_seconds=0.0)  # b, expired on arrival
    queue.reap_expired()  # b's second attempt: dead-lettered
    queue.attempts("c d")
    queue.attempts_map(["b", "c d", "zz"])
    queue.attempts_map([])  # answered without a request
    queue.heartbeat({
        "worker_id": "w1", "completed": 1, "failed": 1,
        "last_job_id": "b",
        "spans": [{"kind": "span", "name": "encode", "span_id": "s-1",
                   "parent_id": None, "job_id": "a", "start_unix": 1.5,
                   "dur_s": 0.25}],
    })
    queue.stats()
    queue.fleet()
    queue.finished_ids()
    queue.results_page(limit=1)
    queue.results()
    queue.failures()
    queue.failure_details()
    queue.retry("b")
    queue.quarantine("c d", "poison")
    queue.metrics_text()
    queue.trace_tail(limit=4)
    with pytest.raises(HttpQueueError, match="404"):
        queue._request("GET", "/nope")
    with pytest.raises(HttpQueueError, match="400"):
        queue._request("POST", "/submit", {"spec": {"n": 4}})


def record_wire_session() -> list[dict]:
    """Run :func:`_wire_session` through a live server and return its
    traffic as the stdlib HTTP client saw it."""
    exchanges: list[dict] = []
    send = http.client.HTTPConnection.request
    read = http.client.HTTPResponse.read

    def recording_send(self, method, url, body=None, headers={}, **kwargs):
        exchanges.append({
            "method": method,
            "target": url,
            "body": None if body is None else body.decode("utf-8"),
        })
        return send(self, method, url, body, headers, **kwargs)

    def recording_read(self, amt=None):
        data = read(self, amt)
        exchanges[-1].update(
            status=self.status,
            content_type=self.getheader("Content-Type"),
            response=_masked(data.decode("utf-8")),
        )
        return data

    with QueueServer(MemoryJobQueue(max_attempts=2)) as server, \
            mock.patch.object(http.client.HTTPConnection, "request",
                              recording_send), \
            mock.patch.object(http.client.HTTPResponse, "read",
                              recording_read):
        queue = HttpJobQueue(server.url)
        try:
            _wire_session(queue)
        finally:
            queue.close()
    return exchanges


class TestWireGolden:
    def test_wire_bytes_match_the_golden(self):
        """The request and response bytes of every queue endpoint are
        pinned: a change to the wire format fails here first.  Rebuild
        the golden with ``record_wire_session()`` only for a deliberate
        format change."""
        golden = json.loads(WIRE_GOLDEN.read_text(encoding="utf-8"))
        assert record_wire_session() == golden
