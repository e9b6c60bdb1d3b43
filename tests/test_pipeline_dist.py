"""Distributed sweep executor: queue protocol semantics, worker
failure/retry (a genuinely killed worker process), resume, and
aggregation parity between serial and sharded execution."""

import json
import multiprocessing
import os
import time

import pytest

from repro.metrics import bd_rate_table, curves_from_reports
from repro.pipeline import Pipeline, run_many
from repro.pipeline.dist import (
    DirectoryJobQueue,
    MemoryJobQueue,
    SweepRunner,
    active_segments,
    job_id_for_spec,
    run_worker,
    verify_result_checksum,
)
from repro.pipeline.registry import register_codec, unregister_codec
from repro.codec import ClassicalCodecConfig

SCENE = {"height": 32, "width": 48, "frames": 2}
GRID = dict(
    codecs=["classical", "ctvc"],
    codec_configs=[
        {"qp": 8.0, "qstep": 8.0, "channels": 8},
        {"qp": 16.0, "qstep": 16.0, "channels": 8},
    ],
    scenes=[SCENE],
)


def _spec(qp=8.0):
    return Pipeline("classical", {"qp": qp}, scene=SCENE).to_dict()


def _claim_and_die(queue_dir, lease_seconds):
    """Worker that dies mid-job: claims, never acks, hard-exits."""
    queue = DirectoryJobQueue(queue_dir)
    job = queue.claim("doomed-worker", lease_seconds=lease_seconds)
    assert job is not None
    os._exit(1)


@pytest.mark.parametrize("make_queue", [
    lambda tmp: MemoryJobQueue(max_attempts=2),
    lambda tmp: DirectoryJobQueue(tmp / "q", max_attempts=2),
], ids=["memory", "directory"])
class TestQueueProtocol:
    def test_submit_claim_ack_cycle(self, tmp_path, make_queue):
        queue = make_queue(tmp_path)
        job_id = queue.submit({"x": 1}, job_id="job-a")
        assert queue.stats().pending == 1
        job = queue.claim("w1", lease_seconds=30.0)
        assert job.job_id == job_id and job.spec == {"x": 1}
        assert job.attempts == 0
        assert queue.stats().claimed == 1
        assert queue.claim("w2", lease_seconds=30.0) is None
        queue.ack(job_id, {"ok": True})
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, 1)
        assert queue.results() == {job_id: {"ok": True}}

    def test_submit_is_idempotent(self, tmp_path, make_queue):
        queue = make_queue(tmp_path)
        queue.submit({"x": 1}, job_id="dup")
        queue.submit({"x": 2}, job_id="dup")  # ignored: id already known
        assert queue.stats().pending == 1
        job = queue.claim("w", lease_seconds=30.0)
        assert job.spec == {"x": 1}
        queue.ack("dup", {})
        queue.submit({"x": 3}, job_id="dup")  # done is terminal too
        assert queue.stats().pending == 0

    def test_fail_requeues_then_dead_letters(self, tmp_path, make_queue):
        queue = make_queue(tmp_path)  # max_attempts=2
        queue.submit({"x": 1}, job_id="flaky")
        job = queue.claim("w", lease_seconds=30.0)
        queue.fail(job.job_id, "boom 1")
        assert queue.stats().pending == 1  # first failure: retried
        job = queue.claim("w", lease_seconds=30.0)
        assert job.attempts == 1
        queue.fail(job.job_id, "boom 2")
        stats = queue.stats()
        assert (stats.pending, stats.failed) == (0, 1)
        assert "boom 2" in queue.failures()["flaky"]

    def test_lease_expiry_requeues(self, tmp_path, make_queue):
        queue = make_queue(tmp_path)
        queue.submit({"x": 1}, job_id="leased")
        assert queue.claim("w1", lease_seconds=0.05) is not None
        assert queue.reap_expired() == []  # lease still live
        time.sleep(0.08)
        assert queue.reap_expired() == ["leased"]
        job = queue.claim("w2", lease_seconds=30.0)
        assert job.job_id == "leased" and job.attempts == 1

    def test_expiry_exhaustion_dead_letters(self, tmp_path, make_queue):
        queue = make_queue(tmp_path)  # max_attempts=2
        queue.submit({"x": 1}, job_id="lost")
        for _ in range(2):
            if queue.claim("w", lease_seconds=0.01) is not None:
                time.sleep(0.03)
                queue.reap_expired()
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.failed) == (0, 0, 1)
        assert "lease expired" in queue.failures()["lost"]

    def test_claim_batch_pops_in_order_under_one_lease(
        self, tmp_path, make_queue
    ):
        queue = make_queue(tmp_path)
        for index in range(5):
            queue.submit({"x": index}, job_id=f"job-{index}")
        bundle = queue.claim_batch("w1", lease_seconds=30.0, limit=3)
        assert [job.spec["x"] for job in bundle] == [0, 1, 2]
        stats = queue.stats()
        assert (stats.pending, stats.claimed) == (2, 3)
        # a limit past the queue depth returns what's left, not an error
        rest = queue.claim_batch("w2", lease_seconds=30.0, limit=10)
        assert [job.spec["x"] for job in rest] == [3, 4]
        # drained: an empty bundle, same contract as claim() -> None
        assert queue.claim_batch("w3", lease_seconds=30.0, limit=2) == []
        for job in bundle + rest:
            queue.ack(job.job_id, {"ok": True})
        assert queue.stats().done == 5

    def test_claim_batch_limit_one_equals_claim(self, tmp_path, make_queue):
        queue = make_queue(tmp_path)
        queue.submit({"x": 1}, job_id="solo")
        (job,) = queue.claim_batch("w1", lease_seconds=30.0, limit=1)
        assert job.job_id == "solo" and job.attempts == 0
        assert queue.claim("w2", lease_seconds=30.0) is None

    def test_claim_batch_rejects_nonpositive_limit(
        self, tmp_path, make_queue
    ):
        queue = make_queue(tmp_path)
        with pytest.raises(ValueError, match="limit"):
            queue.claim_batch("w", lease_seconds=30.0, limit=0)

    def test_partially_acked_bundle_requeues_only_the_remainder(
        self, tmp_path, make_queue
    ):
        """The mid-bundle lease contract: acks are per-job, so a worker
        that dies after finishing job k of N strands only the unacked
        N-k — reaped together when the bundle's shared lease expires,
        with nothing lost and nothing duplicated."""
        queue = make_queue(tmp_path)  # max_attempts=2
        for index in range(3):
            queue.submit({"x": index}, job_id=f"job-{index}")
        bundle = queue.claim_batch("doomed", lease_seconds=0.05, limit=3)
        assert len(bundle) == 3
        queue.ack(bundle[0].job_id, {"ok": True}, worker_id="doomed")
        # ...worker dies here; the shared lease expires for the rest
        time.sleep(0.08)
        assert sorted(queue.reap_expired()) == ["job-1", "job-2"]
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (2, 0, 1)
        retry = queue.claim_batch("survivor", lease_seconds=30.0, limit=3)
        assert [job.job_id for job in retry] == ["job-1", "job-2"]
        assert all(job.attempts == 1 for job in retry)
        for job in retry:
            queue.ack(job.job_id, {"ok": True}, worker_id="survivor")
        assert queue.stats().done == 3
        assert set(queue.results()) == {"job-0", "job-1", "job-2"}


class TestDirectoryQueue:
    def test_state_survives_reattach(self, tmp_path):
        root = tmp_path / "q"
        queue = DirectoryJobQueue(root)
        queue.submit({"x": 1}, job_id="persist")
        queue.claim("w1", lease_seconds=30.0)
        queue.ack("persist", {"bpp": 1.0})
        # a fresh instance (fresh process, resumed sweep) sees the result
        again = DirectoryJobQueue(root)
        assert again.results() == {"persist": {"bpp": 1.0}}
        assert again.stats().done == 1

    def test_concurrent_claim_single_winner(self, tmp_path):
        queue = DirectoryJobQueue(tmp_path / "q")
        queue.submit({"x": 1}, job_id="contested")
        a = queue.claim("w1", lease_seconds=30.0)
        b = queue.claim("w2", lease_seconds=30.0)
        assert (a is None) != (b is None)  # exactly one winner

    def test_junk_file_in_claimed_is_skipped_with_warning(
        self, tmp_path, caplog
    ):
        """A malformed filename in claimed/ (crashed writer, stray
        editor file) must not crash claim/reap scans — skip + warn,
        and real jobs keep flowing."""
        import logging

        queue = DirectoryJobQueue(tmp_path / "q")
        queue.submit({"x": 1}, job_id="good")
        job = queue.claim("w1", lease_seconds=0.01)
        assert job is not None
        # plant junk alongside the legitimate lease
        claimed_dir = tmp_path / "q" / "claimed"
        (claimed_dir / "not-a-lease.json").write_text("{}")
        (claimed_dir / "good.abc.def.json").write_text("{}")
        time.sleep(0.03)
        with caplog.at_level(logging.WARNING, "repro.pipeline.dist.queues"):
            assert queue.reap_expired() == ["good"]  # junk skipped
            rejob = queue.claim("w2", lease_seconds=30.0)
        assert rejob.job_id == "good" and rejob.attempts == 1
        assert any("malformed" in r.message for r in caplog.records)
        # one-time warning: a second scan stays quiet
        count = len(caplog.records)
        queue.reap_expired()
        assert len(caplog.records) == count
        queue.ack("good", {"ok": True}, worker_id="w2")
        assert queue.results() == {"good": {"ok": True}}

    def test_junk_file_in_pending_is_skipped_with_warning(
        self, tmp_path, caplog
    ):
        import logging

        queue = DirectoryJobQueue(tmp_path / "q")
        (tmp_path / "q" / "pending" / "nonsense.json").write_text("{}")
        queue.submit({"x": 1}, job_id="real")
        with caplog.at_level(logging.WARNING, "repro.pipeline.dist.queues"):
            job = queue.claim("w1", lease_seconds=30.0)
        assert job is not None and job.job_id == "real"
        assert any("malformed" in r.message for r in caplog.records)

    def test_late_ack_after_expiry_still_lands(self, tmp_path):
        # Straggler semantics: the job re-runs elsewhere, but the slow
        # worker's eventual ack must not be lost or crash.
        queue = DirectoryJobQueue(tmp_path / "q", max_attempts=3)
        queue.submit({"x": 1}, job_id="slow")
        job = queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.03)
        queue.reap_expired()
        job2 = queue.claim("w2", lease_seconds=30.0)
        queue.ack(job2.job_id, {"from": "w2"})
        queue.ack(job.job_id, {"from": "w1"})  # straggler returns
        assert queue.stats().done == 1


class TestHeartbeat:
    def test_worker_emits_structured_heartbeats(self):
        queue = MemoryJobQueue(max_attempts=2)
        queue.submit({"x": 1}, job_id="00000-ok")
        queue.submit({"x": 2}, job_id="00001-boom")
        beats = []

        def execute(job):
            if "boom" in job.job_id:
                raise RuntimeError("injected")
            return {"ok": True}

        completed = run_worker(
            queue, "hb-worker", lease_seconds=30.0, execute=execute,
            on_heartbeat=beats.append,
        )
        assert completed == 1
        # startup beat + one per outcome (1 ack + max_attempts fails)
        assert len(beats) == 4
        first, last = beats[0], beats[-1]
        assert first.worker_id == "hb-worker"
        assert (first.completed, first.failed, first.last_job_id) == (0, 0, None)
        assert last.worker_id == "hb-worker"
        assert last.completed == 1 and last.failed == 2
        assert last.last_job_id == "00001-boom"
        doc = last.to_dict()
        assert {
            "worker_id": "hb-worker", "completed": 1, "failed": 2,
            "last_job_id": "00001-boom",
        }.items() <= doc.items()
        # observability rides the same beat: a build stamp and a
        # metrics snapshot; the span tail only when tracing is on
        import repro

        assert doc["version"] == repro.__version__
        counters = doc["metrics"]["counters"]
        assert "repro_jobs_completed_total" in counters
        assert "repro_jobs_failed_total" in counters
        assert "spans" not in doc  # tracing off: optionals are omitted

    def test_unused_optionals_stay_off_the_wire(self):
        from repro.pipeline.dist.worker import Heartbeat

        doc = Heartbeat(
            worker_id="w", completed=0, failed=0, last_job_id=None
        ).to_dict()
        assert doc == {
            "worker_id": "w", "completed": 0, "failed": 0,
            "last_job_id": None,
        }

    def test_default_is_no_heartbeat_callback(self):
        queue = MemoryJobQueue()
        queue.submit({"x": 1}, job_id="quiet")
        completed = run_worker(
            queue, "w", lease_seconds=30.0,
            execute=lambda job: {"ok": True},
        )
        assert completed == 1


class TestProgressCallback:
    """``QueueRunner.run(progress)``: the callback fires with live
    queue stats while the sweep runs, never after it returns."""

    GRID_SMALL = dict(
        codecs=["classical"],
        codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
        scenes=[SCENE],
    )

    def test_serial_run_reports_final_stats(self):
        calls = []
        result = SweepRunner(workers=0, **self.GRID_SMALL).run(calls.append)
        assert result.ok
        assert calls, "progress never fired"
        last = calls[-1]
        assert (last.pending, last.claimed) == (0, 0)
        assert last.done == 2 and last.failed == 0

    def test_done_count_is_monotone_and_totals_conserve(self):
        calls = []
        runner = SweepRunner(workers=2, **self.GRID_SMALL)
        result = runner.run(calls.append, poll_seconds=0.01)
        assert result.ok
        done = [stats.done for stats in calls]
        assert done == sorted(done), "done count went backwards"
        total = len(runner.job_ids)
        for stats in calls:
            assert stats.pending + stats.claimed + stats.done + stats.failed \
                == total
        assert done[-1] == total

    def test_not_called_after_run_returns(self):
        calls = []
        SweepRunner(workers=2, **self.GRID_SMALL).run(
            calls.append, poll_seconds=0.01
        )
        seen = len(calls)
        time.sleep(0.2)  # any straggler worker/poll thread would land here
        assert len(calls) == seen

    def test_progress_failures_reflect_dead_letters(self):
        queue = MemoryJobQueue(max_attempts=1)
        queue.submit(_spec(8.0), job_id="00000-ok")
        queue.submit({"kind": "encode", "broken": True}, job_id="00001-bad")
        calls = []
        run_worker(queue, "w", lease_seconds=30.0)
        # drive the runner loop over the pre-loaded queue
        runner = SweepRunner(workers=0, queue=queue, **self.GRID_SMALL)
        runner.job_ids = ["00000-ok", "00001-bad"]
        runner.specs = [_spec(8.0), {"kind": "encode", "broken": True}]
        runner.run(calls.append)
        assert calls[-1].failed == 1 and calls[-1].done >= 1


class TestWorkerDeath:
    def test_killed_worker_lease_expires_and_job_reruns(self, tmp_path):
        """Kill a worker mid-job; the job must still complete correctly."""
        root = str(tmp_path / "q")
        queue = DirectoryJobQueue(root, max_attempts=3)
        for index, qp in enumerate((8.0, 16.0)):
            spec = _spec(qp)
            queue.submit(spec, job_id=job_id_for_spec(index, spec))

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        victim = context.Process(target=_claim_and_die, args=(root, 0.2))
        victim.start()
        victim.join(timeout=30)
        assert victim.exitcode == 1
        assert queue.stats().claimed == 1  # the orphaned lease

        deadline = time.time() + 10
        while not queue.reap_expired():
            assert time.time() < deadline, "lease never expired"
            time.sleep(0.02)
        stats = queue.stats()
        assert (stats.pending, stats.claimed) == (2, 0)

        completed = run_worker(queue, "survivor", lease_seconds=60.0)
        assert completed == 2
        results = queue.results()
        assert len(results) == 2
        # the re-run job's report equals a clean serial run (jobs are
        # pure functions of their spec, so the retry changes nothing)
        serial = {r.codec_config["qp"]: r for r in run_many(
            [Pipeline("classical", {"qp": qp}, scene=SCENE)
             for qp in (8.0, 16.0)]
        )}
        for result in results.values():
            # acked results carry their own CRC32; verify and strip it
            result, checksum_ok = verify_result_checksum(result)
            assert checksum_ok
            expected = serial[result["codec_config"]["qp"]].to_dict()
            for volatile in ("encode_seconds", "decode_seconds"):
                result.pop(volatile), expected.pop(volatile)
            assert result == expected

    def test_serial_run_recovers_stale_claimed_job(self, tmp_path):
        # Regression: a sweep killed mid-job leaves a file in claimed/;
        # a workers=0 re-run must reap that lease itself, not hang.
        root = str(tmp_path / "q")
        queue = DirectoryJobQueue(root, max_attempts=3)
        spec = _spec(8.0)
        queue.submit(spec, job_id=job_id_for_spec(0, spec))
        assert queue.claim("dead-run", lease_seconds=0.05) is not None
        time.sleep(0.08)  # lease orphaned and expired

        runner = SweepRunner([spec], queue_dir=root, workers=0)
        result = runner.run()
        assert result.ok and len(result.reports) == 1

    def test_sweep_runner_survives_induced_death(self, tmp_path):
        """Full-stack: SweepRunner completes a grid despite a worker
        that claims a job and dies before acking."""
        root = str(tmp_path / "q")
        runner = SweepRunner(
            codecs=["classical"],
            codec_configs=[{"qp": 8.0}, {"qp": 16.0}, {"qp": 32.0}],
            scenes=[SCENE],
            queue_dir=root,
            workers=2,
            lease_seconds=0.3,
        )
        runner.submit()
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        victim = context.Process(target=_claim_and_die, args=(root, 0.3))
        victim.start()
        victim.join(timeout=30)
        assert victim.exitcode == 1

        result = runner.run()
        assert result.ok, result.failures
        assert len(result.reports) == 3
        assert [r.codec_config["qp"] for r in result.reports] == [
            8.0, 16.0, 32.0,
        ]


class TestBundledWorker:
    def test_bundled_worker_completes_everything_in_order(self):
        queue = MemoryJobQueue()
        for index in range(5):
            queue.submit({"x": index}, job_id=f"{index:05d}-j")
        seen = []

        def execute(job):
            seen.append(job.spec["x"])
            return {"ok": True}

        completed = run_worker(
            queue, "w", lease_seconds=30.0, bundle=2, execute=execute
        )
        assert completed == 5
        assert seen == [0, 1, 2, 3, 4]
        assert queue.stats().done == 5

    def test_bundle_claim_is_capped_by_max_jobs(self):
        queue = MemoryJobQueue()
        for index in range(5):
            queue.submit({"x": index}, job_id=f"{index:05d}-j")
        completed = run_worker(
            queue, "w", lease_seconds=30.0, bundle=4, max_jobs=2,
            execute=lambda job: {"ok": True},
        )
        assert completed == 2
        # the worker never over-claimed: the rest are still pending,
        # not stranded under its lease
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (3, 0, 2)

    def test_failures_inside_a_bundle_do_not_sink_its_siblings(self):
        queue = MemoryJobQueue(max_attempts=1)
        queue.submit({"boom": False}, job_id="00000-fine")
        queue.submit({"boom": True}, job_id="00001-bad")
        queue.submit({"boom": False}, job_id="00002-fine")

        def execute(job):
            if job.spec["boom"]:
                raise RuntimeError("injected")
            return {"ok": True}

        completed = run_worker(
            queue, "w", lease_seconds=30.0, bundle=3, execute=execute
        )
        assert completed == 2
        assert set(queue.results()) == {"00000-fine", "00002-fine"}
        assert "injected" in queue.failures()["00001-bad"]


class TestSharedFrameHygiene:
    GRID = dict(
        codecs=["classical"],
        codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
        scenes=[SCENE],
    )

    def _timeless(self, report):
        doc = report.to_dict()
        for volatile in ("encode_seconds", "decode_seconds"):
            doc.pop(volatile)
        return doc

    def test_sweep_unlinks_every_segment_after_drain(self, tmp_path):
        assert active_segments() == []
        runner = SweepRunner(
            **self.GRID, queue_dir=tmp_path / "q", workers=2,
            bundle=2, share_frames=True,
        )
        result = runner.run(poll_seconds=0.02)
        assert result.ok, result.failures
        assert active_segments() == []

    def test_segments_reclaimed_even_when_a_worker_is_killed(self, tmp_path):
        root = str(tmp_path / "q")
        runner = SweepRunner(
            **self.GRID, queue_dir=root, workers=2,
            lease_seconds=0.3, share_frames=True,
        )
        runner.submit()
        assert runner._shm_names  # frames actually went out via shm
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        victim = context.Process(target=_claim_and_die, args=(root, 0.3))
        victim.start()
        victim.join(timeout=30)
        assert victim.exitcode == 1
        result = runner.run(poll_seconds=0.02)
        assert result.ok, result.failures
        assert active_segments() == []

    def test_stale_segments_fall_back_to_identical_results(self, tmp_path):
        """Workers that cannot attach (the segments are gone — a
        resumed run, or an HTTP worker on another host) re-synthesize
        frames and produce byte-identical reports."""
        serial = SweepRunner(**self.GRID, workers=0).run()
        runner = SweepRunner(
            **self.GRID, queue_dir=tmp_path / "q", workers=2,
            share_frames=True,
        )
        runner.submit()
        # yank every segment before any worker starts: all the queued
        # descriptors are now stale
        assert runner.release_shared_frames() > 0
        result = runner.run(poll_seconds=0.02)
        assert result.ok, result.failures
        assert [self._timeless(r) for r in result.reports] == [
            self._timeless(r) for r in serial.reports
        ]
        assert active_segments() == []

    def test_http_workers_fall_back_to_identical_results(self):
        from repro.pipeline.dist import HttpJobQueue, QueueServer

        serial = SweepRunner(**self.GRID, workers=0).run()
        with QueueServer(MemoryJobQueue()) as server:
            runner = SweepRunner(
                **self.GRID, queue=HttpJobQueue(server.url), workers=2,
                lease_seconds=60.0, share_frames=True,
            )
            runner.submit()
            assert runner.release_shared_frames() > 0  # all stale now
            result = runner.run(poll_seconds=0.02)
        assert result.ok, result.failures
        assert [self._timeless(r) for r in result.reports] == [
            self._timeless(r) for r in serial.reports
        ]
        assert active_segments() == []


class TestAggregationParity:
    def test_out_of_order_results_match_serial_curves(self):
        serial_reports = run_many(**GRID)
        serial_curves = curves_from_reports(serial_reports)

        runner = SweepRunner(**GRID, workers=3, anchor="classical")
        result = runner.run()
        assert result.ok, result.failures

        # Byte-identical aggregation regardless of completion order.
        def canon(curves):
            return json.dumps(
                [{"codec": c, "scene": s, **curve.to_dict()}
                 for (c, s), curve in sorted(curves.items())],
                sort_keys=True,
            )

        assert canon(result.curves) == canon(serial_curves)
        assert result.bd_rate == bd_rate_table(serial_curves, "classical")

    def test_run_many_queue_backend_matches_inline(self):
        inline = run_many(**GRID)
        queued = run_many(**GRID, backend="queue", workers=2)
        assert len(queued) == len(inline) == 4
        for a, b in zip(inline, queued):
            a_dict, b_dict = a.to_dict(), b.to_dict()
            for key in ("encode_seconds", "decode_seconds"):
                a_dict.pop(key), b_dict.pop(key)
            assert a_dict == b_dict

    def test_directory_queue_backend_matches_inline(self, tmp_path):
        inline = run_many(codecs=["classical"],
                          codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
                          scenes=[SCENE])
        queued = run_many(codecs=["classical"],
                          codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
                          scenes=[SCENE],
                          backend="queue", workers=2,
                          queue_dir=str(tmp_path / "q"))
        for a, b in zip(inline, queued):
            a_dict, b_dict = a.to_dict(), b.to_dict()
            for key in ("encode_seconds", "decode_seconds"):
                a_dict.pop(key), b_dict.pop(key)
            assert a_dict == b_dict


class TestResume:
    def test_second_run_reuses_done_results(self, tmp_path):
        root = str(tmp_path / "q")
        kwargs = dict(
            codecs=["classical"],
            codec_configs=[{"qp": 8.0}, {"qp": 16.0}],
            scenes=[SCENE],
            queue_dir=root,
            workers=0,
        )
        first = SweepRunner(**kwargs)
        result1 = first.run()
        assert result1.ok

        resumed = SweepRunner(**kwargs)
        resumed.submit()
        # identical grid -> identical content-derived ids -> nothing new
        assert resumed.queue.stats().pending == 0
        result2 = resumed.run()
        assert json.dumps(
            [c.to_dict() for _, c in sorted(result2.curves.items())],
            sort_keys=True,
        ) == json.dumps(
            [c.to_dict() for _, c in sorted(result1.curves.items())],
            sort_keys=True,
        )

    def test_job_ids_are_deterministic_and_ordered(self):
        spec_a, spec_b = _spec(8.0), _spec(16.0)
        assert job_id_for_spec(0, spec_a) == job_id_for_spec(0, spec_a)
        assert job_id_for_spec(0, spec_a) != job_id_for_spec(0, spec_b)
        assert job_id_for_spec(0, spec_a) < job_id_for_spec(1, spec_a)


class TestFailureTolerance:
    def test_broken_codec_dead_letters_without_sinking_sweep(self):
        class _BoomCodec:
            config = ClassicalCodecConfig()

            def __init__(self, config):
                self.config = config

            def encode_sequence(self, frames):
                raise RuntimeError("injected encode failure")

            def decode_sequence(self, stream):
                raise RuntimeError("injected decode failure")

            def open_encoder(self):
                raise RuntimeError("injected session failure")

            def open_decoder(self, header=None, version=2):
                raise RuntimeError("injected session failure")

        register_codec("boom", _BoomCodec, ClassicalCodecConfig,
                       "always fails", overwrite=True)
        try:
            runner = SweepRunner(
                codecs=["classical", "boom"],
                codec_configs=[{"qp": 8.0}],
                scenes=[SCENE],
                workers=2,
                max_attempts=2,
            )
            result = runner.run()
        finally:
            unregister_codec("boom")
        assert not result.ok
        assert len(result.reports) == 1  # classical still aggregated
        assert result.reports[0].codec == "classical"
        assert len(result.failures) == 1
        assert "injected encode failure" in next(iter(result.failures.values()))

    def test_run_many_queue_backend_raises_on_failures(self):
        # spec validates fine; execution fails — run_many's contract is
        # all-or-error, so the queue backend must raise, not truncate
        class _Boom:
            config = ClassicalCodecConfig()

            def __init__(self, config):
                self.config = config

            def encode_sequence(self, frames):
                raise RuntimeError("nope")

            def decode_sequence(self, stream):
                raise RuntimeError("nope")

            def open_encoder(self):
                raise RuntimeError("nope")

            def open_decoder(self, header=None, version=2):
                raise RuntimeError("nope")

        register_codec("boom2", _Boom, ClassicalCodecConfig, overwrite=True)
        try:
            with pytest.raises(RuntimeError, match="failed after retries"):
                run_many(
                    codecs=["boom2"], scenes=[SCENE],
                    backend="queue", workers=1, max_attempts=2,
                )
        finally:
            unregister_codec("boom2")


class TestGridValidation:
    def test_unknown_codec_fails_before_any_execution(self):
        with pytest.raises(ValueError, match="unknown codec name"):
            run_many(codecs=["nosuch", "classical"], scenes=[SCENE])

    def test_unknown_codec_fails_before_queue_submit(self, tmp_path):
        with pytest.raises(ValueError, match="unknown codec name"):
            run_many(
                codecs=["nosuch"], scenes=[SCENE],
                backend="queue", queue_dir=str(tmp_path / "q"),
            )
        assert not (tmp_path / "q").exists()  # nothing was even created

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown run_many backend"):
            run_many(codecs=["classical"], scenes=[SCENE], backend="carrier-pigeon")
