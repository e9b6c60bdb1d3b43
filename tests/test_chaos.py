"""Chaos engineering for the distributed layer: seeded fault plans
(dropped/duplicated acks, stolen leases, wire faults, scheduled worker
crashes, a poison job) against the invariant that matters — faults on,
**byte-identical curves out** — plus the runner-side defenses: the
poison-job circuit breaker, result-checksum verification, the per-job
watchdog, and the dead-letter replay workflow."""

import json
import time

import pytest

from repro.pipeline import Pipeline
from repro.pipeline.dist import (
    ChaosPlan,
    ChaosQueue,
    ChaosTransport,
    CrashPlan,
    DirectoryJobQueue,
    HttpJobQueue,
    HttpQueueError,
    InjectedCrash,
    JobQueue,
    MemoryJobQueue,
    QueueServer,
    SweepRunner,
    attach_result_checksum,
    poison_spec,
    register_poison_task,
    run_worker,
    verify_result_checksum,
)
from repro.obs.metrics import get_registry

SCENE = {"height": 32, "width": 48, "frames": 2}


@pytest.fixture(autouse=True)
def _forget_poison_task():
    """Keep the chaos-only task kind out of the global registry."""
    from repro.pipeline import unregister_task
    from repro.pipeline.dist.chaos import POISON_KIND

    yield
    unregister_task(POISON_KIND)


def _specs(qps=(8.0, 16.0, 24.0)):
    return [
        Pipeline("classical", {"qp": qp}, scene=SCENE).to_dict() for qp in qps
    ]


def _curve_bytes(result) -> str:
    """The parity anchor: curves + BD-rate as canonical JSON (reports
    carry wall-clock timings and are excluded on purpose)."""
    doc = result.to_dict()
    return json.dumps(
        {"curves": doc["curves"], "bd_rate": doc["bd_rate"]}, sort_keys=True
    )


@pytest.fixture(scope="module")
def serial_curves():
    """One clean serial run; every chaos run must reproduce it byte
    for byte."""
    result = SweepRunner(_specs(), workers=0, anchor="classical").run()
    assert not result.failures
    return _curve_bytes(result)


class TestChaosPlan:
    def test_budgets_are_exact_with_greedy_probability(self):
        plan = ChaosPlan(seed=1, ack_drops=2, probability=1.0)
        fired = [plan.take("ack-drop", "ack", f"job-{i}") for i in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.report() == {
            "fired": {"ack-drop": 2},
            "remaining": {
                "ack-drop": 0, "ack-dup": 0, "submit-dup": 0,
                "lease-theft": 0, "claim-delay": 0,
            },
            "total": 2,
        }

    def test_per_job_fault_cap(self):
        plan = ChaosPlan(
            seed=1, ack_drops=5, ack_dups=5, probability=1.0,
            max_faults_per_job=1,
        )
        assert plan.take("ack-drop", "ack", "victim")
        # same job: capped, even with budget left
        assert not plan.take("ack-dup", "ack", "victim")
        # different job: fine
        assert plan.take("ack-dup", "ack", "other")

    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plan = ChaosPlan(seed=seed, ack_drops=3, probability=0.5)
            return [
                plan.take("ack-drop", "ack", f"j{i}") for i in range(20)
            ]

        assert decisions(42) == decisions(42)
        assert decisions(42) != decisions(43)  # and the seed matters

    def test_lease_theft_is_one_event_charged_to_its_victim(self):
        inner = MemoryJobQueue()
        inner.submit({"n": 0}, job_id="a")
        inner.submit({"n": 1}, job_id="b")
        plan = ChaosPlan(
            lease_thefts=1, ack_drops=1, probability=1.0,
            max_faults_per_job=1,
        )
        queue = ChaosQueue(inner, plan)
        claimed = queue.claim("w", lease_seconds=30.0)
        assert claimed is not None
        assert plan.report()["fired"] == {"lease-theft": 1}
        [event] = plan.events
        victim = event["job_id"]
        assert victim is not None and victim != claimed.job_id
        # the victim has used its one fault; the other job has not
        assert not plan.take("ack-drop", "ack", victim)
        assert plan.take("ack-drop", "ack", claimed.job_id)

    def test_chaos_queue_passes_the_protocol_check(self):
        queue = ChaosQueue(MemoryJobQueue(), ChaosPlan())
        assert isinstance(queue, JobQueue)


class TestChaosParity:
    """The tentpole invariant: a sweep under seeded queue faults, wire
    faults, and scheduled worker crashes aggregates byte-identically
    to the clean serial run, over both queue backends."""

    def _chaos_run(self, queue, serial_curves, *, lease=1.5):
        plan = ChaosPlan(
            seed=7,
            ack_drops=1,
            ack_dups=1,
            submit_dups=2,
            lease_thefts=1,
            claim_delays=2,
            probability=1.0,
            theft_lease_seconds=0.05,
        )
        crash = CrashPlan(before_ack=(1,), mid_encode=(2,))
        runner = SweepRunner(
            _specs(),
            queue=ChaosQueue(queue, plan),
            workers=3,
            lease_seconds=lease,
            max_attempts=8,
            anchor="classical",
            checkpoint=crash.checkpoint,
        )
        result = runner.run(poll_seconds=0.02)
        assert not result.failures
        assert len(result.reports) == len(runner.specs)
        assert _curve_bytes(result) == serial_curves
        # the chaos actually happened: faults fired, both crash points hit
        report = plan.report()
        assert report["total"] >= 4
        assert {c["stage"] for c in crash.crashes} == {
            "before-ack", "mid-encode"
        }
        return report

    def test_directory_queue_under_chaos_matches_serial(
        self, tmp_path, serial_curves
    ):
        report = self._chaos_run(
            DirectoryJobQueue(tmp_path / "q", max_attempts=8), serial_curves
        )
        assert report["fired"].get("ack-drop") == 1

    def test_http_queue_under_chaos_matches_serial(self, serial_curves):
        transport = ChaosTransport(
            seed=11,
            drops=1,
            lost_responses=1,
            garbles=1,
            delays=1,
            probability=1.0,
        )
        with QueueServer(MemoryJobQueue(max_attempts=8)) as server:
            client = HttpJobQueue(server.url, transport_hook=transport)
            self._chaos_run(client, serial_curves)
        # wire faults fired too (drop/delay at minimum; lose-response
        # and garble depend on which verbs the workers reached first)
        assert transport.report()["total"] >= 2


class TestMidBundleCrash:
    """A worker that dies after acking job k of an N-job bundle strands
    only the unacked remainder under the bundle's shared lease; the
    fleet reaps and re-runs it with no duplicates, no losses, and
    byte-identical curves — over both durable queue backends."""

    def _bundled_crash_run(self, queue, serial_curves):
        crash = CrashPlan(mid_bundle=(0,))
        # the empty-plan ChaosQueue drains in the runner's process,
        # which is what lets the crash checkpoint reach the worker —
        # same trick the chaos parity suite uses
        runner = SweepRunner(
            _specs(),
            queue=ChaosQueue(queue, ChaosPlan()),
            workers=2,
            lease_seconds=1.0,
            max_attempts=8,
            bundle=3,
            anchor="classical",
            checkpoint=crash.checkpoint,
        )
        result = runner.run(poll_seconds=0.02)
        assert not result.failures
        assert len(result.reports) == len(runner.specs)  # nothing lost
        assert _curve_bytes(result) == serial_curves
        # the crash really happened, mid-bundle, exactly once
        assert [c["stage"] for c in crash.crashes] == ["mid-bundle"]
        # and nothing was duplicated: one terminal result per job id
        assert set(queue.results()) == set(runner.job_ids)

    def test_directory_queue_recovers_mid_bundle_crash(
        self, tmp_path, serial_curves
    ):
        self._bundled_crash_run(
            DirectoryJobQueue(tmp_path / "q", max_attempts=8), serial_curves
        )

    def test_http_queue_recovers_mid_bundle_crash(self, serial_curves):
        with QueueServer(MemoryJobQueue(max_attempts=8)) as server:
            self._bundled_crash_run(HttpJobQueue(server.url), serial_curves)


class TestInProcessDrain:
    """A crashed in-process worker is replaced from the runner's
    respawn budget at any ``workers`` count, ``workers=0`` included."""

    def test_crash_at_workers_zero_is_survived(self, serial_curves):
        respawns = get_registry().counter("repro_runner_respawns_total")
        before = respawns.value()
        crash = CrashPlan(before_ack=(1,))
        runner = SweepRunner(
            _specs(),
            workers=0,
            lease_seconds=0.3,
            anchor="classical",
            checkpoint=crash.checkpoint,
        )
        result = runner.run(poll_seconds=0.02)
        assert [c["stage"] for c in crash.crashes] == ["before-ack"]
        assert not result.failures
        assert _curve_bytes(result) == serial_curves
        assert result.workers == 0
        assert respawns.value() == before + 1


class TestCrashPlan:
    def test_mid_bundle_crash_fires_between_bundle_jobs(self):
        crash = CrashPlan(mid_bundle=(0,))
        queue = MemoryJobQueue()
        for index in range(3):
            queue.submit({"x": index}, job_id=f"job-{index}")
        with pytest.raises(InjectedCrash):
            run_worker(
                queue, "w1", lease_seconds=30.0, bundle=3,
                checkpoint=crash.checkpoint,
                execute=lambda job: {"ok": True},
            )
        # the crash fired after job 0's ack, with jobs 1 and 2 still
        # claimed under the bundle's shared lease
        assert crash.crashes == [
            {"stage": "mid-bundle", "occurrence": 0, "job_id": "job-0"}
        ]
        stats = queue.stats()
        assert (stats.done, stats.claimed, stats.pending) == (1, 2, 0)

    def test_mid_bundle_never_fires_for_per_job_claims(self):
        # bundle=1 has no "between bundle jobs" moment; the stage must
        # not fire no matter how many jobs the worker runs
        crash = CrashPlan(mid_bundle=(0,))
        queue = MemoryJobQueue()
        for index in range(3):
            queue.submit({"x": index}, job_id=f"job-{index}")
        completed = run_worker(
            queue, "w1", lease_seconds=30.0, bundle=1,
            checkpoint=crash.checkpoint,
            execute=lambda job: {"ok": True},
        )
        assert completed == 3
        assert crash.crashes == []

    def test_scheduled_crash_fires_once_and_records(self):
        crash = CrashPlan(before_ack=(0,))
        queue = MemoryJobQueue()
        queue.submit({"x": 1}, job_id="job-a")
        with pytest.raises(InjectedCrash):
            run_worker(
                queue, "w1", lease_seconds=30.0, checkpoint=crash.checkpoint,
                execute=lambda job: {"ok": True},
            )
        assert crash.crashes == [
            {"stage": "before-ack", "occurrence": 0, "job_id": "job-a"}
        ]
        # the job died unacked: claimed, lease still held
        assert queue.stats().claimed == 1
        # a successor sails past the spent crash point and finishes
        queue.reap_expired()
        time.sleep(0)  # (lease held: reap is a no-op; requeue it directly)
        queue.fail("job-a", "worker crashed", worker_id="w1")
        completed = run_worker(
            queue, "w2", lease_seconds=30.0, checkpoint=crash.checkpoint,
            execute=lambda job: {"ok": True},
        )
        assert completed == 1


class TestPoisonBreaker:
    def test_poison_job_is_quarantined_and_real_work_survives(self):
        register_poison_task()
        specs = _specs((8.0, 16.0)) + [poison_spec("breaker")]
        queue = MemoryJobQueue(max_attempts=50)  # exhaustion can't save us
        runner = SweepRunner(
            specs,
            queue=queue,
            workers=2,
            lease_seconds=0.2,
            poison_threshold=2,
            anchor=None,
        )
        result = runner.run(poll_seconds=0.02)
        poison_id = runner.job_ids[-1]
        assert runner.quarantined == [poison_id]
        assert len(result.reports) == 2  # the real jobs completed
        assert "poison job" in result.failures[poison_id]
        details = queue.failure_details()
        assert details[poison_id]["quarantined"] is True
        assert details[poison_id]["spec"]["kind"] == "chaos-poison"

    def test_attempt_exhausted_dead_letter_upgrades_to_quarantined(self):
        # Workers can win the reap race, dead-lettering the poison job
        # as a plain lease-expiry failure before the runner's counter
        # reaches its threshold; the breaker must still tag it.
        register_poison_task()
        queue = MemoryJobQueue(max_attempts=2)
        runner = SweepRunner(
            [poison_spec("upgrade")],
            queue=queue,
            workers=1,
            lease_seconds=0.15,
            poison_threshold=99,  # proactive path disarmed on purpose
            anchor=None,
        )
        result = runner.run(poll_seconds=0.02)
        poison_id = runner.job_ids[0]
        assert queue.failure_details()[poison_id]["quarantined"] is True
        assert "poison job" in result.failures[poison_id]

    def test_dead_letter_replay_round_trip(self, tmp_path):
        # quarantine -> repro failures would list it -> retry -> re-runs
        register_poison_task()
        queue = DirectoryJobQueue(tmp_path / "q", max_attempts=50)
        runner = SweepRunner(
            _specs((8.0,)) + [poison_spec("replay")],
            queue=queue,
            workers=2,
            lease_seconds=0.2,
            poison_threshold=2,
            anchor=None,
        )
        runner.run(poll_seconds=0.02)
        poison_id = runner.job_ids[-1]
        record = queue.failure_details()[poison_id]
        assert record["quarantined"] is True
        # the spec rides in the dead-letter record: replay needs no
        # other source of truth
        assert queue.retry(poison_id)
        assert queue.stats().pending == 1
        job = queue.claim("inspector", lease_seconds=30.0)
        assert job.job_id == poison_id and job.attempts == 0
        assert job.spec == poison_spec("replay")


class TestWatchdog:
    def test_hung_job_fails_with_timeout_and_worker_moves_on(self):
        queue = MemoryJobQueue()
        queue.submit({"hang": True}, job_id="00000-hung")
        queue.submit({"hang": False}, job_id="00001-fine")

        def execute(job):
            if job.spec["hang"]:
                time.sleep(30.0)
            return {"ok": True}

        completed = run_worker(
            queue, "w", lease_seconds=60.0, job_timeout_seconds=0.1,
            execute=execute,
        )
        assert completed == 1
        failures = queue.failures()
        assert "JobTimeoutError" in failures["00000-hung"]
        assert "00001-fine" not in failures


class TestResultChecksums:
    def test_attach_verify_round_trip(self):
        doc = {"bpp": 1.5, "psnr": [30.0, 31.0]}
        signed = attach_result_checksum(doc)
        payload, ok = verify_result_checksum(signed)
        assert ok and payload == doc
        # no checksum: trivially fine (pre-integrity workers)
        payload, ok = verify_result_checksum(doc)
        assert ok and payload == doc
        # tampered payload: caught
        tampered = dict(signed, bpp=9.9)
        _, ok = verify_result_checksum(tampered)
        assert not ok

    def test_corrupted_result_is_kept_out_of_aggregation(self):
        spec = _specs((8.0,))[0]
        queue = MemoryJobQueue()
        runner = SweepRunner([spec], queue=queue, workers=0, anchor=None)
        runner.submit()
        job_id = runner.job_ids[0]
        # a result corrupted after ack: right shape, wrong checksum
        job = queue.claim("saboteur", lease_seconds=30.0)
        assert job.job_id == job_id
        queue.ack(job_id, {"bpp": 1.0, "_crc32": 1}, worker_id="saboteur")
        result = runner.run(poll_seconds=0.02)
        assert result.reports == []
        assert "checksum mismatch" in result.failures[job_id]


class TestGarbledResponses:
    def test_garbled_claim_body_raises_typed_error(self):
        # An empty claim answers {"job": null}; garbled the way
        # ChaosTransport does it, the body is not even UTF-8.
        transport = ChaosTransport(
            garbles=1, probability=1.0, fault_paths=("/claim",)
        )
        with QueueServer(MemoryJobQueue()) as server:
            client = HttpJobQueue(server.url, transport_hook=transport)
            with pytest.raises(HttpQueueError, match="malformed"):
                client.claim("w", lease_seconds=30.0)
            client.close()
        assert transport.report()["fired"] == {"garble": 1}


class TestSubmitIdempotencyUnderRetry:
    def test_lost_response_retry_does_not_double_submit(self):
        # The dangerous half of a retry: the first /submit *executed*
        # server-side, only its response died.  The client's retry must
        # land on an idempotent endpoint.
        transport = ChaosTransport(
            seed=3,
            lost_responses=1,
            probability=1.0,
            fault_paths=("/submit",),
        )
        with QueueServer(MemoryJobQueue()) as server:
            client = HttpJobQueue(server.url, transport_hook=transport)
            client.submit({"x": 1}, job_id="once")
            assert client.stats().pending == 1  # not 2
            assert transport.report()["fired"] == {"lose-response": 1}
            # and the winning spec is the first one
            job = client.claim("w", lease_seconds=30.0)
            assert job.spec == {"x": 1}
