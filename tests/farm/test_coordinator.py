"""Coordinator lease semantics under an injected clock.

Every timing-sensitive path — deadline expiry, heartbeat extension,
late completion — runs against a fake monotonic clock, so the tests
are exact, not sleep-and-hope.
"""

import threading
import time

import pytest

from repro.core.faults import FaultConfig
from repro.farm import Coordinator, UnknownLease, UnknownWorker
from repro.farm.coordinator import MAX_ATTEMPTS
from repro.runner import Scenario, expand_grid, run_batch
from repro.service.jobs import Job
from repro.store import ResultStore

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.2),
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "farm.db")) as opened:
        yield opened


@pytest.fixture()
def coordinator(store, clock):
    return Coordinator(store, lease_scenarios=4, lease_timeout=10.0, clock=clock)


def _job(job_id="job-1", seeds=range(10)):
    return Job(job_id, expand_grid(BASE, seeds=seeds))


def _reports_for(scenarios):
    return run_batch(list(scenarios))


class TestLeasing:
    def test_lease_requires_registration(self, coordinator):
        coordinator.add_job(_job())
        with pytest.raises(UnknownWorker):
            coordinator.lease("w-9999")

    def test_chunks_partition_the_job(self, coordinator):
        job = _job(seeds=range(10))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        sizes = []
        keys = []
        while True:
            lease = coordinator.lease(worker)
            if lease is None:
                break
            sizes.append(len(lease["scenarios"]))
            keys.extend(
                Scenario.from_dict(s).cache_key() for s in lease["scenarios"]
            )
        assert sizes == [4, 4, 2]
        assert keys == job.cache_keys  # every scenario exactly once

    def test_max_scenarios_caps_the_chunk(self, coordinator):
        coordinator.add_job(_job())
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker, max_scenarios=2)
        assert len(lease["scenarios"]) == 2

    def test_idle_queue_leases_none(self, coordinator):
        worker = coordinator.register("a")["worker"]
        assert coordinator.lease(worker) is None
        assert coordinator.idle()

    def test_store_cached_scenarios_complete_at_submit(self, coordinator, store):
        job = _job(seeds=range(4))
        store.put_many(_reports_for(job.scenarios))
        coordinator.add_job(job)
        assert job.status == "done"
        assert job.completed == job.total
        worker = coordinator.register("a")["worker"]
        assert coordinator.lease(worker) is None


class TestFairness:
    def test_jobs_take_turns(self, coordinator):
        """A job that gets a lease moves behind the other ready jobs, so
        a one-scenario job behind a long sweep waits for one lease per
        job ahead of it, not for the sweep."""
        sweep = _job("job-1", seeds=range(40))
        coordinator.add_job(sweep)
        worker = coordinator.register("a")["worker"]
        assert coordinator.lease(worker)["job"] == "job-1"
        coordinator.add_job(_job("job-2", seeds=[99]))
        coordinator.add_job(_job("job-3", seeds=[98]))
        order = []
        while (lease := coordinator.lease(worker)) is not None:
            order.append(lease["job"])
        assert order[:4] == ["job-1", "job-2", "job-3", "job-1"]
        assert order.count("job-1") == 9

    def test_requeued_job_rejoins_the_rotation(self, coordinator):
        coordinator.add_job(_job("job-1", seeds=range(4)))
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        assert coordinator.lease(worker) is None
        coordinator.fail(lease["id"], worker, "crash")
        assert coordinator.lease(worker)["job"] == "job-1"


class TestCompletion:
    def test_complete_marks_done_and_stores(self, coordinator, store):
        job = _job(seeds=range(4))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        ack = coordinator.complete(
            lease["id"], worker, _reports_for(scenarios), executed=4
        )
        assert ack == {
            "stored": 4, "completed": 4, "duplicates": 0, "requeued": 0,
            "late": False,
        }
        assert job.completed == 4
        assert job.status == "done"
        assert all(s.cache_key() in store for s in scenarios)

    def test_duplicate_completion_counts_not_inflates(self, coordinator):
        job = _job(seeds=range(4))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        reports = _reports_for(scenarios)
        coordinator.complete(lease["id"], worker, reports)
        # the same bytes again, through a second (fabricated) path
        ack = coordinator.complete("lease-bogus", worker, reports)
        assert ack["completed"] == 0
        assert ack["duplicates"] == 4
        assert ack["late"] is True
        assert job.completed == 4  # never double-counted
        assert coordinator.duplicates == 4

    def test_partial_completion_requeues_the_rest(
        self, coordinator, store, clock
    ):
        """A worker that stops at a scenario boundary pushes a prefix;
        the rest of its lease goes back to the queue front, as after an
        expiry, and no attempt is counted."""
        job = _job(seeds=range(4))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        ack = coordinator.complete(
            lease["id"], worker, _reports_for(scenarios[:1]), executed=1
        )
        assert ack["completed"] == 1
        assert ack["requeued"] == 3
        assert not coordinator.idle()
        # the journal agrees: a restart finds the same three pending
        recovered = Coordinator.recover(store, clock=clock)
        assert recovered.recovered["pending_scenarios"] == 3
        retry = coordinator.lease(worker)
        assert [Scenario.from_dict(s) for s in retry["scenarios"]] == scenarios[1:]
        coordinator.complete(retry["id"], worker, _reports_for(scenarios[1:]))
        assert job.status == "done"
        assert job.completed == 4
        assert coordinator.duplicates == 0

    def test_unknown_worker_cannot_complete(self, coordinator):
        coordinator.add_job(_job())
        with pytest.raises(UnknownWorker):
            coordinator.complete("lease-000001", "w-9999", [])


class TestWakeup:
    def _waiter(self, coordinator):
        woke = threading.Event()

        def wait():
            coordinator.wait_for_work(30.0)
            woke.set()

        threading.Thread(target=wait, daemon=True).start()
        # let it start waiting; one that has not yet returns at once
        # once the work is there, so the checks below still hold
        time.sleep(0.05)
        return woke

    def test_queued_work_wakes_a_waiting_worker(self, coordinator):
        woke = self._waiter(coordinator)
        assert not woke.is_set()
        coordinator.add_job(_job(seeds=range(2)))
        assert woke.wait(5.0)

    def test_requeued_work_wakes_a_waiting_worker(self, coordinator):
        coordinator.add_job(_job(seeds=range(2)))
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        woke = self._waiter(coordinator)
        assert not woke.is_set()
        coordinator.fail(lease["id"], worker, "crash")
        assert woke.wait(5.0)


class TestWaitFinished:
    def test_wakes_when_the_job_finishes(self, coordinator):
        job = _job(seeds=range(2))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        assert not coordinator.wait_finished(job, 0.0)
        finished = threading.Event()

        def wait():
            if coordinator.wait_finished(job, 30.0):
                finished.set()

        threading.Thread(target=wait, daemon=True).start()
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        coordinator.complete(lease["id"], worker, _reports_for(scenarios))
        assert finished.wait(5.0)
        assert job.status == "done"


class TestExpiry:
    def test_expired_lease_requeues_to_front(self, coordinator, clock):
        job = _job(seeds=range(8))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        first = coordinator.lease(worker)
        clock.advance(11.0)  # past the 10s deadline
        again = coordinator.lease(worker)
        assert again["scenarios"] == first["scenarios"]  # same chunk, front
        assert coordinator.leases_expired == 1

    def test_heartbeat_extends_the_deadline(self, coordinator, clock):
        coordinator.add_job(_job())
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        for _ in range(5):
            clock.advance(8.0)
            coordinator.heartbeat(lease["id"], worker)
        clock.advance(8.0)  # 48s of wall time, never 10s unheartbeated
        assert coordinator.heartbeat(lease["id"], worker)["id"] == lease["id"]

    def test_heartbeat_after_expiry_raises_unknown_lease(
        self, coordinator, clock
    ):
        coordinator.add_job(_job())
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        clock.advance(11.0)
        with pytest.raises(UnknownLease):
            coordinator.heartbeat(lease["id"], worker)

    def test_late_completion_is_absorbed(self, coordinator, clock):
        job = _job(seeds=range(4))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        lease = coordinator.lease(worker)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        clock.advance(11.0)
        ack = coordinator.complete(lease["id"], worker, _reports_for(scenarios))
        assert ack["late"] is True
        assert ack["completed"] == 4
        assert job.completed == 4
        # the requeued copies are skipped as already-done on re-lease
        assert coordinator.lease(worker) is None

    def test_expiry_keeps_progress_counters_consistent(
        self, coordinator, clock
    ):
        """A lost lease never moves ``completed``; a finished job's
        counter equals its total no matter how many leases died."""
        job = _job(seeds=range(8))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        lost = coordinator.lease(worker)
        assert lost is not None and job.completed == 0
        clock.advance(11.0)
        while True:
            lease = coordinator.lease(worker)
            if lease is None:
                break
            scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
            coordinator.complete(
                lease["id"], worker, _reports_for(scenarios),
                executed=len(scenarios),
            )
        assert job.completed == job.total == 8
        assert job.status == "done"
        assert coordinator.scenarios_completed == 8
        assert coordinator.duplicates == 0


class TestFailure:
    def test_fail_requeues_then_quarantines(self, coordinator):
        """Scenarios that fail MAX_ATTEMPTS times are quarantined; a job
        with nothing completed at all ends ``failed``."""
        job = _job(seeds=range(2))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        for attempt in range(MAX_ATTEMPTS):
            lease = coordinator.lease(worker)
            assert lease is not None, f"no lease on attempt {attempt}"
            coordinator.fail(lease["id"], worker, "boom")
        assert job.status == "failed"
        assert "quarantined" in job.error
        assert set(job.quarantined) == set(job.cache_keys)
        assert all("boom" in error for error in job.quarantined.values())
        # quarantined scenarios are no longer leased out
        assert coordinator.lease(worker) is None

    def test_poison_scenario_quarantined_job_finishes_partial(
        self, coordinator
    ):
        """One poison scenario no longer sinks the job: the rest
        complete and the job ends ``partial`` with the error mapped."""
        job = _job(seeds=range(2))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        # fail the first scenario alone MAX_ATTEMPTS times
        for _ in range(MAX_ATTEMPTS):
            lease = coordinator.lease(worker, max_scenarios=1)
            assert lease["scenarios"][0]["seed"] == 0
            coordinator.fail(lease["id"], worker, "poison")
        # the survivor completes normally
        lease = coordinator.lease(worker)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        assert [s.seed for s in scenarios] == [1]
        coordinator.complete(lease["id"], worker, _reports_for(scenarios))
        assert job.status == "partial"
        assert job.completed == 1
        assert list(job.quarantined) == [job.cache_keys[0]]
        snapshot = coordinator.snapshot()
        assert snapshot["queue"]["quarantined_scenarios"] == 1
        assert snapshot["quarantined"] == [
            {"job": job.id, "key": job.cache_keys[0], "error": "poison"}
        ]

    def test_late_success_beats_quarantine(self, coordinator):
        """A report landing for a quarantined scenario un-quarantines
        it — the store holds the bytes, so the scenario is simply done."""
        job = _job(seeds=range(1))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        for _ in range(MAX_ATTEMPTS):
            lease = coordinator.lease(worker)
            coordinator.fail(lease["id"], worker, "flaky")
        assert job.status == "failed"
        # job status is terminal, but the scenario record still heals
        coordinator.complete(
            "lease-bogus", worker, _reports_for(job.scenarios)
        )
        assert job.quarantined == {}
        assert job.completed == 1
        assert coordinator.snapshot()["queue"]["quarantined_scenarios"] == 0

    def test_expiry_never_quarantines(self, coordinator, clock):
        """Lost leases requeue without prejudice: only *reported*
        failures count toward MAX_ATTEMPTS."""
        job = _job(seeds=range(2))
        coordinator.add_job(job)
        worker = coordinator.register("a")["worker"]
        for _ in range(MAX_ATTEMPTS + 2):
            lease = coordinator.lease(worker)
            assert lease is not None
            clock.advance(11.0)  # expire it
        assert job.quarantined == {}
        assert job.status == "running"

    def test_fail_unknown_lease_raises(self, coordinator):
        worker = coordinator.register("a")["worker"]
        with pytest.raises(UnknownLease):
            coordinator.fail("lease-000042", worker, "boom")


class TestSnapshot:
    def test_snapshot_counters(self, coordinator, clock):
        job = _job(seeds=range(8))
        coordinator.add_job(job)
        alive = coordinator.register("alive")["worker"]
        dead = coordinator.register("dead")["worker"]
        coordinator.lease(dead)
        clock.advance(11.0)
        lease = coordinator.lease(alive)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        coordinator.complete(
            lease["id"], alive, _reports_for(scenarios), executed=3, cached=1
        )
        snapshot = coordinator.snapshot()
        by_name = {w["name"]: w for w in snapshot["workers"]}
        assert by_name["dead"]["leases_lost"] == 1
        assert by_name["alive"]["leases_completed"] == 1
        assert by_name["alive"]["executed"] == 3
        assert by_name["alive"]["cached"] == 1
        queue = snapshot["queue"]
        assert queue["leases_issued"] == 2
        assert queue["leases_expired"] == 1
        assert queue["scenarios_completed"] == 4
        assert queue["pending_scenarios"] == 4
