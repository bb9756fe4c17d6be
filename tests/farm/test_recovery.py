"""Coordinator crash recovery from the store journal, under fake clocks.

Every test rebuilds a second Coordinator from the same store via
``Coordinator.recover`` — the exact move ``repro serve --recover`` makes
after a crash — with both the monotonic clock and the wall clock
injected, so deadline-resumption arithmetic is tested exactly.
"""

import pytest

from repro.core.faults import FaultConfig
from repro.farm import Coordinator, UnknownWorker
from repro.farm.coordinator import MAX_ATTEMPTS
from repro.runner import Scenario, expand_grid, run_batch
from repro.service.jobs import Job, JobManager
from repro.store import ResultStore

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.2),
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def wall():
    # wall time starts far from monotonic zero, so any accidental
    # mixing of the two clocks shows up as a wild deadline
    return FakeClock(1_000_000.0)


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "farm.db")) as opened:
        yield opened


def _coordinator(store, clock, wall, **kwargs):
    kwargs.setdefault("lease_scenarios", 4)
    kwargs.setdefault("lease_timeout", 10.0)
    return Coordinator(store, clock=clock, wall=wall, **kwargs)


def _recover(store, clock, wall, **kwargs):
    kwargs.setdefault("lease_scenarios", 4)
    kwargs.setdefault("lease_timeout", 10.0)
    return Coordinator.recover(store, clock=clock, wall=wall, **kwargs)


def _job(job_id="job-0001", seeds=range(8)):
    return Job(job_id, expand_grid(BASE, seeds=seeds))


def _reports_for(scenarios):
    return run_batch(list(scenarios))


def _advance(clock, wall, seconds):
    clock.advance(seconds)
    wall.advance(seconds)


class TestRecoverState:
    def test_empty_journal_recovers_empty(self, store, clock, wall):
        coordinator = _recover(store, clock, wall)
        assert coordinator.jobs() == []
        assert coordinator.recovered == {
            "jobs": 0, "leases": 0, "pending_scenarios": 0
        }

    def test_jobs_and_progress_recover(self, store, clock, wall):
        first = _coordinator(store, clock, wall)
        job = _job(seeds=range(8))
        first.add_job(job)
        worker = first.register("a")["worker"]
        lease = first.lease(worker)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        first.complete(lease["id"], worker, _reports_for(scenarios))

        second = _recover(store, clock, wall)
        jobs = second.jobs()
        assert [j.id for j in jobs] == [job.id]
        recovered = jobs[0]
        # done-ness re-derived from the store: 4 completed, 4 pending
        assert recovered.completed == 4
        assert recovered.status == "running"
        assert recovered.cache_keys == job.cache_keys
        # a fresh worker drains exactly the unfinished half
        worker2 = second.register("b")["worker"]
        lease2 = second.lease(worker2)
        keys2 = [
            Scenario.from_dict(s).cache_key() for s in lease2["scenarios"]
        ]
        assert keys2 == job.cache_keys[4:]
        second.complete(
            lease2["id"], worker2,
            _reports_for([Scenario.from_dict(s) for s in lease2["scenarios"]]),
        )
        assert recovered.status == "done"
        assert recovered.completed == 8

    def test_sweep_across_crash_is_byte_identical(self, tmp_path, clock, wall):
        """Half the sweep before the 'crash', half after recovery: the
        store equals a serial run_batch byte for byte."""
        scenarios = expand_grid(BASE, seeds=range(8))
        with ResultStore(str(tmp_path / "farm.db")) as store:
            first = _coordinator(store, clock, wall)
            first.add_job(Job("job-0001", scenarios))
            worker = first.register("a")["worker"]
            lease = first.lease(worker)
            first.complete(
                lease["id"], worker,
                _reports_for(
                    [Scenario.from_dict(s) for s in lease["scenarios"]]
                ),
            )
            # crash: the first coordinator simply stops being consulted
            second = _recover(store, clock, wall)
            worker2 = second.register("b")["worker"]
            while True:
                lease = second.lease(worker2)
                if lease is None:
                    break
                second.complete(
                    lease["id"], worker2,
                    _reports_for(
                        [Scenario.from_dict(s) for s in lease["scenarios"]]
                    ),
                )
            assert second.jobs()[0].status == "done"
            for scenario, report in zip(scenarios, run_batch(scenarios)):
                assert store.get_json(scenario.cache_key()) == report.to_json(
                    canonical=True
                )

    def test_fresh_coordinator_discards_stale_journal(self, store, clock, wall):
        first = _coordinator(store, clock, wall)
        first.add_job(_job())
        assert store.journal_size() > 0
        _coordinator(store, clock, wall)  # fresh start, no recover
        assert store.journal_size() == 0

    def test_attempts_and_quarantine_recover(self, store, clock, wall):
        first = _coordinator(store, clock, wall)
        job = _job(seeds=range(2))
        first.add_job(job)
        worker = first.register("a")["worker"]
        # one reported failure each for both scenarios...
        lease = first.lease(worker)
        first.fail(lease["id"], worker, "boom")
        # ...then quarantine one of them outright
        for _ in range(MAX_ATTEMPTS - 1):
            lease = first.lease(worker, max_scenarios=1)
            first.fail(lease["id"], worker, "poison")

        second = _recover(store, clock, wall)
        recovered = second.jobs()[0]
        assert list(recovered.quarantined) == [job.cache_keys[0]]
        # the second scenario carries one strike: two more failures
        # quarantine it, not three
        worker2 = second.register("b")["worker"]
        for _ in range(MAX_ATTEMPTS - 1):
            lease = second.lease(worker2)
            assert lease is not None
            second.fail(lease["id"], worker2, "still boom")
        assert recovered.status == "failed"
        assert len(recovered.quarantined) == 2

    def test_id_counters_advance_past_the_journal(self, store, clock, wall):
        first = _coordinator(store, clock, wall)
        first.add_job(_job())
        worker = first.register("a")["worker"]
        first.lease(worker)

        second = _recover(store, clock, wall)
        # new registrations and leases never collide with journaled ids
        assert second.register("b")["worker"] != worker
        lease2 = second.lease(second.register("c")["worker"])
        assert lease2["id"] != "lease-000001"


class TestLeaseResumption:
    def test_inflight_lease_resumes_remaining_deadline(
        self, store, clock, wall
    ):
        first = _coordinator(store, clock, wall)
        first.add_job(_job(seeds=range(4)))
        worker = first.register("a")["worker"]
        lease = first.lease(worker)
        # 4s of the 10s deadline burn before the crash, 3s of downtime
        _advance(clock, wall, 4.0)
        _advance(clock, wall, 3.0)
        second = _recover(store, clock, wall)
        # the holder is pre-registered and can still heartbeat: the
        # lease has 3s left, so at +2s it is alive...
        _advance(clock, wall, 2.0)
        assert second.heartbeat(lease["id"], worker)["id"] == lease["id"]
        # ...and the heartbeat re-armed the full timeout
        _advance(clock, wall, 9.0)
        assert second.heartbeat(lease["id"], worker)["id"] == lease["id"]

    def test_downtime_counts_against_the_deadline(self, store, clock, wall):
        """A lease that expired while the coordinator was down requeues
        on the first call after recovery — no stall, no zombie lease."""
        first = _coordinator(store, clock, wall)
        job = _job(seeds=range(4))
        first.add_job(job)
        worker = first.register("a")["worker"]
        first.lease(worker)
        _advance(clock, wall, 60.0)  # the whole deadline passes while down
        second = _recover(store, clock, wall)
        worker2 = second.register("b")["worker"]
        lease2 = second.lease(worker2)
        assert lease2 is not None  # the dead lease's chunk, requeued
        assert [
            Scenario.from_dict(s).cache_key() for s in lease2["scenarios"]
        ] == job.cache_keys
        assert second.leases_expired == 1

    def test_inflight_completion_lands_after_recovery(
        self, store, clock, wall
    ):
        """The restart neither double-executes nor stalls: the original
        holder completes its resumed lease and the job finishes without
        any scenario being re-leased."""
        first = _coordinator(store, clock, wall)
        job = _job(seeds=range(4))
        first.add_job(job)
        worker = first.register("a")["worker"]
        lease = first.lease(worker)
        _advance(clock, wall, 2.0)
        second = _recover(store, clock, wall)
        scenarios = [Scenario.from_dict(s) for s in lease["scenarios"]]
        ack = second.complete(
            lease["id"], worker, _reports_for(scenarios), executed=4
        )
        assert ack["late"] is False  # the lease was alive across the crash
        assert ack["completed"] == 4
        assert ack["duplicates"] == 0
        recovered = second.jobs()[0]
        assert recovered.status == "done"
        assert recovered.completed == recovered.total == 4

    def test_local_workers_leases_requeue_at_once(self, store, clock, wall):
        """The crashed process's own workers died with it: their leases
        requeue on recovery with no deadline to wait out, while a remote
        worker's lease beside them resumes."""
        first = _coordinator(store, clock, wall)
        job = _job(seeds=range(8))
        first.add_job(job)
        local = first.register("local-1", local=True)["worker"]
        remote = first.register("remote")["worker"]
        local_lease = first.lease(local)
        remote_lease = first.lease(remote)
        second = _recover(store, clock, wall, compact_every=1)
        assert second.recovered["leases"] == 1
        assert second.recovered["pending_scenarios"] == 4
        assert second.heartbeat(remote_lease["id"], remote)
        again = second.lease(second.register("local-1", local=True)["worker"])
        assert again["scenarios"] == local_lease["scenarios"]
        # the flag survives compaction: a second crash requeues it too
        third = _recover(store, clock, wall)
        assert third.recovered["leases"] == 1
        assert third.recovered["pending_scenarios"] == 4

    def test_unknown_workers_get_404_after_restart(self, store, clock, wall):
        """A worker with no in-flight lease is forgotten by the restart
        and must re-register (the worker loop does this on 404)."""
        first = _coordinator(store, clock, wall)
        first.add_job(_job())
        idle_worker = first.register("idle")["worker"]
        second = _recover(store, clock, wall)
        with pytest.raises(UnknownWorker):
            second.lease(idle_worker)
        assert second.register("idle")["worker"]


class TestCompaction:
    def test_long_job_recovers_byte_identically_from_compacted_journal(
        self, store, clock, wall
    ):
        """Satellite: many lease cycles, aggressive compaction — the
        journal stays bounded and recovery is exact."""
        first = _coordinator(store, clock, wall, compact_every=8)
        job = _job(seeds=range(16))
        first.add_job(job)
        worker = first.register("a")["worker"]
        # churn: expire a lease, heartbeat a lot, fail one, complete some
        for cycle in range(12):
            lease = first.lease(worker, max_scenarios=1)
            if lease is None:
                break
            if cycle % 3 == 0:
                _advance(clock, wall, 11.0)  # expire it
            elif cycle % 3 == 1:
                first.heartbeat(lease["id"], worker)
                first.fail(lease["id"], worker, f"churn-{cycle}")
            else:
                first.complete(
                    lease["id"], worker,
                    _reports_for(
                        [Scenario.from_dict(s) for s in lease["scenarios"]]
                    ),
                )
        # journal bounded: at most one record per job + attempts +
        # quarantine + outstanding lease, plus < compact_every appends
        assert store.journal_size() <= 8 + 4

        before = first.snapshot()
        second = _recover(store, clock, wall, compact_every=8)
        after = second.snapshot()
        assert (
            after["queue"]["pending_scenarios"]
            == before["queue"]["pending_scenarios"]
        )
        assert (
            after["queue"]["quarantined_scenarios"]
            == before["queue"]["quarantined_scenarios"]
        )
        assert after["quarantined"] == before["quarantined"]
        recovered = second.jobs()[0]
        assert recovered.completed == job.completed
        assert recovered.quarantined == job.quarantined

        # drain to done/partial and check byte identity for everything
        # that was not quarantined
        worker2 = second.register("b")["worker"]
        while True:
            lease = second.lease(worker2)
            if lease is None:
                break
            second.complete(
                lease["id"], worker2,
                _reports_for(
                    [Scenario.from_dict(s) for s in lease["scenarios"]]
                ),
            )
        assert recovered.status in ("done", "partial")
        direct = run_batch(job.scenarios)
        for scenario, report in zip(job.scenarios, direct):
            key = scenario.cache_key()
            if key in recovered.quarantined:
                continue
            assert store.get_json(key) == report.to_json(canonical=True)

    def test_quarantine_survives_aggressive_compaction(
        self, store, clock, wall
    ):
        """compact_every=1 rewrites the journal after every append; the
        quarantine record (with its key and error) must still replay."""
        first = _coordinator(store, clock, wall, compact_every=1)
        job = _job(seeds=range(2))
        first.add_job(job)
        worker = first.register("a")["worker"]
        for _ in range(MAX_ATTEMPTS):
            lease = first.lease(worker, max_scenarios=1)
            first.fail(lease["id"], worker, "poison")
        assert list(job.quarantined) == [job.cache_keys[0]]
        second = _recover(store, clock, wall, compact_every=1)
        recovered = second.jobs()[0]
        assert recovered.quarantined == {job.cache_keys[0]: "poison"}
        snapshot = second.snapshot()
        assert snapshot["quarantined"] == [
            {"job": job.id, "key": job.cache_keys[0], "error": "poison"}
        ]

    def test_recover_compacts_once_on_startup(self, store, clock, wall):
        first = _coordinator(store, clock, wall)
        job = _job(seeds=range(8))
        first.add_job(job)
        worker = first.register("a")["worker"]
        for _ in range(6):
            lease = first.lease(worker)
            first.heartbeat(lease["id"], worker)
            first.fail(lease["id"], worker, "x")
        raw_size = store.journal_size()
        second = _recover(store, clock, wall)
        # startup compaction rewrote history as a snapshot
        assert store.journal_size() < raw_size
        assert second.jobs()[0].completed == 0


class TestServiceAdoption:
    def test_job_manager_adopts_recovered_jobs(self, store, clock, wall):
        first = _coordinator(store, clock, wall)
        first.add_job(_job("job-0003", seeds=range(2)))
        second = _recover(store, clock, wall)
        manager = JobManager(second)
        # the recovered job answers under its original id
        assert manager.get("job-0003") is not None
        # and new submissions never collide with recovered ids
        job = manager.submit(expand_grid(BASE, seeds=[100]))
        assert job.id == "job-0004"
