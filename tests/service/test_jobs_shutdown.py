"""Service shutdown drains cleanly: no job is ever left ``running``."""

import threading
import time

import pytest

from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid
from repro.service import ReproService
from repro.store import ResultStore

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 48},
    faults=FaultConfig.receiver(0.3),
)

TERMINAL = ("done", "failed", "cancelled")


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "jobs.db")


def _service(store_path, workers):
    return ReproService(store_path, port=0, workers=workers).start()


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestDrainShutdown:
    def test_a_service_that_never_served_shuts_down(self, store_path):
        service = ReproService(store_path, port=0, workers=1)
        # a regression hangs in socketserver's shutdown: fail, not hang
        stopper = threading.Thread(target=service.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive(), "shutdown() of an unstarted service hung"
        assert not any(thread.is_alive() for thread in service._worker_threads)

    def test_idle_shutdown_is_clean(self, store_path):
        service = _service(store_path, workers=2)
        service.shutdown()
        assert service.jobs.jobs() == []
        assert [worker.name for worker in service.workers] == [
            "local-1", "local-2",
        ]
        assert not any(thread.is_alive() for thread in service._worker_threads)

    def test_finished_jobs_stay_done(self, store_path):
        service = _service(store_path, workers=1)
        job = service.jobs.submit(expand_grid(BASE, seeds=[0], grid={"n": [12]}))
        _wait(lambda: job.status == "done")
        service.shutdown()
        assert job.status == "done"

    def test_inflight_job_cancelled_at_scenario_boundary(self, store_path):
        service = _service(store_path, workers=1)
        # enough work that shutdown lands mid-job
        job = service.jobs.submit(expand_grid(BASE, seeds=range(200)))
        _wait(lambda: job.status == "running")
        service.shutdown()
        assert job.status == "cancelled"
        assert job.finished_at is not None
        assert "shut down" in job.error
        # the scenarios that did finish are durable: counted and stored
        with ResultStore(store_path) as store:
            assert job.completed == len(store)

    def test_queued_jobs_cancelled_without_starting(self, store_path):
        # jobs take turns on local workers, so a job stays queued only
        # while no worker leases: here one lease by hand starts the first
        service = _service(store_path, workers=0)
        first = service.jobs.submit(expand_grid(BASE, seeds=range(200)))
        queued = [
            service.jobs.submit(
                expand_grid(BASE, seeds=[seed], grid={"n": [12]})
            )
            for seed in range(3)
        ]
        worker = service.coordinator.register("t")["worker"]
        assert service.coordinator.lease(worker)["job"] == first.id
        assert first.status == "running"
        assert {job.status for job in queued} == {"queued"}
        service.shutdown()
        for job in service.jobs.jobs():
            assert job.status in TERMINAL, job.id
        assert {job.status for job in queued} == {"cancelled"}

    def test_adaptive_job_cancelled_while_its_batch_waits(self, store_path):
        service = _service(store_path, workers=0)
        job = service.jobs.submit_adaptive({"base": BASE.to_dict()})
        # the driver's first seed batch waits for a worker that never comes
        _wait(lambda: len(service.jobs.jobs()) == 2)
        service.shutdown()
        assert [entry.status for entry in service.jobs.jobs()] == [
            "cancelled", "cancelled",
        ]
        assert "shut down" in job.error

    def test_submit_after_shutdown_is_refused(self, store_path):
        service = _service(store_path, workers=1)
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.jobs.submit(expand_grid(BASE, seeds=[0]))


class TestOneQueue:
    def test_without_local_workers_jobs_wait_for_a_lease(self, store_path):
        service = _service(store_path, workers=0)
        try:
            assert service.workers == []
            job = service.jobs.submit(
                expand_grid(BASE, seeds=[0, 1], grid={"n": [12]})
            )
            worker = service.coordinator.register("t")["worker"]
            assert service.coordinator.lease(worker)["job"] == job.id
        finally:
            service.shutdown()

    def test_small_job_behind_a_sweep_finishes_first(self, store_path):
        """Jobs take turns on the local workers: a one-scenario job
        submitted behind a 200-scenario sweep waits for one lease, not
        for the sweep."""
        service = _service(store_path, workers=2)
        try:
            sweep = service.jobs.submit(expand_grid(BASE, seeds=range(200)))
            _wait(lambda: sweep.status == "running")
            small = service.jobs.submit(expand_grid(BASE, seeds=[1000]))
            _wait(lambda: small.status == "done")
            assert sweep.status == "running"
            assert sweep.completed < sweep.total // 2
        finally:
            service.shutdown()

    def test_local_workers_keep_no_private_store(self, store_path):
        service = _service(store_path, workers=2)
        try:
            job = service.jobs.submit(
                expand_grid(BASE, seeds=range(4), grid={"n": [12]})
            )
            _wait(lambda: job.status == "done")
            # each report is held once, in the service's store
            assert all(worker.cache is None for worker in service.workers)
            assert all(key in service.store for key in job.cache_keys)
        finally:
            service.shutdown()
