"""Worker abandon-on-410: stop computing a chunk whose lease is gone.

The heartbeat thread learns the lease died (expiry under an injected
coordinator clock, or a coordinator restart) and signals the executing
chunk, which stops at the next scenario boundary instead of finishing
work the coordinator will only count as duplicates. The coordinator is
driven in-process through a :class:`~repro.farm.LocalClient`, so no
sockets and no real lease timing are involved — the only real-time
element is the heartbeat thread itself, synchronized through events.
"""

import threading

import pytest

import repro.farm.worker as worker_module
from repro.core.faults import FaultConfig
from repro.farm import Coordinator, LocalClient
from repro.runner import Scenario, expand_grid
from repro.service.jobs import Job
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
def store(tmp_path):
    with ResultStore(str(tmp_path / "farm.db")) as opened:
        yield opened


@pytest.fixture()
def coordinator(store, clock):
    wall = FakeClock(1_000_000.0)
    return Coordinator(
        store, lease_scenarios=8, lease_timeout=10.0, clock=clock, wall=wall
    )


def _worker(coordinator) -> worker_module.FarmWorker:
    worker = worker_module.FarmWorker(LocalClient(coordinator), name="t")
    worker.register()
    worker.heartbeat_s = 0.005  # tick fast; the loop is the only real time
    return worker


def test_heartbeat_410_sets_the_abandon_signal(coordinator, clock):
    """The wiring: heartbeat meets an expired lease -> abandon is set."""
    coordinator.add_job(Job("job-0001", expand_grid(BASE, seeds=range(4))))
    worker = _worker(coordinator)
    lease = worker.client.lease(worker.worker_id)
    clock.advance(11.0)  # the lease dies under the injected clock
    abandon = threading.Event()
    worker._running = (lease["id"], abandon)
    worker._beat()  # one heartbeat tick, inline
    assert abandon.is_set()


def test_execute_stops_at_the_next_scenario_boundary(coordinator, monkeypatch):
    """_execute checks the signal between scenarios, not after the
    whole chunk: a mid-chunk abandon returns the finished prefix only."""
    scenarios = expand_grid(BASE, seeds=range(6))
    worker = _worker(coordinator)
    abandon = threading.Event()
    real_run = worker_module.run
    calls = []

    def run_then_abandon(scenario):
        calls.append(scenario.seed)
        report = real_run(scenario)
        if len(calls) == 2:
            abandon.set()
        return report

    monkeypatch.setattr(worker_module, "run", run_then_abandon)
    reports, executed, cached = worker._execute(scenarios, abandon)
    # two scenarios ran, then the signal stopped the rest
    assert calls == [0, 1]
    assert len(reports) == 2
    assert executed == 2
    assert cached == 0


class _SetAfter:
    """An abandon signal that reads set from its ``calls``-th look on."""

    def __init__(self, calls: int) -> None:
        self.looks = 0
        self.calls = calls

    def is_set(self) -> bool:
        self.looks += 1
        return self.looks > self.calls


def test_pooled_lease_stops_between_results():
    """With a process pool the whole lease runs on one pool, and the
    signal is still checked before each report: the prefix comes back
    byte-identical to a serial run, and the rest is never taken."""
    scenarios = expand_grid(BASE, seeds=range(6))
    pooled = worker_module.FarmWorker(None, name="t", processes=2)
    reports, executed, cached = pooled._execute(scenarios, _SetAfter(3))
    assert (executed, cached) == (3, 0)
    assert [r.to_json(canonical=True) for r in reports] == [
        worker_module.run(s).to_json(canonical=True) for s in scenarios[:3]
    ]


def test_cache_hits_count_only_in_the_returned_prefix():
    """A remote worker's cache answers repeats; hits past an abandon
    are neither returned nor counted, and fresh reports fill the cache."""
    scenarios = expand_grid(BASE, seeds=range(4))
    cache = ResultStore(":memory:")
    cache.put_many([worker_module.run(scenarios[1])])
    worker = worker_module.FarmWorker(None, name="t", cache=cache)
    reports, executed, cached = worker._execute(scenarios, _SetAfter(2))
    assert (len(reports), executed, cached) == (2, 1, 1)
    assert scenarios[0].cache_key() in cache
    assert scenarios[2].cache_key() not in cache


def test_abandoned_chunk_is_requeued_and_finished_by_rerun(
    coordinator, clock, store, monkeypatch
):
    """End to end under the injected clock: the lease expires mid-chunk,
    the heartbeat thread flags it, the worker pushes only its finished
    prefix (absorbed as late), and a re-lease completes the job with
    zero duplicates."""
    job = Job("job-0001", expand_grid(BASE, seeds=range(8)))
    coordinator.add_job(job)
    worker = _worker(coordinator)

    real_run = worker_module.run
    abandon_observed = threading.Event()
    calls = []

    def run_with_expiry(scenario):
        report = real_run(scenario)
        calls.append(scenario.seed)
        if len(calls) == 2:
            # the lease's deadline lapses while scenario 2 is in flight;
            # wait for the heartbeat thread to notice before returning,
            # so the boundary check is deterministic
            clock.advance(11.0)
            assert abandon_observed.wait(timeout=10.0), "heartbeat never saw 410"
        return report

    real_beat = worker_module.FarmWorker._beat

    def beat_then_flag(self):
        running = self._running
        real_beat(self)
        if running is not None and running[1].is_set():
            abandon_observed.set()

    monkeypatch.setattr(worker_module, "run", run_with_expiry)
    monkeypatch.setattr(worker_module.FarmWorker, "_beat", beat_then_flag)

    lease = worker.client.lease(worker.worker_id)
    assert len(lease["scenarios"]) == 8
    worker.run_lease(lease)
    assert worker.leases_abandoned == 1
    assert calls == [0, 1]  # six scenarios were never computed
    assert job.completed == 2  # the late prefix was absorbed

    # the expired chunk's remainder is re-leased and finished cleanly
    monkeypatch.setattr(worker_module, "run", real_run)
    monkeypatch.setattr(worker_module.FarmWorker, "_beat", real_beat)
    lease2 = worker.client.lease(worker.worker_id)
    assert len(lease2["scenarios"]) == 6
    worker.run_lease(lease2)
    worker.stop()  # ends the heartbeat thread
    assert job.status == "done"
    assert job.completed == 8
    assert coordinator.duplicates == 0
    assert all(key in store for key in job.cache_keys)


def test_stop_pushes_the_finished_prefix_and_requeues_the_rest(
    coordinator, monkeypatch
):
    """stop() raises the running lease's abandon signal: the worker
    pushes what it finished, the coordinator requeues the rest, and
    run() exits with its summary."""
    job = Job("job-0001", expand_grid(BASE, seeds=range(8)))
    coordinator.add_job(job)
    worker = _worker(coordinator)
    real_run = worker_module.run
    calls = []

    def run_then_stop(scenario):
        calls.append(scenario.seed)
        if len(calls) == 3:
            worker.stop()
        return real_run(scenario)

    monkeypatch.setattr(worker_module, "run", run_then_stop)
    assert worker.run() == 0  # the one lease was abandoned, not done
    assert calls == [0, 1, 2]
    assert worker.leases_abandoned == 1
    assert job.completed == 3
    other = coordinator.register("u")["worker"]
    rest = coordinator.lease(other)
    assert len(rest["scenarios"]) == 5
    assert coordinator.snapshot()["queue"]["outstanding_leases"] == 1
