"""Farm throughput benchmarks: scaling, recovery, and journal cost.

``python benchmarks/bench_farm.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_farm.json`` (see ``bars.py``) with four measurements over
real processes (one ``repro serve --workers 0`` coordinator, N
``repro worker`` subprocesses):

* ``farm_scaling``   — scenarios/sec for the same sweep at 1 worker vs
  4 workers (bar: >= 2.5x, which applies when the machine has >= 4
  CPUs — worker processes scale with cores);
* ``lease_recovery`` — SIGKILL a worker holding a lease and measure how
  long the farm takes to finish the sweep anyway (the expiry-requeue
  path, dominated by the lease timeout; bar: lease timeout + 60 s);
* ``journal_overhead`` — the seconds an in-process coordinator spends
  appending to its durable journal during a single-worker sweep, timed
  directly (bar: <= 10% of the sweep's other time);
* ``coordinator_recovery`` — SIGKILL the *coordinator* mid-sweep,
  restart it with ``--recover`` on the same port, and measure restart-
  to-healthy (``recovery_seconds``, bar: 30 s) plus kill-to-sweep-done.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.core.faults import FaultConfig
from repro.farm.smoke import (
    _free_port,
    _kill_leaseholder,
    _spawn_worker,
    _wait_for_health,
)
from repro.runner import Scenario, expand_grid
from repro.service import ReproService
from repro.service.client import ServiceClient

from bars import Bar, main

SCALES = {
    "smoke": {"scenarios": 64, "n": 48, "chunk": 4},
    "full": {"scenarios": 240, "n": 64, "chunk": 8},
}

#: recovery measurement: small sweep, short leases, a double-size victim
RECOVERY = {"scenarios": 40, "n": 32, "chunk": 4, "lease_timeout": 2.0,
            "victim_chunk": 12}


def _sweep(count, n):
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": n},
        faults=FaultConfig.receiver(0.3),
    )
    return expand_grid(base, seeds=range(count))


def _start_coordinator(store_path, chunk, lease_timeout=30.0, port=None,
                       extra=()):
    port = _free_port() if port is None else port
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", store_path, "--port", str(port),
            "--workers", "0",
            "--lease-scenarios", str(chunk),
            "--lease-timeout", str(lease_timeout),
            *extra,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    _wait_for_health(client)
    return server, client


def _wait_registered(client, count, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while len(client.workers()["workers"]) < count:
        assert time.monotonic() < deadline, "workers never registered"
        time.sleep(0.02)


def _stop_workers(workers):
    for process in workers:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in workers:
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()


def _stop_all(server, workers=()):
    _stop_workers(workers)
    server.terminate()
    try:
        server.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        server.kill()


def _timed_sweep(client, tag, worker_count, scenarios):
    """Seconds for ``worker_count`` workers to drain ``scenarios``.

    Workers register *before* the clock starts, so subprocess startup
    is excluded and the measurement is pure sweep throughput.
    """
    workers = [
        _spawn_worker(client.base_url, f"{tag}-w{i}", until_idle=False)
        for i in range(worker_count)
    ]
    try:
        _wait_registered(client, worker_count)
        start = time.perf_counter()
        job = client.submit(scenarios=scenarios)
        client.wait(job["id"], timeout=600.0, poll=0.05)
        elapsed = time.perf_counter() - start
        snapshot = client.workers()
    finally:
        _stop_workers(workers)
    queue = snapshot["queue"]
    assert queue["scenarios_completed"] == len(scenarios), queue
    return elapsed


def bench_farm_scaling(tmp_dir, scenario_count, n, chunk):
    scenarios = _sweep(scenario_count, n)
    runs = {}
    for count in (1, 4):
        tag = f"scaling-{count}"
        server, client = _start_coordinator(str(Path(tmp_dir) / tag), chunk)
        try:
            elapsed = _timed_sweep(client, tag, count, scenarios)
        finally:
            _stop_all(server)
        runs[str(count)] = {
            "seconds": round(elapsed, 6),
            "scenarios_per_sec": round(scenario_count / elapsed, 2),
        }
    speedup = runs["4"]["scenarios_per_sec"] / runs["1"]["scenarios_per_sec"]
    return {
        "name": "farm_scaling",
        "scenarios": scenario_count,
        "lease_scenarios": chunk,
        "workers": runs,
        "speedup": round(speedup, 2),
        "cpu_count": os.cpu_count(),
    }


def bench_lease_recovery(tmp_dir):
    """SIGKILL a leaseholder; seconds from the kill to sweep completion."""
    sizes = RECOVERY
    scenarios = _sweep(sizes["scenarios"], sizes["n"])
    store_path = str(Path(tmp_dir) / "recovery")
    server, client = _start_coordinator(
        store_path, sizes["chunk"], lease_timeout=sizes["lease_timeout"]
    )
    url = client.base_url
    workers = {}
    try:
        job = client.submit(scenarios=scenarios)
        # the victim takes triple-size leases so the kill lands mid-lease
        workers["victim"] = _spawn_worker(
            url, "victim", sizes["victim_chunk"]
        )
        workers["survivor"] = _spawn_worker(url, "survivor")
        killed = _kill_leaseholder(client, workers)
        start = time.perf_counter()
        client.wait(job["id"], timeout=300.0, poll=0.02)
        recovery = time.perf_counter() - start
        snapshot = client.workers()
    finally:
        _stop_all(server, list(workers.values()))
    queue = snapshot["queue"]
    assert queue["leases_expired"] >= 1, queue
    assert queue["scenarios_completed"] == len(scenarios), queue
    assert queue["duplicates"] == 0, queue
    return {
        "name": "lease_recovery",
        "scenarios": sizes["scenarios"],
        "killed": killed,
        "lease_timeout_s": sizes["lease_timeout"],
        "recovery_seconds": round(recovery, 6),
        "leases_expired": queue["leases_expired"],
        "duplicates": queue["duplicates"],
    }


def bench_journal_overhead(tmp_dir, scenario_count, n, chunk):
    """Seconds the coordinator spends journaling one single-worker sweep.

    Every job intake, lease grant, heartbeat and release appends to the
    coordinator journal (``farm_journal`` on shard 0) under the
    coordinator lock. The sweep runs once against an in-process
    coordinator whose ``_append`` is timed, compactions it triggers
    included, and the journal's seconds are priced against the rest of
    the sweep. Differencing two timed sweeps instead buries a few
    milliseconds of journal writes under run-to-run spread hundreds of
    times larger.
    """
    scenarios = _sweep(scenario_count, n)
    service = ReproService(
        str(Path(tmp_dir) / "journal"),
        port=0,
        workers=0,
        lease_scenarios=chunk,
    )
    append = service.coordinator._append
    spent = {"seconds": 0.0, "calls": 0}

    def timed_append(kind, payload):
        # called with the coordinator lock held, so never concurrently
        start = time.perf_counter()
        try:
            append(kind, payload)
        finally:
            spent["seconds"] += time.perf_counter() - start
            spent["calls"] += 1

    service.coordinator._append = timed_append
    with service:
        client = ServiceClient(service.url, timeout=10.0)
        elapsed = _timed_sweep(client, "journal", 1, scenarios)
    journal = spent["seconds"]
    return {
        "name": "journal_overhead",
        "scenarios": scenario_count,
        "lease_scenarios": chunk,
        "sweep_seconds": round(elapsed, 6),
        "journal_seconds": round(journal, 6),
        "journal_calls": spent["calls"],
        "overhead_fraction": round(journal / (elapsed - journal), 4),
    }


def bench_coordinator_recovery(tmp_dir):
    """SIGKILL the coordinator mid-sweep; restart it with ``--recover``.

    ``recovery_seconds`` is restart-to-healthy (journal replay plus
    service startup); ``kill_to_done_seconds`` is the full outage cost
    including worker retry backoff and expired-lease requeues.
    """
    sizes = RECOVERY
    scenarios = _sweep(sizes["scenarios"], sizes["n"])
    store_path = str(Path(tmp_dir) / "coordinator-recovery")
    port = _free_port()
    server, client = _start_coordinator(
        store_path, sizes["chunk"], lease_timeout=sizes["lease_timeout"],
        port=port,
    )
    workers = []
    try:
        job = client.submit(scenarios=scenarios)
        workers = [
            _spawn_worker(client.base_url, f"cr-w{i}", until_idle=False)
            for i in range(2)
        ]
        # let the sweep get properly underway before pulling the plug
        deadline = time.monotonic() + 120.0
        while client.job(job["id"])["completed"] < sizes["scenarios"] // 4:
            assert time.monotonic() < deadline, "sweep never progressed"
            time.sleep(0.02)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10.0)
        killed_at = time.perf_counter()
        server, client = _start_coordinator(
            store_path, sizes["chunk"], lease_timeout=sizes["lease_timeout"],
            port=port, extra=("--recover",),
        )
        recovery = time.perf_counter() - killed_at
        snapshot = client.workers()
        recovered = snapshot.get("recovered") or {}
        assert recovered.get("jobs", 0) >= 1, recovered
        client.wait(job["id"], timeout=300.0, poll=0.02)
        kill_to_done = time.perf_counter() - killed_at
        completed = client.job(job["id"])["completed"]
    finally:
        _stop_all(server, workers)
    assert completed == len(scenarios), completed
    return {
        "name": "coordinator_recovery",
        "scenarios": sizes["scenarios"],
        "lease_timeout_s": sizes["lease_timeout"],
        "recovery_seconds": round(recovery, 6),
        "kill_to_done_seconds": round(kill_to_done, 6),
        "recovered_jobs": recovered.get("jobs", 0),
        "recovered_leases": recovered.get("leases", 0),
    }


def measure(sizes, tmp_dir):
    sweep = (sizes["scenarios"], sizes["n"], sizes["chunk"])
    return [
        bench_farm_scaling(tmp_dir, *sweep),
        bench_lease_recovery(tmp_dir),
        bench_journal_overhead(tmp_dir, *sweep),
        bench_coordinator_recovery(tmp_dir),
    ]


BARS = (
    # 4 workers >= 2.5x the 1-worker throughput, where worker processes
    # can use real cores
    Bar("farm_scaling.speedup", ">=", 2.5, min_cpus=4),
    # recovery is bounded by the lease timeout plus the redone chunk
    Bar("lease_recovery.recovery_seconds", "<=", RECOVERY["lease_timeout"] + 60.0),
    # journal appends take <= 10% of a sweep's non-journal time
    Bar("journal_overhead.overhead_fraction", "<=", 0.10),
    Bar("coordinator_recovery.recovery_seconds", "<=", 30.0),
)


if __name__ == "__main__":
    sys.exit(main("bench_farm", SCALES, measure, BARS))
