"""End-to-end farm smoke: real processes, a kill -9, byte identity.

``python -m repro.farm.smoke`` (the CI ``farm`` job) proves the farm's
central invariant — a distributed sweep with a failing participant
stores exactly the bytes a serial run produces:

1. starts ``repro serve --workers 0`` as a subprocess on a free
   port with a fresh *sharded* store;
2. starts three ``repro worker`` subprocesses against it;
3. submits a 120-scenario sweep, waits until one worker is observed
   holding a lease, and SIGKILLs that worker — no goodbye, no cleanup;
4. waits for the job to finish anyway: the dead worker's lease expires
   and its scenarios are re-leased to the survivors;
5. asserts the stored canonical bytes are identical to a serial
   :func:`repro.runner.run_batch` of the same grid, that at least one
   lease expired, that every scenario was executed exactly once by the
   workers' own accounting (``sum(executed) == N``), and that no
   completion was double-counted (``duplicates == 0``).

Exit status 0 on success; any mismatch or timeout is fatal.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.service.client import ServiceClient
from repro.store import ResultStore

#: sweep size — large enough that three workers overlap on the queue
SCENARIOS = 120

#: seconds an unheartbeated lease survives (short: the smoke waits it out)
LEASE_TIMEOUT = 3.0

#: the victim takes double-size leases so the kill lands mid-lease
VICTIM_CHUNK = 16


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _smoke_scenarios() -> list[Scenario]:
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 32},
        faults=FaultConfig.receiver(0.3),
    )
    return expand_grid(base, seeds=range(SCENARIOS))


def _wait_for_health(client: ServiceClient, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            client.health()
            return
        except Exception:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def _spawn_worker(
    url: str,
    name: str,
    chunk: Optional[int] = None,
    until_idle: bool = True,
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "worker",
        "--connect", url, "--name", name, "--poll", "0.05",
    ]
    if until_idle:
        command.append("--until-idle")
    if chunk is not None:
        command += ["--chunk", str(chunk)]
    return subprocess.Popen(command)


def _kill_leaseholder(
    client: ServiceClient,
    workers: dict[str, subprocess.Popen],
    deadline_s: float = 60.0,
) -> str:
    """SIGKILL the first worker observed holding a lease; returns its name."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        # prefer the double-chunk victim: its leases are the longest, so
        # the kill cannot race the lease's own completion
        entries = sorted(
            client.workers()["workers"],
            key=lambda entry: entry["name"] != "victim",
        )
        for entry in entries:
            process = workers.get(entry["name"])
            if process is not None and entry["active_leases"] > 0:
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=10.0)
                return entry["name"]
        time.sleep(0.01)
    raise TimeoutError("no worker was ever observed holding a lease")


def run_smoke(verbose: bool = True) -> dict[str, Any]:
    """The whole scenario (see module docstring); returns the evidence.

    Raises :class:`AssertionError`/:class:`TimeoutError` on any
    violation — also the pytest entry point
    (``tests/farm/test_farm_process.py``).
    """
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    scenarios = _smoke_scenarios()
    with tempfile.TemporaryDirectory(prefix="repro-farm-smoke-") as tmp:
        store_path = str(Path(tmp) / "farm")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", store_path, "--port", str(port),
                "--workers", "0", "--shards", "2",
                "--lease-timeout", str(LEASE_TIMEOUT),
                "--lease-scenarios", "8",
            ],
        )
        workers: dict[str, subprocess.Popen] = {}
        try:
            client = ServiceClient(url)
            _wait_for_health(client)

            # submit before any worker starts: an --until-idle worker
            # that registered first would see an empty queue and exit
            job = client.submit(scenarios=scenarios)

            # victim first (double-size leases), then two survivors
            workers["victim"] = _spawn_worker(url, "victim", VICTIM_CHUNK)
            workers["w1"] = _spawn_worker(url, "w1")
            workers["w2"] = _spawn_worker(url, "w2")
            killed = _kill_leaseholder(client, workers)
            if verbose:
                print(f"killed {killed} while it held a lease")

            done = client.wait(job["id"], timeout=180.0, poll=0.1)
            assert done["completed"] == len(scenarios), done

            snapshot = client.workers()
            queue = snapshot["queue"]
            # wait for the survivors to notice the idle queue and exit
            for name, process in workers.items():
                if name != killed:
                    assert process.wait(timeout=60.0) == 0, name
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.kill()
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()

        # the farm's store vs a serial run of the same grid: byte identity
        direct = run_batch(scenarios)
        with ResultStore(store_path) as store:
            assert len(store) == len(scenarios), (len(store), len(scenarios))
            for scenario, report in zip(scenarios, direct):
                stored = store.get_json(scenario.cache_key())
                expected = report.to_json(canonical=True)
                assert stored == expected, (
                    f"farmed bytes differ from serial run_batch for "
                    f"{scenario.cache_key()}"
                )

        # the kill was observed and recovered from
        assert queue["leases_expired"] >= 1, queue
        assert queue["scenarios_completed"] == len(scenarios), queue
        # accounting: every scenario's execution was recorded exactly once
        # (the victim's lost chunk was never recorded, then re-executed)
        assert queue["duplicates"] == 0, queue
        executed = sum(w["executed"] for w in snapshot["workers"])
        cached = sum(w["cached"] for w in snapshot["workers"])
        assert executed == len(scenarios), (executed, len(scenarios))
        assert cached == 0, snapshot["workers"]

        evidence = {
            "scenarios": len(scenarios),
            "killed": killed,
            "leases_expired": queue["leases_expired"],
            "leases_issued": queue["leases_issued"],
            "duplicates": queue["duplicates"],
            "executed": executed,
        }
        if verbose:
            print(
                f"farm smoke OK: {evidence['scenarios']} scenarios, "
                f"{evidence['killed']} killed mid-lease, "
                f"{evidence['leases_expired']} lease(s) expired and "
                f"recovered, store byte-identical to serial run_batch, "
                f"{evidence['executed']} executions recorded (no doubles)"
            )
        return evidence


def main() -> int:
    run_smoke(verbose=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
