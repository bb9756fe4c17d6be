"""A service SIGKILLed while its own worker holds a lease recovers at once.

``repro serve --workers 1`` is killed mid-lease and restarted with
``--recover`` and a 600 s lease timeout: nothing will ever heartbeat the
dead process's local lease, so recovery requeues it instead of waiting
out its deadline, and the job finishes byte-identical to ``run_batch``.
"""

import signal
import subprocess
import sys
import time

from repro.core.faults import FaultConfig
from repro.farm.smoke import _free_port, _wait_for_health
from repro.runner import Scenario, expand_grid, run_batch
from repro.service.client import ServiceClient

#: ~60 ms runs, so a lease stays in flight for a while
SLOW = expand_grid(
    Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 200},
        faults=FaultConfig.receiver(0.3),
    ),
    seeds=range(12),
)


def _serve(store_path, port, *flags):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--store", store_path,
            "--port", str(port), "--workers", "1", *flags,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_local_lease(client, job_id):
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        held = {
            entry["name"]: entry["active_leases"]
            for entry in client.workers()["workers"]
        }
        if held.get("local-1"):
            assert client.job(job_id)["status"] == "running"
            return
        time.sleep(0.01)
    raise AssertionError("local-1 never held a lease")


def test_killed_local_lease_requeues_on_recover(tmp_path):
    store_path = str(tmp_path / "svc.db")
    port = _free_port()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    process = _serve(store_path, port)
    try:
        _wait_for_health(client)
        job = client.submit(scenarios=SLOW)
        _wait_for_local_lease(client, job["id"])
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10.0)
        process = _serve(store_path, port, "--recover", "--lease-timeout", "600")
        _wait_for_health(client)
        assert client.workers()["recovered"]["leases"] == 0
        done = client.wait(job["id"], timeout=60.0)
        assert done["completed"] == len(SLOW)
        for scenario, report in zip(SLOW, run_batch(SLOW)):
            expected = report.to_json(canonical=True).encode("utf-8")
            assert client.report_bytes(scenario.cache_key()) == expected
    finally:
        process.terminate()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
