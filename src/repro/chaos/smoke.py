"""End-to-end chaos smoke: proxy faults + coordinator kill, byte identity.

``python -m repro.chaos.smoke`` (the CI ``chaos`` job) drives one sweep
through every failure mode the farm claims to survive, at once:

1. starts ``repro serve --workers 0`` on a fresh sharded store and
   a :class:`~repro.chaos.ChaosProxy` in front of it (seeded drops,
   delays, injected 500s, black holes);
2. submits a sweep directly, then starts the workers *through the
   proxy*: first one that self-kills after its first completed lease
   (``--chaos-kill-after``), alone, so that it cannot find the queue
   idle before it completes a lease, and waits for its kill status;
   then one that heartbeats too slowly to keep any long lease alive
   (``--chaos-heartbeat-factor``) and one that is merely subject to
   the proxy;
3. once the sweep is visibly underway, SIGKILLs the coordinator — the
   journal in the store is all that survives — and restarts it with
   ``--recover`` on the same port;
4. waits for the *original job id* to finish on the restarted
   coordinator, with every progress poll asserting ``completed`` never
   exceeds the scenario count;
5. asserts the workers all exited (zero hung processes: the chaos
   victim with its own kill status, the rest cleanly on idle) and the
   final sharded store is **byte-identical** to a serial
   :func:`repro.runner.run_batch` of the same grid — every scenario
   executed at least once, nothing double-counted, nothing lost.

Exit status 0 on success; any mismatch or timeout is fatal.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

from repro.chaos.proxy import ChaosProxy
from repro.core.faults import FaultConfig
from repro.farm.smoke import _free_port, _wait_for_health
from repro.runner import Scenario, expand_grid, run_batch
from repro.service.client import ServiceClient
from repro.store import ResultStore

#: sweep size — enough leases that the kill lands mid-sweep
SCENARIOS = 96

#: short lease timeout: chaos-induced expiries resolve within the smoke
LEASE_TIMEOUT = 2.0

#: scenarios per lease (16 leases across three workers)
LEASE_SCENARIOS = 6

#: the fault schedule seed (change it and the smoke must still pass)
CHAOS_SEED = 7

#: per-call deadline handed to the workers (must beat blackhole_s)
WORKER_DEADLINE = 5.0

#: how long the lone self-killing worker may take to complete its lease
KAMIKAZE_TIMEOUT = 60.0


def _stage_line(elapsed_s: float, message: str) -> str:
    """One timestamped stage line (``[chaos +  12.3s] message``).

    The smoke runs minutes under CI with long silent stretches (the
    SIGKILL-to-recovery window especially); stamping every stage makes a
    hang in the log attributable to a specific step instead of "somewhere
    after the kill".
    """
    return f"[chaos +{elapsed_s:6.1f}s] {message}"


def _chaos_scenarios() -> list[Scenario]:
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 32},
        faults=FaultConfig.receiver(0.3),
    )
    return expand_grid(base, seeds=range(SCENARIOS))


def _spawn_server(store_path: str, port: int, recover: bool = False) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--store", store_path, "--port", str(port),
        "--workers", "0", "--shards", "2",
        "--lease-timeout", str(LEASE_TIMEOUT),
        "--lease-scenarios", str(LEASE_SCENARIOS),
    ]
    if recover:
        command.append("--recover")
    return subprocess.Popen(command)


def _spawn_worker(
    url: str,
    name: str,
    kill_after: Optional[int] = None,
    heartbeat_factor: Optional[float] = None,
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "worker",
        "--connect", url, "--name", name, "--poll", "0.05",
        "--until-idle", "--deadline", str(WORKER_DEADLINE),
    ]
    if kill_after is not None:
        command += ["--chaos-kill-after", str(kill_after)]
    if heartbeat_factor is not None:
        command += ["--chaos-heartbeat-factor", str(heartbeat_factor)]
    return subprocess.Popen(command)


def _wait_for_progress(
    client: ServiceClient,
    job_id: str,
    threshold: int,
    total: int,
    deadline_s: float = 120.0,
) -> None:
    """Block until ``completed >= threshold`` (asserting it never
    exceeds ``total`` on the way)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        snapshot = client.job(job_id)
        assert snapshot["completed"] <= total, snapshot
        if snapshot["completed"] >= threshold or snapshot["status"] in (
            "done", "partial"
        ):
            return
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} never reached {threshold}/{total}")


def run_chaos_smoke(verbose: bool = True) -> dict[str, Any]:
    """The whole scenario (see module docstring); returns the evidence.

    Raises :class:`AssertionError`/:class:`TimeoutError` on any
    violation — also the pytest entry point
    (``tests/chaos/test_chaos_process.py``).
    """
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    scenarios = _chaos_scenarios()
    recovery_seconds = 0.0
    t0 = time.monotonic()

    def stage(message: str) -> None:
        if verbose:
            print(_stage_line(time.monotonic() - t0, message), flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        store_path = str(Path(tmp) / "farm")
        server = _spawn_server(store_path, port)
        proxy = ChaosProxy(
            url,
            seed=CHAOS_SEED,
            drop=0.04,
            delay=0.08,
            error=0.04,
            blackhole=0.01,
            delay_s=(0.02, 0.15),
            blackhole_s=8.0,
        ).start()
        workers: dict[str, subprocess.Popen] = {}
        server2: Optional[subprocess.Popen] = None
        try:
            client = ServiceClient(url)  # the driver bypasses the proxy
            _wait_for_health(client)
            stage(f"coordinator up on port {port} (store: {store_path})")
            job = client.submit(scenarios=scenarios)
            stage(f"job {job['id']} submitted: {len(scenarios)} scenarios")

            # all worker traffic goes through the chaos proxy; the kamikaze
            # runs alone first, so no other worker can drain the queue
            # before it completes the lease it dies after
            workers["kamikaze"] = _spawn_worker(proxy.url, "kamikaze", kill_after=1)
            status = workers["kamikaze"].wait(timeout=KAMIKAZE_TIMEOUT)
            assert status == 42, {"kamikaze": status}
            stage("kamikaze completed one lease and killed itself (status 42)")
            workers["slowbeat"] = _spawn_worker(
                proxy.url, "slowbeat", heartbeat_factor=8.0
            )
            workers["steady"] = _spawn_worker(proxy.url, "steady")
            stage("2 more workers spawned through the chaos proxy")

            # let the sweep get underway, then kill the coordinator dead
            _wait_for_progress(
                client, job["id"], threshold=len(scenarios) // 6,
                total=len(scenarios),
            )
            stage(
                f"progress >= {len(scenarios) // 6}/{len(scenarios)}; "
                "SIGKILLing the coordinator"
            )
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=10.0)
            stage("coordinator dead; restarting with --recover on the same port")

            restart_at = time.monotonic()
            server2 = _spawn_server(store_path, port, recover=True)
            _wait_for_health(client)
            recovery_seconds = time.monotonic() - restart_at
            stage(f"restarted coordinator healthy after {recovery_seconds:.1f}s")

            snapshot = client.workers()
            assert snapshot["recovered"] is not None, snapshot
            assert snapshot["recovered"]["jobs"] >= 1, snapshot
            stage(
                f"journal recovery confirmed: {snapshot['recovered']['jobs']} "
                f"job(s), {snapshot['recovered']['leases']} in-flight lease(s)"
            )

            # the original job id finishes on the restarted coordinator
            done = None
            deadline = time.monotonic() + 240.0
            while time.monotonic() < deadline:
                done = client.job(job["id"])
                assert done["completed"] <= len(scenarios), done
                if done["status"] in ("done", "partial"):
                    break
                time.sleep(0.1)
            assert done is not None and done["status"] == "done", done
            assert done["completed"] == len(scenarios), done
            stage(f"job {job['id']} done: {done['completed']}/{len(scenarios)}")

            # zero hung workers: everyone exits inside the timeout — the
            # kamikaze with its self-kill status, the others cleanly
            exit_codes = {
                name: process.wait(timeout=120.0)
                for name, process in workers.items()
            }
            assert exit_codes["kamikaze"] == 42, exit_codes
            assert exit_codes["slowbeat"] == 0, exit_codes
            assert exit_codes["steady"] == 0, exit_codes
            stage(f"all workers exited: {exit_codes}")
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.kill()
            proxy.shutdown()
            for process in (server, server2):
                if process is not None and process.poll() is None:
                    process.terminate()
                    try:
                        process.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        process.kill()

        faults = proxy.stats()
        # the schedule actually injected faults (a chaos smoke that
        # forwarded everything cleanly proved nothing)
        injected = (
            faults["dropped"] + faults["delayed"] + faults["errors"]
            + faults["blackholed"]
        )
        assert injected > 0, faults
        stage(
            f"proxy stats: {faults['requests']} calls, {injected} faults "
            "injected; checking byte identity against serial run_batch"
        )

        # the farm's store vs a serial run of the same grid: byte identity
        direct = run_batch(scenarios)
        with ResultStore(store_path) as store:
            assert len(store) == len(scenarios), (len(store), len(scenarios))
            for scenario, report in zip(scenarios, direct):
                stored = store.get_json(scenario.cache_key())
                assert stored is not None, scenario.cache_key()
                expected = report.to_json(canonical=True)
                assert stored == expected, (
                    f"chaos-farmed bytes differ from serial run_batch for "
                    f"{scenario.cache_key()}"
                )

        evidence = {
            "scenarios": len(scenarios),
            "recovery_seconds": round(recovery_seconds, 3),
            "faults": faults,
            "exit_codes": exit_codes,
        }
        if verbose:
            stage(
                f"chaos smoke OK: {evidence['scenarios']} scenarios through "
                f"{faults['requests']} proxied calls ({faults['dropped']} "
                f"dropped, {faults['delayed']} delayed, {faults['errors']} "
                f"500s, {faults['blackholed']} black-holed), coordinator "
                f"killed and recovered in {evidence['recovery_seconds']}s, "
                "store byte-identical to serial run_batch"
            )
        return evidence


def main() -> int:
    run_chaos_smoke(verbose=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
