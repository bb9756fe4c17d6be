"""End-to-end service smoke: a real ``repro serve`` process, killed and
recovered, checked against a direct in-process run.

``python -m repro.service.smoke`` (the CI smoke step):

1. starts ``repro serve --workers 0`` as a subprocess on a free port
   with a fresh temporary store, and submits a small sweep over two
   adversary models (plus the plain fault-coin baseline) through the
   HTTP API — with no worker, the job waits in the journaled queue;
2. SIGKILLs the server and restarts it on the same port with
   ``--workers 1 --recover``;
3. polls the job to completion under its original id and fetches every
   report by cache key;
4. asserts each fetched body is byte-identical to the canonical report
   a direct :func:`repro.runner.run_batch` produces for the same
   scenarios — the determinism contract, measured over a real socket;
5. re-submits the identical sweep and requires the cached replay to
   finish without recomputing (store size unchanged).

Exit status 0 on success; any mismatch or timeout is fatal.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.faults import AdversaryConfig
from repro.farm.smoke import _free_port, _wait_for_health
from repro.runner import Scenario, expand_grid, run_batch
from repro.service.client import ServiceClient

#: the sweep CI submits: one baseline + two adversary models, two seeds
ADVERSARY_AXIS = [
    AdversaryConfig("iid", {"model": "receiver", "p": 0.3}),
    AdversaryConfig("gilbert_elliott", {"p_bad": 0.9}),
    AdversaryConfig("budgeted_jammer", {"per_round": 2}),
]


def _smoke_scenarios() -> list[Scenario]:
    base = Scenario(
        algorithm="decay", topology="path", topology_params={"n": 24}
    )
    return expand_grid(
        base, seeds=[0, 1, 2, 3], grid={"adversary": ADVERSARY_AXIS}
    )


def _serve(store_path: str, port: int, *flags: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", store_path, "--port", str(port), *flags,
        ],
    )


def main() -> int:
    port = _free_port()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        store_path = str(Path(tmp) / "smoke.db")
        process = _serve(store_path, port, "--workers", "0")
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            _wait_for_health(client)

            registry = client.registry()
            assert "decay" in {a["name"] for a in registry["algorithms"]}
            assert {"gilbert_elliott", "budgeted_jammer"} <= {
                a["name"] for a in registry["adversaries"]
            }

            scenarios = _smoke_scenarios()
            job = client.submit(scenarios=scenarios)
            assert client.job(job["id"])["status"] == "queued", job

            # a crash with the whole job in the journal, then a restart
            # that runs it on a local worker
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10.0)
            process = _serve(
                store_path, port, "--workers", "1", "--recover"
            )
            _wait_for_health(client)
            done = client.wait(job["id"], timeout=120.0)
            assert done["status"] == "done", done
            assert done["completed"] == len(scenarios), done

            direct = run_batch(scenarios)
            for scenario, report in zip(scenarios, direct):
                fetched = client.report_bytes(scenario.cache_key())
                expected = report.to_json(canonical=True).encode("utf-8")
                assert fetched == expected, (
                    f"served report differs from direct run for "
                    f"{scenario.cache_key()}"
                )

            stored = client.health()["reports"]
            assert stored == len(scenarios), (stored, len(scenarios))

            # identical resubmission: pure cache replay, nothing new stored
            replay = client.wait(
                client.submit(scenarios=scenarios)["id"], timeout=60.0
            )
            assert replay["completed"] == len(scenarios)
            assert client.health()["reports"] == stored

            jammed = client.query(adversary="budgeted_jammer")
            assert len(jammed) == 4, [r.cache_key for r in jammed]

            print(
                f"service smoke OK: {len(scenarios)} reports over "
                f"{len(ADVERSARY_AXIS)} noise models, submitted before a "
                "SIGKILL and finished after --recover, served "
                "byte-identical to direct run_batch; cached replay stored "
                "nothing new"
            )
            return 0
        finally:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
