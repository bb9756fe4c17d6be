"""The farm endpoints over a real socket: register, lease, heartbeat,
complete — plus the error statuses workers key their behavior on."""

import dataclasses
import json
import time

import pytest

from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.service import ReproService, ServiceClient, ServiceError

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.2),
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store_path = str(tmp_path_factory.mktemp("farm-http") / "farm.db")
    with ReproService(
        store_path,
        port=0,
        workers=0,
        lease_scenarios=4,
        lease_timeout=30.0,
    ) as running:
        yield running


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, timeout=10.0)


class TestRegistration:
    def test_register_returns_id_and_knobs(self, client):
        ack = client.register_worker("unit")
        assert ack["worker"].startswith("w-")
        assert ack["lease_scenarios"] == 4
        assert ack["lease_timeout_s"] == 30.0
        assert 0 < ack["heartbeat_s"] < 30.0

    def test_workers_snapshot_lists_registered(self, client):
        worker = client.register_worker("listed")["worker"]
        snapshot = client.workers()
        assert worker in {entry["id"] for entry in snapshot["workers"]}
        assert "pending_scenarios" in snapshot["queue"]

    def test_lease_with_unregistered_worker_is_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client.lease("w-9999")
        assert caught.value.status == 404


class TestLeaseLifecycle:
    def test_full_protocol_round_trip(self, client, service):
        scenarios = expand_grid(BASE, seeds=[100, 101, 102])
        job = client.submit(scenarios=scenarios)
        worker = client.register_worker("rt")["worker"]

        lease = client.lease(worker)
        assert lease is not None
        assert lease["worker"] == worker
        leased = [Scenario.from_dict(s) for s in lease["scenarios"]]
        assert [s.cache_key() for s in leased] == job["cache_keys"]

        beat = client.heartbeat(lease["id"], worker)
        assert beat["id"] == lease["id"]

        reports = run_batch(leased)
        ack = client.complete(
            lease["id"], worker, reports, executed=len(reports)
        )
        assert ack["completed"] == len(scenarios)
        assert ack["late"] is False

        assert client.job(job["id"])["status"] == "done"
        for scenario, report in zip(leased, reports):
            assert client.report_bytes(
                scenario.cache_key()
            ) == report.to_json(canonical=True).encode()
        assert client.lease(worker) is None  # queue drained

    def test_heartbeat_on_dead_lease_is_410(self, client):
        worker = client.register_worker("dead-beat")["worker"]
        with pytest.raises(ServiceError) as caught:
            client.heartbeat("lease-999999", worker)
        assert caught.value.status == 410

    def test_fail_requeues_for_another_worker(self, client):
        scenarios = expand_grid(BASE, seeds=[200, 201])
        job = client.submit(scenarios=scenarios)
        quitter = client.register_worker("quitter")["worker"]
        lease = client.lease(quitter)
        assert client.fail(lease["id"], quitter, "simulated crash") == {
            "requeued": 2
        }
        finisher = client.register_worker("finisher")["worker"]
        retry = client.lease(finisher)
        leased = [Scenario.from_dict(s) for s in retry["scenarios"]]
        client.complete(retry["id"], finisher, run_batch(leased))
        assert client.job(job["id"])["status"] == "done"

    def test_malformed_lease_body_is_400(self, client, service):
        import json
        import urllib.request

        request = urllib.request.Request(
            f"{service.url}/leases",
            data=json.dumps({"not-worker": 1}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10.0)
        assert caught.value.code == 400


    def test_report_under_another_scenarios_key_is_400(self, client, service):
        scenarios = expand_grid(BASE, seeds=[400, 401])
        job = client.submit(scenarios=scenarios)
        worker = client.register_worker("relabel")["worker"]
        lease = client.lease(worker, max_scenarios=1)
        leased = Scenario.from_dict(lease["scenarios"][0])
        other = scenarios[1] if leased == scenarios[0] else scenarios[0]
        report = dataclasses.replace(
            run_batch([leased])[0], cache_key=other.cache_key()
        )
        stored = len(service.store)
        with pytest.raises(ServiceError) as caught:
            client.complete(lease["id"], worker, [report], executed=1)
        assert caught.value.status == 400
        assert len(service.store) == stored
        assert other.cache_key() not in service.store
        assert client.job(job["id"])["completed"] == 0
        # the lease is still live: an honest push completes it
        client.complete(lease["id"], worker, run_batch([leased]), executed=1)
        rest = client.lease(worker)
        client.complete(
            rest["id"],
            worker,
            run_batch([Scenario.from_dict(s) for s in rest["scenarios"]]),
        )
        assert client.job(job["id"])["status"] == "done"


class TestAdaptiveOverLeases:
    def test_adaptive_job_is_finished_by_leasing_workers(self, client, service):
        spec = dict(
            grid={"n": [12, 16]}, target_halfwidth=8.0, max_seeds=8, batch=4
        )
        job = client.submit_adaptive(BASE, **spec)
        worker = client.register_worker("adaptive")["worker"]
        deadline = time.monotonic() + 60.0
        while client.job(job["id"])["status"] in ("queued", "running"):
            assert time.monotonic() < deadline, "adaptive job never finished"
            lease = client.lease(worker)
            if lease is None:
                time.sleep(0.01)
                continue
            leased = [Scenario.from_dict(s) for s in lease["scenarios"]]
            client.complete(
                lease["id"], worker, run_batch(leased), executed=len(leased)
            )
        done = client.job(job["id"])
        assert done["status"] == "done", done
        runs = done["result"]["summary"]["total_runs"]
        assert done["result"]["meta"]["executed"] == runs > 0
        # every seed batch was an ordinary job in the journal
        journaled = {
            json.loads(payload)["id"]
            for _seq, kind, payload in service.store.journal_records()
            if kind == "job"
        }
        batches = [
            entry["id"]
            for entry in client.jobs()
            if entry["submitted_at"] >= done["submitted_at"]
            and entry["kind"] == "batch"
        ]
        assert batches and set(batches) <= journaled
        # a resubmission replays every batch from the store
        again = client.wait(client.submit_adaptive(BASE, **spec)["id"])
        assert again["result"]["meta"]["executed"] == 0
        assert again["result"]["cache_key"] == done["result"]["cache_key"]


class TestRemoteBesideLocal:
    def test_remote_worker_leases_beside_local_workers(self, tmp_path):
        scenarios = expand_grid(
            BASE.with_(topology_params={"n": 48}), seeds=range(40)
        )
        with ReproService(
            str(tmp_path / "mixed.db"), port=0, workers=2, lease_scenarios=2
        ) as running:
            client = ServiceClient(running.url, timeout=10.0)
            remote = client.register_worker("remote")["worker"]
            job = client.submit(scenarios=scenarios)
            lease = client.lease(remote)
            assert lease is not None
            leased = [Scenario.from_dict(s) for s in lease["scenarios"]]
            client.complete(
                lease["id"], remote, run_batch(leased), executed=len(leased)
            )
            assert client.wait(job["id"], timeout=60.0)["status"] == "done"
            by_name = {entry["name"]: entry for entry in client.workers()["workers"]}
        assert {"local-1", "local-2", "remote"} <= set(by_name)
        assert by_name["remote"]["leases_completed"] == 1
        assert by_name["remote"]["executed"] == len(leased)
        local = by_name["local-1"]["executed"] + by_name["local-2"]["executed"]
        assert local == len(scenarios) - len(leased)
