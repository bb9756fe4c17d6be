"""Service endpoints over a real socket: submit -> poll -> fetch."""

import pytest

from repro.core.faults import AdversaryConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.service import ReproService, ServiceClient, ServiceError

BASE = Scenario(algorithm="decay", topology="path", topology_params={"n": 12})


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store_path = str(tmp_path_factory.mktemp("service") / "service.db")
    with ReproService(store_path, port=0, workers=1) as running:
        yield running


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, timeout=10.0)


class TestHealthAndRegistry:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert "reports" in payload

    def test_registry_matches_cli_dump(self, client):
        from repro.introspect import registry_dump

        assert client.registry() == registry_dump()

    def test_registry_adversaries_only(self, client):
        payload = client.registry(adversaries_only=True)
        assert set(payload) == {"adversaries"}


class TestJobLifecycle:
    def test_submit_poll_fetch_round_trip(self, client):
        scenarios = expand_grid(
            BASE, seeds=[0, 1], grid={"algorithm": ["decay", "fastbc"]}
        )
        job = client.submit(scenarios=scenarios)
        assert job["status"] in ("queued", "running")
        assert job["total"] == 4
        assert job["cache_keys"] == [s.cache_key() for s in scenarios]

        done = client.wait(job["id"], timeout=60.0)
        assert done["completed"] == 4

        direct = run_batch(scenarios)
        for scenario, report in zip(scenarios, direct):
            fetched = client.report_bytes(scenario.cache_key())
            assert fetched == report.to_json(canonical=True).encode("utf-8")

    def test_submit_base_with_grid_and_adversary(self, client):
        job = client.submit(
            base=BASE,
            seeds=[0],
            grid={
                "adversary": [
                    AdversaryConfig("gilbert_elliott", {"p_bad": 0.9}),
                    AdversaryConfig("budgeted_jammer", {"per_round": 2}),
                ]
            },
        )
        done = client.wait(job["id"], timeout=60.0)
        assert done["total"] == 2
        report = client.report(done["cache_keys"][0])
        assert report.scenario["adversary"]["kind"] == "gilbert_elliott"

    def test_jobs_listing(self, client):
        jobs = client.jobs()
        assert jobs, "previous tests submitted jobs"
        assert all(set(j) >= {"id", "status", "completed", "total"} for j in jobs)

    def test_query_endpoint(self, client):
        scenarios = expand_grid(BASE.with_(algorithm="fastbc"), seeds=[7])
        client.wait(client.submit(scenarios=scenarios)["id"], timeout=60.0)
        reports = client.query(algorithm="fastbc", seed_min=7, seed_max=7)
        assert [r.scenario["seed"] for r in reports] == [7]
        assert client.query(algorithm="fastbc", limit=1)


class TestErrors:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-9999")
        assert excinfo.value.status == 404

    def test_missing_report_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.report_bytes("0" * 64)
        assert excinfo.value.status == 404

    def test_bad_submit_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("/jobs", {"scenarios": []})
        assert excinfo.value.status == 400

    def test_unknown_algorithm_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json(
                "/jobs", {"scenarios": [{"algorithm": "not_a_thing"}]}
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "body",
        [
            {"scenarios": [{"algorithm": "decay", "topology": "grid",
                            "topology_params": {"n": -4}}]},
            {"base": {"algorithm": "decay", "topology": "grid",
                      "topology_params": {"n": 0}}},
            {"base": BASE.to_dict(), "grid": {"n": [12, -4]}},
            {"scenarios": [{"algorithm": "decay", "topology": "gnp",
                            "topology_params": {"n": 12, "seed": -1}}]},
        ],
    )
    def test_bad_topology_size_or_seed_is_400(self, client, body):
        before = len(client.jobs())
        with pytest.raises(ServiceError) as excinfo:
            client._json("/jobs", body)
        assert excinfo.value.status == 400
        assert "topology_params" in str(excinfo.value)
        assert len(client.jobs()) == before

    def test_param_below_its_minimum_is_400(self, client):
        before = len(client.jobs())
        with pytest.raises(ServiceError) as excinfo:
            client._json(
                "/jobs",
                {"scenarios": [{"algorithm": "robust_fastbc",
                                "params": {"block": 0}}]},
            )
        assert excinfo.value.status == 400
        assert "'block' must be an int >= 1" in str(excinfo.value)
        assert len(client.jobs()) == before

    def test_unknown_query_parameter_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("/reports?bogus=1")
        assert excinfo.value.status == 400

    def test_empty_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("/jobs", {})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400_and_closes(self, service, length):
        # a negative length would read to EOF, holding the handler
        # thread for as long as the client kept the socket open
        reply = _raw_request(
            service,
            f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400"), reply

    def test_non_integer_completion_counts_are_400(self, service):
        body = b'{"worker": "w-0001", "reports": [], "executed": "many"}'
        reply = _raw_request(
            service,
            "POST /leases/lease-000001/complete HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n",
            body,
        )
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"must be integers" in reply


def _raw_request(service, head: str, body: bytes = b"") -> bytes:
    """Send one request on a raw socket; return everything the server
    sends before it closes the connection (a timeout fails the test)."""
    import socket

    with socket.create_connection((service.host, service.port), timeout=5.0) as sock:
        sock.sendall(head.encode("ascii") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestIdleLatency:
    def test_one_scenario_job_on_an_idle_service(self, client):
        import time

        time.sleep(0.3)  # the local worker is idle, waiting for work
        start = time.perf_counter()
        job = client.submit(scenarios=[BASE.with_(seed=777)])
        done = client.wait(job["id"], timeout=10.0, poll=0.005)
        elapsed = time.perf_counter() - start
        assert done["status"] == "done"
        assert elapsed < 0.25, elapsed


class TestKeepAlive:
    def test_error_with_unread_body_does_not_poison_the_connection(self, service):
        # POST to an unknown path leaves the body unread; the error
        # response must close the keep-alive connection so those bytes
        # can't be parsed as the next request
        import http.client

        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10.0
        )
        try:
            connection.request(
                "POST", "/nope", body=b'{"x": 1}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_success_responses_keep_the_connection_alive(self, service):
        import http.client

        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10.0
        )
        try:
            for _ in range(2):  # two requests over one connection
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
