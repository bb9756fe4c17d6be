"""``GET /metrics`` + ``GET /metrics.json`` over a real socket, and the
lease trace header the coordinator propagates to workers."""

import re
import urllib.request

import pytest

from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.service import ReproService, ServiceClient
from repro.service.server import PROMETHEUS_CONTENT_TYPE
from repro.telemetry import METRICS, TRACE_HEADER, trace_id_for_keys

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.2),
)

#: a Prometheus sample line: name{labels} value
_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})?'
    r" -?[0-9.e+naif-]+$"
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store_path = str(tmp_path_factory.mktemp("metrics-http") / "farm.db")
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


@pytest.fixture(scope="module")
def farmed(client):
    """Drive one full lease cycle; returns (lease, scenarios)."""
    scenarios = expand_grid(BASE, seeds=[300, 301, 302])
    client.submit(scenarios=scenarios)
    worker = client.register_worker("observer")["worker"]
    lease = client.lease(worker)
    leased = [Scenario.from_dict(s) for s in lease["scenarios"]]
    client.complete(
        lease["id"], worker, run_batch(leased), executed=len(leased)
    )
    return lease, leased


class TestPrometheusEndpoint:
    def test_service_enables_the_global_registry(self, service):
        assert METRICS.enabled

    def test_metrics_text_is_valid_exposition(self, client, farmed):
        text = client.metrics_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line.startswith("#") or _SAMPLE.match(line), line
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_store_put_seconds histogram" in text
        assert 'repro_store_put_seconds_bucket{le="+Inf"}' in text

    def test_farm_counters_reflect_the_lease_cycle(self, client, farmed):
        text = client.metrics_text()
        granted = re.search(
            r"^repro_farm_leases_granted_total (\d+)$", text, re.M
        )
        assert granted and int(granted.group(1)) >= 1
        completed = re.search(
            r"^repro_farm_scenarios_completed_total (\d+)$", text, re.M
        )
        assert completed and int(completed.group(1)) >= 3

    def test_scrape_gauges_track_store_and_queue(self, client, farmed):
        text = client.metrics_text()
        reports = re.search(r"^repro_store_reports (\d+)$", text, re.M)
        assert reports and int(reports.group(1)) >= 3
        assert re.search(r"^repro_farm_pending_scenarios 0$", text, re.M)

    def test_content_type_is_prometheus_004(self, service, farmed):
        with urllib.request.urlopen(
            f"{service.url}/metrics", timeout=10.0
        ) as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE

    def test_metrics_json_twin(self, client, farmed):
        payload = client.metrics_json()
        assert payload["enabled"] is True
        metrics = payload["metrics"]
        assert metrics["repro_farm_leases_granted_total"]["value"] >= 1
        http = metrics["repro_http_requests_total"]
        routes = {entry["labels"]["route"] for entry in http["labeled"]}
        assert "metrics" in routes

    def test_unknown_routes_bucket_to_other(self, client, service):
        with pytest.raises(Exception):
            client._get("/definitely-not-a-route")
        http = client.metrics_json()["metrics"]["repro_http_requests_total"]
        routes = {entry["labels"]["route"] for entry in http["labeled"]}
        assert "other" in routes
        assert "definitely-not-a-route" not in routes


class TestTracePropagation:
    def test_lease_carries_deterministic_trace(self, client):
        scenarios = expand_grid(BASE, seeds=[400, 401])
        client.submit(scenarios=scenarios)
        worker = client.register_worker("tracer")["worker"]
        lease = client.lease(worker)
        leased = [Scenario.from_dict(s) for s in lease["scenarios"]]
        expected = trace_id_for_keys(s.cache_key() for s in leased)
        assert lease["trace"] == expected
        # the X-Repro-Trace response header reached the client
        assert client.last_trace == expected
        client.complete(
            lease["id"], worker, run_batch(leased), executed=len(leased)
        )
