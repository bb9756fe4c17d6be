"""Server-side analysis and stable paging over a real socket."""

import pytest

from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid
from repro.service import ReproService, ServiceClient, ServiceError

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.3),
    seed=0,
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store_path = str(tmp_path_factory.mktemp("analysis") / "service.db")
    with ReproService(store_path, port=0, workers=1) as running:
        yield running


@pytest.fixture(scope="module")
def client(service):
    client = ServiceClient(service.url, timeout=30.0)
    scenarios = expand_grid(
        BASE,
        seeds=range(4),
        grid={"algorithm": ["decay", "fastbc"], "n": [12, 16]},
    )
    client.wait(client.submit(scenarios=scenarios)["id"], timeout=120.0)
    return client


class TestReportsPaging:
    def test_pages_reassemble_exactly(self, client):
        full = [r.cache_key for r in client.query()]
        assert len(full) == 16
        paged = []
        for offset in range(0, 16, 5):
            paged.extend(
                r.cache_key for r in client.query(limit=5, offset=offset)
            )
        assert paged == full

    def test_order_by_over_the_wire(self, client):
        seeds = [r.scenario["seed"] for r in client.query(order_by="seed")]
        assert seeds == sorted(seeds)

    def test_bad_paging_params_are_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query(offset="many")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.query(order_by="canonical_json")
        assert excinfo.value.status == 400
        assert "allowed: " in str(excinfo.value)
        assert "seed" in str(excinfo.value)


    @pytest.mark.parametrize(
        "page", [{"limit": -1}, {"limit": -1, "offset": 2}, {"offset": -1}]
    )
    def test_negative_paging_params_are_400(self, client, page):
        with pytest.raises(ServiceError) as excinfo:
            client.query(**page)
        assert excinfo.value.status == 400
        assert "must be >= 0" in str(excinfo.value)


def test_negative_paging_params_are_400_on_a_shard_directory(tmp_path):
    store_path = str(tmp_path / "farm")
    with ReproService(store_path, port=0, workers=1, shards=2) as running:
        client = ServiceClient(running.url, timeout=30.0)
        for page in ({"limit": -1}, {"limit": -1, "offset": 2}, {"offset": -1}):
            with pytest.raises(ServiceError) as excinfo:
                client.query(**page)
            assert excinfo.value.status == 400, page


class TestAnalysisEndpoint:
    def test_aggregate_matches_local(self, client, service):
        from repro.analysis import aggregate

        payload = client.analysis(kind="aggregate", by="algorithm,n")
        local = aggregate(service.store, by=("algorithm", "n"))
        assert payload == local.to_dict()
        assert payload["cache_key"] == local.cache_key()

    def test_aggregate_with_filters(self, client):
        payload = client.analysis(
            kind="aggregate", by="algorithm", algorithm="decay"
        )
        assert [row["algorithm"] for row in payload["rows"]] == ["decay"]

    def test_compare_over_the_wire(self, client, service):
        from repro.analysis import compare

        payload = client.analysis(
            kind="compare",
            a_algorithm="decay",
            b_algorithm="fastbc",
            match_on="n,seed",
        )
        local = compare(
            service.store,
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "fastbc"},
            match_on=("n", "seed"),
        )
        assert payload == local.to_dict()
        assert payload["summary"]["pairs"] == 8

    def test_unknown_kind_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.analysis(kind="vibes")
        assert excinfo.value.status == 400

    def test_unknown_parameter_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.analysis(kind="aggregate", flavor="spicy")
        assert excinfo.value.status == 400

    def test_bad_dimension_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.analysis(kind="aggregate", by="flavor")
        assert excinfo.value.status == 400


class TestAdaptiveJobs:
    def test_adaptive_job_round_trip(self, client, service):
        job = client.submit_adaptive(
            BASE,
            grid={"n": [12, 16]},
            target_halfwidth=8.0,
            max_seeds=8,
            batch=4,
        )
        assert job["kind"] == "adaptive"
        assert job["total"] == 2 * 8  # cells x max_seeds upper bound
        done = client.wait(job["id"], timeout=120.0)
        result = done["result"]
        assert result["kind"] == "adaptive"
        assert len(result["rows"]) == 2
        assert result["cache_key"]
        # resubmission replays entirely from the shared store
        again = client.wait(
            client.submit_adaptive(
                BASE,
                grid={"n": [12, 16]},
                target_halfwidth=8.0,
                max_seeds=8,
                batch=4,
            )["id"],
            timeout=120.0,
        )
        assert again["result"]["meta"]["executed"] == 0
        assert again["result"]["cache_key"] == result["cache_key"]

    def test_batch_jobs_still_report_kind(self, client):
        job = client.submit(scenarios=expand_grid(BASE, seeds=[99]))
        assert job["kind"] == "batch"
        client.wait(job["id"], timeout=60.0)

    def test_invalid_adaptive_spec_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_adaptive(BASE, target_halfwidth=8.0, max_seeds=2, batch=4)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json("/jobs", {"adaptive": {"grid": {}}})
        assert excinfo.value.status == 400
