"""Store semantics: round-trips, queries, batching, concurrent writers."""

import json
import multiprocessing
import sqlite3

import pytest

from repro.core.faults import AdversaryConfig, FaultConfig
from repro.runner import RunReport, Scenario, run
from repro.store import STORE_SCHEMA_VERSION, ResultStore

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 16},
    faults=FaultConfig.receiver(0.3),
    seed=0,
)


def fabricate(scenario: Scenario, rounds: int = 7) -> RunReport:
    """A synthetic report under the scenario's real cache key (no run)."""
    return RunReport(
        scenario=scenario.to_dict(),
        algorithm=scenario.algorithm,
        success=True,
        rounds=rounds,
        informed=16,
        total=16,
        network_n=16,
        network_name="path-16",
        wall_time_s=0.001,
        cache_key=scenario.cache_key(),
    )


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.db")) as result_store:
        yield result_store


class TestRoundTrip:
    def test_put_get_byte_identical(self, store):
        report = run(BASE)
        assert store.put(report) == 1
        cached = store.get(BASE.cache_key())
        assert cached.to_json(canonical=True) == report.to_json(canonical=True)
        assert store.get_json(BASE.cache_key()) == report.to_json(canonical=True)

    def test_get_preserves_wall_time(self, store):
        report = run(BASE)
        store.put(report)
        assert store.get(BASE.cache_key()).wall_time_s == report.wall_time_s

    def test_adversary_round_trip(self, store):
        scenario = BASE.with_(
            faults=FaultConfig.faultless(),
            adversary=AdversaryConfig("gilbert_elliott", {"p_bad": 0.9}),
        )
        report = run(scenario)
        store.put(report)
        cached = store.get(scenario.cache_key())
        assert cached.to_json(canonical=True) == report.to_json(canonical=True)
        assert cached.scenario["adversary"]["kind"] == "gilbert_elliott"

    def test_get_missing_returns_none(self, store):
        assert store.get("0" * 64) is None
        assert store.get_json("0" * 64) is None

    def test_contains_and_len(self, store):
        assert BASE.cache_key() not in store
        store.put(fabricate(BASE))
        assert BASE.cache_key() in store
        assert len(store) == 1


class TestPutSemantics:
    def test_put_many_batch(self, store):
        reports = [fabricate(BASE.with_(seed=seed)) for seed in range(20)]
        assert store.put_many(reports) == 20
        assert len(store) == 20
        assert store.keys() == sorted(r.cache_key for r in reports)

    def test_put_ignores_existing_keys(self, store):
        store.put(fabricate(BASE, rounds=7))
        assert store.put(fabricate(BASE, rounds=99)) == 0
        assert store.get(BASE.cache_key()).rounds == 7

    def test_put_replace_overwrites(self, store):
        store.put(fabricate(BASE, rounds=7))
        assert store.put(fabricate(BASE, rounds=99), replace=True) == 1
        assert store.get(BASE.cache_key()).rounds == 99

    def test_put_rejects_missing_cache_key(self, store):
        report = RunReport(
            scenario={}, algorithm="decay", success=True,
            rounds=1, informed=1, total=1,
        )
        with pytest.raises(ValueError, match="cache_key"):
            store.put(report)

    def test_put_many_empty_is_noop(self, store):
        assert store.put_many([]) == 0


class TestQuery:
    @pytest.fixture
    def populated(self, store):
        scenarios = [
            BASE.with_(seed=seed, algorithm=algorithm)
            for algorithm in ("decay", "fastbc")
            for seed in range(5)
        ]
        scenarios.append(
            BASE.with_(
                seed=0,
                faults=FaultConfig.faultless(),
                adversary=AdversaryConfig("budgeted_jammer", {"per_round": 2}),
            )
        )
        store.put_many([fabricate(s) for s in scenarios])
        return store

    def test_filter_by_algorithm(self, populated):
        reports = populated.query(algorithm="fastbc")
        assert len(reports) == 5
        assert {r.algorithm for r in reports} == {"fastbc"}

    def test_filter_by_seed_range(self, populated):
        reports = populated.query(algorithm="decay", seed_min=1, seed_max=3)
        assert sorted(r.scenario["seed"] for r in reports) == [1, 2, 3]

    def test_filter_by_adversary(self, populated):
        jammed = populated.query(adversary="budgeted_jammer")
        assert len(jammed) == 1
        assert populated.count(adversary="none") == 10

    def test_filter_by_topology_and_limit(self, populated):
        assert populated.count(topology="path") == 11
        assert len(populated.query(topology="path", limit=3)) == 3

    def test_query_order_is_deterministic(self, populated):
        first = [r.cache_key for r in populated.query()]
        second = [r.cache_key for r in populated.query()]
        assert first == second

    def test_stats(self, populated):
        stats = populated.stats()
        assert stats["reports"] == 11
        assert stats["by_algorithm"] == {"decay": 6, "fastbc": 5}
        assert stats["by_adversary"] == {"none": 10, "budgeted_jammer": 1}
        assert stats["schema_version"] == STORE_SCHEMA_VERSION


class TestExport:
    def test_export_json(self, store, tmp_path):
        store.put_many([fabricate(BASE.with_(seed=s)) for s in range(3)])
        out = tmp_path / "export.json"
        assert store.export_json(str(out)) == 3
        data = json.loads(out.read_text())
        assert len(data) == 3
        assert all("cache_key" in row and "wall_time_s" in row for row in data)

    def test_export_with_filter(self, store, tmp_path):
        store.put_many(
            [fabricate(BASE.with_(seed=s, algorithm=a))
             for a in ("decay", "fastbc") for s in range(2)]
        )
        out = tmp_path / "decay.json"
        assert store.export_json(str(out), algorithm="decay") == 2


class TestSchemaVersion:
    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "old.db")
        ResultStore(path).close()
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE store_meta SET value = '999' "
                "WHERE key = 'schema_version'"
            )
        with pytest.raises(ValueError, match="schema version"):
            ResultStore(path)

    def test_reopened_file_store_holds_the_four_tables(self, tmp_path):
        path = str(tmp_path / "store.db")
        with ResultStore(path) as store:
            store.put(fabricate(BASE))
        ResultStore(path).close()
        connection = sqlite3.connect(path)
        tables = [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "ORDER BY name"
            )
        ]
        version = connection.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        connection.close()
        assert tables == ["farm_journal", "reports", "store_meta", "timelines"]
        assert version == "1" == str(STORE_SCHEMA_VERSION)


def _writer(path: str, offset: int, count: int) -> int:
    with ResultStore(path) as store:
        reports = [
            fabricate(BASE.with_(seed=offset + index)) for index in range(count)
        ]
        return store.put_many(reports)


class TestConcurrentWriters:
    def test_two_processes_put_many_without_corruption(self, tmp_path):
        path = str(tmp_path / "shared.db")
        ResultStore(path).close()  # create before the writers race
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        with context.Pool(2) as pool:
            written = pool.starmap(
                _writer, [(path, 0, 40), (path, 20, 40)]
            )
        # the 20 overlapping seeds are content-addressed: exactly one
        # writer wins each, and the union is intact
        assert sum(written) == 60
        with ResultStore(path) as store:
            assert len(store) == 60
            (entry,) = store.shard_stats()
            connection = sqlite3.connect(entry["path"])
            check = connection.execute("PRAGMA integrity_check").fetchone()[0]
            connection.close()
            assert check == "ok"
            for key in store.keys():
                assert store.get(key) is not None
