"""Store layouts: a shard directory answers exactly like a single file."""

import sqlite3

import pytest

from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.store import ResultStore, shard_index

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 16},
    faults=FaultConfig.receiver(0.2),
)


@pytest.fixture(scope="module")
def reports():
    return run_batch(
        expand_grid(
            BASE, seeds=range(10), grid={"algorithm": ["decay", "fastbc"]}
        )
    )


def _strip_timing(rows):
    """Wall time is outside the canonical form, so equality ignores it."""
    return [row._replace(wall_time_s=0.0) for row in rows]


class TestLayouts:
    def test_file_path_opens_single_sqlite(self, tmp_path):
        path = tmp_path / "one.db"
        with ResultStore(str(path)) as store:
            assert store.stats()["backend"] == "sqlite"
            assert store.shard_stats() == [
                {"shard": 0, "path": str(path), "reports": 0, "attempted": 0}
            ]
        assert path.is_file()
        assert not [entry for entry in tmp_path.iterdir() if entry.is_dir()]

    def test_shards_parameter_creates_directory(self, tmp_path):
        path = tmp_path / "farm"
        with ResultStore(str(path), shards=3) as store:
            assert store.stats()["backend"] == "sharded-sqlite"
        names = sorted(p.name for p in path.iterdir())
        assert names == ["shard-00.db", "shard-01.db", "shard-02.db"]

    def test_existing_directory_autodetects_shard_count(self, tmp_path):
        path = str(tmp_path / "farm")
        ResultStore(path, shards=4).close()
        with ResultStore(path) as store:  # no shards= needed on reopen
            assert len(store.shard_stats()) == 4
            assert store.stats()["shards"] == 4

    def test_shard_count_mismatch_is_a_hard_error(self, tmp_path):
        path = str(tmp_path / "farm")
        ResultStore(path, shards=2).close()
        with pytest.raises(ValueError, match="has 2 shards, but shards=3"):
            ResultStore(path, shards=3)

    @pytest.mark.parametrize("shards", [None, 3])
    def test_a_missing_shard_file_is_a_hard_error(
        self, tmp_path, reports, shards
    ):
        path = tmp_path / "farm"
        with ResultStore(str(path), shards=3) as store:
            store.put_many(reports)
        (path / "shard-01.db").unlink()
        before = sorted(entry.name for entry in path.iterdir())
        with pytest.raises(ValueError, match="missing shard files shard-01.db of its 3"):
            ResultStore(str(path), shards=shards)
        assert sorted(entry.name for entry in path.iterdir()) == before

    @pytest.mark.parametrize("shards", [None, 3])
    def test_a_missing_last_shard_file_is_a_hard_error(
        self, tmp_path, reports, shards
    ):
        # the recorded count catches what the file numbers cannot show
        path = tmp_path / "farm"
        with ResultStore(str(path), shards=3) as store:
            store.put_many(reports)
        for suffix in ("", "-wal", "-shm"):
            (path / f"shard-02.db{suffix}").unlink(missing_ok=True)
        before = sorted(entry.name for entry in path.iterdir())
        with pytest.raises(ValueError, match="missing shard files shard-02.db of its 3"):
            ResultStore(str(path), shards=shards)
        assert sorted(entry.name for entry in path.iterdir()) == before

    def test_a_directory_without_a_recorded_count_records_it(
        self, tmp_path, reports
    ):
        path = tmp_path / "farm"
        with ResultStore(str(path), shards=3) as store:
            store.put_many(reports)
        for shard in sorted(path.glob("shard-*.db")):
            with sqlite3.connect(shard) as connection:
                connection.execute(
                    "DELETE FROM store_meta WHERE key = 'shard_count'"
                )
            connection.close()
        with ResultStore(str(path)) as store:  # counted from its files
            assert store.stats()["shards"] == 3
            assert store.stats()["reports"] == len(reports)
        (path / "shard-02.db").unlink()
        with pytest.raises(ValueError, match="missing shard files shard-02.db of its 3"):
            ResultStore(str(path))

    def test_an_empty_shard_file_reopens(self, tmp_path):
        # what a first open killed before it wrote the schema leaves behind
        path = tmp_path / "farm"
        ResultStore(str(path), shards=3).close()
        (path / "shard-01.db").write_bytes(b"")
        with ResultStore(str(path)) as store:
            assert store.stats()["shards"] == 3

    def test_shards_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
            ResultStore(str(tmp_path / "farm"), shards=0)
        assert not (tmp_path / "farm").exists()


class TestShardRouting:
    def test_shard_index_is_stable_and_in_range(self):
        keys = [f"{i:064x}" for i in range(100)]
        for key in keys:
            index = shard_index(key, 4)
            assert 0 <= index < 4
            assert index == shard_index(key, 4)

    def test_rows_land_on_their_routed_shard(self, tmp_path, reports):
        store = ResultStore(str(tmp_path / "farm"), shards=3)
        store.put_many(reports)
        per_shard = {
            entry["shard"]: entry["reports"] for entry in store.shard_stats()
        }
        expected = {0: 0, 1: 0, 2: 0}
        for report in reports:
            expected[shard_index(report.cache_key, 3)] += 1
        assert per_shard == expected
        store.close()


class TestShardedEquivalence:
    """The sharded engine is indistinguishable from the single file."""

    @pytest.fixture()
    def pair(self, tmp_path, reports):
        single = ResultStore(str(tmp_path / "single.db"))
        sharded = ResultStore(str(tmp_path / "farm"), shards=3)
        single.put_many(reports)
        sharded.put_many(reports)
        yield single, sharded
        single.close()
        sharded.close()

    def test_keys_identical(self, pair):
        single, sharded = pair
        assert single.keys() == sharded.keys()

    def test_payload_bytes_identical(self, pair, reports):
        single, sharded = pair
        for report in reports:
            assert single.get_json(report.cache_key) == sharded.get_json(
                report.cache_key
            )

    def test_iter_rows_order_identical(self, pair):
        single, sharded = pair
        assert _strip_timing(single.iter_rows()) == _strip_timing(
            sharded.iter_rows()
        )

    def test_query_with_filters_identical(self, pair):
        single, sharded = pair
        for filters in (
            {"algorithm": "decay"},
            {"seed_min": 3, "seed_max": 7},
            {"order_by": "seed"},
        ):
            assert [r.cache_key for r in single.query(**filters)] == [
                r.cache_key for r in sharded.query(**filters)
            ]

    def test_pagination_walks_without_gaps_or_dupes(self, pair):
        single, sharded = pair
        full = [r.cache_key for r in single.query()]
        paged = []
        offset = 0
        while True:
            page = sharded.query(limit=7, offset=offset)
            if not page:
                break
            paged.extend(r.cache_key for r in page)
            offset += 7
        assert paged == full

    def test_every_page_identical(self, pair):
        single, sharded = pair
        for limit in (None, 0, 1, 7, 20, 25):
            for offset in (None, 0, 2, 19, 20, 25):
                page = {"limit": limit, "offset": offset}
                assert [r.cache_key for r in single.query(**page)] == [
                    r.cache_key for r in sharded.query(**page)
                ], page

    @pytest.mark.parametrize(
        "page",
        [{"limit": -1}, {"limit": -1, "offset": 2}, {"offset": -1}],
    )
    def test_negative_limit_or_offset_rejected(self, pair, page):
        for store in pair:
            with pytest.raises(ValueError, match="must be >= 0"):
                store.query(**page)

    def test_stats_counts_agree(self, pair):
        single, sharded = pair
        lhs, rhs = single.stats(), sharded.stats()
        for key in ("reports", "by_algorithm", "by_topology", "by_adversary"):
            assert lhs[key] == rhs[key]
        assert lhs["backend"] == "sqlite"
        assert rhs["backend"] == "sharded-sqlite"
        assert rhs["shards"] == 3


class TestDedupAccounting:
    def test_duplicate_puts_raise_attempted_not_reports(self, tmp_path, reports):
        store = ResultStore(str(tmp_path / "farm"), shards=2)
        assert store.put_many(reports) == len(reports)
        assert store.put_many(reports) == 0  # every offer a duplicate
        stats = store.stats()
        assert stats["reports"] == len(reports)
        assert stats["puts_attempted"] == 2 * len(reports)
        assert stats["dedup_ratio"] == 0.5
        store.close()

    def test_attempted_survives_reopen(self, tmp_path, reports):
        path = str(tmp_path / "farm")
        store = ResultStore(path, shards=2)
        store.put_many(reports)
        store.put_many(reports[:5])
        store.close()
        reopened = ResultStore(path)
        assert reopened.stats()["puts_attempted"] == len(reports) + 5
        reopened.close()

    def test_shard_stats_partition_the_totals(self, tmp_path, reports):
        store = ResultStore(str(tmp_path / "farm"), shards=3)
        store.put_many(reports)
        store.put_many(reports)
        entries = store.shard_stats()
        assert sum(e["reports"] for e in entries) == len(reports)
        assert sum(e["attempted"] for e in entries) == 2 * len(reports)
        store.close()
