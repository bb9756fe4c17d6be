"""The farm_journal table: the store's journal contract.

The journal is coordinator state riding in the result store — ordered,
replaceable, and (in a shard directory) living on exactly one shard so
there is a single total order to replay.
"""

import sqlite3

import pytest

from repro.store import ResultStore


@pytest.fixture(params=["single", "sharded"])
def store(request, tmp_path):
    if request.param == "single":
        opened = ResultStore(str(tmp_path / "journal.db"))
    else:
        opened = ResultStore(str(tmp_path / "journal-shards"), shards=3)
    with opened:
        yield opened


class TestJournalContract:
    def test_starts_empty(self, store):
        assert store.journal_size() == 0
        assert store.journal_records() == []

    def test_append_preserves_order(self, store):
        store.journal_append([("job", "{}"), ("grant", '{"a": 1}')])
        store.journal_append([("beat", '{"b": 2}')])
        records = store.journal_records()
        assert [(kind, payload) for _seq, kind, payload in records] == [
            ("job", "{}"), ("grant", '{"a": 1}'), ("beat", '{"b": 2}'),
        ]
        seqs = [seq for seq, _kind, _payload in records]
        assert seqs == sorted(seqs)
        assert store.journal_size() == 3

    def test_replace_swaps_the_whole_journal(self, store):
        store.journal_append([("job", "{}")] * 5)
        store.journal_replace([("grant", '{"compact": true}')])
        records = store.journal_records()
        assert len(records) == 1
        assert records[0][1] == "grant"
        assert store.journal_size() == 1

    def test_replace_with_empty_clears(self, store):
        store.journal_append([("job", "{}")])
        store.journal_replace([])
        assert store.journal_size() == 0

    def test_journal_survives_reopen(self, store):
        store.journal_append([("job", '{"id": "job-1"}')])
        path = store.path
        store.close()
        # an existing store reopens with its own layout (sharded or not)
        with ResultStore(path) as again:
            records = again.journal_records()
            assert [(k, p) for _s, k, p in records] == [
                ("job", '{"id": "job-1"}')
            ]

    def test_stats_reports_journal_size(self, store):
        assert store.stats()["journal_records"] == 0
        store.journal_append([("job", "{}"), ("job", "{}")])
        assert store.stats()["journal_records"] == 2


def test_sharded_journal_lives_on_shard_zero(tmp_path):
    """One journal, one replay order — shard 0 owns it, and report
    routing never touches it."""
    with ResultStore(str(tmp_path / "farm"), shards=3) as store:
        store.journal_append([("job", "{}")])
        counts = []
        for entry in store.shard_stats():
            connection = sqlite3.connect(entry["path"])
            counts.append(
                connection.execute(
                    "SELECT COUNT(*) FROM farm_journal"
                ).fetchone()[0]
            )
            connection.close()
        assert counts == [1, 0, 0]
