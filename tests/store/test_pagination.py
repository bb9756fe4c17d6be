"""Deterministic ordering, pagination, and streaming on the store.

The pagination contract: every ordering is total (cache_key tiebreak),
so walking ``limit``/``offset`` pages reassembles exactly the unpaged
result — no duplicates, no drops — even for columns with heavy ties.
The streaming contract: ``iter_rows``/``iter_reports`` yield the same
rows as ``query`` in the same order, a batch at a time, and
``export_json`` writes byte-identical output to a one-shot dump while
holding only one batch in memory.
"""

import json

import pytest

from repro.core.faults import FaultConfig
from repro.runner import RunReport, Scenario
from repro.store import ORDERABLE_COLUMNS, ResultStore


def _fabricated(count, algorithms=("decay", "fastbc")):
    reports = []
    for index in range(count):
        algorithm = algorithms[index % len(algorithms)]
        scenario = Scenario(
            algorithm=algorithm,
            topology="path",
            topology_params={"n": 16},
            faults=FaultConfig.receiver(0.3),
            seed=index,
        )
        reports.append(
            RunReport(
                scenario=scenario.to_dict(),
                algorithm=algorithm,
                success=index % 7 != 0,
                rounds=100 + (index * 37) % 50,  # heavy ties on purpose
                informed=16,
                total=16,
                network_n=16,
                network_name="path-16",
                wall_time_s=0.001,
                cache_key=scenario.cache_key(),
            )
        )
    return reports


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = ResultStore(str(tmp_path_factory.mktemp("paging") / "p.db"))
    store.put_many(_fabricated(120))
    yield store
    store.close()


class TestPagination:
    def test_pages_reassemble_exactly(self, store):
        full = [r.cache_key for r in store.query()]
        paged = []
        offset = 0
        while True:
            page = store.query(limit=17, offset=offset)
            if not page:
                break
            paged.extend(r.cache_key for r in page)
            offset += 17
        assert paged == full

    @pytest.mark.parametrize("column", ORDERABLE_COLUMNS)
    def test_every_ordering_is_total(self, store, column):
        """Tied columns must still paginate without dups or drops."""
        full = [r.cache_key for r in store.query(order_by=column)]
        paged = []
        for offset in range(0, 120, 13):
            paged.extend(
                r.cache_key
                for r in store.query(order_by=column, limit=13, offset=offset)
            )
        assert paged == full
        assert len(set(full)) == len(full) == 120

    def test_order_by_actually_orders(self, store):
        rounds = [r.rounds for r in store.query(order_by="rounds")]
        assert rounds == sorted(rounds)

    def test_offset_without_limit(self, store):
        assert len(store.query(offset=100)) == 20

    def test_bad_order_by_and_offset_rejected(self, store):
        with pytest.raises(ValueError):
            store.query(order_by="canonical_json")  # not queryable
        with pytest.raises(ValueError):
            store.query(offset=-1)


class TestStreaming:
    def test_iter_rows_matches_query(self, store):
        rows = list(store.iter_rows(batch_size=11))
        reports = store.query()
        assert [row.cache_key for row in rows] == [r.cache_key for r in reports]
        for row, report in zip(rows, reports):
            assert row.rounds == report.rounds
            assert row.success == report.success
            assert row.seed == report.scenario["seed"]
            assert row.network_n == report.network_n

    def test_iter_reports_matches_query(self, store):
        streamed = list(store.iter_reports(batch_size=7, algorithm="decay"))
        assert [r.to_json(canonical=True) for r in streamed] == [
            r.to_json(canonical=True) for r in store.query(algorithm="decay")
        ]

    def test_iter_rows_honors_filters_and_order(self, store):
        rows = list(
            store.iter_rows(batch_size=9, algorithm="fastbc", order_by="seed")
        )
        assert all(row.algorithm == "fastbc" for row in rows)
        assert [row.seed for row in rows] == sorted(row.seed for row in rows)

    def test_unknown_filter_rejected(self, store):
        with pytest.raises(TypeError):
            list(store.iter_rows(flavor="spicy"))


class TestStreamingExport:
    def test_export_matches_one_shot_dump_on_thousands_of_rows(self, tmp_path):
        """ISSUE-5 satellite: chunked export, identical bytes, flat memory."""
        with ResultStore(str(tmp_path / "big.db")) as store:
            store.put_many(_fabricated(3000))
            out = tmp_path / "export.json"
            written = store.export_json(str(out), batch_size=256)
            assert written == 3000
            expected = (
                json.dumps(
                    [r.to_dict() for r in store.query()],
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        assert out.read_text() == expected
        # and the export parses back to every report
        assert len(json.loads(out.read_text())) == 3000

    def test_export_with_filters(self, store, tmp_path):
        out = tmp_path / "decay.json"
        written = store.export_json(str(out), algorithm="decay")
        data = json.loads(out.read_text())
        assert written == len(data) == 60
        assert {entry["algorithm"] for entry in data} == {"decay"}

    def test_empty_export_is_valid_json(self, store, tmp_path):
        out = tmp_path / "none.json"
        assert store.export_json(str(out), algorithm="nope") == 0
        assert json.loads(out.read_text()) == []
