"""Store persistence: timeline sidecars ride along with their reports."""

import json
import pickle

import pytest

from repro.runner import RunReport, Scenario, run, run_batch
from repro.store import ResultStore
from repro.timeline import Timeline, TimelineConfig
from repro.timeline.analyze import aggregate_timelines


def _report(seed=3, algorithm="decay", n=24, timeline=True):
    return run(
        Scenario(
            algorithm=algorithm,
            topology="gnp",
            topology_params={"n": n},
            seed=seed,
            timeline=TimelineConfig(every=1) if timeline else None,
        )
    )


@pytest.fixture(params=["single", "sharded"])
def store(request, tmp_path):
    if request.param == "single":
        path = str(tmp_path / "results.db")
    else:
        path = str(tmp_path / "farm") + "?shards=4"
    with ResultStore(path) as opened:
        yield opened


class TestSidecarRoundTrip:
    def test_put_get_reattaches_the_timeline(self, store):
        report = _report()
        assert store.put_many([report]) == 1
        cached = store.get(report.cache_key)
        assert cached.timeline == report.timeline
        assert cached.to_json(canonical=True) == report.to_json(canonical=True)

    def test_get_timeline_returns_the_artifact(self, store):
        report = _report()
        store.put_many([report])
        timeline = store.get_timeline(report.cache_key)
        assert timeline is not None
        assert timeline.rounds == report.rounds
        assert json.loads(store.get_timeline_json(report.cache_key)) == (
            report.timeline
        )

    def test_missing_keys_return_none(self, store):
        assert store.get_timeline("0" * 64) is None
        assert store.get_timeline_json("0" * 64) is None

    def test_duplicate_offers_are_absorbed(self, store):
        report = _report()
        store.put_many([report])
        store.put_many([report])
        assert store.timeline_count() == 1

    def test_timeline_less_reports_store_no_sidecar(self, store):
        report = _report(timeline=False)
        store.put_many([report])
        assert store.timeline_count() == 0
        assert store.get(report.cache_key).timeline is None

    def test_stats_count_sidecars(self, store):
        store.put_many([_report(seed=1), _report(seed=2, timeline=False)])
        stats = store.stats()
        assert stats["reports"] == 2
        assert stats["timelines"] == 1


class TestReuseThroughTheRunner:
    def test_cache_hits_return_the_recorded_timeline(self, tmp_path):
        scenario = Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 24},
            seed=3,
            timeline=TimelineConfig(every=1),
        )
        with ResultStore(str(tmp_path / "reuse.db")) as store:
            first = run_batch([scenario], store=store)[0]
            again = run_batch([scenario], store=store)[0]
        assert first.timeline is not None
        assert again.timeline == first.timeline

    def test_a_hit_parses_its_sidecar_only_when_read(self, store, monkeypatch):
        scenario = Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 24},
            seed=5,
            timeline=TimelineConfig(every=1),
        )
        first = run_batch([scenario], store=store)[0]
        sidecar = store.get_timeline_json(first.cache_key)
        parsed = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        again = run_batch([scenario], store=store)[0]
        assert again.to_json(canonical=True) == first.to_json(canonical=True)
        assert sidecar not in parsed
        assert again.timeline["rounds"] == first.rounds
        assert again.timeline["columns"] == first.timeline["columns"]
        assert parsed.count(sidecar) == 1
        monkeypatch.undo()

        # the replay is the fresh report, whichever way it is read
        assert again == first and first == again
        assert again.timeline == first.timeline
        assert first.timeline == again.timeline
        assert again.to_dict() == first.to_dict()
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            first.to_dict(), sort_keys=True
        )
        assert RunReport.from_dict(again.to_dict()) == first
        assert pickle.loads(pickle.dumps(again)) == first
        assert Timeline.from_dict(again.timeline) == Timeline.from_dict(
            first.timeline
        )
        with pytest.raises(TypeError):
            again.timeline["rounds"] = 0


class TestAggregate:
    def test_groups_stored_timelines_and_skips_bare_reports(self, tmp_path):
        with ResultStore(str(tmp_path / "agg.db")) as store:
            store.put_many(
                [
                    _report(seed=1),
                    _report(seed=2),
                    _report(seed=1, algorithm="fastbc", n=16),
                    _report(seed=9, timeline=False),
                ]
            )
            report = aggregate_timelines(store, group_by=("algorithm",))
        assert report.kind == "timeline_aggregate"
        assert report.summary["timelines"] == 3
        assert report.summary["skipped"] == 1
        by_algorithm = {row["algorithm"]: row for row in report.rows}
        assert by_algorithm["decay"]["runs"] == 2
        assert by_algorithm["fastbc"]["runs"] == 1
        assert by_algorithm["decay"]["rounds_mean"] is not None
        # canonical: an AnalysisReport renders deterministically
        assert json.loads(report.to_json())["kind"] == "timeline_aggregate"

    def test_rejects_unknown_metrics_and_columns(self, tmp_path):
        with ResultStore(str(tmp_path / "agg2.db")) as store:
            with pytest.raises(ValueError, match="unknown timeline metric"):
                aggregate_timelines(store, metrics=("nope",))
            with pytest.raises(ValueError, match="unknown group_by column"):
                aggregate_timelines(store, group_by=("nope",))
