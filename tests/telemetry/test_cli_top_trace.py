"""The observability CLI: ``repro top``, ``repro trace``, store stats."""

import json

import pytest

from repro.cli import _top_frame, main
from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.service import ReproService
from repro.store import ResultStore
from repro.telemetry import TraceSink, Tracer, trace_id_for_key

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.2),
)


def _seeded_store(tmp_path, count=3):
    path = str(tmp_path / "results.db")
    with ResultStore(path) as store:
        store.put_many(run_batch(expand_grid(BASE, seeds=range(count))))
    return path


def _trace_file(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    tracer = Tracer()
    tracer.configure(TraceSink(path))
    first = trace_id_for_key("a" * 64)
    second = trace_id_for_key("b" * 64)
    tracer.record_span("runner.run", first, 0.25, algorithm="decay", rounds=9)
    tracer.record_span("runner.run", second, 0.75, algorithm="decay")
    tracer.record_span("worker.lease", first, 1.5, executed=4)
    tracer.configure(None)
    return path, first


class TestStoreStats:
    def test_stats_json_is_machine_readable(self, capsys, tmp_path):
        path = _seeded_store(tmp_path)
        assert main(["store", path, "--stats", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["reports"] == 3
        assert stats["quarantined"] == []
        assert len(stats["shard_stats"]) == stats["shards"]
        assert sum(s["reports"] for s in stats["shard_stats"]) == 3

    @pytest.mark.parametrize(
        "shards, backend", [(None, "sqlite"), (2, "sharded-sqlite")]
    )
    def test_stats_json_keys_on_each_layout(
        self, capsys, tmp_path, shards, backend
    ):
        path = str(tmp_path / ("results.db" if shards is None else "farm"))
        with ResultStore(path, shards=shards) as store:
            store.put_many(run_batch(expand_grid(BASE, seeds=range(3))))
        assert main(["store", path, "--stats", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert sorted(stats) == [
            "backend", "by_adversary", "by_algorithm", "by_topology",
            "dedup_ratio", "journal_records", "path", "puts_attempted",
            "quarantined", "reports", "schema_version", "shard_stats",
            "shards", "stored_wall_time_s", "timelines",
        ]
        assert stats["backend"] == backend
        assert stats["shards"] == (shards or 1)
        assert stats["reports"] == 3
        for entry in stats["shard_stats"]:
            assert sorted(entry) == ["attempted", "path", "reports", "shard"]

    def test_stats_text_renders_shard_table(self, capsys, tmp_path):
        path = _seeded_store(tmp_path)
        assert main(["store", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "shard" in out
        assert "total: 3 reports" in out

    def test_plain_store_output_still_json(self, capsys, tmp_path):
        # the pre-existing contract: `repro store DB` prints stats JSON
        path = _seeded_store(tmp_path)
        assert main(["store", path]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == 3


class TestTrace:
    def test_show_prints_one_line_per_span(self, capsys, tmp_path):
        path, _ = _trace_file(tmp_path)
        assert main(["trace", "show", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert any("runner.run" in line and "rounds=9" in line
                   for line in lines)

    def test_show_filters_by_trace_prefix(self, capsys, tmp_path):
        path, first = _trace_file(tmp_path)
        assert main(["trace", "show", path, "--trace", first[:8]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_show_limit_notes_overflow(self, capsys, tmp_path):
        path, _ = _trace_file(tmp_path)
        assert main(["trace", "show", path, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "... 2 more" in out

    def test_summarize_aggregates_per_span_name(self, capsys, tmp_path):
        path, _ = _trace_file(tmp_path)
        assert main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "3 span(s), 2 trace(s)" in out
        assert "runner.run" in out and "worker.lease" in out
        assert "500" in out  # mean of 0.25s and 0.75s in ms

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "show", str(tmp_path / "absent.jsonl")]) == 2
        assert "no trace file" in capsys.readouterr().err


class TestTop:
    def test_single_frame_against_farm_service(self, capsys, tmp_path):
        store_path = str(tmp_path / "farm.db")
        with ReproService(
            store_path, port=0, workers=0, lease_scenarios=4
        ) as service:
            assert main(["top", "--connect", service.url, "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "queue: 0 pending" in out
        assert "no workers registered" in out
        assert "throughput" in out

    def test_single_frame_lists_local_workers(self, capsys, tmp_path):
        store_path = str(tmp_path / "local.db")
        with ReproService(store_path, port=0, workers=1) as service:
            assert main(["top", "--connect", service.url, "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "queue: 0 pending" in out
        assert "local-1" in out

    def test_mac_line_is_collisions_per_transmission(self):
        """Default-channel runs add deliveries but no MAC transmission,
        so they must not move the MAC line."""

        class StubClient:
            base_url = "http://stub"

            def health(self):
                return {"reports": 0, "version": "test"}

            def workers(self):
                return {
                    "queue": {
                        "pending_scenarios": 0,
                        "outstanding_leases": 0,
                        "scenarios_completed": 0,
                        "duplicates": 0,
                        "quarantined_scenarios": 0,
                    },
                    "workers": [],
                }

            def metrics_json(self):
                return {"metrics": {
                    "repro_mac_collisions_total": {"value": 30},
                    "repro_mac_transmissions_total": {"value": 120},
                    "repro_channel_deliveries_total": {"value": 9000},
                }}

        frame = _top_frame(StubClient())
        assert "mac_collisions/transmissions=0.250" in frame.splitlines()[-1]
        assert "deliveries" not in frame

    def test_unreachable_service_reports_and_exits(self, capsys):
        assert main([
            "top", "--connect", "http://127.0.0.1:9", "--count", "1",
        ]) == 0
        assert "cannot reach" in capsys.readouterr().out
