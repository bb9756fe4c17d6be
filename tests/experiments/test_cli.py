"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments import all_experiments


class TestList:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "A3" in out

    def test_list_enumerates_algorithms_and_topologies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "algorithms" in out
        assert "decay" in out and "star_coding" in out
        assert "topologies" in out
        assert "single_link" in out

    def test_list_includes_adversary_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adversaries" in out
        assert "gilbert_elliott" in out and "budgeted_jammer" in out

    def test_list_adversaries_only(self, capsys):
        assert main(["list", "--adversaries"]) == 0
        out = capsys.readouterr().out
        assert "edge_churn" in out
        assert "E1" not in out and "star_coding" not in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "experiments",
            "algorithms",
            "topologies",
            "adversaries",
            "channels",
        }
        assert "E20" in {e["id"] for e in data["experiments"]}
        assert {c["name"] for c in data["channels"]} == {
            "default",
            "contention",
        }
        by_name = {a["name"]: a for a in data["algorithms"]}
        assert by_name["decay"]["supports_adversary"] is True
        assert by_name["star_coding"]["supports_adversary"] is True
        assert by_name["single_link_coding"]["supports_adversary"] is False
        assert {p["name"] for p in by_name["rlnc_decay"]["params"]} == {
            "k",
            "payload_length",
        }
        assert "single_link" in data["topologies"]
        adversaries = {a["name"]: a for a in data["adversaries"]}
        assert set(adversaries) == {
            "iid",
            "gilbert_elliott",
            "budgeted_jammer",
            "edge_churn",
        }
        assert {p["name"] for p in adversaries["budgeted_jammer"]["params"]} == {
            "per_round",
            "budget",
            "policy",
        }

    def test_list_json_adversaries_only(self, capsys):
        assert main(["list", "--adversaries", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"adversaries"}


class TestRun:
    def test_run_smoke(self, capsys):
        assert main(["run", "E18", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "single-link" in out

    def test_run_csv_format(self, capsys):
        assert main(["run", "E18", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "k,adaptive_rounds" in out

    def test_run_markdown_format(self, capsys):
        assert main(["run", "E18", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| k |")

    def test_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_seed_flag(self, capsys):
        assert main(["run", "E18", "--seed", "7"]) == 0

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--scale", "huge"])

    def test_run_json_format(self, capsys):
        assert main(["run", "E18", "--format", "json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["columns"][0] == "k"
        assert data["rows"]


class TestSweep:
    SWEEP_ARGS = [
        "sweep",
        "--algorithms", "decay,fastbc",
        "--topology", "path",
        "--n", "16",
        "--fault-model", "receiver",
        "--p", "0.3",
        "--seeds", "0:3",
    ]

    def test_emits_valid_json_reports(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 6  # 2 algorithms x 3 seeds
        assert {r["algorithm"] for r in reports} == {"decay", "fastbc"}
        assert {r["scenario"]["seed"] for r in reports} == {0, 1, 2}
        for report in reports:
            assert report["scenario"]["faults"] == {
                "model": "receiver",
                "p": 0.3,
            }
            assert report["rounds"] >= 1
            assert "wall_time_s" in report

    def test_parallel_matches_serial(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(self.SWEEP_ARGS + ["--processes", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for left, right in zip(serial, parallel):
            left.pop("wall_time_s"), right.pop("wall_time_s")
        assert serial == parallel

    def test_table_format(self, capsys):
        assert main(self.SWEEP_ARGS + ["--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "rounds" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "reports.json"
        assert main(self.SWEEP_ARGS + ["--output", str(target)]) == 0
        assert "wrote 6 reports" in capsys.readouterr().out
        assert len(json.loads(target.read_text())) == 6

    def test_param_flag_reaches_algorithm(self, capsys):
        assert main([
            "sweep", "--algorithms", "rlnc_decay", "--topology", "path",
            "--n", "12", "--param", "k=2", "--seeds", "1",
        ]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["extras"]["k"] == 2

    def test_unknown_algorithm_fails_cleanly(self, capsys):
        assert main(["sweep", "--algorithms", "warp"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, param",
        [("robust_fastbc", "block=0"), ("star_coding", "k=0")],
    )
    def test_param_below_its_minimum_fails_cleanly(self, capsys, algorithm, param):
        assert main([
            "sweep", "--algorithms", algorithm, "--topology", "path",
            "--n", "8", "--seeds", "0:1", "--param", param,
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "must be an int >= 1" in err

    def test_bad_seed_spec_fails_cleanly(self, capsys):
        assert main(self.SWEEP_ARGS[:-1] + ["5:5"]) == 2
        assert "seed" in capsys.readouterr().err


class TestAdversaryFlags:
    def test_sweep_with_adversary(self, capsys):
        assert main([
            "sweep", "--algorithms", "decay", "--topology", "path",
            "--n", "16", "--seeds", "0:2",
            "--adversary", "gilbert_elliott",
            "--adversary-param", "p_bad=0.9",
        ]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2
        for report in reports:
            assert report["scenario"]["adversary"] == {
                "kind": "gilbert_elliott",
                "params": {"p_bad": 0.9},
            }

    def test_sweep_unknown_adversary_fails_cleanly(self, capsys):
        assert main([
            "sweep", "--algorithms", "decay", "--adversary", "emp",
        ]) == 2
        assert "unknown adversary" in capsys.readouterr().err

    def test_sweep_adversary_param_without_adversary(self, capsys):
        assert main([
            "sweep", "--algorithms", "decay",
            "--adversary-param", "p_bad=0.9",
        ]) == 2
        assert "--adversary" in capsys.readouterr().err

    def test_sweep_adversary_conflicts_with_fault_model(self, capsys):
        assert main([
            "sweep", "--algorithms", "decay",
            "--fault-model", "receiver", "--p", "0.3",
            "--adversary", "edge_churn",
        ]) == 2
        assert "replaces the fault coins" in capsys.readouterr().err

    def test_run_e20_accepts_adversary(self, capsys):
        assert main([
            "run", "E20", "--scale", "smoke",
            "--adversary", "budgeted_jammer",
            "--adversary-param", "per_round=2",
        ]) == 0
        out = capsys.readouterr().out
        assert "budgeted_jammer" in out
        assert "faultless" in out

    def test_run_classic_experiment_rejects_adversary(self, capsys):
        assert main(["run", "E2", "--adversary", "edge_churn"]) == 2
        assert "does not accept an adversary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, accepting",
        [
            (["--adversary", "gilbert_elliott"], ["E20", "E22", "E23"]),
            (["--channel", "contention"], ["E23"]),
        ],
    )
    def test_run_all_runs_the_experiments_accepting_the_override(
        self, capsys, flags, accepting
    ):
        argv = ["run", "all", "--scale", "smoke", "--format", "json"]
        assert main(argv + flags) == 0
        captured = capsys.readouterr()
        docs = [doc for doc in captured.out.split("\n\n") if doc.strip()]
        titles = [json.loads(doc)["title"] for doc in docs]
        assert [title.split(":")[0] for title in titles] == accepting
        # one "skipping <ID>: ..." line per experiment left out
        lines = captured.err.splitlines()
        skipped = [line.split()[1].rstrip(":") for line in lines]
        assert sorted(skipped + accepting) == sorted(
            e.id for e in all_experiments()
        )

    def test_run_unknown_adversary_fails_cleanly(self, capsys):
        assert main(["run", "E20", "--adversary", "emp_blast"]) == 2
        assert "unknown adversary" in capsys.readouterr().err

    def test_run_unknown_adversary_param_fails_cleanly(self, capsys):
        assert main([
            "run", "E20", "--adversary", "gilbert_elliott",
            "--adversary-param", "bogus=1",
        ]) == 2
        assert "unknown parameters" in capsys.readouterr().err


class TestRunE20:
    def test_smoke_table_shape(self, capsys):
        assert main(["run", "E20", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "gilbert_elliott" in out
        assert "jammer_frontier" in out
        assert "slowdown" in out


class TestStoreFlags:
    SWEEP_ARGS = [
        "sweep",
        "--algorithms", "decay",
        "--topology", "path",
        "--n", "16",
        "--fault-model", "receiver",
        "--p", "0.3",
        "--seeds", "0:3",
    ]

    def test_sweep_store_records_reports(self, capsys, tmp_path):
        from repro.store import ResultStore

        db = str(tmp_path / "sweep.db")
        assert main(self.SWEEP_ARGS + ["--store", db]) == 0
        with ResultStore(db) as store:
            assert len(store) == 3

    def test_sweep_resume_replays_identical_bytes(self, capsys, tmp_path):
        db = str(tmp_path / "sweep.db")
        assert main(self.SWEEP_ARGS + ["--store", db, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "resume: 0/3" in captured.err
        fresh = json.loads(captured.out)
        assert main(self.SWEEP_ARGS + ["--store", db, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "resume: 3/3" in captured.err
        cached = json.loads(captured.out)
        for left, right in zip(fresh, cached):
            left.pop("wall_time_s"), right.pop("wall_time_s")
        assert cached == fresh

    def test_resume_without_store_fails_cleanly(self, capsys):
        assert main(self.SWEEP_ARGS + ["--resume"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_store_stats_command(self, capsys, tmp_path):
        db = str(tmp_path / "sweep.db")
        assert main(self.SWEEP_ARGS + ["--store", db]) == 0
        capsys.readouterr()
        assert main(["store", db]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["reports"] == 3
        assert stats["by_algorithm"] == {"decay": 3}

    def test_store_export_command(self, capsys, tmp_path):
        db = str(tmp_path / "sweep.db")
        assert main(self.SWEEP_ARGS + ["--store", db]) == 0
        out = str(tmp_path / "export.json")
        assert main(["store", db, "--export", out, "--algorithm", "decay"]) == 0
        with open(out, encoding="utf-8") as handle:
            assert len(json.load(handle)) == 3

    def test_store_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["store", str(tmp_path / "absent.db")]) == 2
        assert "no store" in capsys.readouterr().err

    def test_sweep_reports_carry_cache_keys(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(len(r["cache_key"]) == 64 for r in reports)

    def test_store_invalid_file_fails_cleanly(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.db"
        garbage.write_text("not a database")
        assert main(["store", str(garbage)]) == 2
        assert "cannot open store" in capsys.readouterr().err

    def test_sweep_invalid_store_file_fails_cleanly(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.db"
        garbage.write_text("not a database")
        assert main(self.SWEEP_ARGS + ["--store", str(garbage)]) == 2
        assert "cannot open store" in capsys.readouterr().err
