"""Adaptive sweeps: convergence, widest-first allocation, free resume."""

import pytest

from repro.analysis import adaptive_sweep
from repro.core.faults import FaultConfig
from repro.runner import Scenario, run_batch
from repro.store import ResultStore

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 12},
    faults=FaultConfig.receiver(0.3),
    seed=0,
)


class TestAdaptiveSweep:
    def test_converges_and_reports_cells(self, tmp_path):
        with ResultStore(str(tmp_path / "a.db")) as store:
            report = adaptive_sweep(
                BASE,
                grid={"n": [12, 16]},
                target_halfwidth=8.0,
                max_seeds=16,
                batch=4,
                store=store,
            )
        assert report.kind == "adaptive"
        assert len(report.rows) == 2
        for row in report.rows:
            assert row["seeds"] >= 4
            assert row["ci_low"] <= row["mean"] <= row["ci_high"]
            if row["converged"]:
                assert row["halfwidth"] <= 8.0
        assert report.summary["total_runs"] == sum(
            row["seeds"] for row in report.rows
        )

    def test_tight_target_spends_more_seeds_than_loose(self, tmp_path):
        with ResultStore(str(tmp_path / "b.db")) as store:
            loose = adaptive_sweep(
                BASE, target_halfwidth=50.0, max_seeds=16, batch=4, store=store
            )
        with ResultStore(str(tmp_path / "c.db")) as store:
            tight = adaptive_sweep(
                BASE, target_halfwidth=1.0, max_seeds=16, batch=4, store=store
            )
        assert loose.summary["total_runs"] <= tight.summary["total_runs"]
        assert tight.rows[0]["seeds"] == 16  # budget exhausted

    def test_rerun_is_byte_identical_and_executes_nothing(self, tmp_path):
        with ResultStore(str(tmp_path / "d.db")) as store:
            first = adaptive_sweep(
                BASE,
                grid={"algorithm": ["decay", "fastbc"]},
                target_halfwidth=6.0,
                max_seeds=12,
                batch=4,
                store=store,
            )
            assert first.meta["executed"] == first.summary["total_runs"]
            second = adaptive_sweep(
                BASE,
                grid={"algorithm": ["decay", "fastbc"]},
                target_halfwidth=6.0,
                max_seeds=12,
                batch=4,
                store=store,
            )
        assert second.meta["executed"] == 0
        assert second.meta["served_from_store"] == second.summary["total_runs"]
        assert first.to_json(canonical=True) == second.to_json(canonical=True)
        assert first.cache_key() == second.cache_key()

    def test_kill_restart_converges_to_identical_bytes(self, tmp_path):
        """A sweep interrupted mid-flight resumes from the store for free."""
        path = str(tmp_path / "e.db")

        class _Killed(RuntimeError):
            pass

        calls = {"count": 0}

        def killer(scenarios):
            calls["count"] += 1
            if calls["count"] == 3:  # die mid-sweep
                raise _Killed()
            return run_batch(scenarios, store=store)

        with ResultStore(path) as store:
            with pytest.raises(_Killed):
                adaptive_sweep(
                    BASE,
                    grid={"n": [12, 16]},
                    target_halfwidth=5.0,
                    max_seeds=12,
                    batch=4,
                    store=store,
                    execute=killer,
                )
            partial = len(store)
            assert partial > 0

        # a fresh process (fresh store handle) replays the prefix from
        # cache and finishes the rest
        with ResultStore(path) as store:
            resumed = adaptive_sweep(
                BASE,
                grid={"n": [12, 16]},
                target_halfwidth=5.0,
                max_seeds=12,
                batch=4,
                store=store,
            )
            assert resumed.meta["served_from_store"] >= partial
        with ResultStore(str(tmp_path / "f.db")) as store:
            uninterrupted = adaptive_sweep(
                BASE,
                grid={"n": [12, 16]},
                target_halfwidth=5.0,
                max_seeds=12,
                batch=4,
                store=store,
            )
        assert resumed.to_json(canonical=True) == uninterrupted.to_json(
            canonical=True
        )

    def test_works_without_a_store(self):
        report = adaptive_sweep(
            BASE, target_halfwidth=20.0, max_seeds=8, batch=4
        )
        assert report.meta["executed"] == report.summary["total_runs"]
        assert report.meta["store_path"] == ""

    def test_execute_hook_runs_every_batch(self, tmp_path):
        seen = []

        def execute(scenarios):
            seen.append([scenario.seed for scenario in scenarios])
            return run_batch(scenarios)

        with ResultStore(str(tmp_path / "g.db")) as store:
            report = adaptive_sweep(
                BASE,
                target_halfwidth=10.0,
                max_seeds=12,
                batch=4,
                store=store,
                execute=execute,
            )
            # the hook ran every scenario; none went through the store
            assert len(store) == 0
        assert seen[0] == [0, 1, 2, 3]
        assert all(len(batch) <= 4 for batch in seen)
        flat = [seed for batch in seen for seed in batch]
        assert flat == list(range(len(flat)))
        assert len(flat) == report.summary["total_runs"]

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_sweep(BASE, target_halfwidth=0.0)
        with pytest.raises(ValueError):
            adaptive_sweep(BASE, batch=0)
        with pytest.raises(ValueError):
            adaptive_sweep(BASE, max_seeds=2, batch=4)
        with pytest.raises(ValueError):
            adaptive_sweep(BASE, metric="vibes")
