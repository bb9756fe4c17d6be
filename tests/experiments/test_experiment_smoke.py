"""Smoke tests: every experiment driver runs at reduced scale, produces a
well-formed table, and exhibits the claimed qualitative shape.

``golden_tables.json`` pins the SHA-256 of :meth:`Table.to_json` for all
27 experiments (E1-E23, A1-A3, X1) at smoke scale, seed 0, so a change
that moves any number in those tables fails here. A deliberate change
regenerates the file::

    PYTHONPATH=src python tests/experiments/test_experiment_smoke.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import all_experiments, get_experiment
from repro.util.tables import Table

ALL_IDS = [e.id for e in all_experiments()]

GOLDEN = Path(__file__).with_name("golden_tables.json")

#: the experiments whose smoke tables are pinned (all of them)
SEED_IDS = [f"E{i}" for i in range(1, 24)] + ["A1", "A2", "A3", "X1"]


def _table_digest(table: Table) -> str:
    return hashlib.sha256(table.to_json().encode("utf-8")).hexdigest()


class TestRegistry:
    def test_expected_experiments_registered(self):
        expected = {f"E{i}" for i in range(1, 24)} | {"A1", "A2", "A3", "X1"}
        assert set(ALL_IDS) == expected

    def test_get_experiment(self):
        e4 = get_experiment("E4")
        assert e4.id == "E4"
        assert "Lemma 10" in e4.claim

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_experiment("E1")(scale="galactic")


@pytest.fixture(scope="module")
def golden_tables():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_smoke_run_produces_table(experiment_id, golden_tables):
    experiment = get_experiment(experiment_id)
    table = experiment(scale="smoke", seed=0)
    assert isinstance(table, Table)
    assert len(table) > 0
    assert table.title
    # renders without error
    assert table.to_text()
    assert table.to_csv()
    if experiment_id in SEED_IDS:
        assert _table_digest(table) == golden_tables[experiment_id]


class TestQualitativeShapes:
    """Spot checks that smoke-scale outputs already show the right shape."""

    def test_e2_noisy_slower_than_faultless(self):
        table = get_experiment("E2")(scale="smoke", seed=1)
        rows = list(table)
        quiet = [r for r in rows if r["p"] == 0.0]
        noisy = [r for r in rows if r["p"] == 0.5]
        assert noisy[0]["rounds"] > quiet[0]["rounds"]
        assert all(r["success_rate"] == 1.0 for r in rows)

    def test_e4_noisy_wave_slower(self):
        table = get_experiment("E4")(scale="smoke", seed=1)
        rows = list(table)
        by_p = {(r["n"], r["p"]): r["wave_rounds"] for r in rows}
        assert by_p[(64, 0.5)] > by_p[(64, 0.0)]

    def test_e10_gap_exceeds_one(self):
        table = get_experiment("E10")(scale="smoke", seed=1)
        for row in table:
            assert row["gap"] > 1.0

    def test_e16_receiver_gap_exceeds_sender_gap(self):
        table = get_experiment("E16")(scale="smoke", seed=1)
        rows = list(table)
        sender = next(r for r in rows if r["model"] == "sender")
        receiver = next(r for r in rows if r["model"] == "receiver")
        assert receiver["gap"] > 1.5 * sender["gap"]

    def test_e17_success_rate_high(self):
        table = get_experiment("E17")(scale="smoke", seed=1)
        for row in table:
            assert row["success_rate"] >= 0.8

    def test_e18_per_message_near_two(self):
        table = get_experiment("E18")(scale="smoke", seed=1)
        for row in table:
            assert 1.5 < row["adaptive_per_msg"] < 2.6
            assert 1.5 < row["coding_per_msg"] < 2.6

    def test_e19_adaptive_gap_is_constant(self):
        """Lemma 33: the adaptive single-link gap is Θ(1)."""
        table = get_experiment("E19")(scale="smoke", seed=1)
        for row in table:
            assert 0.7 < row["adaptive_gap"] < 1.5

    def test_e19_nonadaptive_gap_is_larger(self):
        """Lemma 31: the non-adaptive gap ~ log k is visibly larger."""
        table = get_experiment("E19")(scale="smoke", seed=1)
        for row in table:
            assert row["nonadaptive_gap"] > 2 * row["adaptive_gap"]

    def test_a3_zero_margin_worse(self):
        table = get_experiment("A3")(scale="smoke", seed=1)
        rows = list(table)
        zero = next(r for r in rows if r["margin_c"] == 0.0)
        big = next(r for r in rows if r["margin_c"] == 2.0)
        assert big["success_rate"] >= zero["success_rate"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                id: _table_digest(get_experiment(id)(scale="smoke", seed=0))
                for id in SEED_IDS
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
