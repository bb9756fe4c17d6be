"""Recorder semantics: bucketing, per-round counts, growth."""

import numpy as np
import pytest

from repro.core.engine import RoundResult
from repro.timeline import TimelineConfig, TimelineRecorder
from repro.timeline.recorder import DATA_COLUMNS


def _nodes(ids):
    return np.array(ids, dtype=np.int64)


def _round(round_index, receivers=(), **lists):
    """A resolved round: node 0 broadcasts and reaches ``receivers``."""
    fields = {name: _nodes(ids) for name, ids in lists.items()}
    return RoundResult(
        round_index,
        broadcasters=_nodes([0]),
        receivers=_nodes(receivers),
        senders=_nodes([0] * len(receivers)),
        **fields,
    )


def _drive(recorder, rounds, deliveries_per_round=0, n=8):
    """Feed synthetic rounds: one broadcast + optional deliveries each."""
    for round_index in range(rounds):
        receivers = sorted(
            {(round_index + k) % n for k in range(deliveries_per_round)}
        )
        recorder.on_round(_round(round_index, receivers))
    recorder.finish()


class TestBucketing:
    def test_per_round_rows_count_the_round_result(self):
        recorder = TimelineRecorder(8, TimelineConfig(every=1))
        _drive(recorder, rounds=5, deliveries_per_round=2)
        rows = recorder.rows()
        assert rows.shape == (5, len(DATA_COLUMNS))
        assert list(rows[:, DATA_COLUMNS.index("round_start")]) == [0, 1, 2, 3, 4]
        # one broadcast and two deliveries per round, per round not totals
        assert set(rows[:, DATA_COLUMNS.index("broadcasts")]) == {1}
        assert set(rows[:, DATA_COLUMNS.index("deliveries")]) == {2}

    def test_fault_columns_split_sender_and_receiver_faults(self):
        recorder = TimelineRecorder(8, TimelineConfig(every=1))
        recorder.on_round(
            _round(
                0,
                collision_receivers=[4],
                faulty_senders=[0],
                silenced_receivers=[1, 2],
                silenced_senders=[0, 0],
            )
        )
        recorder.on_round(
            _round(1, [3], corrupted_receivers=[1], corrupted_senders=[0])
        )
        recorder.finish()
        columns = {name: list(recorder.rows()[:, i])
                   for i, name in enumerate(DATA_COLUMNS)}
        assert columns["collisions"] == [1, 0]
        assert columns["sender_faults"] == [1, 0]
        assert columns["receiver_faults"] == [0, 1]
        assert columns["deliveries"] == [0, 1]

    def test_every_k_buckets_sum_the_same_totals(self):
        fine = TimelineRecorder(8, TimelineConfig(every=1))
        coarse = TimelineRecorder(8, TimelineConfig(every=3))
        _drive(fine, rounds=7, deliveries_per_round=2)
        _drive(coarse, rounds=7, deliveries_per_round=2)
        assert len(coarse) == 3  # rounds 0-2, 3-5, 6
        assert list(
            coarse.rows()[:, DATA_COLUMNS.index("round_start")]
        ) == [0, 3, 6]
        for name in ("broadcasts", "deliveries", "new_informed"):
            index = DATA_COLUMNS.index(name)
            assert (
                coarse.rows()[:, index].sum() == fine.rows()[:, index].sum()
            ), name

    def test_informed_column_is_cumulative(self):
        recorder = TimelineRecorder(8, TimelineConfig(every=1))
        _drive(recorder, rounds=4, deliveries_per_round=2)
        informed = recorder.rows()[:, DATA_COLUMNS.index("informed")]
        assert list(informed) == sorted(informed)
        assert recorder.informed == informed[-1]

    def test_mark_informed_excludes_seeded_nodes_from_new_informed(self):
        recorder = TimelineRecorder(8, TimelineConfig(every=1))
        recorder.mark_informed(0)
        recorder.mark_informed(0)  # idempotent
        assert recorder.informed == 1
        recorder.on_round(_round(0, [0, 5]))
        recorder.finish()
        row = recorder.rows()[0]
        assert row[DATA_COLUMNS.index("new_informed")] == 1  # node 5 only
        assert row[DATA_COLUMNS.index("informed")] == 2

    def test_first_delivery_records_the_first_round_only(self):
        recorder = TimelineRecorder(8, TimelineConfig(every=1))
        _drive(recorder, rounds=3, deliveries_per_round=1)
        # round r delivers to node r % 8, so node 1 first hears at round 1
        assert recorder.first_delivery[0] == 0
        assert recorder.first_delivery[1] == 1
        assert recorder.first_delivery[5] == -1

    def test_innovative_lands_in_the_open_bucket(self):
        recorder = TimelineRecorder(8, TimelineConfig(every=2))
        for round_index in range(4):
            recorder.on_round(_round(round_index))
            if round_index == 3:
                # arrives after the epilogue, like Simulator.step dispatch
                recorder.note_innovative(2)
        recorder.finish()
        innovative = recorder.rows()[:, DATA_COLUMNS.index("innovative")]
        assert list(innovative) == [0, 2]


class TestGrowth:
    def test_rows_grow_past_initial_capacity(self):
        recorder = TimelineRecorder(4, TimelineConfig(every=1))
        _drive(recorder, rounds=600)
        assert len(recorder) == 600
        rows = recorder.rows()
        assert list(rows[:, 0]) == list(range(600))
        assert rows.dtype == np.int64

    def test_finish_is_idempotent(self):
        recorder = TimelineRecorder(4, TimelineConfig(every=4))
        _drive(recorder, rounds=2)
        length = len(recorder)
        recorder.finish()
        recorder.finish()
        assert len(recorder) == length


class TestConfig:
    def test_defaults_round_trip(self):
        config = TimelineConfig()
        assert TimelineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("every", [0, -1, 1.5, True])
    def test_rejects_bad_every(self, every):
        with pytest.raises((ValueError, TypeError)):
            TimelineConfig(every=every)

    @pytest.mark.parametrize("detail", [0, -3, "many", False])
    def test_rejects_bad_node_detail(self, detail):
        with pytest.raises((ValueError, TypeError)):
            TimelineConfig(node_detail=detail)

    def test_recorder_rejects_empty_network(self):
        with pytest.raises(ValueError):
            TimelineRecorder(0, TimelineConfig())
