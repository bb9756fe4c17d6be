"""Scenario-level channel plumbing: serialization, validation, and the
byte-identity contract for default-channel runs."""

import pytest

from repro.mac.config import MacConfig
from repro.runner import Scenario, expand_grid, run_batch


def _contention(**overrides):
    fields = dict(
        algorithm="decay",
        topology="path",
        topology_params={"n": 8},
        seed=1,
        channel="contention",
        channel_params={"cw_min": 2, "cw_max": 8},
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestSerialization:
    def test_default_channel_emits_no_channel_keys(self):
        # THE byte-identity contract: scenarios on the paper's channel
        # serialize exactly as they did before repro.mac existed, so
        # their cache keys (content addresses) are unchanged
        data = Scenario(
            algorithm="decay", topology="path", topology_params={"n": 8}
        ).to_dict()
        assert "channel" not in data
        assert "channel_params" not in data

    def test_contention_channel_round_trips(self):
        scenario = _contention()
        data = scenario.to_dict()
        assert data["channel"] == "contention"
        assert data["channel_params"] == {"cw_min": 2, "cw_max": 8}
        assert Scenario.from_dict(data) == scenario

    def test_channel_changes_the_cache_key(self):
        plain = Scenario(
            algorithm="decay", topology="path", topology_params={"n": 8}
        )
        assert _contention(seed=0).cache_key() != plain.cache_key()

    def test_channel_params_change_the_cache_key(self):
        assert (
            _contention().cache_key()
            != _contention(channel_params={"cw_min": 4, "cw_max": 8}).cache_key()
        )

    def test_channel_config_accessor(self):
        config = _contention().channel_config()
        assert config == MacConfig(cw_min=2, cw_max=8)
        default = Scenario(algorithm="decay", topology="path")
        assert default.channel_config() is None


class TestValidation:
    def test_unknown_channel_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown channel"):
            _contention(channel="aloha", channel_params={})

    def test_bad_channel_params_rejected_eagerly(self):
        with pytest.raises(ValueError, match="cw_max"):
            _contention(channel_params={"cw_min": 16, "cw_max": 2})

    def test_non_channel_algorithm_rejects_contention(self):
        with pytest.raises(ValueError, match="takes no .*contention channel"):
            _contention(algorithm="single_link_routing", topology="single_link")
        # the star schedules run on the channel like the others
        star = _contention(algorithm="star_routing", topology="star")
        assert run_batch([star])[0].success

    def test_default_channel_rejects_params(self):
        with pytest.raises(ValueError, match="no channel_params"):
            Scenario(
                algorithm="decay",
                topology="path",
                channel="default",
                channel_params={"cw_min": 2},
            )


class TestExecution:
    def test_contention_run_reports_mac_counters(self):
        report = run_batch([_contention()])[0]
        assert report.success
        counters = report.to_dict()["counters"]
        assert counters["mac_offers"] > 0
        assert (
            counters["mac_tx_success"] + counters["mac_tx_collisions"]
            == counters["mac_transmissions"]
        )

    def test_default_run_reports_plain_counters(self):
        report = run_batch(
            [Scenario(algorithm="decay", topology="path", topology_params={"n": 8})]
        )[0]
        assert "mac_offers" not in report.to_dict()["counters"]

    def test_contention_run_is_deterministic(self):
        def canonical():
            report = run_batch([_contention()])[0]
            data = report.to_dict()
            data.pop("wall_time_s")
            return data

        assert canonical() == canonical()

    def test_grid_expansion_covers_channel_fields(self):
        scenarios = expand_grid(
            _contention(),
            seeds=[0, 1],
            grid={
                "channel_params": [
                    {"cw_min": 2, "cw_max": 8},
                    {"cw_min": 8, "cw_max": 8},
                ]
            },
        )
        assert len(scenarios) == 4
        assert {s.channel_params["cw_min"] for s in scenarios} == {2, 8}
        assert all(s.channel == "contention" for s in scenarios)
