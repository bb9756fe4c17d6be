"""A run's counters reach /metrics: every channel and MAC counter.

The run driver adds each finished run's counters to the twelve
``repro_channel_*``/``repro_mac_*`` metrics, so each metric's delta over
a run equals the run's counter field.
"""

import pytest

from repro.algorithms.multi.star import star_adaptive_routing
from repro.core.faults import FaultConfig
from repro.runner import Scenario, run
from repro.telemetry import METRICS

#: each counter field and the metric that a finished run adds it to
METRIC_OF = {
    "rounds": "repro_channel_rounds_total",
    "broadcasts": "repro_channel_broadcasts_total",
    "deliveries": "repro_channel_deliveries_total",
    "collisions": "repro_channel_collisions_total",
    "sender_faults": "repro_channel_sender_faults_total",
    "receiver_faults": "repro_channel_receiver_faults_total",
    "mac_offers": "repro_mac_offers_total",
    "mac_transmissions": "repro_mac_transmissions_total",
    "mac_defers": "repro_mac_defers_total",
    "mac_captures": "repro_mac_captures_total",
    "mac_tx_collisions": "repro_mac_collisions_total",
    "mac_tx_success": "repro_mac_backoff_resets_total",
}

FAULTS = {
    "receiver": FaultConfig.receiver(0.4),
    "sender": FaultConfig.sender(0.4),
    "faultless": FaultConfig.faultless(),
}

CONTENTION = {"channel": "contention", "channel_params": {"capture": 1.5}}


def _decay(faults, seed=3, **channel):
    report = run(
        Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 24},
            faults=faults,
            seed=seed,
            **channel,
        )
    )
    return report.counters


def _star(faults):
    # the star schedules' reports keep "counters": {}; their outcome has them
    outcome = star_adaptive_routing(23, 2, faults.p, rng=3, fault_model=faults.model)
    return outcome.counters.as_dict()


RUNS = {
    **{f"decay-{kind}": (kind, _decay) for kind in FAULTS},
    **{
        f"contention-{kind}": (kind, lambda f: _decay(f, **CONTENTION))
        for kind in FAULTS
    },
    **{f"star_routing-{kind}": (kind, _star) for kind in ("receiver", "sender")},
}


def _values():
    return {name: METRICS.get(name).value for name in METRIC_OF.values()}


@pytest.mark.parametrize("case", RUNS)
def test_each_metric_adds_the_runs_counter(case):
    kind, run_once = RUNS[case]
    METRICS.enable()
    before = _values()
    counters = run_once(FAULTS[kind])
    METRICS.disable()
    after = _values()
    assert {name: after[name] - before[name] for name in after} == {
        name: counters.get(field, 0) for field, name in METRIC_OF.items()
    }
    fault_fields = {"receiver_faults", "sender_faults"}
    faulted = {field for field in fault_fields if counters[field]}
    assert faulted == ({f"{kind}_faults"} if kind != "faultless" else set())
    if case.startswith("contention"):
        assert all(counters[field] for field in METRIC_OF if field.startswith("mac_"))


@pytest.mark.parametrize("channel", [{}, CONTENTION], ids=["default", "contention"])
def test_disabled_metrics_move_none(channel):
    METRICS.disable()
    before = _values()
    counters = _decay(FAULTS["sender"], seed=9, **channel)
    assert counters["rounds"] > 0
    assert _values() == before
