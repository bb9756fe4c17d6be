"""Recording is an observer: it never changes what the run reports.

The determinism contract says the canonical report is a pure function of
the scenario. Opting into the flight recorder changes the *scenario*
(the config participates in the cache key) but must not change anything
the simulation computed — same rounds, counters, extras, byte for byte
once the scenario's own ``timeline`` entry is set aside.

What it records adds up to the report, for every algorithm on the run
driver: the per-bucket channel columns sum to the run's counters, a
single-message timeline ends with the report's informed count, a
successful RLNC run records k innovative receptions at each of the
n - 1 nodes that start empty, and a successful star run ends with every
node informed.
"""

import json

import pytest

from repro.core.faults import AdversaryConfig, FaultConfig
from repro.runner import RunReport, Scenario, all_algorithms, get_algorithm, run
from repro.runner import registry
from repro.timeline import Timeline, TimelineConfig

#: every algorithm that runs on the channel, so through the run driver:
#: all but the single-link schedules
_DRIVEN = sorted(a.name for a in all_algorithms() if a.kind != "link")
_NOISE = {
    "receiver": dict(faults=FaultConfig.receiver(0.3)),
    "sender": dict(faults=FaultConfig.sender(0.3)),
    "gilbert_elliott": dict(adversary=AdversaryConfig("gilbert_elliott", {})),
    "contention": dict(channel="contention"),
}
_VARIANTS = {
    f"{algorithm}-{noise}": dict(
        algorithm=algorithm,
        topology="gnp",
        topology_params={"n": 24},
        seed=3,
        **fields,
    )
    for algorithm in _DRIVEN
    for noise, fields in _NOISE.items()
}
# hand-picked runs: faultless, a path, and a frontier jammer
_VARIANTS.update(
    {
        "decay-faultless": dict(
            algorithm="decay", topology="gnp", topology_params={"n": 24}, seed=3
        ),
        "fastbc-path": dict(
            algorithm="fastbc",
            topology="path",
            topology_params={"n": 16},
            faults=FaultConfig.receiver(0.3),
            seed=7,
        ),
        "rlnc_decay-jammer": dict(
            algorithm="rlnc_decay",
            topology="path",
            topology_params={"n": 12},
            params={"k": 2},
            adversary=AdversaryConfig(
                "budgeted_jammer",
                {"per_round": 1, "budget": 24, "policy": "frontier"},
            ),
            seed=5,
        ),
    }
)
#: timeline columns that sum, over the buckets, to the channel counter
_COUNTED = (
    "broadcasts",
    "deliveries",
    "collisions",
    "sender_faults",
    "receiver_faults",
)


@pytest.fixture
def star_outcomes(monkeypatch):
    """Every ``StarOutcome`` the registry normalizes while the test runs.

    A star report leaves its channel counters out (adding them changes
    the canonical bytes, so it waits for a ``CACHE_KEY_SCHEMA`` bump);
    the outcome carries them.
    """
    outcomes = []
    normalize = registry._from_star

    def spy(outcome):
        outcomes.append(outcome)
        return normalize(outcome)

    monkeypatch.setattr(registry, "_from_star", spy)
    return outcomes


@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_recording_leaves_the_simulated_outcome_unchanged(name, star_outcomes):
    fields = _VARIANTS[name]
    plain = run(Scenario(**fields))
    recorded = run(Scenario(**fields, timeline=TimelineConfig(every=1)))
    a = json.loads(plain.to_json(canonical=True))
    b = json.loads(recorded.to_json(canonical=True))
    # the only canonical difference is the scenario's own opt-in
    assert "timeline" not in a["scenario"]
    assert b["scenario"].pop("timeline") == {"every": 1, "node_detail": 4096}
    assert a.pop("cache_key") != b.pop("cache_key")
    assert a == b

    timeline = Timeline.from_dict(recorded.timeline)
    assert timeline.rounds == recorded.rounds
    kind = get_algorithm(fields["algorithm"]).kind
    counters = recorded.counters
    if kind == "star":
        assert counters == {}
        counters = star_outcomes[-1].counters.as_dict()
    for column in _COUNTED:
        assert sum(timeline.columns[column]) == counters[column], column
    if kind == "single":
        assert timeline.informed_final == recorded.informed
    elif recorded.success and kind == "multi":
        k = recorded.extras["k"]
        assert sum(timeline.columns["innovative"]) == k * (recorded.total - 1)
    elif recorded.success:
        # every leaf heard a packet, and the hub held them all
        assert timeline.informed_final == recorded.total + 1


def test_timeline_stays_outside_the_canonical_bytes():
    report = run(
        Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 24},
            seed=3,
            timeline=TimelineConfig(),
        )
    )
    assert report.timeline is not None
    canonical = json.loads(report.to_json(canonical=True))
    assert "timeline" not in canonical
    full = report.to_dict(include_timing=True)
    assert full["timeline"] == report.timeline


def test_report_round_trip_preserves_the_attachment():
    report = run(
        Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 24},
            seed=4,
            timeline=TimelineConfig(every=2),
        )
    )
    revived = RunReport.from_dict(report.to_dict(include_timing=True))
    assert revived.timeline == report.timeline
    assert revived.to_json(canonical=True) == report.to_json(canonical=True)


def test_scenario_round_trip_and_cache_key_cover_the_config():
    base = dict(algorithm="decay", topology="path", topology_params={"n": 8})
    plain = Scenario(**base)
    recorded = Scenario(**base, timeline=TimelineConfig(every=5))
    assert Scenario.from_dict(recorded.to_dict()) == recorded
    assert "timeline" not in plain.to_dict()
    assert plain.cache_key() != recorded.cache_key()
    # a different downsampling is a different scenario
    assert (
        Scenario(**base, timeline=TimelineConfig(every=1)).cache_key()
        != recorded.cache_key()
    )


def test_non_channel_algorithms_reject_the_config():
    with pytest.raises(ValueError, match="takes no .*timeline"):
        Scenario(
            algorithm="single_link_coding",
            topology="single_link",
            timeline=TimelineConfig(),
        )
    # the star schedules run on the channel like the others
    star = Scenario(
        algorithm="star_routing",
        topology="star",
        topology_params={"n": 8},
        timeline=TimelineConfig(),
    )
    assert run(star).timeline is not None
