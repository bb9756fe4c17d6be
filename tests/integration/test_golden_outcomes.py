"""Golden outcome fingerprints: no change to simulated behaviour lands silently.

``golden_outcomes.json`` pins SHA-256 digests of

* the canonical report bytes of ~60 registry scenarios covering every
  registry algorithm, the default and contention channels (capture on
  and off), i.i.d. sender/receiver, ``gilbert_elliott``,
  ``budgeted_jammer`` and ``edge_churn`` noise, every declared
  parameter of the channel-based algorithms away from its default (one
  of them, pure-wave FASTBC on ``gnp``, runs out its round budget), the
  FASTBC family on 1024-node grids and gnps, where the GBST waves are
  large, and the four coin-drawing schedules on 2048-node grids, where
  the nodes' coins come from one stream bank;
* the :meth:`~repro.timeline.Timeline.cache_key` of every timeline the
  corpus records (every algorithm but the single-link schedules runs
  on the channel and can record one);
* the :class:`~repro.core.trace.TraceRecorder` event stream of a few
  direct :class:`~repro.core.engine.Channel` /
  :class:`~repro.mac.channel.ContentionChannel` runs, one of them
  sampled;
* the :func:`~repro.gbst.gbst.build_gbst` result (parent vector, ranks,
  validity, repair iterations, remaining violations) on grids that
  repair for up to 30 iterations, gnps whose ranks reach 4, families
  that need no repair, and two grids whose repair budget runs out.

The file also records the :data:`~repro.runner.scenario.CACHE_KEY_SCHEMA`
its digests were computed under. A digest changes only when a run's
outcome does, and a store keyed under one schema must never serve a
report computed under other rules, so a deliberate outcome change bumps
``CACHE_KEY_SCHEMA`` and then regenerates the file::

    PYTHONPATH=src python tests/integration/test_golden_outcomes.py

Regeneration exits 1, writing nothing, when it would rewrite a report
digest or timeline key that the file holds under the current schema; new
corpus entries are appended freely.
"""

import hashlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.engine import Channel
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.trace import TraceRecorder
from repro.gbst.gbst import build_gbst
from repro.mac.channel import ContentionChannel
from repro.mac.config import MacConfig
from repro.runner import Scenario, run
from repro.runner.scenario import CACHE_KEY_SCHEMA
from repro.timeline import Timeline, TimelineConfig
from repro.topologies import basic, random_graphs
from repro.topologies.registry import make_topology

GOLDEN = Path(__file__).with_name("golden_outcomes.json")

_P = 0.3
_TIMELINE = TimelineConfig()
_RECEIVER = {"faults": FaultConfig.receiver(_P)}
_SENDER = {"faults": FaultConfig.sender(_P)}
_GILBERT = {"adversary": AdversaryConfig("gilbert_elliott", {})}
_JAMMER = {
    "adversary": AdversaryConfig(
        "budgeted_jammer", {"per_round": 1, "budget": 30, "policy": "frontier"}
    )
}
_CHURN = {"adversary": AdversaryConfig("edge_churn", {"p_down": 0.2})}
_CONTENTION = {"channel": "contention"}
_CAPTURE = {"channel": "contention", "channel_params": {"capture": 1.5}}


def _channel_scenario(algorithm, topology, n, seed, *arms, params=None):
    fields = {}
    for arm in arms:
        fields.update(arm)
    return Scenario(
        algorithm,
        topology=topology,
        topology_params={"n": n},
        params=params or {},
        seed=seed,
        timeline=_TIMELINE,
        **fields,
    )


def _schedule_scenario(algorithm, topology, seed, faults, n=None):
    return Scenario(
        algorithm,
        topology=topology,
        topology_params={"n": n} if n is not None else {},
        seed=seed,
        faults=faults,
    )


_K2 = {"k": 2}

#: name -> scenario; channel-based ones record a timeline
SCENARIOS = {
    "decay-path-receiver": _channel_scenario("decay", "path", 24, 1, _RECEIVER),
    "decay-grid-sender": _channel_scenario("decay", "grid", 25, 2, _SENDER),
    "decay-gnp-faultless": _channel_scenario("decay", "gnp", 24, 3),
    "decay-path-gilbert": _channel_scenario("decay", "path", 20, 4, _GILBERT),
    "decay-path-jammer": _channel_scenario("decay", "path", 20, 5, _JAMMER),
    "decay-gnp-churn": _channel_scenario("decay", "gnp", 24, 6, _CHURN),
    "decay-grid-contention": _channel_scenario(
        "decay", "grid", 25, 7, _RECEIVER, _CONTENTION
    ),
    "decay-gnp-capture": _channel_scenario(
        "decay", "gnp", 24, 8, _SENDER, _CAPTURE
    ),
    "fastbc-path-receiver": _channel_scenario("fastbc", "path", 24, 9, _RECEIVER),
    "fastbc-grid-sender": _channel_scenario("fastbc", "grid", 25, 10, _SENDER),
    "fastbc-gnp-churn": _channel_scenario("fastbc", "gnp", 24, 11, _CHURN),
    "fastbc-grid-capture": _channel_scenario(
        "fastbc", "grid", 25, 12, _RECEIVER, _CAPTURE
    ),
    "repeated_fastbc-path-receiver": _channel_scenario(
        "repeated_fastbc", "path", 20, 13, _RECEIVER
    ),
    "repeated_fastbc-gnp-gilbert": _channel_scenario(
        "repeated_fastbc", "gnp", 24, 14, _GILBERT
    ),
    "robust_fastbc-path-receiver": _channel_scenario(
        "robust_fastbc", "path", 20, 15, _RECEIVER
    ),
    "robust_fastbc-grid-jammer": _channel_scenario(
        "robust_fastbc", "grid", 25, 16, _JAMMER
    ),
    "robust_fastbc-gnp-contention": _channel_scenario(
        "robust_fastbc", "gnp", 24, 17, _SENDER, _CONTENTION
    ),
    "rlnc_decay-gnp-receiver": _channel_scenario(
        "rlnc_decay", "gnp", 16, 18, _RECEIVER, params=_K2
    ),
    "rlnc_decay-grid-capture": _channel_scenario(
        "rlnc_decay", "grid", 16, 19, _RECEIVER, _CAPTURE, params=_K2
    ),
    "rlnc_decay-path-churn": _channel_scenario(
        "rlnc_decay", "path", 12, 20, _CHURN, params=_K2
    ),
    "rlnc_dense_wave-gnp-sender": _channel_scenario(
        "rlnc_dense_wave", "gnp", 16, 21, _SENDER, params=_K2
    ),
    "rlnc_dense_wave-grid-gilbert": _channel_scenario(
        "rlnc_dense_wave", "grid", 16, 22, _GILBERT, params=_K2
    ),
    "rlnc_robust_fastbc-gnp-receiver": _channel_scenario(
        "rlnc_robust_fastbc", "gnp", 16, 23, _RECEIVER, params=_K2
    ),
    "rlnc_robust_fastbc-path-jammer": _channel_scenario(
        "rlnc_robust_fastbc", "path", 12, 24, _JAMMER, params=_K2
    ),
    # declared parameters away from their defaults
    "fastbc-gnp-pure-wave": _channel_scenario(
        "fastbc", "gnp", 24, 32, _RECEIVER, params={"decay_interleave": False}
    ),
    "robust_fastbc-path-block1": _channel_scenario(
        "robust_fastbc", "path", 20, 33, _SENDER,
        params={"block": 1, "round_multiplier": 3},
    ),
    "robust_fastbc-path-pure-wave": _channel_scenario(
        "robust_fastbc", "path", 20, 34, _RECEIVER,
        params={"decay_interleave": False},
    ),
    "repeated_fastbc-grid-repeat3": _channel_scenario(
        "repeated_fastbc", "grid", 25, 35, _SENDER, params={"repeat": 3}
    ),
    "rlnc_robust_fastbc-grid-block2": _channel_scenario(
        "rlnc_robust_fastbc", "grid", 16, 36, _RECEIVER,
        params={"k": 2, "block": 2, "round_multiplier": 4},
    ),
    "rlnc_robust_fastbc-grid-contention": _channel_scenario(
        "rlnc_robust_fastbc", "grid", 16, 39, _RECEIVER, _CONTENTION,
        params={"k": 2, "payload_length": 4},
    ),
    # payload draws come from the source stream before the per-node spawns
    "rlnc_decay-gnp-payload": _channel_scenario(
        "rlnc_decay", "gnp", 16, 37, _SENDER,
        params={"k": 2, "payload_length": 8},
    ),
    "rlnc_dense_wave-path-payload": _channel_scenario(
        "rlnc_dense_wave", "path", 12, 38, _RECEIVER,
        params={"k": 2, "payload_length": 4},
    ),
    # RLNC at realistic k: weight draws span several 32-bit words and
    # emitters below full rank combine fewer rows than the basis holds
    "rlnc_decay-grid-k16": _channel_scenario(
        "rlnc_decay", "grid", 64, 40, _RECEIVER, params={"k": 16}
    ),
    "rlnc_decay-gnp-k13-payload": _channel_scenario(
        "rlnc_decay", "gnp", 48, 41, _SENDER,
        params={"k": 13, "payload_length": 5},
    ),
    "rlnc_robust_fastbc-path-k8-gilbert": _channel_scenario(
        "rlnc_robust_fastbc", "path", 32, 42, _GILBERT, params={"k": 8}
    ),
    # k=1: every weight draw is one byte, so ~1 in 256 is all zero and is
    # redrawn; this seed redraws 3 of its 360 draws
    "rlnc_decay-star-k1": _channel_scenario(
        "rlnc_decay", "star", 64, 43, _RECEIVER, params={"k": 1}
    ),
    "rlnc_dense_wave-grid-k16-capture": _channel_scenario(
        "rlnc_dense_wave", "grid", 64, 44, _RECEIVER, _CAPTURE,
        params={"k": 16},
    ),
    "rlnc_decay-path-k6-churn": _channel_scenario(
        "rlnc_decay", "path", 24, 45, _CHURN, params={"k": 6}
    ),
    # large waves: GBST ranks reach 3 (grid) and 4 (gnp), and hundreds of
    # fast nodes spread over many wave buckets
    "fastbc-grid1024-receiver": _channel_scenario(
        "fastbc", "grid", 1024, 51, _RECEIVER
    ),
    "fastbc-gnp1024-sender": _channel_scenario(
        "fastbc", "gnp", 1024, 52, _SENDER
    ),
    "repeated_fastbc-grid1024-receiver": _channel_scenario(
        "repeated_fastbc", "grid", 1024, 53, _RECEIVER
    ),
    "repeated_fastbc-gnp1024-gilbert": _channel_scenario(
        "repeated_fastbc", "gnp", 1024, 54, _GILBERT
    ),
    "robust_fastbc-grid1024-receiver": _channel_scenario(
        "robust_fastbc", "grid", 1024, 55, _RECEIVER
    ),
    "robust_fastbc-gnp1024-sender": _channel_scenario(
        "robust_fastbc", "gnp", 1024, 56, _SENDER
    ),
    "robust_fastbc-grid1024-block2": _channel_scenario(
        "robust_fastbc", "grid", 1024, 57, _RECEIVER,
        params={"block": 2, "round_multiplier": 4},
    ),
    "robust_fastbc-gnp1024-block2-churn": _channel_scenario(
        "robust_fastbc", "gnp", 1024, 58, _CHURN,
        params={"block": 2, "round_multiplier": 4},
    ),
    # at and above the stream bank's crossover, the coin rounds draw from
    # one MT19937 bank instead of one random.Random per node
    "decay-grid2048-receiver": _channel_scenario(
        "decay", "grid", 2048, 61, _RECEIVER
    ),
    "fastbc-grid2048-receiver": _channel_scenario(
        "fastbc", "grid", 2048, 62, _RECEIVER
    ),
    "robust_fastbc-grid2048-receiver": _channel_scenario(
        "robust_fastbc", "grid", 2048, 63, _RECEIVER
    ),
    "repeated_fastbc-grid2048-receiver": _channel_scenario(
        "repeated_fastbc", "grid", 2048, 64, _RECEIVER
    ),
    "star_routing-receiver": _schedule_scenario(
        "star_routing", "star", 25, FaultConfig.receiver(_P), n=16
    ),
    "star_routing-sender": _schedule_scenario(
        "star_routing", "star", 26, FaultConfig.sender(_P), n=16
    ),
    "star_coding-receiver": _schedule_scenario(
        "star_coding", "star", 27, FaultConfig.receiver(_P), n=16
    ),
    "star_coding-sender": _schedule_scenario(
        "star_coding", "star", 28, FaultConfig.sender(_P), n=16
    ),
    # the star schedules on the run driver: an adversary, the contention
    # MAC and a timeline, none of which they took before
    "star_routing-gilbert": _channel_scenario(
        "star_routing", "star", 16, 65, _GILBERT
    ),
    "star_coding-gilbert": _channel_scenario(
        "star_coding", "star", 16, 66, _GILBERT
    ),
    "star_routing-contention": _channel_scenario(
        "star_routing", "star", 16, 67, _RECEIVER, _CONTENTION
    ),
    "star_coding-capture": _channel_scenario(
        "star_coding", "star", 16, 68, _SENDER, _CAPTURE
    ),
    "star_routing-receiver-timeline": _channel_scenario(
        "star_routing", "star", 32, 69, _RECEIVER, params={"k": 6}
    ),
    "star_coding-sender-timeline": _channel_scenario(
        "star_coding", "star", 32, 70, _SENDER, params={"k": 6}
    ),
    "single_link_routing-receiver": _schedule_scenario(
        "single_link_routing", "single_link", 29, FaultConfig.receiver(_P)
    ),
    "single_link_nonadaptive-sender": _schedule_scenario(
        "single_link_nonadaptive", "single_link", 30, FaultConfig.sender(_P)
    ),
    "single_link_coding-receiver": _schedule_scenario(
        "single_link_coding", "single_link", 31, FaultConfig.receiver(_P)
    ),
}

_TRACE_ROUNDS = 40


def _trace(
    make_channel, network, seed, sample=1.0, min_work=Channel.VECTORIZE_MIN_WORK
):
    """Drive random broadcast sets through a traced channel; return the trace.

    ``min_work`` pins ``Channel.VECTORIZE_MIN_WORK`` for the run: 0 sends
    every round to the vectorized kernel.
    """
    recorder = TraceRecorder(enabled=True, sample=sample, sample_seed=11)
    channel = make_channel(network, recorder)
    pick = random.Random(seed)
    with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", min_work):
        for _ in range(_TRACE_ROUNDS):
            count = pick.randint(0, max(1, network.n // 3))
            chosen = sorted(pick.sample(range(network.n), count))
            channel.transmit(np.array(chosen, dtype=np.int64))
    return recorder


def _default(faults=FaultConfig.faultless(), adversary=None):
    return lambda network, recorder: Channel(
        network, faults, rng=5, observers=[recorder], adversary=adversary
    )


def _mac(config, faults=FaultConfig.faultless()):
    return lambda network, recorder: ContentionChannel(
        network, faults, rng=5, observers=[recorder], config=config
    )


#: name -> zero-argument callable returning a filled TraceRecorder
TRACES = {
    "channel-gnp-receiver": lambda: _trace(
        _default(FaultConfig.receiver(_P)), random_graphs.gnp(48, 0.15, rng=1), 1
    ),
    "channel-grid-sender": lambda: _trace(
        _default(FaultConfig.sender(_P)), basic.grid(6, 6), 2
    ),
    "channel-gnp-churn": lambda: _trace(
        _default(adversary=AdversaryConfig("edge_churn", {"p_down": 0.3})),
        random_graphs.gnp(40, 0.2, rng=3),
        3,
    ),
    "channel-vectorized-sender": lambda: _trace(
        _default(FaultConfig.sender(_P)),
        random_graphs.gnp(120, 0.1, rng=6),
        6,
        min_work=0,
    ),
    "mac-grid-receiver": lambda: _trace(
        _mac(MacConfig(), FaultConfig.receiver(_P)), basic.grid(6, 6), 4
    ),
    "mac-gnp-capture": lambda: _trace(
        _mac(MacConfig(capture=1.5), FaultConfig.sender(_P)),
        random_graphs.gnp(40, 0.2, rng=5),
        5,
    ),
    "mac-vectorized-capture": lambda: _trace(
        _mac(MacConfig(capture=1.2, sense=False), FaultConfig.receiver(_P)),
        random_graphs.gnp(120, 0.1, rng=7),
        7,
        min_work=0,
    ),
    "channel-gnp-sampled": lambda: _trace(
        _default(FaultConfig.receiver(_P)), random_graphs.gnp(48, 0.15, rng=4),
        9, sample=0.3,
    ),
}


def _registry(family, n, seed=0):
    return lambda: make_topology(family, n, seed)


#: name -> (zero-argument network builder, repair budget)
GBSTS = {
    # wave-grid's network: 30 repair iterations
    "grid-4096": (_registry("grid", 4096), 200),
    "grid-1024": (_registry("grid", 1024), 200),
    "grid-32x128": (lambda: basic.grid(32, 128), 200),
    # ranks reach 4
    "gnp-1024-seed1": (_registry("gnp", 1024, 1), 200),
    "gnp-1024-seed2": (_registry("gnp", 1024, 2), 200),
    # the initial tree is already a GBST
    "bramble-1024": (_registry("bramble", 1024), 200),
    "layered-1024": (_registry("layered", 1024), 200),
    "caterpillar-1024": (_registry("caterpillar", 1024), 200),
    # the budget runs out with violations left
    "grid-1024-budget1": (_registry("grid", 1024), 1),
    "grid-1024-budget5": (_registry("grid", 1024), 5),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_digest(recorder) -> str:
    events = [
        [e.round_index, e.kind, e.node, e.peer] for e in recorder.events
    ]
    body = {"events": events, "sampled_out": recorder.sampled_out}
    return _sha(json.dumps(body, separators=(",", ":")))


def _gbst_digest(name) -> str:
    make_network, budget = GBSTS[name]
    result = build_gbst(make_network(), max_repair_iterations=budget)
    body = {
        "parent": result.tree.parent,
        "rank": result.tree.rank,
        "valid": result.valid,
        "repair_iterations": result.repair_iterations,
        "remaining_violations": result.remaining_violations,
    }
    return _sha(json.dumps(body, sort_keys=True, separators=(",", ":")))


def _scenario_digests(name):
    report = run(SCENARIOS[name])
    digests = {"report": _sha(report.to_json(canonical=True))}
    if report.timeline is not None:
        digests["timeline"] = Timeline.from_dict(report.timeline).cache_key()
    return digests


def compute_golden() -> dict:
    """Every digest, from the code as it is now."""
    reports, timelines = {}, {}
    for name in SCENARIOS:
        digests = _scenario_digests(name)
        reports[name] = digests["report"]
        if "timeline" in digests:
            timelines[name] = digests["timeline"]
    traces = {name: _trace_digest(make()) for name, make in TRACES.items()}
    gbsts = {name: _gbst_digest(name) for name in GBSTS}
    return {
        "cache_key_schema": CACHE_KEY_SCHEMA,
        "reports": reports,
        "timelines": timelines,
        "traces": traces,
        "gbsts": gbsts,
    }


def rewritten_outcomes(held: dict, fresh: dict) -> list[str]:
    """The pinned report digests and timeline keys ``fresh`` would change.

    Empty when ``held`` was computed under another schema: a bumped
    ``CACHE_KEY_SCHEMA`` is what licenses an outcome change.
    """
    if held["cache_key_schema"] != fresh["cache_key_schema"]:
        return []
    return [
        f"{section}/{name}"
        for section in ("reports", "timelines")
        for name, digest in sorted(held[section].items())
        if name in SCENARIOS and fresh[section].get(name) != digest
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_registry_algorithm():
    from repro.runner.registry import all_algorithms

    covered = {scenario.algorithm for scenario in SCENARIOS.values()}
    assert covered == {algorithm.name for algorithm in all_algorithms()}


def test_golden_file_records_the_cache_key_schema(golden):
    assert golden["cache_key_schema"] == CACHE_KEY_SCHEMA


def test_regeneration_refuses_to_rewrite_a_pinned_outcome(golden):
    fresh = json.loads(json.dumps(golden))
    assert rewritten_outcomes(golden, fresh) == []
    fresh["reports"]["decay-path-receiver"] = "0" * 64
    del fresh["timelines"]["fastbc-path-receiver"]
    fresh["reports"]["a-new-entry"] = "1" * 64
    assert rewritten_outcomes(golden, fresh) == [
        "reports/decay-path-receiver",
        "timelines/fastbc-path-receiver",
    ]
    # a bumped schema is what licenses the change
    fresh["cache_key_schema"] = CACHE_KEY_SCHEMA + 1
    assert rewritten_outcomes(golden, fresh) == []


def test_golden_file_lists_exactly_the_corpus(golden):
    assert sorted(golden["reports"]) == sorted(SCENARIOS)
    assert sorted(golden["traces"]) == sorted(TRACES)
    assert sorted(golden["gbsts"]) == sorted(GBSTS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_outcome_is_pinned(name, golden):
    digests = _scenario_digests(name)
    assert digests["report"] == golden["reports"][name], name
    assert digests.get("timeline") == golden["timelines"].get(name), name


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_stream_is_pinned(name, golden):
    assert _trace_digest(TRACES[name]()) == golden["traces"][name], name


@pytest.mark.parametrize("name", sorted(GBSTS))
def test_gbst_is_pinned(name, golden):
    assert _gbst_digest(name) == golden["gbsts"][name], name


def main() -> int:
    fresh = compute_golden()
    if GOLDEN.exists():
        changed = rewritten_outcomes(json.loads(GOLDEN.read_text("utf-8")), fresh)
        if changed:
            print(
                f"refusing to rewrite {len(changed)} outcome(s) pinned under "
                f"CACHE_KEY_SCHEMA {CACHE_KEY_SCHEMA}: {', '.join(changed)}; "
                "bump CACHE_KEY_SCHEMA in repro/runner/scenario.py so no "
                "store serves a report computed under the old rules",
                file=sys.stderr,
            )
            return 1
    GOLDEN.write_text(
        json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
