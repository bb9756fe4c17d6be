"""The outcomes of the star, layered-routing and transformation schedules,
pinned.

The star schedules (Lemmas 15-16), bipartite and pipelined routing
(Lemmas 20-21), the schedule transformations (Lemmas 25-26) and the
faultless reference execution each run on the Section 3.1 channel. Each
digest below is the SHA-256 of every outcome of one small grid, field by
field, including runs that exhaust their round budget and pipelined
meta-rounds too short to succeed. A change to how these schedules run
that alters any draw, round count or delivery changes a digest.

To print the digests of the code as it is now::

    PYTHONPATH=src python tests/integration/test_loop_outcomes.py
"""

import hashlib
import json

import pytest

from repro.algorithms.multi.pipelined import (
    bipartite_routing_broadcast,
    pipelined_routing_broadcast,
)
from repro.algorithms.multi.star import star_adaptive_routing, star_rs_coding
from repro.core.faults import FaultConfig, FaultModel
from repro.schedules.schedule import (
    StaticRoutingSchedule,
    execute_reference,
    path_pipeline_schedule,
    star_schedule,
)
from repro.schedules.transforms import (
    transform_coding_schedule,
    transform_routing_schedule,
)
from repro.topologies.basic import path
from repro.topologies.layered import bipartite_network, layered_network

_MODELS = (FaultModel.RECEIVER, FaultModel.SENDER)
_STAR_FIELDS = ("success", "rounds", "k", "n_leaves", "min_receptions",
                "max_receptions")
_PIPELINED_FIELDS = ("success", "rounds", "k", "completed_nodes", "total_nodes")
_TRANSFORM_FIELDS = ("success", "original_rounds", "transformed_rounds",
                     "k_original", "x", "meta_round_length", "reproduced",
                     "expected")


def _fields(outcome, names):
    return [getattr(outcome, name) for name in names]


def _star_cases():
    """Stars of 1-63 leaves, every fault model, default and 7-round budgets."""
    for n_leaves in (1, 5, 16, 63):
        for k in (1, 3):
            for model, p in [(FaultModel.NONE, 0.0)] + [
                (model, p) for model in _MODELS for p in (0.3, 0.6)
            ]:
                for max_rounds in (None, 7):
                    for seed in (0, 1):
                        yield dict(n_leaves=n_leaves, k=k, p=p, rng=seed,
                                   fault_model=model, max_rounds=max_rounds)


def _star_routing_rows():
    return [
        _fields(star_adaptive_routing(**case), _STAR_FIELDS)
        for case in _star_cases()
    ]


def _star_coding_rows():
    rows = [
        _fields(star_rs_coding(**case), _STAR_FIELDS) for case in _star_cases()
    ]
    # decoding draws the messages from the run's source
    for case in _star_cases():
        if case["k"] == 3 and case["rng"] == 1:
            rows.append(
                _fields(star_rs_coding(**case, validate_decode=True),
                        _STAR_FIELDS)
            )
    return rows


def _bipartite_networks():
    return [
        bipartite_network(4, 8),
        bipartite_network(6, 12, edge_probability=0.5, rng=3),
        layered_network(3, 4),
        path(6),
    ]


_NOISE = (
    FaultConfig.faultless(),
    FaultConfig.receiver(0.3),
    FaultConfig.sender(0.3),
    FaultConfig.receiver(0.6),
)


def _bipartite_rows():
    return [
        _fields(
            bipartite_routing_broadcast(
                network, k, faults, rng=seed, max_rounds=max_rounds
            ),
            _PIPELINED_FIELDS,
        )
        for network in _bipartite_networks()
        for k in (1, 3)
        for faults in _NOISE
        for max_rounds in (None, 9)
        for seed in (0, 1)
    ]


def _pipelined_rows():
    networks = [layered_network(4, 3), layered_network(3, 4), path(8)]
    # (batch_size, meta_round_length, max_meta_rounds); the short
    # meta-rounds and meta-round counts leave batches undelivered
    shapes = [(None, None, None), (2, None, None), (None, 3, None),
              (1, 40, 4)]
    return [
        _fields(
            pipelined_routing_broadcast(
                network, k, faults, rng=seed, batch_size=batch_size,
                meta_round_length=length, max_meta_rounds=meta_rounds,
            ),
            _PIPELINED_FIELDS,
        )
        for network in networks
        for k in (2, 5)
        for faults in _NOISE[:3]
        for batch_size, length, meta_rounds in shapes
        for seed in (0, 1)
    ]


def _colliding_schedule():
    """A path schedule with collisions and broadcasters that lack their
    message, so stay silent."""
    return StaticRoutingSchedule(
        network=path(5),
        k=2,
        rounds=[{0: 0}, {1: 0, 2: 1}, {0: 1, 2: 0}, {1: 1, 3: 0}, {},
                {2: 1}, {1: 1}, {2: 1}, {3: 1}],
    )


def _schedules():
    return [star_schedule(5, 3), path_pipeline_schedule(6, 3),
            _colliding_schedule()]


def _transform_cases():
    for schedule in _schedules():
        for x in (1, 6):
            for p in (0.0, 0.3, 0.6):
                for eta in (0.5, 0.01):
                    for seed in (0, 1):
                        yield schedule, dict(x=x, p=p, eta=eta, rng=seed)


def _transform_routing_rows():
    return [
        _fields(transform_routing_schedule(schedule, **case), _TRANSFORM_FIELDS)
        for schedule, case in _transform_cases()
    ]


def _transform_coding_rows():
    return [
        _fields(
            transform_coding_schedule(schedule, fault_model=model, **case),
            _TRANSFORM_FIELDS,
        )
        for schedule, case in _transform_cases()
        if case["p"] > 0
        for model in _MODELS
    ]


def _reference_rows():
    rows = []
    for schedule in _schedules():
        reference = execute_reference(schedule)
        rows.append(
            [
                [[list(d) for d in deliveries] for deliveries in reference.deliveries],
                sorted([v, sorted(known)] for v, known in reference.known.items()),
            ]
        )
    return rows


_FAMILIES = {
    "star_adaptive_routing": _star_routing_rows,
    "star_rs_coding": _star_coding_rows,
    "bipartite_routing_broadcast": _bipartite_rows,
    "pipelined_routing_broadcast": _pipelined_rows,
    "transform_routing_schedule": _transform_routing_rows,
    "transform_coding_schedule": _transform_coding_rows,
    "execute_reference": _reference_rows,
}

#: computed before these schedules moved onto the run driver
PINNED = {
    "star_adaptive_routing": "ddefb50406dadd64cf5f333d9264e8066b41366c90302a23cff0443e53aa52a2",
    "star_rs_coding": "41ce7912c8ebd45790dd579975d350f1950db1a6adf8af07b3d9b7b7d548861c",
    "bipartite_routing_broadcast": "728401a3a2dc6b7beb08193830be4aeebef4a63ddd9faada194b2cf01df7b6f5",
    "pipelined_routing_broadcast": "7c9581e8972a05d3311aad554cdc405399db4eaded9ae68502d897a9b0576467",
    "transform_routing_schedule": "bfdb2d65e1c1d3a491f08c75deba15f1d1ee18a1a4566acea5530ebb1493c882",
    "transform_coding_schedule": "94ab6b287ce7cd75e72b6bfd071cb71123e878f06e26eabf941c34fa45c37b88",
    "execute_reference": "8e3b0cbb89b4065c20fc115911a0a58507c6ddb10dbc7a5a6c3f0afd925c00b8",
}


def _digest(name: str) -> str:
    body = json.dumps(_FAMILIES[name](), separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_outcomes_are_pinned(name):
    assert _digest(name) == PINNED[name]


if __name__ == "__main__":
    for family in _FAMILIES:
        print(f'    "{family}": "{_digest(family)}",')
