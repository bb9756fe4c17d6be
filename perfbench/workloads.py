"""The benchmark's workloads: which registry scenarios each one runs.

Every scenario is made from the workload seed given on the command line,
so the same seed gives the same inputs. A workload runs in *passes*: pass
``i`` is a fixed list of scenarios drawn from the seed, and the timed loop
runs whole passes until its time is up. Pass 0 always runs, so its
reports are the workload's outcome fingerprint.

Why these three (each stresses layers the others leave alone):

* ``wave-grid`` — Decay, FASTBC and Robust FASTBC on a 4096-node grid
  under receiver faults: protocol polling, the channel and ``build_gbst``
  carry the time; coding does no work. Array protocols and a GBST cache
  would show here.
* ``rlnc-grid`` — ``rlnc_decay`` with k=16 on a 1024-node grid: about 80%
  of a run is ``RLNCEncoder.emit``/``receive`` and GBST is never called. A
  coding speed-up shows here and not in ``wave-grid``; a GBST change shows
  there and not here.
* ``sweep-observed`` — a few hundred 64-node scenarios over every registry
  algorithm and noise kind, with timelines and metrics on, through a
  fresh ``ResultStore``: a cold pass executes and stores, warm passes
  replay. The fixed per-scenario costs (validation, topology build,
  protocol construction, report, cache key, store) and the enabled
  observer path carry the time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import AdversaryConfig, FaultConfig, Scenario, TimelineConfig

__all__ = ["WORKLOADS", "Workload", "make_workload"]

_RECEIVER_P = 0.3
_SWEEP_N = 64
_SWEEP_P = 0.2
#: scenarios one sweep seed gives
_SWEEP_PER_SEED = 57
#: seeds per sweep pass, so a pass holds 285 scenarios
_SWEEP_SEEDS = 5
_CHANNEL_ALGORITHMS = ("decay", "fastbc", "robust_fastbc", "repeated_fastbc")


@dataclass(frozen=True)
class Workload:
    """One named workload: its passes and how they are run.

    ``batch_size``: scenarios per cold ``run_batch`` call (``None``: the
    whole pass). ``uses_store``: each pass is a store cycle (fresh store,
    cold calls, then ``warm_passes`` replays of the pass).
    ``observed``: ``METRICS.enabled`` is set for the whole run.
    """

    name: str
    seed: int
    make_pass: Callable[[random.Random], list]
    batch_size: "int | None" = None
    uses_store: bool = False
    warm_passes: int = 0
    observed: bool = False

    def passes(self):
        """Pass 0, 1, 2, ... — the same sequence for the same seed."""
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            yield self.make_pass(rng)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _wave_grid(rng: random.Random) -> list:
    seed = _seed(rng)
    return [
        Scenario(
            algorithm,
            topology="grid",
            topology_params={"n": 4096},
            faults=FaultConfig.receiver(_RECEIVER_P),
            seed=seed,
        )
        for algorithm in ("decay", "fastbc", "robust_fastbc")
    ]


def _rlnc_grid(rng: random.Random) -> list:
    return [
        Scenario(
            "rlnc_decay",
            topology="grid",
            topology_params={"n": 1024},
            params={"k": 16},
            faults=FaultConfig.receiver(_RECEIVER_P),
            seed=_seed(rng),
        )
    ]


def _sweep_scenarios(seed: int) -> list:
    """The ``_SWEEP_PER_SEED`` sweep scenarios of one seed."""
    timeline = TimelineConfig()
    receiver = {"faults": FaultConfig.receiver(_SWEEP_P)}
    arms = (
        receiver,
        {"faults": FaultConfig.sender(_SWEEP_P)},
        {"adversary": AdversaryConfig("gilbert_elliott", {})},
    )
    contention = dict(receiver, channel="contention")
    size = {"n": _SWEEP_N}
    scenarios = []
    for algorithm in _CHANNEL_ALGORITHMS:
        for topology in ("path", "grid", "gnp"):
            for arm in arms:
                scenarios.append(
                    Scenario(algorithm, topology=topology, topology_params=size,
                             seed=seed, timeline=timeline, **arm)
                )
        # the contention MAC on path n=64 costs ~10x a default-channel run,
        # so its arm stays on the short-diameter topologies
        for topology in ("grid", "gnp"):
            scenarios.append(
                Scenario(algorithm, topology=topology, topology_params=size,
                         seed=seed, timeline=timeline, **contention)
            )
    # RLNC on gnp only (path n=64 alone takes ~0.4 s); one noise arm each
    for algorithm, arm in (
        ("rlnc_decay", receiver),
        ("rlnc_robust_fastbc", arms[2]),
        ("rlnc_dense_wave", contention),
    ):
        scenarios.append(
            Scenario(algorithm, topology="gnp", topology_params=size,
                     seed=seed, timeline=timeline, **arm)
        )
    for faults in (FaultConfig.receiver(_SWEEP_P), FaultConfig.sender(_SWEEP_P)):
        for algorithm in ("star_routing", "star_coding"):
            scenarios.append(
                Scenario(algorithm, topology="star", topology_params=size,
                         seed=seed, faults=faults)
            )
        for algorithm, params in (
            ("single_link_routing", {}),
            # Lemma 29's default repetition count fails with probability
            # up to 1/k; 12 repeats make a failed run a ~1e-7 event
            ("single_link_nonadaptive", {"repetitions": 12}),
            ("single_link_coding", {}),
        ):
            scenarios.append(
                Scenario(algorithm, topology="single_link", params=params,
                         seed=seed, faults=faults)
            )
    return scenarios


def _sweep_observed(rng: random.Random) -> list:
    scenarios = []
    for _ in range(_SWEEP_SEEDS):
        scenarios.extend(_sweep_scenarios(_seed(rng)))
    return scenarios


_FACTORIES = {
    "wave-grid": lambda seed: Workload("wave-grid", seed, _wave_grid),
    "rlnc-grid": lambda seed: Workload("rlnc-grid", seed, _rlnc_grid),
    "sweep-observed": lambda seed: Workload(
        "sweep-observed",
        seed,
        _sweep_observed,
        batch_size=_SWEEP_PER_SEED,
        uses_store=True,
        warm_passes=20,
        observed=True,
    ),
}

#: workload names, in the order BENCHMARK.json lists them
WORKLOADS = tuple(_FACTORIES)


def make_workload(name: str, seed: int) -> Workload:
    """The named workload for ``seed`` (raises ``KeyError`` if unknown)."""
    if name not in _FACTORIES:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return _FACTORIES[name](seed)
