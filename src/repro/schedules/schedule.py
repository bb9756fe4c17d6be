"""Static routing schedules (Section 3.1's schedule formalism).

A :class:`StaticRoutingSchedule` fixes, for every round, which nodes
broadcast which message index — independent of outcomes, exactly as the
paper's ``b_u^r`` functions with no inputs. Executing one on a faultless
channel yields the :class:`ReferenceExecution`: the delivery relation the
Lemma 25/26 transformations must preserve under faults.

Two canonical faultless schedules ship with the library:

* :func:`star_schedule` — source sends each message once (throughput 1 on
  the star).
* :func:`path_pipeline_schedule` — messages pipelined down a path with
  mod-3 spacing (no two broadcasters within distance 2, so no collisions;
  throughput 1/3).

:func:`execute_reference` plays a schedule as a script on the run driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.base import run_script
from repro.core.engine import node_array
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.topologies.basic import path, star
from repro.util.validation import check_positive

__all__ = [
    "StaticRoutingSchedule",
    "ReferenceExecution",
    "execute_reference",
    "star_schedule",
    "path_pipeline_schedule",
]


@dataclass
class StaticRoutingSchedule:
    """A fixed round-by-round broadcast table.

    ``rounds[r]`` maps broadcasting node -> message index for round r.
    ``k`` is the number of distinct messages the schedule carries.
    """

    network: RadioNetwork
    k: int
    rounds: list[dict[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive(self.k, "k")
        for r, actions in enumerate(self.rounds):
            for node, message in actions.items():
                if not 0 <= node < self.network.n:
                    raise ValueError(f"round {r}: unknown node {node}")
                if not 0 <= message < self.k:
                    raise ValueError(
                        f"round {r}: message index {message} out of range"
                    )

    @property
    def length(self) -> int:
        return len(self.rounds)

    @property
    def throughput(self) -> float:
        """Messages per round carried by this schedule."""
        return self.k / self.length if self.length else 0.0


@dataclass(frozen=True)
class ReferenceExecution:
    """What a schedule achieves on the faultless channel.

    ``deliveries[r]`` lists ``(receiver, sender, message)`` for round r;
    ``known`` maps node -> set of message indices it ends up holding.
    """

    deliveries: list[list[tuple[int, int, int]]]
    known: dict[int, set[int]]


def execute_reference(schedule: StaticRoutingSchedule) -> ReferenceExecution:
    """Run the schedule on a faultless channel and record its deliveries.

    A node scheduled to broadcast a message it has not yet received stays
    silent (the paper's rule for routing schedules).
    """
    network = schedule.network
    known: dict[int, set[int]] = {v: set() for v in network.nodes()}
    known[network.source] = set(range(schedule.k))
    deliveries: list[list[tuple[int, int, int]]] = []

    def script(source):
        for actions in schedule.rounds:
            live = {node: m for node, m in actions.items() if m in known[node]}
            result = yield node_array(sorted(live))
            heard = zip(result.receivers.tolist(), result.senders.tolist())
            deliveries.append([(v, s, live[s]) for v, s in heard])
            for v, _, message in deliveries[-1]:
                known[v].add(message)

    run_script(network, script, FaultConfig.faultless(), 0, schedule.length)
    return ReferenceExecution(deliveries=deliveries, known=known)


def star_schedule(n_leaves: int, k: int) -> StaticRoutingSchedule:
    """Faultless star schedule: the source sends each message once."""
    check_positive(n_leaves, "n_leaves")
    check_positive(k, "k")
    network = star(n_leaves)
    rounds = [{network.source: i} for i in range(k)]
    return StaticRoutingSchedule(network=network, k=k, rounds=rounds)


def path_pipeline_schedule(n: int, k: int) -> StaticRoutingSchedule:
    """Faultless pipelined path schedule with mod-3 collision spacing.

    Node ``i`` broadcasts message ``j`` at round ``3j + i``. Broadcasters
    in any round are congruent mod 3, so no listener ever hears two of
    them; message j advances one hop per round behind message j-1.
    """
    if n < 2:
        raise ValueError(f"the pipeline needs a path of >= 2 nodes, got {n}")
    check_positive(k, "k")
    network = path(n)
    length = 3 * (k - 1) + (n - 1)
    rounds: list[dict[int, int]] = [dict() for _ in range(length)]
    for j in range(k):
        for i in range(n - 1):  # the last node never needs to forward
            r = 3 * j + i
            if r < length:
                rounds[r][i] = j
    return StaticRoutingSchedule(network=network, k=k, rounds=rounds)
