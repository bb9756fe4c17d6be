"""A registry of named broadcast algorithms behind one uniform interface.

Mirrors :mod:`repro.topologies.registry` and the experiment registry: the
CLI, the examples, and :mod:`repro.runner` look algorithms up by name
instead of importing per-algorithm entry points. Each entry wraps one of
the library's broadcast functions behind an adapter with the signature::

    adapter(network, faults, seed, max_rounds, params) -> AlgorithmResult

so "which protocol under which fault model" becomes data rather than
code. The seven algorithms that run on the collision channel share one
adapter, :func:`_on_channel`, which calls their public ``*_broadcast``
function with the declared parameters as keywords and normalizes the
outcome; the star and single-link schedules keep one adapter each,
because they size their own medium from the scenario.

Outcome normalization: every adapter reduces its native outcome type
(:class:`~repro.algorithms.base.BroadcastOutcome`, ``MultiMessageOutcome``,
``StarOutcome``, ``SingleLinkOutcome``) to an :class:`AlgorithmResult`
with the shared fields (success, rounds, informed, total, counters) plus
an ``extras`` dict carrying whatever is algorithm-specific — all of it
JSON-serializable scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.algorithms.base import BroadcastOutcome
from repro.algorithms.decay import decay_broadcast
from repro.algorithms.fastbc import fastbc_broadcast
from repro.algorithms.multi.rlnc_broadcast import (
    MultiMessageOutcome,
    rlnc_decay_broadcast,
    rlnc_dense_wave_broadcast,
    rlnc_robust_fastbc_broadcast,
)
from repro.algorithms.multi.single_link import (
    single_link_adaptive_routing,
    single_link_coding,
    single_link_nonadaptive_routing,
)
from repro.algorithms.multi.star import star_adaptive_routing, star_rs_coding
from repro.algorithms.repetition import repeated_fastbc_broadcast
from repro.algorithms.robust_fastbc import (
    DEFAULT_ROUND_MULTIPLIER,
    robust_fastbc_broadcast,
)
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork

__all__ = [
    "AlgorithmResult",
    "BroadcastAlgorithm",
    "Param",
    "all_algorithms",
    "get_algorithm",
    "register_algorithm",
]


@dataclass(frozen=True)
class AlgorithmResult:
    """The normalized outcome every registered algorithm produces.

    ``informed``/``total`` count completed receivers (nodes, leaves, or —
    on a single link — the one receiver). ``counters`` is the channel's
    :meth:`~repro.core.trace.ChannelCounters.as_dict` when the algorithm
    runs on the real channel, else empty. ``extras`` holds
    algorithm-specific scalars (``k``, reception spreads, ...).
    """

    success: bool
    rounds: int
    informed: int
    total: int
    counters: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Param:
    """One declared algorithm parameter (name, default, one-line doc)."""

    name: str
    default: Any
    doc: str = ""


Adapter = Callable[
    [RadioNetwork, FaultConfig, int, Optional[int], dict,
     Optional[AdversaryConfig], Optional[Any]],
    AlgorithmResult,
]


@dataclass(frozen=True)
class BroadcastAlgorithm:
    """A registered broadcast algorithm.

    ``kind`` is one of ``"single"`` (one message over the full radio
    network), ``"multi"`` (k messages over the full network), ``"star"``
    (source-to-leaves schedules; the scenario topology sizes the star), or
    ``"link"`` (two-node schedules; only the fault probability matters).
    ``default_topology`` names a registry family the algorithm is happy
    to run on out of the box. ``supports_adversary`` is True for the
    algorithms that run on the real collision channel and therefore
    accept any registered adversary model; the star/link schedule
    simulations only know the i.i.d. fault probability.
    """

    name: str
    kind: str
    summary: str
    params: tuple[Param, ...] = ()
    default_topology: str = "path"
    supports_adversary: bool = False
    adapter: Adapter = None  # type: ignore[assignment]

    def declared(self) -> dict[str, Any]:
        """Declared parameters as a name -> default mapping."""
        return {p.name: p.default for p in self.params}

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject parameters this algorithm does not declare."""
        unknown = [key for key in params if key not in self.declared()]
        if unknown:
            known = ", ".join(sorted(self.declared())) or "(none)"
            raise ValueError(
                f"algorithm {self.name!r} got unknown parameters "
                f"{sorted(unknown)}; declared: {known}"
            )

    def run(
        self,
        network: RadioNetwork,
        faults: FaultConfig,
        seed: int,
        max_rounds: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
        adversary: Optional[AdversaryConfig] = None,
        channel=None,
    ) -> AlgorithmResult:
        """Run with declared defaults merged under ``params``."""
        if adversary is not None and not self.supports_adversary:
            raise ValueError(
                f"algorithm {self.name!r} does not support adversary models "
                "(only channel-based algorithms do); drop --adversary or "
                "pick a 'single'/'multi' algorithm"
            )
        if channel is not None and not self.supports_adversary:
            raise ValueError(
                f"algorithm {self.name!r} does not run on the collision "
                "channel, so a contention MAC does not apply; use the "
                "default channel or pick a 'single'/'multi' algorithm"
            )
        merged = self.declared()
        if params:
            self.validate_params(params)
            merged.update(params)
        return self.adapter(
            network, faults, seed, max_rounds, merged, adversary, channel
        )


_REGISTRY: dict[str, BroadcastAlgorithm] = {}


def register_algorithm(
    name: str,
    *,
    kind: str,
    summary: str,
    params: tuple[Param, ...] = (),
    default_topology: str = "path",
    supports_adversary: bool = False,
) -> Callable[[Adapter], BroadcastAlgorithm]:
    """Decorator registering an adapter as a named broadcast algorithm."""

    def decorator(adapter: Adapter) -> BroadcastAlgorithm:
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} already registered")
        algorithm = BroadcastAlgorithm(
            name=name,
            kind=kind,
            summary=summary,
            params=params,
            default_topology=default_topology,
            supports_adversary=supports_adversary,
            adapter=adapter,
        )
        _REGISTRY[name] = algorithm
        return algorithm

    return decorator


def get_algorithm(name: str) -> BroadcastAlgorithm:
    """Look up a registered algorithm by name (e.g. ``"decay"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None


def all_algorithms() -> list[BroadcastAlgorithm]:
    """All registered algorithms in name order."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# -- outcome normalization --------------------------------------------------


def _from_single(outcome: BroadcastOutcome) -> AlgorithmResult:
    return AlgorithmResult(
        success=outcome.success,
        rounds=outcome.rounds,
        informed=outcome.informed,
        total=outcome.total,
        counters=outcome.counters.as_dict(),
    )


def _from_multi(outcome: MultiMessageOutcome) -> AlgorithmResult:
    return AlgorithmResult(
        success=outcome.success,
        rounds=outcome.rounds,
        informed=outcome.completed_nodes,
        total=outcome.total_nodes,
        counters=outcome.counters.as_dict(),
        extras={
            "k": outcome.k,
            "rounds_per_message": outcome.rounds_per_message,
        },
    )


# -- algorithms on the collision channel ------------------------------------


def _on_channel(
    broadcast: Callable[..., Any], normalize: Callable[[Any], AlgorithmResult]
) -> Adapter:
    """The adapter of a ``*_broadcast`` function that runs on the channel.

    Every declared :class:`Param` is a keyword of ``broadcast``.
    """

    def adapter(
        network, faults, seed, max_rounds, params, adversary=None, channel=None
    ):
        return normalize(
            broadcast(
                network,
                faults=faults,
                rng=seed,
                max_rounds=max_rounds,
                adversary=adversary,
                channel=channel,
                **params,
            )
        )

    return adapter


_K = Param("k", 4, "number of messages")
_PAYLOAD = Param(
    "payload_length", 0, "payload bytes per message (0: headers only)"
)
_BLOCK = Param("block", None, "block size override (default: Theta(log log n))")
_ROUND_MULTIPLIER = Param(
    "round_multiplier", DEFAULT_ROUND_MULTIPLIER, "rounds per block step"
)
_DECAY_INTERLEAVE = Param(
    "decay_interleave", True, "interleave Decay rounds with the wave"
)

register_algorithm(
    "decay",
    kind="single",
    supports_adversary=True,
    summary="Decay broadcast (Lemma 9): fault-robust O(log n/(1-p) (D + log n))",
)(_on_channel(decay_broadcast, _from_single))

register_algorithm(
    "fastbc",
    kind="single",
    supports_adversary=True,
    summary="FASTBC (Lemma 10): fast when faultless, degrades under faults",
    params=(_DECAY_INTERLEAVE,),
)(_on_channel(fastbc_broadcast, _from_single))

register_algorithm(
    "robust_fastbc",
    kind="single",
    supports_adversary=True,
    summary="Robust FASTBC (Theorem 11): blocks absorb faults, keeps the wave",
    params=(_BLOCK, _ROUND_MULTIPLIER, _DECAY_INTERLEAVE),
)(_on_channel(robust_fastbc_broadcast, _from_single))

register_algorithm(
    "repeated_fastbc",
    kind="single",
    supports_adversary=True,
    summary="Repetition baseline: FASTBC with every round repeated `repeat` times",
    params=(Param("repeat", 2, "repetition factor per wave round"),),
)(_on_channel(repeated_fastbc_broadcast, _from_single))

register_algorithm(
    "rlnc_decay",
    kind="multi",
    supports_adversary=True,
    summary="k-message RLNC over the Decay pattern (Lemma 12)",
    params=(_K, _PAYLOAD),
)(_on_channel(rlnc_decay_broadcast, _from_multi))

register_algorithm(
    "rlnc_robust_fastbc",
    kind="multi",
    supports_adversary=True,
    summary="k-message RLNC over Robust FASTBC waves (Lemma 13)",
    params=(_K, _PAYLOAD, _BLOCK, _ROUND_MULTIPLIER),
)(_on_channel(rlnc_robust_fastbc_broadcast, _from_multi))

register_algorithm(
    "rlnc_dense_wave",
    kind="multi",
    supports_adversary=True,
    summary="exploratory k-message RLNC dense-wave pattern (open problem X1)",
    params=(_K, _PAYLOAD),
)(_on_channel(rlnc_dense_wave_broadcast, _from_multi))


# -- star schedules (Theorem 17 coding gap) ----------------------------------
#
# The star schedules build their own star channel; the scenario's topology
# only sizes it (n nodes -> n-1 leaves) and the scenario's FaultConfig
# supplies the fault model and probability. On failure the per-leaf
# completion split is not observable from StarOutcome, so `informed`
# collapses to all-or-nothing.


def _from_star(outcome) -> AlgorithmResult:
    return AlgorithmResult(
        success=outcome.success,
        rounds=outcome.rounds,
        informed=outcome.n_leaves if outcome.success else 0,
        total=outcome.n_leaves,
        extras={
            "k": outcome.k,
            "rounds_per_message": outcome.rounds_per_message,
            "min_receptions": outcome.min_receptions,
            "max_receptions": outcome.max_receptions,
        },
    )


@register_algorithm(
    "star_routing",
    kind="star",
    summary="adaptive star routing (Lemma 15): Theta(k log n) against faults",
    params=(_K,),
    default_topology="star",
)
def _star_routing(
    network, faults, seed, max_rounds, params, adversary=None, channel=None
):
    return _from_star(
        star_adaptive_routing(
            max(1, network.n - 1),
            params["k"],
            faults.p,
            rng=seed,
            fault_model=faults.model,
            max_rounds=max_rounds,
        )
    )


@register_algorithm(
    "star_coding",
    kind="star",
    summary="Reed-Solomon star coding (Lemma 16): Theta(k), closes the gap",
    params=(
        _K,
        Param("validate_decode", False, "decode and verify the RS round-trip"),
    ),
    default_topology="star",
)
def _star_coding(
    network, faults, seed, max_rounds, params, adversary=None, channel=None
):
    return _from_star(
        star_rs_coding(
            max(1, network.n - 1),
            params["k"],
            faults.p,
            rng=seed,
            fault_model=faults.model,
            max_rounds=max_rounds,
            validate_decode=params["validate_decode"],
        )
    )


# -- single-link schedules (Section 6) ----------------------------------------
#
# One sender, one receiver: the network argument is ignored beyond
# documentation (use the "single_link" topology family) and only the fault
# probability matters. `informed`/`total` describe the lone receiver;
# per-message delivery counts live in extras.


def _from_link(outcome) -> AlgorithmResult:
    return AlgorithmResult(
        success=outcome.success,
        rounds=outcome.rounds,
        informed=1 if outcome.success else 0,
        total=1,
        extras={
            "k": outcome.k,
            "delivered": outcome.delivered,
            "rounds_per_message": outcome.rounds_per_message,
        },
    )


@register_algorithm(
    "single_link_routing",
    kind="link",
    summary="adaptive single-link routing (Lemma 32): 4k/(1-p) budget",
    params=(Param("k", 8, "number of messages"),),
    default_topology="single_link",
)
def _single_link_routing(
    network, faults, seed, max_rounds, params, adversary=None, channel=None
):
    return _from_link(
        single_link_adaptive_routing(
            params["k"], faults.p, rng=seed, round_budget=max_rounds
        )
    )


@register_algorithm(
    "single_link_nonadaptive",
    kind="link",
    summary="non-adaptive single-link routing (Lemma 29): Theta(log k) repeats",
    params=(
        Param("k", 8, "number of messages"),
        Param("repetitions", None, "per-message repeats (default: Lemma 29 bound)"),
    ),
    default_topology="single_link",
)
def _single_link_nonadaptive(
    network, faults, seed, max_rounds, params, adversary=None, channel=None
):
    return _from_link(
        single_link_nonadaptive_routing(
            params["k"], faults.p, rng=seed, repetitions=params["repetitions"]
        )
    )


@register_algorithm(
    "single_link_coding",
    kind="link",
    summary="single-link MDS coding (Lemma 30): any k receptions decode",
    params=(Param("k", 8, "number of messages"),),
    default_topology="single_link",
)
def _single_link_coding(
    network, faults, seed, max_rounds, params, adversary=None, channel=None
):
    return _from_link(
        single_link_coding(params["k"], faults.p, rng=seed, max_rounds=max_rounds)
    )
