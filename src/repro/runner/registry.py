"""A registry of named broadcast algorithms behind one uniform interface.

Mirrors :mod:`repro.topologies.registry` and the experiment registry: the
CLI, the examples, and :mod:`repro.runner` look algorithms up by name
instead of importing per-algorithm entry points. Each entry wraps one of
the library's broadcast functions behind an adapter with the signature::

    adapter(network, faults, seed, max_rounds, params) -> AlgorithmResult

so "which protocol under which fault model" becomes data rather than
code. The seven algorithms that run on the scenario's network share one
adapter, :func:`_on_channel`, which calls their public ``*_broadcast``
function with the declared parameters as keywords and normalizes the
outcome; the star schedules share :func:`_on_star`, which sizes the star
from the scenario, and the single-link schedules, which flip their fault
coins with no channel, share :func:`_on_link`.

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
    """One declared algorithm parameter: name, default, one-line doc, and
    the smallest int it takes (None: no bound; a None default allows None)."""

    name: str
    default: Any
    doc: str = ""
    minimum: Optional[int] = None


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
    to run on out of the box. Every kind but ``"link"`` runs on the
    channel, so takes any registered adversary model, the contention MAC
    and a timeline; the single-link schedules only know the i.i.d. fault
    probability.
    """

    name: str
    kind: str
    summary: str
    params: tuple[Param, ...] = ()
    default_topology: str = "path"
    adapter: Adapter = None  # type: ignore[assignment]

    def declared(self) -> dict[str, Any]:
        """Declared parameters as a name -> default mapping."""
        return {p.name: p.default for p in self.params}

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject undeclared parameters, and values below their minimum."""
        unknown = [key for key in params if key not in self.declared()]
        if unknown:
            known = ", ".join(sorted(self.declared())) or "(none)"
            raise ValueError(
                f"algorithm {self.name!r} got unknown parameters "
                f"{sorted(unknown)}; declared: {known}"
            )
        for param in self.params:
            value = params.get(param.name, param.default)
            nullable = param.default is None
            if param.minimum is None or (value is None and nullable):
                continue
            if type(value) is not int or value < param.minimum:
                allowed = " or None" if nullable else ""
                raise ValueError(
                    f"algorithm {self.name!r} parameter {param.name!r} must "
                    f"be an int >= {param.minimum}{allowed}, got {value!r}"
                )

    def require_channel(self) -> None:
        """Refuse a single-link schedule, which runs on no channel."""
        if self.kind == "link":
            raise ValueError(
                f"algorithm {self.name!r} flips its fault coins with no "
                "channel, so it takes no adversary, contention channel or "
                "timeline"
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
        if adversary is not None or channel is not None:
            self.require_channel()
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


_K = Param("k", 4, "number of messages", 1)
_PAYLOAD = Param(
    "payload_length", 0, "payload bytes per message (0: headers only)", 0
)
_BLOCK = Param(
    "block", None, "block size override (default: Theta(log log n))", 1
)
_ROUND_MULTIPLIER = Param(
    "round_multiplier", DEFAULT_ROUND_MULTIPLIER, "rounds per block step", 1
)
_DECAY_INTERLEAVE = Param(
    "decay_interleave", True, "interleave Decay rounds with the wave"
)

register_algorithm(
    "decay",
    kind="single",
    summary="Decay broadcast (Lemma 9): fault-robust O(log n/(1-p) (D + log n))",
)(_on_channel(decay_broadcast, _from_single))

register_algorithm(
    "fastbc",
    kind="single",
    summary="FASTBC (Lemma 10): fast when faultless, degrades under faults",
    params=(_DECAY_INTERLEAVE,),
)(_on_channel(fastbc_broadcast, _from_single))

register_algorithm(
    "robust_fastbc",
    kind="single",
    summary="Robust FASTBC (Theorem 11): blocks absorb faults, keeps the wave",
    params=(_BLOCK, _ROUND_MULTIPLIER, _DECAY_INTERLEAVE),
)(_on_channel(robust_fastbc_broadcast, _from_single))

register_algorithm(
    "repeated_fastbc",
    kind="single",
    summary="Repetition baseline: FASTBC with every round repeated `repeat` times",
    params=(Param("repeat", 2, "repetition factor per wave round", 1),),
)(_on_channel(repeated_fastbc_broadcast, _from_single))

register_algorithm(
    "rlnc_decay",
    kind="multi",
    summary="k-message RLNC over the Decay pattern (Lemma 12)",
    params=(_K, _PAYLOAD),
)(_on_channel(rlnc_decay_broadcast, _from_multi))

register_algorithm(
    "rlnc_robust_fastbc",
    kind="multi",
    summary="k-message RLNC over Robust FASTBC waves (Lemma 13)",
    params=(_K, _PAYLOAD, _BLOCK, _ROUND_MULTIPLIER),
)(_on_channel(rlnc_robust_fastbc_broadcast, _from_multi))

register_algorithm(
    "rlnc_dense_wave",
    kind="multi",
    summary="exploratory k-message RLNC dense-wave pattern (open problem X1)",
    params=(_K, _PAYLOAD),
)(_on_channel(rlnc_dense_wave_broadcast, _from_multi))


# -- star schedules (Theorem 17 coding gap) ----------------------------------
#
# On failure the per-leaf completion split is not observable from
# StarOutcome, so `informed` collapses to all-or-nothing. The report leaves
# the channel counters out: adding them changes the canonical bytes, which
# waits for a CACHE_KEY_SCHEMA bump.


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


def _on_star(schedule: Callable[..., Any]) -> Adapter:
    """The adapter of a star schedule: ``n`` nodes make ``n - 1`` leaves."""

    def adapter(
        network, faults, seed, max_rounds, params, adversary=None, channel=None
    ):
        return _from_star(
            schedule(
                max(1, network.n - 1),
                p=faults.p,
                rng=seed,
                fault_model=faults.model,
                max_rounds=max_rounds,
                adversary=adversary,
                channel=channel,
                **params,
            )
        )

    return adapter


register_algorithm(
    "star_routing",
    kind="star",
    summary="adaptive star routing (Lemma 15): Theta(k log n) against faults",
    params=(_K,),
    default_topology="star",
)(_on_star(star_adaptive_routing))

register_algorithm(
    "star_coding",
    kind="star",
    summary="Reed-Solomon star coding (Lemma 16): Theta(k), closes the gap",
    params=(
        _K,
        Param("validate_decode", False, "decode and verify the RS round-trip"),
    ),
    default_topology="star",
)(_on_star(star_rs_coding))


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


def _on_link(schedule: Callable[..., Any], budget: Optional[str]) -> Adapter:
    """The adapter of a single-link schedule; ``max_rounds`` is its ``budget``."""

    def adapter(
        network, faults, seed, max_rounds, params, adversary=None, channel=None
    ):
        budgets = {budget: max_rounds} if budget else {}
        return _from_link(schedule(p=faults.p, rng=seed, **budgets, **params))

    return adapter


_LINK_K = Param("k", 8, "number of messages", 1)

register_algorithm(
    "single_link_routing",
    kind="link",
    summary="adaptive single-link routing (Lemma 32): 4k/(1-p) budget",
    params=(_LINK_K,),
    default_topology="single_link",
)(_on_link(single_link_adaptive_routing, "round_budget"))

register_algorithm(
    "single_link_nonadaptive",
    kind="link",
    summary="non-adaptive single-link routing (Lemma 29): Theta(log k) repeats",
    params=(
        _LINK_K,
        Param(
            "repetitions", None, "per-message repeats (default: Lemma 29 bound)", 1
        ),
    ),
    default_topology="single_link",
)(_on_link(single_link_nonadaptive_routing, None))

register_algorithm(
    "single_link_coding",
    kind="link",
    summary="single-link MDS coding (Lemma 30): any k receptions decode",
    params=(_LINK_K,),
    default_topology="single_link",
)(_on_link(single_link_coding, "max_rounds"))
