"""The declarative run description: one frozen :class:`Scenario` per run.

A scenario bundles everything a broadcast run depends on — topology spec,
algorithm name plus parameters, fault configuration, seed, and round
budget — so that examples, experiments, benchmarks, and the CLI all
describe work the same way and :func:`repro.runner.run` can execute it
anywhere (including in a worker process of a ``run_batch`` pool).

The topology is a registry family name (``"path"``, ``"gnp"``, ...) with
``topology_params`` (``n`` and optionally a topology ``seed`` pinned
independently of the scenario seed), so every scenario survives
``to_dict``/``from_dict`` and has a content address
(:meth:`Scenario.cache_key`). A pre-built
:class:`~repro.core.network.RadioNetwork` runs through the per-algorithm
entry points instead: ``decay_broadcast(network, ...)`` or
``get_algorithm(name).run(network, ...)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro._version import __version__
from repro.adversary.registry import get_adversary_type
from repro.core.faults import AdversaryConfig, FaultConfig, FaultModel
from repro.core.network import RadioNetwork
from repro.mac.config import MacConfig, make_channel_config
from repro.runner.registry import get_algorithm
from repro.timeline.config import TimelineConfig
from repro.topologies.registry import TOPOLOGY_FAMILIES, make_topology
from repro.util.validation import check_non_negative, check_positive

__all__ = ["Scenario", "DEFAULT_TOPOLOGY_SIZE", "CACHE_KEY_SCHEMA"]

#: nodes used when a named topology omits ``n``
DEFAULT_TOPOLOGY_SIZE = 32

#: bump to invalidate every content-addressed cache entry when the report
#: schema (not the code version) changes incompatibly
CACHE_KEY_SCHEMA = 1

_TOPOLOGY_PARAM_KEYS = frozenset({"n", "seed"})


@dataclass(frozen=True)
class Scenario:
    """A fully-specified, reproducible broadcast run.

    Parameters
    ----------
    algorithm:
        Registered algorithm name (see :func:`repro.all_algorithms`).
    topology:
        Topology family name (see :data:`TOPOLOGY_FAMILIES
        <repro.topologies.registry.TOPOLOGY_FAMILIES>`).
    topology_params:
        ``n`` (size, an int >= 1, default :data:`DEFAULT_TOPOLOGY_SIZE`)
        and optional ``seed`` (a non-negative int; pins random families
        independently of the scenario seed).
    params:
        Algorithm parameters: declared by the algorithm, none below its minimum.
    faults:
        The fault model and probability.
    adversary:
        Optional :class:`~repro.core.faults.AdversaryConfig` replacing
        the i.i.d. fault coins with a registered adversary model;
        mutually exclusive with a non-faultless ``faults``. The ``iid``
        kind is canonicalized back into ``faults`` on construction, so
        ``Scenario(adversary=AdversaryConfig("iid", {...}))`` and the
        equivalent ``Scenario(faults=FaultConfig(...))`` are the *same*
        scenario and produce byte-identical reports.
    seed:
        Top-level RNG seed (a non-negative int); the whole run reproduces
        from it.
    max_rounds:
        Round budget override (``None``: the algorithm's own bound).
    timeline:
        Optional :class:`~repro.timeline.TimelineConfig`: opt the run
        into the per-round flight recorder. Recording never changes the
        simulation (same RNG streams, same report contents) but the
        config does participate in :meth:`cache_key` — a stored
        timeline-less report must never satisfy a request that asked
        for the timeline sidecar. The single-link schedules, which run
        on no channel, take no timeline, adversary or contention channel.
    channel:
        Channel kind: ``"default"`` (the paper's collision channel) or
        ``"contention"`` (the CSMA/CA MAC of :mod:`repro.mac`).
    channel_params:
        Knobs for a non-default channel (see
        :meth:`~repro.mac.config.MacConfig.to_dict`); must be empty for
        the default channel.
    """

    algorithm: str
    topology: str = "path"
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    faults: FaultConfig = field(default_factory=FaultConfig.faultless)
    adversary: Optional[AdversaryConfig] = None
    seed: int = 0
    max_rounds: Optional[int] = None
    timeline: Optional[TimelineConfig] = None
    channel: str = "default"
    channel_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # normalize the mappings to plain dicts (picklable, JSON-friendly)
        object.__setattr__(self, "topology_params", dict(self.topology_params))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "channel_params", dict(self.channel_params))

        algorithm = get_algorithm(self.algorithm)  # raises KeyError if unknown
        algorithm.validate_params(self.params)

        # validates kind and params eagerly (raises on unknown keys); the
        # built config is re-derived on demand by channel_config()
        make_channel_config(self.channel, self.channel_params)

        if not isinstance(self.topology, str):
            raise TypeError(
                "topology must be a topology family name, got "
                f"{type(self.topology).__name__}; run a pre-built network "
                "with decay_broadcast(network, ...) or "
                "get_algorithm(name).run(network, ...)"
            )
        if self.topology not in TOPOLOGY_FAMILIES:
            known = ", ".join(sorted(TOPOLOGY_FAMILIES))
            raise ValueError(
                f"unknown topology family {self.topology!r}; known: {known}"
            )
        unknown = set(self.topology_params) - _TOPOLOGY_PARAM_KEYS
        if unknown:
            raise ValueError(
                f"unknown topology_params {sorted(unknown)}; "
                f"allowed: {sorted(_TOPOLOGY_PARAM_KEYS)}"
            )
        if "n" in self.topology_params:
            check_positive(self.topology_params["n"], "topology_params['n']")
        if "seed" in self.topology_params:
            check_non_negative(
                self.topology_params["seed"], "topology_params['seed']"
            )

        if not isinstance(self.faults, FaultConfig):
            raise TypeError(
                f"faults must be a FaultConfig, got {type(self.faults).__name__}"
            )
        if self.adversary is not None:
            self._normalize_adversary()
        if self.timeline is not None:
            if not isinstance(self.timeline, TimelineConfig):
                raise TypeError(
                    "timeline must be a TimelineConfig, got "
                    f"{type(self.timeline).__name__}"
                )
        if self.adversary or self.timeline or self.channel != "default":
            algorithm.require_channel()
        check_non_negative(self.seed, "seed")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")

    def _normalize_adversary(self) -> None:
        """Validate the adversary config; fold ``iid`` into ``faults``."""
        adversary = self.adversary
        if not isinstance(adversary, AdversaryConfig):
            raise TypeError(
                "adversary must be an AdversaryConfig, got "
                f"{type(adversary).__name__}"
            )
        if not self.faults.is_faultless:
            raise ValueError(
                "pass either faults or an adversary, not both: the iid "
                "adversary subsumes FaultConfig"
            )
        kind = get_adversary_type(adversary.kind)  # raises KeyError if unknown
        kind.validate_params(adversary.params)
        if adversary.kind == "iid":
            # the legacy model spelled as an adversary: canonicalize so both
            # spellings are one scenario (and one canonical report)
            merged = kind.declared()
            merged.update(adversary.params)
            faults = FaultConfig(FaultModel(str(merged["model"])), float(merged["p"]))
            object.__setattr__(self, "faults", faults)
            object.__setattr__(self, "adversary", None)

    # -- derived views ------------------------------------------------------

    def channel_config(self) -> Optional[MacConfig]:
        """The built channel configuration (``None`` for the default)."""
        return make_channel_config(self.channel, self.channel_params)

    def build_network(self) -> RadioNetwork:
        """Materialize the topology."""
        n = self.topology_params.get("n", DEFAULT_TOPOLOGY_SIZE)
        seed = self.topology_params.get("seed", self.seed)
        return make_topology(self.topology, n, seed=seed)

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (sweep helper)."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> str:
        """Content address: SHA-256 over the canonical scenario dict.

        The digest also covers the library version and
        :data:`CACHE_KEY_SCHEMA`, so a store never serves reports computed
        by a different code or schema revision. Because construction
        canonicalizes equivalent spellings (``iid`` adversary vs.
        ``faults``), equal scenarios share one key — and the runner's
        determinism contract (same scenario, byte-identical canonical
        report) makes the key a valid address for the report itself.
        """
        payload = json.dumps(
            {
                "schema": CACHE_KEY_SCHEMA,
                "version": __version__,
                "scenario": self.to_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        data = {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "params": dict(self.params),
            "faults": {"model": str(self.faults.model), "p": self.faults.p},
            "seed": self.seed,
            "max_rounds": self.max_rounds,
        }
        # emitted only when set: fault-coin scenarios keep the exact dict
        # (and canonical report bytes) they had before adversaries existed
        if self.adversary is not None:
            data["adversary"] = self.adversary.to_dict()
        # same rule: recorder-less scenarios keep their pre-timeline bytes
        if self.timeline is not None:
            data["timeline"] = self.timeline.to_dict()
        # same rule again: default-channel scenarios keep their pre-MAC
        # bytes (and cache keys)
        if self.channel != "default":
            data["channel"] = self.channel
            data["channel_params"] = dict(self.channel_params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        faults = FaultConfig.from_dict(data.get("faults", {}))
        adversary_data = data.get("adversary")
        adversary = (
            AdversaryConfig.from_dict(adversary_data)
            if adversary_data is not None
            else None
        )
        timeline_data = data.get("timeline")
        timeline = (
            TimelineConfig.from_dict(timeline_data)
            if timeline_data is not None
            else None
        )
        return cls(
            algorithm=data["algorithm"],
            topology=data.get("topology", "path"),
            topology_params=data.get("topology_params", {}),
            params=data.get("params", {}),
            faults=faults,
            adversary=adversary,
            seed=int(data.get("seed", 0)),
            max_rounds=data.get("max_rounds"),
            timeline=timeline,
            channel=data.get("channel", "default"),
            channel_params=data.get("channel_params", {}),
        )
