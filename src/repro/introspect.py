"""Machine-readable registry dumps, shared by the CLI and the service.

``repro list --format json`` and the service's ``GET /registry`` endpoint
emit the same document: every registered experiment, algorithm (with its
declared parameters), topology family, and adversary model. Clients use
it to discover what a deployment can run without importing the library.
"""

from __future__ import annotations

from typing import Any

from repro.adversary import all_adversaries
from repro.experiments import all_experiments
from repro.mac.config import CHANNEL_KINDS
from repro.runner import all_algorithms
from repro.topologies.registry import TOPOLOGY_FAMILIES

__all__ = ["registry_dump"]


def registry_dump(adversaries_only: bool = False) -> dict[str, Any]:
    """The registry listing as one JSON-serializable document."""
    adversaries = [
        {
            "name": kind.name,
            "summary": kind.summary,
            "params": [
                {"name": p.name, "default": p.default, "doc": p.doc}
                for p in kind.params
            ],
        }
        for kind in all_adversaries()
    ]
    if adversaries_only:
        return {"adversaries": adversaries}
    return {
        "experiments": [
            {
                "id": e.id,
                "title": e.title,
                "claim": e.claim,
                "accepts_adversary": e.accepts_adversary,
                "accepts_channel": e.accepts_channel,
            }
            for e in all_experiments()
        ],
        "algorithms": [
            {
                "name": a.name,
                "kind": a.kind,
                "summary": a.summary,
                "params": [
                    {"name": p.name, "default": p.default, "doc": p.doc}
                    for p in a.params
                ],
                "default_topology": a.default_topology,
                "supports_adversary": a.kind != "link",
            }
            for a in all_algorithms()
        ],
        "topologies": sorted(TOPOLOGY_FAMILIES),
        "adversaries": adversaries,
        "channels": [
            {
                "name": name,
                "summary": CHANNEL_KINDS[name]["summary"],
                "params": dict(CHANNEL_KINDS[name]["params"]),
            }
            for name in sorted(CHANNEL_KINDS)
        ],
    }
