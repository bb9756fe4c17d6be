"""Exception hierarchy for the library.

All library-raised domain errors derive from :class:`ReproError`, so callers
can catch one type at an experiment boundary. Programming errors (bad
arguments) still raise the standard ``TypeError`` / ``ValueError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for all domain errors raised by the library."""


class TopologyError(ReproError):
    """A topology violates a structural requirement (e.g. disconnected)."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""
