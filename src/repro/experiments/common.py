"""Experiment framework: registration and scales.

Every experiment driver exposes ``run(scale, seed) -> Table`` and registers
itself with :func:`register`. Two scales exist:

* ``"smoke"`` — seconds; used by the test suite to validate shape and
  well-formedness;
* ``"full"`` — the larger sweep behind the reproduced tables (seconds to
  a few minutes per experiment); used by the benchmarks.

Experiments whose runs are registry algorithms describe each run as a
:class:`~repro.runner.Scenario` and execute them with
:func:`~repro.runner.run_batch`; :func:`report_table` tabulates canonical
:class:`~repro.runner.RunReport` records with the sweep columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.runner import RunReport
from repro.util.tables import Table

__all__ = [
    "Experiment",
    "register",
    "get_experiment",
    "all_experiments",
    "REPORT_COLUMNS",
    "report_table",
]

_REGISTRY: dict[str, "Experiment"] = {}

VALID_SCALES = ("smoke", "full")


@dataclass(frozen=True)
class Experiment:
    """A registered experiment driver.

    ``accepts_adversary`` marks drivers whose ``run`` takes a third
    ``adversary`` argument (an
    :class:`~repro.core.faults.AdversaryConfig` or None) so the CLI can
    thread ``--adversary`` through; the classic reproductions pin their
    fault structure and reject the override. ``accepts_channel`` marks
    drivers that additionally take a ``channel`` keyword — a validated
    ``(kind, params)`` pair from ``--channel``/``--channel-param`` — to
    override the channel knobs the driver would otherwise default.
    """

    id: str
    title: str
    claim: str
    run: Callable[..., Table]
    accepts_adversary: bool = False
    accepts_channel: bool = False

    def __call__(
        self, scale: str = "smoke", seed: int = 0, adversary=None, channel=None
    ) -> Table:
        if scale not in VALID_SCALES:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {VALID_SCALES}"
            )
        if channel is not None and not self.accepts_channel:
            raise ValueError(
                f"experiment {self.id} does not accept a channel override "
                "(its channel model is part of the reproduced claim)"
            )
        if not self.accepts_adversary:
            if adversary is not None:
                raise ValueError(
                    f"experiment {self.id} does not accept an adversary "
                    "override (its fault structure is part of the "
                    "reproduced claim)"
                )
            if self.accepts_channel:
                return self.run(scale, seed, channel=channel)
            return self.run(scale, seed)
        if self.accepts_channel:
            return self.run(scale, seed, adversary, channel=channel)
        return self.run(scale, seed, adversary)


def register(
    id: str,
    title: str,
    claim: str,
    accepts_adversary: bool = False,
    accepts_channel: bool = False,
) -> Callable[[Callable[..., Table]], Experiment]:
    """Decorator registering an experiment driver under ``id``."""

    def decorator(fn: Callable[..., Table]) -> Experiment:
        if id in _REGISTRY:
            raise ValueError(f"experiment id {id!r} already registered")
        experiment = Experiment(
            id=id,
            title=title,
            claim=claim,
            run=fn,
            accepts_adversary=accepts_adversary,
            accepts_channel=accepts_channel,
        )
        _REGISTRY[id] = experiment
        return experiment

    return decorator


def get_experiment(id: str) -> Experiment:
    """Look up a registered experiment by id (e.g. ``"E4"``)."""
    # importing the package registers every driver
    import repro.experiments  # noqa: F401

    try:
        return _REGISTRY[id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {id!r}; known: {known}") from None


#: the canonical columns every report row tabulates to
REPORT_COLUMNS = (
    "algorithm",
    "topology",
    "n",
    "seed",
    "success",
    "rounds",
    "informed",
    "total",
)


def report_table(reports: Iterable[RunReport], title: str = "") -> Table:
    """Tabulate run reports with the canonical sweep columns."""
    table = Table(list(REPORT_COLUMNS), title=title)
    for report in reports:
        scenario = report.scenario
        table.add_row(
            report.algorithm,
            scenario.get("topology", "?"),
            report.network_n,
            scenario.get("seed", 0),
            report.success,
            report.rounds,
            report.informed,
            report.total,
        )
    return table


def all_experiments() -> list[Experiment]:
    """All registered experiments in id order."""
    import repro.experiments  # noqa: F401

    return [
        _REGISTRY[key]
        for key in sorted(_REGISTRY, key=lambda k: (k[0], int(k[1:]) if k[1:].isdigit() else 0))
    ]
