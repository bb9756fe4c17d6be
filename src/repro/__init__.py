"""repro — a full reproduction of *Broadcasting in Noisy Radio Networks*
(Censor-Hillel, Haeupler, Hershkowitz, Zuzic; PODC 2017, arXiv:1705.07369).

The library implements the noisy radio network model (sender/receiver
faults over the classic collision channel), the paper's broadcast
algorithms (Decay, FASTBC, Robust FASTBC, RLNC multi-message variants),
the coding substrate (GF(2^8), Reed-Solomon, RLNC), every topology the
arguments use (star, single link, WCT, layered networks, ...), the
Lemma 25/26 fault-robustness transformations, and one experiment driver
per reproduced statement.

Quickstart — declare a :class:`Scenario` and :func:`run` it::

    from repro import FaultConfig, Scenario, run

    report = run(Scenario(algorithm="decay", topology="path",
                          topology_params={"n": 64},
                          faults=FaultConfig.receiver(0.3), seed=1))
    print(report.rounds, report.success)

Every registered algorithm (``all_algorithms()`` lists them) runs through
the same entry point, and :func:`sweep`/:func:`run_batch` fan seed and
parameter grids out across a process pool, returning JSON-serializable
:class:`RunReport` records::

    from repro import sweep

    reports = sweep(Scenario(algorithm="decay", topology="path",
                             topology_params={"n": 64}),
                    seeds=range(10),
                    grid={"algorithm": ["decay", "fastbc"]},
                    processes=4)

A scenario names its topology by registry family, so every scenario has
a content address. A pre-built network runs through the per-algorithm
functions (``decay_broadcast``, ``fastbc_broadcast``, ``star_rs_coding``,
...) or ``get_algorithm(name).run(network, ...)``, thin entry points over
the same implementations::

    from repro import decay_broadcast, FaultConfig, path

    outcome = decay_broadcast(path(64), faults=FaultConfig.receiver(0.3), rng=1)
    print(outcome.rounds, outcome.success)

README.md maps the package layout. ``python -m repro list`` enumerates
the experiments (with the claim each reproduces), algorithms, and topology
families; ``python -m repro run <ID>`` prints an experiment's table, and
``python -m repro sweep`` runs scenario grids from the command line.
"""

from repro._version import __version__
from repro.algorithms import (
    decay_broadcast,
    fastbc_broadcast,
    robust_fastbc_broadcast,
)
from repro.algorithms.multi import (
    rlnc_decay_broadcast,
    rlnc_robust_fastbc_broadcast,
    star_adaptive_routing,
    star_rs_coding,
)
from repro.adversary import all_adversaries, build_adversary, get_adversary_type
from repro.coding import GF256, ReedSolomonCode, RLNCDecoder, RLNCEncoder
from repro.core import (
    AdversaryConfig,
    Channel,
    FaultConfig,
    FaultModel,
    RadioNetwork,
    Simulator,
)
from repro.analysis import (
    AnalysisReport,
    adaptive_sweep,
    aggregate,
    compare,
    fit,
    fit_scaling,
)
from repro.gbst import build_gbst
from repro.runner import (
    BroadcastAlgorithm,
    RunReport,
    Scenario,
    all_algorithms,
    get_algorithm,
    register_algorithm,
    run,
    run_batch,
    sweep,
)
from repro.store import ResultStore
from repro.timeline import Timeline, TimelineConfig
from repro.topologies import (
    grid,
    gnp,
    path,
    single_link,
    star,
    worst_case_topology,
)

__all__ = [
    "__version__",
    "AdversaryConfig",
    "AnalysisReport",
    "BroadcastAlgorithm",
    "Channel",
    "FaultConfig",
    "FaultModel",
    "GF256",
    "RadioNetwork",
    "ReedSolomonCode",
    "RLNCDecoder",
    "RLNCEncoder",
    "ResultStore",
    "RunReport",
    "Scenario",
    "Simulator",
    "Timeline",
    "TimelineConfig",
    "adaptive_sweep",
    "aggregate",
    "all_adversaries",
    "all_algorithms",
    "build_adversary",
    "build_gbst",
    "compare",
    "get_adversary_type",
    "decay_broadcast",
    "fastbc_broadcast",
    "fit",
    "fit_scaling",
    "get_algorithm",
    "gnp",
    "grid",
    "path",
    "register_algorithm",
    "rlnc_decay_broadcast",
    "rlnc_robust_fastbc_broadcast",
    "robust_fastbc_broadcast",
    "run",
    "run_batch",
    "single_link",
    "star",
    "star_adaptive_routing",
    "star_rs_coding",
    "sweep",
    "worst_case_topology",
]
