"""Benchmark every registered experiment: one full sweep per experiment.

Each case regenerates one registered experiment's table (``repro list``).
The benchmarked quantity is the wall-clock of one full experiment sweep at
smoke scale; pass ``--repro-scale=full`` (see conftest) to regenerate the
full-scale tables. The table itself is attached to the benchmark's
``extra_info`` so results stay inspectable in the pytest-benchmark JSON.
Case ids are the drivers' module names, so ``-k decay_noisy`` selects E2.
"""

import pytest

from repro.experiments import all_experiments

EXPERIMENTS = all_experiments()


@pytest.mark.parametrize(
    "experiment",
    EXPERIMENTS,
    ids=[experiment.run.__module__.rsplit(".", 1)[1] for experiment in EXPERIMENTS],
)
def test_bench_experiment(benchmark, repro_scale, experiment):
    table = benchmark.pedantic(
        lambda: experiment(scale=repro_scale, seed=0), rounds=1, iterations=1
    )
    assert len(table) > 0
    benchmark.extra_info["experiment"] = experiment.id
    benchmark.extra_info["claim"] = experiment.claim
    benchmark.extra_info["table"] = table.to_csv()
