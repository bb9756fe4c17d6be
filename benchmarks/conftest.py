"""Benchmark configuration: the --repro-scale option.

``pytest benchmarks/ --benchmark-only`` runs every experiment at smoke
scale (seconds each). ``--repro-scale=full`` regenerates the
full-scale tables (minutes total).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="smoke",
        choices=("smoke", "full"),
        help="experiment sweep size for the reproduction benchmarks",
    )


@pytest.fixture
def repro_scale(request):
    return request.config.getoption("--repro-scale")
