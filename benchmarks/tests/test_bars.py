"""Tests of the bar runner and of every bar the CI bar scripts declare.

Run with ``PYTHONPATH=src python -m pytest benchmarks/tests -q`` from the
repository root.
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import bars  # noqa: E402
import bench_analysis  # noqa: E402
import bench_farm  # noqa: E402
import bench_mac  # noqa: E402
import bench_overhead  # noqa: E402
import bench_store  # noqa: E402
from bars import Bar  # noqa: E402

SCRIPTS = (bench_analysis, bench_farm, bench_mac, bench_overhead, bench_store)

ALL_BARS = [bar for script in SCRIPTS for bar in script.BARS]

#: sizes small enough for tier-1; the farm spawns processes and runs in CI
TINY = {
    bench_analysis: {"rows": 160},
    bench_mac: {"slots": 4, "repeats": 1, "dense_n": 16, "sparse_n": 32},
    bench_overhead: {"rounds": 10, "repeats": 1, "n": 64, "runs": 1},
    bench_store: {"inserts": 20, "queries": 5, "sweep_seeds": 3},
}


def _results_holding(bar, value):
    """The smallest result payloads that put ``value`` at ``bar.path``."""
    name, *keys = bar.path.split(".")
    node = value
    for key in reversed(keys):
        node = [None] * int(key) + [node] if key.isdigit() else {key: node}
    return [{"name": "other", "value": 0}, {"name": name, **node}]


def _past(bar):
    """A value just on the failing side of ``bar``'s limit."""
    step = max(abs(bar.limit) * 1e-6, 1e-9)
    return bar.limit - step if bar.op == ">=" else bar.limit + step


@pytest.mark.parametrize("bar", ALL_BARS, ids=[bar.path for bar in ALL_BARS])
def test_a_bar_holds_at_its_limit_and_fails_past_it(bar):
    cpus = max(bar.min_cpus, 1)
    at_limit = bar.evaluate(_results_holding(bar, bar.limit), cpus)
    past = bar.evaluate(_results_holding(bar, _past(bar)), cpus)
    assert at_limit == {
        "name": bar.path, "value": bar.limit, "op": bar.op,
        "limit": bar.limit, "holds": True,
    }
    assert past["holds"] is False


def test_the_ci_bars_keep_their_limits():
    declared = {
        script.__name__: {(bar.path, bar.op, bar.limit, bar.min_cpus)
                          for bar in script.BARS}
        for script in SCRIPTS
    }
    assert declared["bench_overhead"] == {
        ("channel_round_overhead.legs.disabled.overhead_fraction", "<=", 0.01, 0),
        ("channel_round_overhead.legs.timeline.overhead_fraction", "<=", 0.05, 0),
        ("driver_run_overhead.legs.metrics.overhead_fraction", "<=", 0.05, 0),
    }
    assert ("mac_kernel.domains.dense.speedup", ">=", 1.0, 0) in declared["bench_mac"]
    assert len(declared["bench_mac"]) == 1 + 2 * len(bench_mac.BIANCHI_CONFIGS)
    assert ("cache_hit_sweep.speedup", ">=", 10.0, 0) in declared["bench_store"]
    assert declared["bench_analysis"] == {
        ("aggregate_stream.rows_per_sec", ">=", 50_000.0, 0)
    }
    assert ("farm_scaling.speedup", ">=", 2.5, 4) in declared["bench_farm"]
    assert (
        "journal_overhead.overhead_fraction", "<=", 0.10, 0
    ) in declared["bench_farm"]


@pytest.mark.parametrize(
    "script", list(TINY), ids=[script.__name__ for script in TINY]
)
def test_every_bar_resolves_on_real_output(script, tmp_path):
    assert set(TINY[script]) == set(script.SCALES["smoke"])
    results = script.measure(TINY[script], str(tmp_path))
    names = [result["name"] for result in results]
    assert len(names) == len(set(names))
    for bar in script.BARS:
        value = bar.value(results)
        assert isinstance(value, (int, float)) and not isinstance(value, bool)


def test_a_mistyped_bar_does_not_evaluate():
    results = [{"name": "probe", "legs": {"bare": {"seconds": 1.0}}}]
    with pytest.raises(KeyError):
        Bar("probe.legs.bar.seconds", "<=", 1.0).evaluate(results, 1)
    with pytest.raises(KeyError):
        Bar("prob.legs.bare.seconds", "<=", 1.0).evaluate(results, 1)
    with pytest.raises(KeyError):
        Bar("probe.legs.bare.seconds", "<", 1.0).evaluate(results, 1)
    with pytest.raises(TypeError):
        Bar("probe.legs.bare", "<=", 1.0).evaluate(results, 1)


def _probe(sizes, tmp_dir):
    assert Path(tmp_dir).is_dir()
    return [{"name": "probe", "value": sizes["value"]}]


PROBE_SCALES = {"smoke": {"value": 3.0}, "full": {"value": 30.0}}


@pytest.mark.parametrize("limit, status", [(3.0, 0), (4.0, 1)])
def test_the_runner_exits_1_iff_a_bar_fails(tmp_path, capsys, limit, status):
    output = tmp_path / "out.json"
    probe_bars = (Bar("probe.value", ">=", 1.0), Bar("probe.value", ">=", limit))
    argv = ["--scale", "smoke", "--output", str(output)]
    assert bars.main("bench_probe", PROBE_SCALES, _probe, probe_bars, argv) == status

    report = json.loads(output.read_text())
    assert set(report) == {
        "schema", "bench", "scale", "timestamp", "python", "cpu_count",
        "results", "bars",
    }
    assert (report["schema"], report["bench"], report["scale"]) == (
        bars.SCHEMA, "bench_probe", "smoke",
    )
    assert report["results"] == [{"name": "probe", "value": 3.0}]
    assert [entry["holds"] for entry in report["bars"]] == [True, status == 0]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "PASS probe.value: 3 >= 1"
    assert lines[1] == f"{'PASS' if status == 0 else 'FAIL'} probe.value: 3 >= {limit:g}"
    assert lines[2] == f"wrote {output}"


def test_a_bar_below_its_cpu_count_is_a_note(tmp_path, capsys):
    output = tmp_path / "out.json"
    needs_more = (os.cpu_count() or 1) + 1
    probe_bars = (Bar("probe.value", ">=", 100.0, min_cpus=needs_more),)
    argv = ["--scale", "full", "--output", str(output)]
    assert bars.main("bench_probe", PROBE_SCALES, _probe, probe_bars, argv) == 0

    report = json.loads(output.read_text())
    assert report["scale"] == "full"
    assert report["bars"] == [
        {"name": "probe.value", "value": 30.0, "op": ">=", "limit": 100.0,
         "holds": None}
    ]
    assert capsys.readouterr().out.startswith("NOTE probe.value: 30 >= 100 ")


def test_the_runner_takes_only_scale_and_output():
    with pytest.raises(SystemExit):
        bars.main("bench_probe", PROBE_SCALES, _probe, (), ["--rounds", "3"])
    with pytest.raises(SystemExit):
        bars.main("bench_probe", PROBE_SCALES, _probe, (), ["--scale", "tiny"])
