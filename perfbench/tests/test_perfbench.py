"""Tests of the benchmark itself: failure counting, the traced split, seeds.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro import FaultConfig, Scenario, TimelineConfig  # noqa: E402
from repro.core.engine import Simulator  # noqa: E402


def _scenario(algorithm, **changes):
    fields = dict(
        topology="gnp",
        topology_params={"n": 16},
        faults=FaultConfig.receiver(0.2),
        seed=3,
    )
    fields.update(changes)
    return Scenario(algorithm, **fields)


def _workload(scenarios, **options):
    return workloads.Workload("test", 0, lambda rng: list(scenarios), **options)


def test_a_failing_scenario_is_counted():
    scenarios = [_scenario("decay", max_rounds=1), _scenario("decay")]
    tally = bench.Tally()
    record = bench.run_pass(_workload(scenarios), scenarios, None, tally)
    assert len(record.reports) == 2
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_fraction == 0.5


def test_a_differing_replay_is_counted():
    scenarios = [_scenario("decay")]
    tally = bench.Tally()
    record = bench.run_pass(_workload(scenarios), scenarios, None, tally)
    other = bench.run_pass(
        _workload(scenarios), [_scenario("decay", seed=4)], None, tally
    )
    tally.compare(record.canonical, other.reports, "replay")
    assert (tally.attempted, tally.failed) == (3, 1)


def test_traced_self_times_and_residual_sum_to_wall(tmp_path):
    timeline = TimelineConfig()
    scenarios = [
        _scenario("fastbc", timeline=timeline),
        _scenario("rlnc_decay", params={"k": 2}, timeline=timeline),
        _scenario("decay", channel="contention"),
        _scenario("star_coding", topology="star"),
    ]
    workload = _workload(scenarios, uses_store=True, warm_passes=2)
    original_step = Simulator.__dict__["step"]
    tracer = tracing.Tracer()
    tally = bench.Tally()
    store = bench.open_store(str(tmp_path))
    try:
        with tracing.instrument(tracer):
            bench.run_pass(workload, scenarios, store, tally, root=tracer.root)
    finally:
        bench.discard_store(store)
    assert Simulator.__dict__["step"] is original_step
    assert tally.failed == 0
    layers = tracer.layers
    for name in ("gbst.build", "coding.emit", "mac.channel", "core.channel",
                 "store.put", "topologies.build"):
        assert layers[name].calls > 0, name
    assert layers["store.get"].calls == 3 * len(scenarios)
    assert layers["store.get"].tally == 2 * len(scenarios)
    assert tracer.residual_s() >= 0
    assert tracer.residual_s() == pytest.approx(tracer.root_self_s, abs=1e-6)
    assert tracer.self_total() + tracer.residual_s() == pytest.approx(tracer.wall_s)
    # every full span sits inside its parent
    spans = {span[0]: span for span in tracer.spans}
    for span_id, _, start, end, parent in tracer.spans:
        assert start <= end
        if parent:
            assert spans[parent][2] <= start and end <= spans[parent][3]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_seed_fixes_the_inputs(name):
    def keys(seed):
        passes = workloads.make_workload(name, seed).passes()
        return [[s.cache_key() for s in next(passes)] for _ in range(2)]

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)
    workload = workloads.make_workload(name, 5)
    first = next(workload.passes())
    assert len(first) % (workload.batch_size or len(first)) == 0


def test_fingerprint_is_deterministic():
    scenarios = [_scenario("decay"), _scenario("rlnc_decay", params={"k": 2})]
    prints = []
    for _ in range(2):
        record = bench.run_pass(_workload(scenarios), scenarios, None, bench.Tally())
        prints.append(bench.fingerprint(record, innovative=0))
    assert prints[0] == prints[1]
    assert prints[0]["scenarios"] == 2 and prints[0]["rounds"] > 0


def test_slowdown_is_the_harmonic_mean_over_the_window():
    nominal = calibration.NOMINAL_BLOCK_S
    # blocks at t=0..99 s: nominal speed for t<50, twice as slow after
    blocks = [(float(t), nominal * (1 if t < 50 else 2)) for t in range(100)]
    cal = calibration.Calibration(blocks)
    assert cal.slowdown(0, 40) == pytest.approx(1.0)
    assert cal.slowdown(60, 99) == pytest.approx(2.0)
    # half the window at full speed, half at half speed: mean speed 3/4
    assert cal.slowdown(40, 59) == pytest.approx(4 / 3)
    # a window shorter than the block spacing borrows its nearest blocks
    assert cal.slowdown(80.2, 80.3) == pytest.approx(2.0)
    assert cal.slowdown(-5, -4) == pytest.approx(1.0)


def test_clock_leaves_out_the_sampling_handler():
    with calibration.sampling() as calibrated:
        net, wall = calibration.clock(), time.perf_counter()
        while time.perf_counter() - wall < 1.2:
            pass
        net, wall = calibration.clock() - net, time.perf_counter() - wall
    blocks = calibrated[0].blocks
    assert len(blocks) >= calibration.MIN_BLOCKS
    handler_s = wall - net
    block_s = sum(seconds for _, seconds in blocks)
    assert block_s <= handler_s < block_s + 0.05
    # outside sampling the clock runs with perf_counter again
    net, wall = calibration.clock(), time.perf_counter()
    time.sleep(0.05)
    assert calibration.clock() - net == pytest.approx(time.perf_counter() - wall, abs=1e-3)


def test_end_to_end_scales_every_timing():
    result = {
        "cold": [(3, 300, 0.0, 2.0)],
        "warm": [(3, 2.0, 0.5)],
        "run_times": [(0.0, 1.0), (1.0, 1.0)],
        "peak_rss_mb": 70.0,
    }
    plain = bench.end_to_end(result, [(0.4, 1.0)], lambda start, end: 1.0)
    slow = bench.end_to_end(result, [(0.4, 2.0)], lambda start, end: 2.0)
    assert plain["scenarios_per_s"] == (1.5, "1/s")
    assert slow["scenarios_per_s"] == (3.0, "1/s")
    assert slow["sim_rounds_per_s"][0] == 2 * plain["sim_rounds_per_s"][0]
    assert slow["run_s_p50"][0] == plain["run_s_p50"][0] / 2
    assert slow["setup_s"][0] == pytest.approx(0.2)
    assert slow["peak_rss_mb"] == plain["peak_rss_mb"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
    assert not (tmp_path / "perfbench" / "out").exists()


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in tracing.LAYERS:
        assert {f"{name}_s", f"{name}_calls"} <= per_layer
