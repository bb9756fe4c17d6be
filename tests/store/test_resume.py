"""run_batch/sweep with a store: resume determinism and the fast path."""

import pytest

import repro.runner.runner as runner_module
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.runner import (
    RunReport,
    Scenario,
    all_algorithms,
    expand_grid,
    get_algorithm,
    run_batch,
    sweep,
)
from repro.store import ResultStore
from repro.topologies import path

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 16},
    faults=FaultConfig.receiver(0.3),
    seed=0,
)


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "resume.db")) as result_store:
        yield result_store


def canonical(reports):
    return [report.to_json(canonical=True) for report in reports]


class TestResumeDeterminism:
    def test_cached_batch_matches_fresh_batch_byte_for_byte(self, store):
        scenarios = expand_grid(
            BASE, seeds=range(4), grid={"algorithm": ["decay", "fastbc"]}
        )
        fresh = run_batch(scenarios, store=store)
        cached = run_batch(scenarios, store=store)
        assert canonical(cached) == canonical(fresh)

    def test_adversary_scenarios_resume_byte_identical(self, store):
        base = BASE.with_(faults=FaultConfig.faultless())
        scenarios = expand_grid(
            base,
            seeds=range(3),
            grid={
                "adversary": [
                    AdversaryConfig("gilbert_elliott", {"p_bad": 0.9}),
                    AdversaryConfig("budgeted_jammer", {"per_round": 2}),
                ]
            },
        )
        fresh = run_batch(scenarios, store=store)
        cached = run_batch(scenarios, store=store)
        assert canonical(cached) == canonical(fresh)

    def test_interrupted_sweep_resumes_to_identical_bytes(self, store):
        scenarios = expand_grid(BASE, seeds=range(6))
        # the "interrupted" first attempt computed only half the sweep
        run_batch(scenarios[:3], store=store)
        resumed = run_batch(scenarios, store=store)
        uninterrupted = run_batch(scenarios)
        assert canonical(resumed) == canonical(uninterrupted)

    def test_cache_hits_skip_execution(self, store, monkeypatch):
        scenarios = expand_grid(BASE, seeds=range(3))
        run_batch(scenarios, store=store)

        def explode(scenario):
            raise AssertionError("cache hit should not execute")

        monkeypatch.setattr(runner_module, "run", explode)
        cached = run_batch(scenarios, store=store)
        assert len(cached) == 3

    def test_reuse_false_recomputes(self, store, monkeypatch):
        scenarios = expand_grid(BASE, seeds=range(2))
        run_batch(scenarios, store=store)
        calls = []
        real_run = runner_module.run

        def counting(scenario):
            calls.append(scenario)
            return real_run(scenario)

        monkeypatch.setattr(runner_module, "run", counting)
        run_batch(scenarios, store=store, reuse=False)
        assert len(calls) == 2

    def test_sweep_accepts_store(self, store):
        first = sweep(BASE, seeds=range(3), store=store)
        second = sweep(BASE, seeds=range(3), store=store)
        assert canonical(first) == canonical(second)
        assert len(store) == 3

    def test_mixed_hits_and_misses_preserve_input_order(self, store):
        scenarios = expand_grid(BASE, seeds=range(5))
        run_batch([scenarios[1], scenarios[3]], store=store)
        reports = run_batch(scenarios, store=store)
        assert [r.scenario["seed"] for r in reports] == [0, 1, 2, 3, 4]
        assert canonical(reports) == canonical(run_batch(scenarios))

    def test_parallel_batch_with_store_matches_serial(self, store):
        scenarios = expand_grid(BASE, seeds=range(4))
        parallel = run_batch(scenarios, processes=2, store=store)
        serial = run_batch(scenarios)
        assert canonical(parallel) == canonical(serial)

    def test_explicit_network_scenarios_run_but_are_not_stored(self, store):
        # a pre-built network runs through its algorithm's entry point; a
        # report of that run has no content address, so the store refuses
        # the whole batch holding it rather than file it under no key
        result = get_algorithm("decay").run(path(8), FaultConfig.faultless(), 0)
        assert result.success and result.total == 8
        keyless = RunReport(
            scenario={"algorithm": "decay", "topology": "<explicit:path-8>"},
            algorithm="decay",
            success=result.success,
            rounds=result.rounds,
            informed=result.informed,
            total=result.total,
            network_n=8,
            network_name="path-8",
        )
        keyed = run_batch([BASE])[0]
        with pytest.raises(ValueError, match="no cache_key"):
            store.put_many([keyed, keyless])
        assert len(store) == 0

    def test_every_algorithm_is_stored_under_its_key(self, store, monkeypatch):
        # every registry algorithm on its default topology, so the single-
        # message, multi-message, star and single-link kinds all reach
        # the store: every report has a key, and every key a row
        scenarios = [
            Scenario(
                algorithm=algorithm.name,
                topology=algorithm.default_topology,
                topology_params={"n": 12},
                faults=FaultConfig.receiver(0.2),
                seed=seed,
            )
            for algorithm in all_algorithms()
            for seed in range(2)
        ]
        fresh = run_batch(scenarios, store=store)
        assert len(store) == len(scenarios) == 24
        for scenario, report in zip(scenarios, fresh):
            assert report.cache_key == scenario.cache_key()
            assert report.cache_key in store

        def explode(scenario):
            raise AssertionError("every scenario should be a cache hit")

        monkeypatch.setattr(runner_module, "run", explode)
        assert canonical(run_batch(scenarios, store=store)) == canonical(fresh)


class TestFastPath:
    def test_single_survivor_skips_pool_creation(self, store, monkeypatch):
        scenarios = expand_grid(BASE, seeds=range(4))
        run_batch(scenarios[:3], store=store)

        def no_pool(*args, **kwargs):
            raise AssertionError("pool must not be created for one survivor")

        monkeypatch.setattr(
            runner_module.multiprocessing, "get_context", no_pool
        )
        # 4 scenarios requested in parallel, but only one cache miss left
        reports = run_batch(scenarios, processes=4, store=store)
        assert len(reports) == 4

    def test_single_worker_skips_pool_creation(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool must not be created for one worker")

        monkeypatch.setattr(
            runner_module.multiprocessing, "get_context", no_pool
        )
        reports = run_batch(expand_grid(BASE, seeds=range(3)), processes=1)
        assert len(reports) == 3
