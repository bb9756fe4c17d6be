"""Satellite acceptance: real coordinator + 3 worker processes, kill one.

Thin pytest wrapper over :func:`repro.farm.smoke.run_smoke`, which
spawns ``repro serve --workers 0`` plus three ``repro worker``
subprocesses, SIGKILLs one observed holding a lease, and checks the
farm recovers with a store byte-identical to serial ``run_batch`` and
exactly one recorded execution per scenario.
"""

from repro.farm.smoke import SCENARIOS, run_smoke


def test_kill_a_worker_mid_sweep_full_recovery():
    evidence = run_smoke(verbose=False)
    assert evidence["scenarios"] == SCENARIOS >= 100
    assert evidence["leases_expired"] >= 1
    assert evidence["duplicates"] == 0
    assert evidence["executed"] == evidence["scenarios"]
