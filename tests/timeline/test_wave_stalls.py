"""Lemma 10's stall mechanism, read from the flight recorder.

On a path, FASTBC's wave carries the message one hop per wave slot
(2 rounds) unless a fault drops it; a dropped hop then waits out whole
wave periods. The timeline's per-node first-delivery rounds give every
hop's gap directly.
"""

from repro.algorithms.base import ilog2
from repro.core.faults import FaultConfig
from repro.runner import Scenario, run
from repro.timeline import TimelineConfig


def _wave_hop_gaps(n, faults, seed, max_rounds):
    """Per-hop gaps of FASTBC's wave along path(n), from node 1 on.

    The node 0 -> 1 gap is skipped: it is the wave-alignment start-up (up
    to one period), not a fault stall.
    """
    report = run(
        Scenario(
            "fastbc",
            topology="path",
            topology_params={"n": n},
            params={"decay_interleave": False},
            faults=faults,
            seed=seed,
            max_rounds=max_rounds,
            timeline=TimelineConfig(),
        )
    )
    assert report.success
    rounds = report.timeline["first_delivery"]["rounds"]
    return [b - a for a, b in zip(rounds[1:], rounds[2:])]


class TestLemma10StallDistribution:
    """The microscopic mechanism of Lemma 10: under faults, the FASTBC
    wave's inter-hop gaps are bimodal — the wave speed (2 rounds) or a
    full wave period (2 * 6 * ilog2(n) rounds)."""

    def test_wave_gaps_bimodal_under_faults(self):
        n = 128
        gaps = _wave_hop_gaps(n, FaultConfig.receiver(0.4), 3, 200_000)
        period = 2 * 6 * ilog2(n)  # full wave period in real rounds
        fast_hops = [g for g in gaps if g <= 2]
        stalls = [g for g in gaps if g > period // 2]
        # both modes are populated...
        assert len(fast_hops) > 0.3 * len(gaps)
        assert len(stalls) > 0.1 * len(gaps)
        # ...and every stall is a whole number of wave periods plus the
        # 2-round hop itself: the Lemma 10 mechanism, literally
        for stall in stalls:
            assert (stall - 2) % period == 0, (stall, period)

    def test_faultless_wave_has_no_stalls(self):
        n = 96
        gaps = _wave_hop_gaps(n, FaultConfig.faultless(), 4, 50_000)
        period = 2 * 6 * ilog2(n)
        assert [g for g in gaps if g > period // 2] == []
