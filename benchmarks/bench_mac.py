"""Contention-MAC kernel benchmark: vectorized slots must beat scalar.

``python benchmarks/bench_mac.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_mac.json`` (see ``bars.py``) with two measurements:

* ``mac_kernel`` — saturated ContentionChannel slots timed through the
  vectorized ``transmit`` and the scalar ``transmit_reference`` on a
  dense (complete) and a sparse (G(n, p)) collision domain, reported as
  node-slots/s with the vectorized/scalar speedup. Every resolved slot
  of both domains gathers enough (broadcaster, neighbor) pairs that
  ``transmit`` resolves it on the vectorized kernel. Outcome parity
  (byte-identical counters) is asserted before any timing, so the two
  legs provably run the same simulation. Bar: vectorized must not be
  slower than scalar on the dense domain.
* ``bianchi_agreement`` — measured saturation collision probability and
  throughput against the :mod:`repro.mac.analytic` fixed point, with
  relative errors. Bars: each within 5%, at every configuration.
"""

import sys
import time

import numpy as np

from repro.mac import MacConfig, ContentionChannel, bianchi_fixed_point
from repro.mac.saturation import saturation_sim
from repro.topologies import random_graphs
from repro.topologies.basic import complete

from bars import Bar, main

SCALES = {
    "smoke": {"slots": 400, "repeats": 5, "dense_n": 256, "sparse_n": 1024},
    "full": {"slots": 1500, "repeats": 9, "dense_n": 512, "sparse_n": 4096},
}

#: the Bianchi cross-check's (n, cw_min) saturation configurations
BIANCHI_CONFIGS = ((5, 8), (10, 16), (20, 32))

_CONFIG = MacConfig(cw_min=8, cw_max=64)


def _saturated_offers(network):
    """Every node offers every slot: the ascending array of all ids."""
    return np.arange(network.n, dtype=np.int64)


def _leg_run(network, offers, slots, leg, seed=7):
    channel = ContentionChannel(network, rng=seed, config=_CONFIG)
    step = channel.transmit if leg == "vectorized" else channel.transmit_reference
    for _ in range(slots):
        step(offers)
    return channel


def _time_leg(network, offers, slots, leg):
    start = time.perf_counter()
    _leg_run(network, offers, slots, leg)
    return time.perf_counter() - start


def bench_mac_kernel(slots, repeats, dense_n, sparse_n, seed=7):
    """Best-of-``repeats`` node-slots/s for both kernels on both domains."""
    domains = {
        "dense": complete(dense_n),
        "sparse": random_graphs.gnp(sparse_n, 8.0 / sparse_n, rng=seed),
    }
    results = {}
    for name, network in domains.items():
        offers = _saturated_offers(network)
        # outcome parity before timing: both kernels must simulate
        # the exact same slots or the speedup compares different work
        vec = _leg_run(network, offers, 24, "vectorized", seed=seed)
        ref = _leg_run(network, offers, 24, "scalar", seed=seed)
        assert vec.counters.as_dict() == ref.counters.as_dict(), (
            f"kernel parity broke on the {name} domain"
        )

        best = {"vectorized": float("inf"), "scalar": float("inf")}
        for _ in range(repeats):
            for leg in best:
                best[leg] = min(
                    best[leg], _time_leg(network, offers, slots, leg)
                )
        node_slots = network.n * slots
        results[name] = {
            "n": network.n,
            "m": network.edge_count,
            "legs": {
                leg: {
                    "seconds": round(seconds, 6),
                    "node_slots_per_sec": round(node_slots / seconds, 1),
                }
                for leg, seconds in best.items()
            },
            "speedup": round(best["scalar"] / best["vectorized"], 2),
        }
    return {
        "name": "mac_kernel",
        "slots": slots,
        "repeats": repeats,
        "config": _CONFIG.to_dict(),
        "domains": results,
    }


def bench_bianchi_agreement(slots=20_000):
    """Measured saturation stats vs the analytic fixed point."""
    rows = []
    for n, cw_min in BIANCHI_CONFIGS:
        config = MacConfig(cw_min=cw_min, cw_max=8 * cw_min)
        predicted = bianchi_fixed_point(n, cw_min=cw_min, cw_max=8 * cw_min)
        measured = saturation_sim(n, config, slots, rng=1)
        rows.append(
            {
                "n": n,
                "cw_min": cw_min,
                "collision_p_model": round(predicted.collision_probability, 5),
                "collision_p_sim": round(measured.collision_probability, 5),
                "collision_p_rel_err": round(
                    abs(
                        measured.collision_probability
                        - predicted.collision_probability
                    )
                    / predicted.collision_probability,
                    5,
                ),
                "throughput_model": round(
                    predicted.slot_throughput(sense=True), 5
                ),
                "throughput_sim": round(measured.throughput, 5),
                "throughput_rel_err": round(
                    abs(
                        measured.throughput
                        - predicted.slot_throughput(sense=True)
                    )
                    / predicted.slot_throughput(sense=True),
                    5,
                ),
            }
        )
    return {"name": "bianchi_agreement", "slots": slots, "rows": rows}


def measure(sizes, tmp_dir):
    return [
        bench_mac_kernel(
            sizes["slots"], sizes["repeats"], sizes["dense_n"], sizes["sparse_n"]
        ),
        bench_bianchi_agreement(),
    ]


BARS = (
    # vectorized must at least match the scalar reference on the dense domain
    Bar("mac_kernel.domains.dense.speedup", ">=", 1.0),
    # measured saturation within 5% of the Bianchi fixed point
    *(
        Bar(f"bianchi_agreement.rows.{row}.{error}", "<=", 0.05)
        for row in range(len(BIANCHI_CONFIGS))
        for error in ("collision_p_rel_err", "throughput_rel_err")
    ),
)


if __name__ == "__main__":
    sys.exit(main("bench_mac", SCALES, measure, BARS))
