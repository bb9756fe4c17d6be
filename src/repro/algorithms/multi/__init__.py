"""Multi-message broadcast algorithms and schedules (Sections 4.2 and 5).

* :mod:`~repro.algorithms.multi.rlnc_broadcast` — RLNC gossip on the
  schedule of the Decay or Robust FASTBC protocol (Lemmas 12-13).
* :mod:`~repro.algorithms.multi.star` — the Lemma 15 adaptive routing and
  Lemma 16 Reed-Solomon coding schedules on the star.
* :mod:`~repro.algorithms.multi.single_link` — Appendix A's single-link
  schedules (Lemmas 29, 30, 32).
* :mod:`~repro.algorithms.multi.pipelined` — bipartite broadcast and
  layer-pipelined routing (Lemmas 20-21).
* :mod:`~repro.algorithms.multi.wct_sim` — cluster-level simulator for the
  worst case topology experiments (Lemmas 19, 22, 23).
"""

from repro.algorithms.multi.pipelined import (
    bipartite_routing_broadcast,
    pipelined_routing_broadcast,
)
from repro.algorithms.multi.rlnc_broadcast import (
    MultiMessageOutcome,
    rlnc_decay_broadcast,
    rlnc_dense_wave_broadcast,
    rlnc_robust_fastbc_broadcast,
)
from repro.algorithms.multi.single_link import (
    minimal_nonadaptive_repetitions,
    single_link_adaptive_routing,
    single_link_coding,
    single_link_nonadaptive_routing,
)
from repro.algorithms.multi.star import (
    star_adaptive_routing,
    star_rs_coding,
)
from repro.algorithms.multi.wct_sim import WCTBroadcastSimulator

__all__ = [
    "MultiMessageOutcome",
    "WCTBroadcastSimulator",
    "bipartite_routing_broadcast",
    "minimal_nonadaptive_repetitions",
    "pipelined_routing_broadcast",
    "rlnc_decay_broadcast",
    "rlnc_dense_wave_broadcast",
    "rlnc_robust_fastbc_broadcast",
    "single_link_adaptive_routing",
    "single_link_coding",
    "single_link_nonadaptive_routing",
    "star_adaptive_routing",
    "star_rs_coding",
]
