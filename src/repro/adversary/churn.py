"""Edge churn: per-round link up/down flips over the CSR adjacency.

Models dynamic topology — interference corridors, mobility, duty-cycled
radios — as an independent two-state Markov chain per *undirected* edge:
an up edge goes down with probability ``p_down`` each round, a down edge
recovers with probability ``p_up``. A down edge carries nothing in
either direction for the round: its would-be receiver neither receives
nor counts the broadcaster toward a collision.

The per-edge state advances once per non-empty round in
:meth:`begin_round` with one uniform draw per edge (consumption is
independent of the states), and :meth:`edge_alive` then answers the
kernels' gather-slot queries from that state without touching the RNG —
the discipline that keeps the vectorized and scalar kernels on one
stream.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.adversary.base import Adversary, IntVector
from repro.util.validation import check_fraction

__all__ = ["EdgeChurn"]


class EdgeChurn(Adversary):
    """Per-round undirected-edge up/down Markov churn.

    Parameters
    ----------
    p_down:
        Per-round probability an up edge goes down.
    p_up:
        Per-round probability a down edge comes back up.
    start_down:
        Start every edge down (default: all up).
    """

    name = "edge_churn"
    needs_begin_round = True
    has_edge_dynamics = True

    def __init__(
        self,
        p_down: float = 0.1,
        p_up: float = 0.5,
        start_down: bool = False,
    ) -> None:
        super().__init__()
        self.p_down = check_fraction(p_down, "p_down")
        self.p_up = check_fraction(p_up, "p_up")
        self.start_down = bool(start_down)
        self._up: Optional[np.ndarray] = None
        self._slot_edge: Optional[np.ndarray] = None
        #: gather slots suppressed so far (diagnostics)
        self.slots_suppressed = 0

    def _on_bind(self) -> None:
        network = self.network
        # map every CSR slot to its undirected edge id so both directions
        # of an edge share one up/down state
        edge_ids: dict[tuple[int, int], int] = {}
        slot_edge = np.empty(network.indices.size, dtype=np.int64)
        slot = 0
        for u, adj in enumerate(network.neighbors):
            for v in adj:
                key = (u, v) if u < v else (v, u)
                slot_edge[slot] = edge_ids.setdefault(key, len(edge_ids))
                slot += 1
        self._slot_edge = slot_edge
        self._up = np.full(len(edge_ids), not self.start_down, dtype=bool)

    def begin_round(self, round_index: int, broadcasters: IntVector) -> None:
        u = self.rng.uniform_array(self._up.size)
        self._up = np.where(self._up, u >= self.p_down, u < self.p_up)

    def edge_alive(
        self, broadcasters: IntVector, slots: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        if bool(self._up.all()):
            return None
        if slots is None:
            slots, _ = self.network.csr_slots(
                np.asarray(broadcasters, dtype=np.int64)
            )
        alive = self._up[self._slot_edge[slots]]
        self.slots_suppressed += int(slots.size - alive.sum())
        return alive

    @property
    def down_fraction(self) -> float:
        """Current fraction of edges that are down (diagnostics)."""
        return 1.0 - float(self._up.mean()) if self._up is not None else 0.0

    @property
    def nominal_p(self) -> float:
        total = self.p_down + self.p_up
        if total <= 0.0:
            # frozen chain: edges stay wherever they started
            return 0.95 if self.start_down else 0.0
        return min(0.95, self.p_down / total)

    def describe(self) -> dict[str, Any]:
        return {
            "kind": self.name,
            "p_down": self.p_down,
            "p_up": self.p_up,
            "start_down": self.start_down,
        }
