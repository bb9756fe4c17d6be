"""The round-based simulation engine.

Two layers:

* :class:`Channel` — the physical layer. Given one round's broadcasters,
  an ascending int64 array of node ids, it resolves collisions and
  faults and reports who heard whom as arrays. This is the single place
  where the model semantics listed in :mod:`repro.core` are implemented.
  The channel never sees a packet: a caller that sends packets keeps
  them and looks each reception's packet up by its sender.
* :class:`Simulator` — drives one :class:`ProtocolLayer` against a
  channel until every node is done or a round budget is exhausted. The
  layer holds every node's state: the single-message algorithms run on
  :class:`~repro.algorithms.schedule.ScheduleLayer`, RLNC gossip on
  layers over it (:mod:`repro.algorithms.multi.rlnc_broadcast`), and the
  centralized schedules on :class:`~repro.algorithms.base.ScriptLayer`.
  The program builds simulators, and so channels, in one place, the run driver
  :func:`repro.algorithms.base.run_broadcast`, which also attaches any
  flight recorder as an observer; the engine knows nothing of timelines.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.trace import ChannelCounters
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "Channel",
    "node_array",
    "ProtocolLayer",
    "RoundObserver",
    "RoundResult",
    "Simulator",
]

_INT64 = np.dtype(np.int64)

#: the one empty node array that every empty :class:`RoundResult` field
#: shares; read-only, so no holder can change what the others see
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def node_array(ids: Sequence[int]) -> np.ndarray:
    """Node ids as the channel takes and returns them: an int64 array.

    The ids keep their order. None at all give the one shared read-only
    empty array, which saves an allocation on every empty round.
    """
    return np.array(ids, dtype=np.int64) if ids else _EMPTY


def _node_pairs(receivers: list[int], senders: list[int]):
    """Parallel receiver and sender lists as two arrays, converted at once.

    The two halves of one int64 array: a round's numpy calls, not its
    ids, are what a small round pays for.
    """
    if not receivers:
        return _EMPTY, _EMPTY
    both = np.array(receivers + senders, dtype=np.int64)
    return both[: len(receivers)], both[len(receivers) :]


class RoundResult:
    """Everything that happened on the channel in one round.

    Every node set is a 1-D int64 array in ascending node order, and each
    ``*senders`` array is parallel to the receiver array before it:
    ``receivers[i]`` heard ``senders[i]``. Empty fields share one
    read-only empty array. The kernels only fill it;
    :meth:`Channel._run_round` then sums it into the run's counters and
    shows it to every observer. Results compare equal when every field
    holds the same ids.

    A plain class with ``__slots__`` rather than a dataclass: one is
    built per round, and array defaults need no factory calls.
    """

    __slots__ = (
        "round_index",
        "broadcasters",  # nodes that broadcast this round
        "receivers",  # listeners that received a packet ...
        "senders",  # ... and the broadcaster each one heard
        "collision_receivers",  # listeners that heard >= 2 broadcasters
        "faulty_senders",  # broadcasters that sent noise (sender faults)
        "silenced_receivers",  # unique receptions from a faulty sender
        "silenced_senders",
        "corrupted_receivers",  # unique receptions a receiver fault hit
        "corrupted_senders",
    )

    def __init__(
        self,
        round_index: int,
        broadcasters: np.ndarray = _EMPTY,
        receivers: np.ndarray = _EMPTY,
        senders: np.ndarray = _EMPTY,
        collision_receivers: np.ndarray = _EMPTY,
        faulty_senders: np.ndarray = _EMPTY,
        silenced_receivers: np.ndarray = _EMPTY,
        silenced_senders: np.ndarray = _EMPTY,
        corrupted_receivers: np.ndarray = _EMPTY,
        corrupted_senders: np.ndarray = _EMPTY,
    ) -> None:
        self.round_index = round_index
        self.broadcasters = broadcasters
        self.receivers = receivers
        self.senders = senders
        self.collision_receivers = collision_receivers
        self.faulty_senders = faulty_senders
        self.silenced_receivers = silenced_receivers
        self.silenced_senders = silenced_senders
        self.corrupted_receivers = corrupted_receivers
        self.corrupted_senders = corrupted_senders

    @property
    def noise_receivers(self) -> np.ndarray:
        """Listeners that heard only noise: sender-silenced, then corrupted."""
        return np.concatenate((self.silenced_receivers, self.corrupted_receivers))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundResult):
            return NotImplemented
        return self.round_index == other.round_index and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__[1:]
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name).tolist()}" for name in self.__slots__[1:]
        )
        return f"RoundResult(round_index={self.round_index}, {fields})"


class RoundObserver(Protocol):
    """Anything the channel shows each resolved round: traces, timelines."""

    def on_round(self, result: RoundResult) -> None: ...


class Channel:
    """The noisy radio channel over a fixed network.

    A round's input is one array: the broadcasting nodes, 1-D int64,
    strictly ascending, every id in ``[0, n)``. :meth:`transmit` checks
    that once, in numpy, and a bad array raises
    :class:`~repro.core.errors.SimulationError` before the round
    advances. Its output is a :class:`RoundResult` of node arrays.

    Round resolution has two interchangeable kernels:

    * a **vectorized** numpy kernel that gathers every
      broadcaster's CSR neighbor slice, computes hear-counts with
      ``np.bincount``, and draws all fault coins in bulk;
    * a **scalar reference** (:meth:`transmit_reference`) — the original
      per-node loop, kept as the executable specification. Both kernels
      consume the channel RNG identically (one bulk Bernoulli draw per
      fault stage, in ascending node order — bulk-stream v2, see
      PERFORMANCE.md), so for the same seed they agree reception for
      reception; the test suite cross-checks this property.

    Because the kernels are outcome-identical, :meth:`transmit` picks
    one per round by the total neighbor-gather work: tiny rounds on tiny
    graphs stay on the scalar loop (numpy call latency would dominate),
    large rounds go vectorized. Tests pin the choice through
    ``VECTORIZE_MIN_WORK``: 0 sends every round to the vectorized
    kernel, ``10**9`` every round to the scalar one.

    Either kernel only fills a :class:`RoundResult`. Every round then
    passes one seam, :meth:`_run_round`: the result is summed into
    ``counters``, and each observer's ``on_round(result)`` is called.
    Event traces (:class:`~repro.core.trace.TraceRecorder`) and flight
    recorders (:class:`~repro.timeline.TimelineRecorder`) are observers,
    so attaching one never changes the kernel choice. The channel knows
    no metrics: the run driver (:func:`repro.algorithms.base.run_broadcast`)
    adds a finished run's counters to the ``repro_channel_*`` metrics.

    Parameters
    ----------
    network:
        Topology to simulate on.
    faults:
        Fault model and probability. Internally this is just the ``iid``
        adversary: the channel wraps it in
        :class:`~repro.adversary.iid.IIDFaults`, whose hooks draw the
        exact bulk coins this class drew before the adversary interface
        existed — legacy runs are byte-identical.
    rng:
        Seed / source for fault/adversary sampling.
    observers:
        :class:`RoundObserver` objects shown every resolved round, in
        order; ``channel.observers`` is a list and may be appended to.
    adversary:
        Optional corruption strategy replacing the i.i.d. fault coins: an
        :class:`~repro.adversary.base.Adversary` instance (bound to this
        channel; one channel per instance) or a serializable
        :class:`~repro.core.faults.AdversaryConfig` built via the
        registry. Mutually exclusive with a non-faultless ``faults``.
    """

    #: auto-dispatch threshold: vectorize once a round gathers this many
    #: (broadcaster, neighbor) pairs — below it numpy latency dominates
    VECTORIZE_MIN_WORK = 192

    def __init__(
        self,
        network: RadioNetwork,
        faults: FaultConfig = FaultConfig.faultless(),
        rng: "int | RandomSource | None" = None,
        observers: Sequence[RoundObserver] = (),
        adversary: "Adversary | AdversaryConfig | None" = None,
    ) -> None:
        self.network = network
        self.faults = faults
        self.rng = spawn_rng(rng)
        self.observers = list(observers)
        self.counters = ChannelCounters()
        self.round_index = 0
        # deferred import: repro.adversary builds on repro.core.faults, so
        # a module-level import here would be circular
        from repro.adversary.base import Adversary
        from repro.adversary.iid import IIDFaults

        if adversary is None:
            adversary = IIDFaults.from_fault_config(faults)
        else:
            if not faults.is_faultless:
                raise ValueError(
                    "pass either faults or an adversary, not both: the iid "
                    "adversary subsumes FaultConfig"
                )
            if isinstance(adversary, AdversaryConfig):
                from repro.adversary.registry import build_adversary

                adversary = build_adversary(adversary)
            elif not isinstance(adversary, Adversary):
                raise TypeError(
                    "adversary must be an Adversary or AdversaryConfig, got "
                    f"{type(adversary).__name__}"
                )
        adversary.bind(network, self.rng)
        self.adversary = adversary
        # scratch buffers reused across rounds (scalar reference kernel)
        self._hear_count = [0] * network.n
        self._hear_from = [0] * network.n
        self._touched: list[int] = []
        # every node's degree, read from the CSR row pointers: a round's
        # gather work is the sum over its broadcasters
        self._degree = np.diff(network.indptr)
        self._max_degree = int(self._degree.max(initial=0))

    def transmit(self, broadcasters: np.ndarray) -> RoundResult:
        """Resolve one round given its ascending int64 broadcaster array.

        Implements the model: a listener receives iff exactly one neighbor
        broadcasts; sender faults silence a broadcaster toward *all* its
        neighbors; receiver faults independently silence each unique
        reception. Returns the full :class:`RoundResult`, which keeps
        ``broadcasters`` as its own field, and advances the round counter.
        """
        return self._run_round(self._checked(broadcasters), self._resolve_auto)

    def transmit_reference(self, broadcasters: np.ndarray) -> RoundResult:
        """Scalar reference kernel: same semantics, same RNG stream.

        Produces a :class:`RoundResult` identical to :meth:`transmit` for
        the same channel state; exists as the executable specification the
        vectorized kernel is property-checked against.
        """
        return self._run_round(self._checked(broadcasters), self._resolve_scalar)

    # -- kernel internals ---------------------------------------------------

    def _checked(self, broadcasters: np.ndarray) -> np.ndarray:
        """``broadcasters`` if it is a valid round, else SimulationError."""
        if type(broadcasters) is not np.ndarray:
            raise self._invalid(
                f"got a {type(broadcasters).__name__}, not a numpy array"
            )
        if broadcasters.dtype != _INT64:
            raise self._invalid(f"got dtype {broadcasters.dtype}, not int64")
        if broadcasters.ndim != 1:
            raise self._invalid(f"got a {broadcasters.ndim}-D array, not 1-D")
        size = broadcasters.size
        if size:
            if size > 1:
                # count_nonzero: the cheapest numpy reduction on a small round
                unordered = broadcasters[1:] <= broadcasters[:-1]
                if np.count_nonzero(unordered):
                    at = int(np.argmax(unordered))
                    a, b = broadcasters[at : at + 2].tolist()
                    problem = "duplicate node id" if a == b else "descending ids"
                    raise self._invalid(
                        f"{problem} {a}, {b} at position {at}: "
                        "ids must be strictly ascending"
                    )
            n = self.network.n
            if broadcasters[0] < 0 or broadcasters[-1] >= n:
                node = int(broadcasters[0] if broadcasters[0] < 0 else broadcasters[-1])
                raise self._invalid(f"node id {node} is outside [0, {n})")
        return broadcasters

    @staticmethod
    def _invalid(problem: str) -> SimulationError:
        """The error for a broadcaster array the channel cannot resolve."""
        return SimulationError(
            f"invalid broadcasters: {problem}; a round's broadcasters are "
            "a strictly ascending 1-D int64 array of node ids"
        )

    def _run_round(self, broadcasters: np.ndarray, resolver) -> RoundResult:
        """The one place a resolved round is observed.

        Resolves and counts the round (``broadcasters`` already checked),
        then shows the result to every observer.
        """
        result = self._resolve_round(broadcasters, resolver)
        for observer in self.observers:
            observer.on_round(result)
        return result

    def _resolve_round(self, broadcasters: np.ndarray, resolver) -> RoundResult:
        """The un-observed round of checked broadcasters: resolve, count, advance."""
        result = RoundResult(self.round_index, broadcasters)
        if len(broadcasters):
            resolver(result)
        self.round_index += 1
        counters = self.counters
        counters.rounds += 1
        counters.broadcasts += len(broadcasters)
        counters.deliveries += len(result.receivers)
        counters.collisions += len(result.collision_receivers)
        counters.sender_faults += len(result.faulty_senders)
        counters.receiver_faults += len(result.corrupted_receivers)
        return result

    def _resolve_auto(self, result: RoundResult) -> None:
        """Kernel dispatch: pick by the round's gather work."""
        bs = result.broadcasters
        threshold = self.VECTORIZE_MIN_WORK
        # no degree sum when even max-degree broadcasters stay below
        # the threshold: the common tiny round skips two numpy calls
        small = len(bs) * self._max_degree < threshold
        if small or self._degree[bs].sum() < threshold:
            self._resolve_scalar(result)
        else:
            self._resolve_vectorized(result)

    def _prologue_vectorized(
        self, result: RoundResult
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adversary's round prologue for the array kernels.

        Fires ``begin_round`` -> ``sender_mask`` -> ``edge_alive`` over
        the ascending broadcasters (``receiver_mask`` follows in
        :meth:`_fill_vectorized`) — the same order, with the same
        ascending-id inputs, as :meth:`_prologue_scalar`, so any
        adversary that draws randomness only inside its hooks is
        kernel-independent. Sets ``faulty_senders`` and returns
        ``(faulty, heard, senders)``: the faulty broadcasters and the
        parallel receiver/sender arrays of every live CSR gather slot.
        """
        network = self.network
        adversary = self.adversary
        bs = result.broadcasters

        if adversary.needs_begin_round:
            adversary.begin_round(self.round_index, bs)
        smask = adversary.sender_mask(bs)
        faulty = _EMPTY
        if smask is not None:
            faulty = result.faulty_senders = bs[smask]

        # gather all broadcasters' neighbor slices in one shot
        flat, lens = network.csr_slots(bs)
        heard = network.indices[flat]
        senders = np.repeat(bs, lens)

        if adversary.has_edge_dynamics:
            # the gather above already computed the flat slot array; hand
            # it over so the adversary does not rebuild it
            alive = adversary.edge_alive(bs, flat)
            if alive is not None:
                heard = heard[alive]
                senders = senders[alive]
        return faulty, heard, senders

    def _resolve_vectorized(self, result: RoundResult) -> None:
        """Array kernel over the network's CSR adjacency."""
        n = self.network.n
        bs = result.broadcasters
        faulty, heard, senders = self._prologue_vectorized(result)

        hear_count = np.bincount(heard, minlength=n)
        sender_of = np.zeros(n, dtype=np.int64)
        sender_of[heard] = senders  # only read where hear_count == 1

        listening = np.ones(n, dtype=bool)
        listening[bs] = False  # a broadcasting node cannot receive

        result.collision_receivers = np.flatnonzero(listening & (hear_count >= 2))
        unique = np.flatnonzero(listening & (hear_count == 1))
        self._fill_vectorized(result, faulty, unique, sender_of[unique])

    def _fill_vectorized(
        self, result: RoundResult, faulty, unique, unique_senders
    ) -> None:
        """Array tail shared by the vectorized kernels.

        ``unique`` are the ascending listeners left with exactly one
        sender: silence those whose sender is ``faulty``, draw receiver
        faults over the rest, and deliver what survives.
        """
        if faulty.size:
            faulty_lookup = np.zeros(self.network.n, dtype=bool)
            faulty_lookup[faulty] = True
            silenced = faulty_lookup[unique_senders]
            result.silenced_receivers = unique[silenced]
            result.silenced_senders = unique_senders[silenced]
            unique = unique[~silenced]
            unique_senders = unique_senders[~silenced]

        rmask = self.adversary.receiver_mask(unique, unique_senders)
        if rmask is not None and rmask.any():
            result.corrupted_receivers = unique[rmask]
            result.corrupted_senders = unique_senders[rmask]
            unique = unique[~rmask]
            unique_senders = unique_senders[~rmask]

        result.receivers = unique
        result.senders = unique_senders

    def _prologue_scalar(
        self, result: RoundResult
    ) -> tuple[list[int], set[int], Optional[np.ndarray]]:
        """The adversary's round prologue for the per-node kernels.

        Calls the hooks of :meth:`_prologue_vectorized` at the same
        points, in the same order, with the same ascending-id values, so
        both kernel styles consume one RNG stream and agree reception for
        reception. Sets ``faulty_senders`` and returns ``(broadcasters,
        faulty, alive)``: the broadcasters as a list, the faulty ones as
        a set, and the ``edge_alive`` mask over the CSR gather slots (or
        None when every edge is up).
        """
        adversary = self.adversary
        bs = result.broadcasters
        broadcasters = bs.tolist()

        if adversary.needs_begin_round:
            adversary.begin_round(self.round_index, bs)

        faulty: set[int] = set()
        smask = adversary.sender_mask(broadcasters)
        if smask is not None:
            faulty_senders = [b for b, hit in zip(broadcasters, smask) if hit]
            result.faulty_senders = node_array(faulty_senders)
            faulty = set(faulty_senders)

        alive = adversary.edge_alive(bs) if adversary.has_edge_dynamics else None
        return broadcasters, faulty, alive

    def _resolve_scalar(self, result: RoundResult) -> None:
        """Per-node reference kernel."""
        broadcasters, faulty, alive = self._prologue_scalar(result)

        hear_count = self._hear_count
        hear_from = self._hear_from
        touched = self._touched
        neighbors = self.network.neighbors
        if alive is None:
            for b in broadcasters:
                for v in neighbors[b]:
                    if hear_count[v] == 0:
                        touched.append(v)
                    hear_count[v] += 1
                    hear_from[v] = b
        else:
            # slots walk each broadcaster's CSR slice in ascending-b
            # order — the exact flat order the vectorized gather uses
            slot = 0
            for b in broadcasters:
                for v in neighbors[b]:
                    if alive[slot]:
                        if hear_count[v] == 0:
                            touched.append(v)
                        hear_count[v] += 1
                        hear_from[v] = b
                    slot += 1

        # classify listeners in ascending id order; receiver corruption
        # coins are drawn in one bulk call over the eligible (unique,
        # non-silenced) receivers so the stream matches the vectorized
        # kernel
        touched.sort()
        sending = set(broadcasters)
        collisions: list[int] = []
        silenced: list[int] = []
        silenced_senders: list[int] = []
        eligible: list[int] = []
        eligible_senders: list[int] = []
        for v in touched:
            count = hear_count[v]
            hear_count[v] = 0  # reset scratch as we go
            if v in sending:
                continue  # a broadcasting node cannot receive
            if count >= 2:
                collisions.append(v)
                continue
            if hear_from[v] in faulty:
                silenced.append(v)
                silenced_senders.append(hear_from[v])
                continue
            eligible.append(v)
            eligible_senders.append(hear_from[v])
        touched.clear()
        result.collision_receivers = node_array(collisions)
        result.silenced_receivers, result.silenced_senders = _node_pairs(
            silenced, silenced_senders
        )
        self._fill_scalar(result, eligible, eligible_senders)

    def _fill_scalar(self, result: RoundResult, eligible, eligible_senders) -> None:
        """Per-node tail shared by the scalar kernels.

        ``eligible`` are the ascending listeners whose one sender sent
        cleanly; one bulk receiver-fault draw over them (the vectorized
        kernels' stream) splits them into corrupted and delivered.
        """
        rmask = self.adversary.receiver_mask(eligible, eligible_senders)
        hits = rmask.tolist() if rmask is not None else ()
        if True in hits:
            kept = [not hit for hit in hits]
            result.corrupted_receivers, result.corrupted_senders = _node_pairs(
                list(compress(eligible, hits)), list(compress(eligible_senders, hits))
            )
            eligible = list(compress(eligible, kept))
            eligible_senders = list(compress(eligible_senders, kept))
        result.receivers, result.senders = _node_pairs(eligible, eligible_senders)


class ProtocolLayer(Protocol):
    """Every node's protocol state, as one :class:`Simulator` drives it.

    Each round the simulator asks the layer to :meth:`act`, resolves the
    returned broadcaster array on the channel, and hands the
    :class:`RoundResult` to :meth:`deliver`, which reads its parallel
    ``receivers``/``senders`` arrays. The channel never reads a packet:
    a layer keeps what its broadcasters sent and looks each reception
    up by its sender.
    """

    def act(self, round_index: int) -> np.ndarray:
        """The round's broadcasters: an ascending int64 array."""

    def deliver(self, result: RoundResult) -> None:
        """Hand every reception of the resolved round to its receiver."""

    def all_done(self) -> bool:
        """True iff every node has completed its task."""

    def done_count(self) -> int:
        """Number of nodes that have completed their task."""

    def active_nodes(self) -> list[int]:
        """The nodes that may broadcast before hearing anything."""


class Simulator:
    """Drives one protocol layer over a :class:`Channel`.

    Parameters
    ----------
    network:
        Topology.
    layer:
        The :class:`ProtocolLayer` holding every node's state.
    faults:
        Fault configuration.
    rng:
        Randomness for the channel (fault sampling). The layer holds the
        nodes' own sources, so that channel noise and algorithmic
        randomness are independent streams.
    observers:
        Round observers handed to the channel (see :class:`Channel`).
    adversary:
        Optional channel corruption strategy (see :class:`Channel`);
        mutually exclusive with a non-faultless ``faults``.
    channel:
        Optional :class:`~repro.mac.config.MacConfig`: run on the
        contention MAC channel (:class:`~repro.mac.channel.ContentionChannel`)
        instead of the default collision channel. ``None`` (default)
        keeps the paper's channel, bit-for-bit.
    """

    def __init__(
        self,
        network: RadioNetwork,
        layer: ProtocolLayer,
        faults: FaultConfig = FaultConfig.faultless(),
        rng: "int | RandomSource | None" = None,
        observers: Sequence[RoundObserver] = (),
        adversary: "Adversary | AdversaryConfig | None" = None,
        channel: "MacConfig | None" = None,
    ) -> None:
        self.network = network
        self.layer = layer
        if channel is None:
            self.channel = Channel(
                network, faults, rng, observers, adversary=adversary
            )
        else:
            # deferred import: repro.mac.channel subclasses Channel, so a
            # module-level import here would be circular
            from repro.mac.channel import ContentionChannel

            self.channel = ContentionChannel(
                network,
                faults,
                rng,
                observers,
                adversary=adversary,
                config=channel,
            )

    @property
    def counters(self) -> ChannelCounters:
        return self.channel.counters

    @property
    def round_index(self) -> int:
        return self.channel.round_index

    def step(self) -> RoundResult:
        """Run one round: the layer acts, the channel resolves, the layer hears."""
        result = self.channel.transmit(self.layer.act(self.channel.round_index))
        self.layer.deliver(result)
        return result

    def run(self, max_rounds: int) -> int:
        """Run until every node is done or ``max_rounds`` elapse.

        Returns the number of rounds executed in this call.
        """
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
        executed = 0
        while executed < max_rounds:
            if self.layer.all_done():
                break
            self.step()
            executed += 1
        return executed

    def all_done(self) -> bool:
        """True iff every node reports completion."""
        return self.layer.all_done()

    def done_count(self) -> int:
        """Number of nodes reporting completion."""
        return self.layer.done_count()
