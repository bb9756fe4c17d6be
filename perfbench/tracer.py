"""In-memory span tracer that wraps the program's public calls from outside.

The benchmark never edits the program: :func:`instrument` replaces a
handful of public functions and methods with timing wrappers for the
length of a traced pass and puts the originals back afterwards. Each
wrapper pushes a frame on one call stack, so a layer's *self* time is its
call's duration minus the time its wrapped children took.

Calls that happen once per scenario (``run``, the topology build, the
algorithm, GBST, ``Simulator.run``, ``put_many``) are recorded as spans:
``(id, name, start, end, parent)``, kept in memory and written out when
the run ends. Calls that happen once per round or once per packet
(``Simulator.step``, ``transmit``, ``RLNCEncoder.emit``/``receive``, the
cache key and store reads) are *folded*: they add to their layer's summed
duration and call count and to their parent's child time, but leave no
span of their own. One span per packet inflated an ``rlnc_decay`` run by
half; folded, the wrapper costs a few percent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = ["LAYERS", "Layer", "Tracer", "instrument"]

_clock = time.perf_counter

#: every layer the benchmark times, in call-depth order
LAYERS = (
    "runner.overhead",
    "topologies.build",
    "scenario.cache_key",
    "algorithms.setup",
    "gbst.build",
    "core.stop",
    "algorithms.poll",
    "core.channel",
    "mac.channel",
    "coding.emit",
    "coding.receive",
    "store.put",
    "store.get",
)


@dataclass
class Layer:
    """Summed self time, call count and an optional tally of one layer."""

    name: str
    self_s: float = 0.0
    calls: int = 0
    #: layer-specific count: GBST repair iterations, innovative
    #: receptions, store hits
    tally: int = 0


class Tracer:
    """A call stack of frames ``[child_seconds, span_id]`` plus totals."""

    def __init__(self) -> None:
        self.layers = {name: Layer(name) for name in LAYERS}
        self.spans: list[tuple[int, str, float, float, int]] = []
        #: summed duration of the root spans (the traced wall time)
        self.wall_s = 0.0
        #: summed self time of the root spans: the benchmark's own calls
        #: into ``run_batch`` less every wrapped layer below them
        self.root_self_s = 0.0
        #: per-group layer self times and wall time (see ``group_by``)
        self.groups: dict[str, dict[str, float]] = {}
        self._epoch = _clock()
        # the base frame catches calls made outside any root span; the
        # benchmark keeps instrumented calls inside roots
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a root span around one timed call of the benchmark."""
        span_id = self._take_id()
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.wall_s += end - start
            self.root_self_s += end - start - frame[0]
            self.spans.append(
                (span_id, name, start - self._epoch, end - self._epoch, 0)
            )

    def _take_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def wrap(
        self,
        layer_name: str,
        fn: Callable,
        fold: bool = False,
        tally: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that charges its self time to a layer."""
        layer = self.layers[layer_name]
        stack = self._stack
        spans = self.spans
        epoch = self._epoch

        if fold:

            def folded(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    parent[0] += elapsed
                    layer.self_s += elapsed - frame[0]
                    layer.calls += 1
                if tally is not None:
                    layer.tally += tally(result)
                return result

            return folded

        def spanned(*args, **kwargs):
            parent = stack[-1]
            span_id = self._take_id()
            frame = [0.0, span_id]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                parent[0] += end - start
                layer.self_s += end - start - frame[0]
                layer.calls += 1
                spans.append(
                    (span_id, layer_name, start - epoch, end - epoch, parent[1])
                )
            if tally is not None:
                layer.tally += tally(result)
            return result

        return spanned

    # -- patching -------------------------------------------------------------

    def grouped(self, fn: Callable, group_by: Callable[..., str]) -> Callable:
        """A wrapper of ``fn`` that also adds each call's layer self times
        and duration to ``groups[group_by(*args)]``."""
        layers = list(self.layers.values())

        def wrapper(*args, **kwargs):
            before = [layer.self_s for layer in layers]
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                key = group_by(*args, **kwargs)
                group = self.groups.setdefault(
                    key, dict.fromkeys(["calls", "wall_s", *LAYERS], 0.0)
                )
                group["calls"] += 1
                group["wall_s"] += elapsed
                for layer, was in zip(layers, before):
                    group[layer.name] += layer.self_s - was

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        layer_name: str,
        group_by: Optional[Callable[..., str]] = None,
        **options: Any,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper until :meth:`unpatch`."""
        # a class attribute is read from the class dict, so the wrapper
        # replaces the plain function, not a bound method
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrapper = self.wrap(layer_name, original, **options)
        if group_by is not None:
            wrapper = self.grouped(wrapper, group_by)
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def self_total(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())

    def residual_s(self) -> float:
        """Traced wall time that no layer accounts for."""
        return self.wall_s - self.self_total()

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "residual_s": self.residual_s(),
            "layers": {
                name: {"self_s": layer.self_s, "calls": layer.calls, "tally": layer.tally}
                for name, layer in self.layers.items()
            },
            "by_algorithm": self.groups,
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [list(span) for span in self.spans],
        }


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary of the program for the ``with`` body."""
    import repro.runner.runner as runner_module
    from repro.algorithms import fastbc, repetition, robust_fastbc
    from repro.algorithms.multi import rlnc_broadcast
    from repro.coding.rlnc import RLNCEncoder
    from repro.core.engine import Channel, Simulator
    from repro.mac.channel import ContentionChannel
    from repro.runner.registry import BroadcastAlgorithm
    from repro.runner.scenario import Scenario
    from repro.store.store import ResultStore

    patch = tracer.patch
    try:
        # run_batch looks ``run`` up in its module at call time
        patch(
            runner_module,
            "run",
            "runner.overhead",
            group_by=lambda scenario: scenario.algorithm,
        )
        patch(Scenario, "build_network", "topologies.build")
        patch(Scenario, "cache_key", "scenario.cache_key", fold=True)
        patch(BroadcastAlgorithm, "run", "algorithms.setup")
        for module in (fastbc, robust_fastbc, rlnc_broadcast, repetition):
            patch(
                module,
                "build_gbst",
                "gbst.build",
                tally=lambda result: result.repair_iterations,
            )
        patch(Simulator, "run", "core.stop")
        patch(Simulator, "step", "algorithms.poll", fold=True)
        patch(Channel, "transmit", "core.channel", fold=True)
        patch(ContentionChannel, "transmit", "mac.channel", fold=True)
        patch(RLNCEncoder, "emit", "coding.emit", fold=True)
        patch(RLNCEncoder, "receive", "coding.receive", fold=True, tally=bool)
        patch(ResultStore, "put_many", "store.put")
        patch(
            ResultStore,
            "get",
            "store.get",
            fold=True,
            tally=lambda report: report is not None,
        )
        yield tracer
    finally:
        tracer.unpatch()
