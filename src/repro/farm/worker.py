"""The farm worker: pull leases, execute, push canonical bytes back.

A :class:`FarmWorker` talks to a coordinator through a client object.
``repro worker --connect URL`` runs one over a
:class:`~repro.service.client.ServiceClient` against any ``repro
serve``; the service's own ``--workers N`` threads run one each over a
:class:`LocalClient`, which calls the in-process
:class:`~repro.farm.Coordinator` without HTTP. The loop is the whole
protocol:

1. ``POST /workers`` — register, learn the lease chunk size and the
   heartbeat interval;
2. ``POST /leases`` — check out up to N scenarios (sleep briefly when
   the queue is idle; an in-process worker is woken as soon as
   scenarios are queued or requeued);
3. execute the chunk one scenario at a time through
   :func:`repro.runner.run`, the function every sweep runs — across
   one process pool per lease with ``processes`` — a remote worker
   answering repeats from a private in-memory
   :class:`~repro.store.ResultStore`; the canonical bytes produced are
   identical to any other worker's by the determinism contract;
4. the worker's one daemon heartbeat thread extends the running lease
   every heartbeat interval while step 3 runs;
5. ``POST /leases/<id>/complete`` — push every canonical report dict
   plus the executed/cached split for the coordinator's accounting.

A worker that dies anywhere in 2–5 needs no cleanup: its lease expires
at the coordinator and the scenarios are re-leased. A worker whose lease
expired under it (a long GC pause, a network partition) still pushes
whatever it finished — the coordinator absorbs late results by content
address — but the heartbeat thread also *signals the executing chunk*
when it learns the lease is gone (HTTP 410), so execution stops at the
next scenario boundary instead of computing a whole chunk someone else
is already redoing. :meth:`FarmWorker.stop` raises the same signal, so
a stopping worker pushes the finished prefix and the coordinator
requeues the rest.

The worker survives the coordinator as well as vice versa: transport
errors in the lease loop poll-and-retry instead of crashing, and an
HTTP 404 ``unknown worker`` — the signature of a coordinator that
restarted and forgot the fleet — re-registers under a fresh id and
carries on. A coordinator bounce mid-sweep therefore costs the fleet a
few poll intervals, not a manual restart.

For the chaos harness (:mod:`repro.chaos`) the worker exposes failure
knobs of its own: ``chaos_kill_after=N`` hard-kills the process
(``os._exit``) after N completed leases — a real SIGKILL-style death,
no cleanup, mid-fleet — and ``chaos_heartbeat_factor`` stretches the
heartbeat interval past the lease timeout so expiry paths actually run.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from typing import Any, Iterator, Optional

from repro.farm.coordinator import Coordinator, UnknownLease, UnknownWorker
from repro.runner import RunReport, Scenario, run
from repro.service.client import ServiceClient, ServiceError
from repro.store import ResultStore
from repro.telemetry.metrics import METRICS as _METRICS
from repro.telemetry.tracing import TRACER as _TRACER
from repro.telemetry.tracing import trace_id_for_keys

__all__ = ["FarmWorker", "LocalClient", "run_worker"]

_M_EXECUTED = _METRICS.counter(
    "repro_worker_scenarios_executed_total", "scenarios this worker ran"
)
_M_CACHED = _METRICS.counter(
    "repro_worker_scenarios_cached_total", "scenarios answered from cache"
)
_M_LEASES_DONE = _METRICS.counter(
    "repro_worker_leases_completed_total", "leases completed by this worker"
)
_M_LEASES_ABANDONED = _METRICS.counter(
    "repro_worker_leases_abandoned_total", "leases abandoned mid-run"
)

#: a local lease request's longest wait on an empty queue: queued or
#: requeued scenarios end it at once, so this only bounds how long a
#: stopping worker takes to notice
_LOCAL_WAIT_S = 0.1


class LocalClient:
    """The worker half of :class:`ServiceClient`, called on an in-process
    :class:`~repro.farm.Coordinator`: an unknown lease or worker becomes
    the 410 or 404 :class:`ServiceError` the worker handles over HTTP.
    A lease request on an empty queue waits up to ``_LOCAL_WAIT_S`` for
    work before answering None, so a worker over it polls with
    ``poll=0``."""

    #: read by the worker's exit summary; nothing here retries or traces
    retries_total = 0
    last_error = ""
    last_trace = ""

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator

    def _call(self, method, *args, **kwargs):
        try:
            return method(*args, **kwargs)
        except UnknownLease as error:
            raise ServiceError(410, str(error)) from None
        except UnknownWorker as error:
            raise ServiceError(404, str(error)) from None

    def register_worker(self, name: str = "") -> dict[str, Any]:
        return self._call(self.coordinator.register, name, local=True)

    def workers(self) -> dict[str, Any]:
        return self._call(self.coordinator.snapshot)

    def lease(self, *args, **kwargs) -> Optional[dict[str, Any]]:
        lease = self._call(self.coordinator.lease, *args, **kwargs)
        if lease is None:
            self.coordinator.wait_for_work(_LOCAL_WAIT_S)
            lease = self._call(self.coordinator.lease, *args, **kwargs)
        return lease

    def heartbeat(self, *args) -> dict[str, Any]:
        return self._call(self.coordinator.heartbeat, *args)

    def complete(self, *args, **kwargs) -> dict[str, Any]:
        return self._call(self.coordinator.complete, *args, **kwargs)

    def fail(self, *args) -> dict[str, Any]:
        return self._call(self.coordinator.fail, *args)


class FarmWorker:
    """One lease-pulling worker (see module docstring).

    Parameters
    ----------
    client:
        The coordinator's worker protocol: a :class:`ServiceClient` for
        a remote service, or a :class:`LocalClient` in the service's
        own process.
    name:
        Reported on registration (default: ``host:pid``).
    max_scenarios:
        Cap on scenarios per lease (None: the coordinator's chunk size).
    processes:
        Size of the process pool each lease runs on (None: in-thread).
    poll:
        Seconds to sleep between lease polls when the queue is idle
        (0 over a :class:`LocalClient`, whose lease request itself
        waits for work).
    until_idle:
        Exit the loop once the coordinator reports an idle queue
        (used by the smoke and the benchmark; the CLI default runs
        until interrupted).
    cache:
        A private store the worker answers repeated scenarios from
        (None: run every scenario it leases). A remote worker keeps an
        in-memory one; a local worker's reports land in the service's
        store through the coordinator, so it keeps none.
    chaos_kill_after:
        Hard-kill the process (``os._exit(42)``) after completing this
        many leases. Fault injection for the chaos smoke only.
    chaos_heartbeat_factor:
        Multiply the coordinator-advertised heartbeat interval (values
        > 3 outrun the lease timeout, forcing expiries). Fault
        injection for the chaos smoke only.
    """

    def __init__(
        self,
        client: ServiceClient | LocalClient,
        name: str = "",
        max_scenarios: Optional[int] = None,
        processes: Optional[int] = None,
        poll: float = 0.5,
        until_idle: bool = False,
        verbose: bool = False,
        cache: Optional[ResultStore] = None,
        chaos_kill_after: Optional[int] = None,
        chaos_heartbeat_factor: float = 1.0,
    ) -> None:
        self.client = client
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.max_scenarios = max_scenarios
        self.processes = processes
        self.poll = poll
        self.until_idle = until_idle
        self.verbose = verbose
        self.chaos_kill_after = chaos_kill_after
        self.chaos_heartbeat_factor = float(chaos_heartbeat_factor)
        self.worker_id = ""
        self.heartbeat_s = 10.0
        self.cache = cache
        self.leases_done = 0
        self.leases_abandoned = 0
        self.executed = 0
        self.cached = 0
        self._stop = threading.Event()
        #: (id, abandon signal) of the running lease, or None: what the
        #: heartbeat thread beats and :meth:`stop` signals
        self._running: Optional[tuple[str, threading.Event]] = None
        self._heartbeat: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def register(self) -> str:
        ack = self.client.register_worker(self.name)
        self.worker_id = ack["worker"]
        self.heartbeat_s = (
            float(ack.get("heartbeat_s", self.heartbeat_s))
            * self.chaos_heartbeat_factor
        )
        self._log(f"registered as {self.worker_id} ({self.name})")
        return self.worker_id

    def stop(self) -> None:
        """End the loop; a running lease stops at its next scenario
        boundary and pushes what it finished."""
        self._stop.set()
        running = self._running
        if running is not None:
            running[1].set()

    def run(self) -> int:
        """The worker loop; returns the number of leases completed.

        The loop outlives the coordinator: transport failures poll and
        retry, and a 404 ``unknown worker`` (the coordinator restarted
        without recovering this registration) re-registers and carries
        on — the only unrecoverable answer is a clean idle queue (with
        ``until_idle``) or :meth:`stop`.
        """
        if not self.worker_id:
            self.register()
        while not self._stop.is_set():
            try:
                lease = self.client.lease(
                    self.worker_id, max_scenarios=self.max_scenarios
                )
            except ServiceError as error:
                if error.status == 404:
                    self._log(f"coordinator forgot us ({error}); re-registering")
                    self._reregister()
                    continue
                self._log(f"lease request rejected: {error}")
                self._stop.wait(self.poll)
                continue
            except Exception as error:  # noqa: BLE001 - transport: poll again
                self._log(f"coordinator unreachable: {error}")
                self._stop.wait(self.poll)
                continue
            if lease is None:
                if self.until_idle and self._queue_idle():
                    break
                self._stop.wait(self.poll)
                continue
            self.run_lease(lease)
            if (
                self.chaos_kill_after is not None
                and self.leases_done >= self.chaos_kill_after
            ):
                # a real crash, not an exception: no flushing, no
                # goodbyes — the lease-expiry path must pick up the mess
                self._log(f"chaos: dying after {self.leases_done} leases")
                os._exit(42)
        summary = (
            f"done: {self.leases_done} leases, {self.executed} executed, "
            f"{self.cached} cache hits, "
            f"{self.client.retries_total} client retries"
        )
        if self.client.last_error:
            summary += f" (last transport error: {self.client.last_error})"
        self._log(summary)
        return self.leases_done

    def _reregister(self) -> None:
        """Register under a fresh id after a coordinator restart."""
        deadline = time.monotonic() + 30.0
        while not self._stop.is_set():
            try:
                self.register()
                return
            except Exception as error:  # noqa: BLE001 - coordinator still down
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"cannot re-register with the coordinator: {error}"
                    ) from error
                self._stop.wait(self.poll)

    # -- one lease ----------------------------------------------------------

    def run_lease(self, lease: dict[str, Any]) -> None:
        """Execute one lease and push its reports (heartbeating throughout)."""
        scenarios = [Scenario.from_dict(data) for data in lease["scenarios"]]
        abandon = threading.Event()
        self._running = (lease["id"], abandon)
        if self._stop.is_set():
            abandon.set()
        if self._heartbeat is None:
            # one thread for the worker's lifetime: starting and joining
            # one per lease cost ~0.5 ms, a tenth of a short lease
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name=f"heartbeat-{self.name}",
                daemon=True,
            )
            self._heartbeat.start()
        trace_id = self.client.last_trace or lease.get("trace", "")
        if not trace_id:
            trace_id = trace_id_for_keys(
                scenario.cache_key() for scenario in scenarios
            )
        try:
            with _TRACER.span(
                "worker.lease",
                trace_id,
                algorithm=scenarios[0].algorithm if scenarios else None,
                lease=lease["id"],
                worker=self.worker_id,
                scenarios=len(scenarios),
            ) as span_attrs:
                reports, executed, cached = self._execute(scenarios, abandon)
                if span_attrs is not None:
                    span_attrs["executed"] = executed
                    span_attrs["cached"] = cached
        except Exception as error:  # noqa: BLE001 - report, keep the worker up
            self._report_failure(lease["id"], error)
            return
        finally:
            self._running = None
        if abandon.is_set():
            self.leases_abandoned += 1
            if _METRICS.enabled:
                _M_LEASES_ABANDONED.inc()
            self._log(
                f"{lease['id']}: abandoned after {len(reports)}/"
                f"{len(scenarios)} scenarios"
            )
        try:
            ack = self.client.complete(
                lease["id"],
                self.worker_id,
                reports,
                executed=executed,
                cached=cached,
            )
        except ServiceError as error:
            # the coordinator is the source of truth; a rejected
            # completion (e.g. unknown worker after a restart) is logged
            # and the work is re-leased to someone
            self._log(f"completion rejected for {lease['id']}: {error}")
            return
        except Exception as error:  # noqa: BLE001 - transport: lease expires
            self._log(
                f"cannot deliver {lease['id']} ({error}); the lease will "
                "expire and requeue"
            )
            return
        if not abandon.is_set():
            self.leases_done += 1
            if _METRICS.enabled:
                _M_LEASES_DONE.inc()
        self.executed += executed
        self.cached += cached
        if _METRICS.enabled:
            if executed:
                _M_EXECUTED.inc(executed)
            if cached:
                _M_CACHED.inc(cached)
        self._log(
            f"{lease['id']}: {len(reports)} reports "
            f"({executed} executed, {cached} cached"
            f"{', late' if ack.get('late') else ''})"
        )

    def _execute(
        self, scenarios: list[Scenario], abandon: Optional[threading.Event] = None
    ) -> tuple[list[RunReport], int, int]:
        """Run the chunk, stopping at a scenario boundary on ``abandon``.

        Reports are taken one at a time, in lease order, from a serial
        run or from one process pool for the whole lease, and the
        abandon signal — set by the heartbeat thread when the
        coordinator answers 410, or by :meth:`stop` — is checked before
        each, so it is honored within one scenario's runtime instead of
        after the whole chunk (a pool's runs still in flight are
        terminated). Whatever finished before the signal is still
        returned: the bytes are correct and pushing them costs one POST.
        """
        hits: dict[int, RunReport] = {}
        if self.cache is not None:
            for index, scenario in enumerate(scenarios):
                report = self.cache.get(scenario.cache_key())
                if report is not None:
                    hits[index] = report
        fresh = _run_each(
            [s for i, s in enumerate(scenarios) if i not in hits],
            self.processes,
        )
        reports: list[RunReport] = []
        try:
            for index in range(len(scenarios)):
                if abandon is not None and abandon.is_set():
                    break
                reports.append(hits[index] if index in hits else next(fresh))
        finally:
            fresh.close()
        cached = sum(1 for index in hits if index < len(reports))
        if self.cache is not None and len(reports) > cached:
            self.cache.put_many(
                [r for i, r in enumerate(reports) if i not in hits]
            )
        return reports, len(reports) - cached, cached

    def _heartbeat_loop(self) -> None:
        """Beat the running lease every ``heartbeat_s`` until :meth:`stop`
        (a lease's first beat comes within one interval of its grant,
        well inside its deadline of three)."""
        while not self._stop.wait(self.heartbeat_s):
            self._beat()

    def _beat(self) -> None:
        running = self._running
        if running is None:
            return
        lease_id, abandon = running
        try:
            self.client.heartbeat(lease_id, self.worker_id)
        except ServiceError as error:
            if error.status in (404, 410):
                # the lease is gone (expired, or the coordinator
                # restarted): tell the executor to stop at the next
                # scenario boundary — finishing the chunk would compute
                # results someone else is already redoing
                self._log(f"lease {lease_id} gone mid-run: {error}")
                abandon.set()
        except Exception:  # noqa: BLE001 - transient; retry next tick
            pass

    def _report_failure(self, lease_id: str, error: Exception) -> None:
        try:
            self.client.fail(
                lease_id, self.worker_id, f"{type(error).__name__}: {error}"
            )
        except Exception:  # noqa: BLE001 - the lease will expire instead
            pass
        self._log(f"lease {lease_id} failed: {error}")

    def _queue_idle(self) -> bool:
        try:
            snapshot = self.client.workers()
            queue = snapshot["queue"]
            return (
                queue["pending_scenarios"] == 0
                and queue["outstanding_leases"] == 0
            )
        except Exception:  # noqa: BLE001 - treat a flaky poll as busy
            return False

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[{self.name}] {message}", flush=True)


def _run_each(
    scenarios: list[Scenario], processes: Optional[int]
) -> Iterator[RunReport]:
    """:func:`~repro.runner.run` each scenario, yielding reports in
    order; with ``processes`` > 1 across one fork pool, terminated when
    the generator is closed."""
    if processes is None or processes <= 1 or len(scenarios) <= 1:
        for scenario in scenarios:
            yield run(scenario)
        return
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with context.Pool(min(processes, len(scenarios))) as pool:
        yield from pool.imap(run, scenarios)


def run_worker(
    url: str,
    deadline: Optional[float] = None,
    verbose: bool = True,
    **options: Any,
) -> int:
    """Run one worker until interrupted (the ``repro worker`` command).

    ``deadline`` is the :class:`ServiceClient`'s total per-call budget
    (None: unbounded) — the cap on how long a black-holed coordinator
    can stall any single worker call. ``options`` are
    :class:`FarmWorker`'s.
    """
    client = ServiceClient(url, deadline=deadline)
    client.verbose = verbose
    worker = FarmWorker(
        client, verbose=verbose, cache=ResultStore(":memory:"), **options
    )
    # retry registration briefly so workers can start before the
    # coordinator finishes binding its socket
    deadline_at = time.monotonic() + 30.0
    while True:
        try:
            worker.register()
            break
        except Exception as error:  # noqa: BLE001 - connect errors, mostly
            if time.monotonic() >= deadline_at:
                print(f"cannot reach coordinator at {url}: {error}")
                return 1
            time.sleep(0.2)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    return 0
