"""The farm coordinator: journaled scenario leases with crash recovery.

One :class:`Coordinator` owns the service's job queue. Workers
(:mod:`repro.farm.worker`) register, then pull :class:`Lease` chunks of
N scenarios each; a lease carries a deadline that heartbeats extend, and
a lease whose deadline lapses returns its unfinished scenarios to the
front of the queue — so a worker killed mid-sweep costs the farm at most
one chunk of redone work, never a stuck job.

Progress accounting is content-addressed, like the store itself: a
scenario is *done* when a report under its cache key has been absorbed,
no matter which worker or lease delivered it. That one rule makes every
failure mode safe by construction:

* a killed worker's lease expires and is re-leased — the job's
  ``completed`` counter never counted the lost work, so it stays
  consistent;
* a slow worker that completes *after* its lease expired still lands
  its reports (they are correct bytes under a content address); any
  scenario another worker re-finished first is counted once and the
  surplus shows up in the ``duplicates`` counter instead of inflating
  progress;
* two workers racing on the same key write the same canonical bytes —
  the store's ``INSERT OR IGNORE`` keeps exactly one.

The coordinator itself is held to the same fault model it imposes on
workers: every state transition (job intake, lease grant, heartbeat,
release, quarantine) is **journaled** into the store's ``farm_journal``
table under the same lock that applies it — no caller is ever
acknowledged a transition the journal doesn't hold — and
:meth:`Coordinator.recover` rebuilds the exact queue/lease/progress
state from that journal plus the reports table — done-ness is never
journaled at all, because "the report is in the store" *is* the durable
completion record. In-flight leases resume with whatever deadline time
they had left (journal deadlines are wall-clock, so coordinator
downtime counts against them), which means a restart mid-lease neither
double-executes — the content addressing absorbs re-delivery — nor
stalls waiting on a dead worker. A lease held by one of the dead
process's own in-process workers (grants journal ``local``) is
requeued at once instead: nothing will ever heartbeat it. The journal
is compacted in place every ``compact_every`` appends down to one
record per job, per live attempt counter, per quarantined scenario, and
per outstanding lease, so lease history collapses. Finished jobs keep
their record, so its size grows with every job the coordinator has
taken.

A scenario that keeps *failing* (a worker reports an error, not a lost
lease) is requeued up to :data:`MAX_ATTEMPTS` times and then
**quarantined**: the job finishes ``partial`` (or ``failed`` when
nothing completed) with a per-scenario error map instead of one poison
scenario sinking the whole sweep. Lease expiries never count toward
quarantine — a chaos-killed worker must not poison innocent scenarios.

The coordinator is a plain thread-safe object and the service's only
job queue: :mod:`repro.service` exposes it over HTTP (``POST /leases``,
``PUT /leases/<id>/heartbeat``, ``POST /leases/<id>/complete``,
``GET/POST /workers``), and the service's own in-process workers call it
directly through :class:`~repro.farm.worker.LocalClient`, waiting in
:meth:`Coordinator.wait_for_work` while the queue is empty. Jobs share
the workers round-robin: a job that gets a lease moves behind every
other job with pending scenarios, so a small job submitted behind a
large sweep waits for one lease per job ahead of it, not for the whole
sweep.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.runner import RunReport, Scenario
from repro.store import ResultStore
from repro.telemetry.metrics import METRICS as _METRICS
from repro.telemetry.tracing import trace_id_for_keys

if TYPE_CHECKING:  # pragma: no cover - circular import at type time only
    from repro.service.jobs import Job

__all__ = [
    "Coordinator",
    "Lease",
    "UnknownLease",
    "UnknownWorker",
    "read_quarantined",
]

#: scenarios handed out per lease unless the worker asks for fewer
DEFAULT_LEASE_SCENARIOS = 8

#: seconds a lease stays valid without a heartbeat
DEFAULT_LEASE_TIMEOUT = 30.0

#: a scenario failed (not lost) this many times is quarantined
MAX_ATTEMPTS = 3

#: journal appends between in-place compactions
DEFAULT_COMPACT_EVERY = 256

#: completion timestamps kept for the snapshot's throughput window
_RATE_WINDOW_S = 60.0
_RATE_SAMPLES = 4096

_M_LEASES_GRANTED = _METRICS.counter(
    "repro_farm_leases_granted_total", "leases checked out by workers"
)
_M_LEASES_EXPIRED = _METRICS.counter(
    "repro_farm_leases_expired_total", "leases lost to missed heartbeats"
)
_M_SCENARIOS_COMPLETED = _METRICS.counter(
    "repro_farm_scenarios_completed_total", "scenarios completed via the farm"
)
_M_SCENARIOS_REQUEUED = _METRICS.counter(
    "repro_farm_scenarios_requeued_total", "scenarios returned to the queue"
)
_M_SCENARIOS_QUARANTINED = _METRICS.counter(
    "repro_farm_scenarios_quarantined_total", "scenarios pulled from rotation"
)
_M_DUPLICATES = _METRICS.counter(
    "repro_farm_duplicates_total", "completions for already-done scenarios"
)


class UnknownLease(LookupError):
    """The lease id is not outstanding (expired, completed, or bogus)."""


class UnknownWorker(LookupError):
    """The worker id is not registered (never was, or the coordinator
    restarted since) — workers answer by re-registering."""


class Lease(object):
    """One outstanding chunk of scenarios checked out by one worker."""

    __slots__ = (
        "id", "worker_id", "job_id", "indexes", "keys", "issued_at", "deadline"
    )

    def __init__(
        self,
        lease_id: str,
        worker_id: str,
        job_id: str,
        indexes: list[int],
        keys: list[str],
        issued_at: float,
        deadline: float,
    ) -> None:
        self.id = lease_id
        self.worker_id = worker_id
        self.job_id = job_id
        self.indexes = indexes
        self.keys = keys
        self.issued_at = issued_at
        self.deadline = deadline


class _JobState:
    """Coordinator-side bookkeeping for one farmed job."""

    __slots__ = ("job", "done", "pending", "attempts", "quarantined")

    def __init__(self, job: "Job") -> None:
        self.job = job
        self.done = [False] * len(job.scenarios)
        self.pending: deque[int] = deque()
        self.attempts = [0] * len(job.scenarios)
        #: index -> last error, for scenarios pulled out of rotation
        self.quarantined: dict[int, str] = {}


class _WorkerState:
    """Registration, liveness, and throughput counters for one worker."""

    __slots__ = (
        "id", "name", "local", "registered_at", "last_seen",
        "leases_completed", "leases_lost", "executed", "cached",
    )

    def __init__(
        self, worker_id: str, name: str, now: float, local: bool = False
    ) -> None:
        self.id = worker_id
        self.name = name
        #: runs in the coordinator's process, so it dies with it
        self.local = local
        self.registered_at = now
        self.last_seen = now
        self.leases_completed = 0
        self.leases_lost = 0
        self.executed = 0
        self.cached = 0


class Coordinator:
    """Store-backed scenario queue with journaled, deadline-guarded leases.

    Parameters
    ----------
    store:
        The shared result store completed reports land in (and cached
        scenarios are answered from at submit time). Its ``farm_journal``
        table holds the coordinator's durable state.
    lease_scenarios:
        Default chunk size per lease.
    lease_timeout:
        Seconds a lease survives without a heartbeat before its
        unfinished scenarios return to the queue.
    clock:
        Monotonic time source (injectable for tests).
    wall:
        Wall-clock source for journaled deadlines (injectable for
        tests); wall time is what lets a restarted coordinator charge
        its own downtime against in-flight leases.
    compact_every:
        Journal appends between in-place compactions.

    Every state transition is write-ahead journaled. A fresh coordinator
    *discards* any stale journal left by a previous process — resuming
    one is an explicit :meth:`recover` call, not an accident.
    """

    def __init__(
        self,
        store: ResultStore,
        lease_scenarios: int = DEFAULT_LEASE_SCENARIOS,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        self._init_state(
            store, lease_scenarios, lease_timeout, clock, wall, compact_every
        )
        if store.journal_size():
            # a fresh coordinator on a store with a leftover journal:
            # starting clean is the contract (recovery is recover())
            store.journal_replace([])

    def _init_state(
        self,
        store: ResultStore,
        lease_scenarios: int,
        lease_timeout: float,
        clock: Callable[[], float],
        wall: Callable[[], float],
        compact_every: int,
    ) -> None:
        """Validate the knobs and set up an empty queue; touches no
        journal (shared by :meth:`__init__` and :meth:`recover`)."""
        if lease_scenarios < 1:
            raise ValueError(
                f"lease_scenarios must be >= 1, got {lease_scenarios}"
            )
        if lease_timeout <= 0.0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.store = store
        self.lease_scenarios = int(lease_scenarios)
        self.lease_timeout = float(lease_timeout)
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        #: notified when scenarios are queued or requeued
        self._work = threading.Condition(self._lock)
        #: notified when a job reaches a terminal status
        self._finished = threading.Condition(self._lock)
        self._jobs: dict[str, _JobState] = {}
        #: ids of jobs that may have pending scenarios, in lease order:
        #: a job that gets a lease moves to the back (round-robin)
        self._ready: dict[str, None] = {}
        self._workers: dict[str, _WorkerState] = {}
        self._leases: dict[str, Lease] = {}
        self._key_map: dict[str, list[tuple[str, int]]] = {}
        self._worker_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self.compact_every = int(compact_every)
        self._appends_since_compact = 0
        #: set by :meth:`recover`: what the journal replay rebuilt
        self.recovered: Optional[dict[str, int]] = None
        #: completions that arrived for already-done scenarios
        self.duplicates = 0
        self.leases_issued = 0
        self.leases_expired = 0
        #: scenarios completed through the farm (store-cached ones excluded)
        self.scenarios_completed = 0
        self._started = clock()
        #: recent completion stamps backing the snapshot's rate window
        self._completions: deque[float] = deque(maxlen=_RATE_SAMPLES)

    # -- crash recovery ------------------------------------------------------

    @classmethod
    def recover(
        cls,
        store: ResultStore,
        lease_scenarios: int = DEFAULT_LEASE_SCENARIOS,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> "Coordinator":
        """Rebuild a coordinator from a store's journal + reports table.

        Replays the ``farm_journal`` records a crashed (or cleanly
        stopped) coordinator left behind: jobs are re-created from their
        journaled specs, done-ness is re-derived from the reports table
        (a report under the cache key *is* the completion record, no
        matter who wrote it or when), attempt counters and quarantines
        are restored, and leases that were outstanding at the crash
        resume with the wall-clock deadline time they had left — zero
        remaining means the next :meth:`lease` call requeues them. A
        worker holding a resumed lease can keep heartbeating and
        complete as if nothing happened; every other worker gets
        :class:`UnknownWorker` (HTTP 404) on its next call and simply
        re-registers.

        Works on an empty journal too (an empty coordinator), so a
        service can call this unconditionally at startup.
        """
        from repro.service.jobs import Job

        # the journal is the replay's input: keep it until the
        # compaction below replaces it with the rebuilt live state
        coordinator = cls.__new__(cls)
        coordinator._init_state(
            store, lease_scenarios, lease_timeout, clock, wall, compact_every
        )
        job_specs: list[dict[str, Any]] = []
        grants: dict[str, dict[str, Any]] = {}
        attempts: dict[str, dict[int, int]] = {}
        quarantined: dict[str, dict[int, str]] = {}
        max_worker = 0
        max_lease = 0
        for _seq, kind, payload in store.journal_records():
            data = json.loads(payload)
            if kind == "job":
                job_specs.append(data)
            elif kind == "grant":
                grants[data["lease"]] = data
                max_worker = max(max_worker, _id_number(data["worker"]))
                max_lease = max(max_lease, _id_number(data["lease"]))
            elif kind == "beat":
                grant = grants.get(data["lease"])
                if grant is not None:
                    grant["expires"] = data["expires"]
            elif kind == "release":
                grant = grants.pop(data["lease"], None)
                if grant is not None and data.get("requeue") and data.get("error"):
                    per_job = attempts.setdefault(grant["job"], {})
                    for index in grant["indexes"]:
                        per_job[index] = per_job.get(index, 0) + 1
            elif kind == "quarantine":
                quarantined.setdefault(data["job"], {})[
                    int(data["index"])
                ] = data["error"]
            elif kind == "attempts":
                per_job = attempts.setdefault(data["job"], {})
                for index, count in data["attempts"].items():
                    per_job[int(index)] = max(per_job.get(int(index), 0), count)

        now = clock()
        wall_now = wall()
        # the dead process's own workers died with it: their leases'
        # scenarios go straight back to the queue
        grants = {
            lease_id: grant
            for lease_id, grant in grants.items()
            if not grant.get("local")
        }
        leased: dict[str, set[int]] = {}
        for grant in grants.values():
            leased.setdefault(grant["job"], set()).update(grant["indexes"])
        for spec in job_specs:
            job = Job(
                spec["id"],
                [Scenario.from_dict(data) for data in spec["scenarios"]],
            )
            job.submitted_at = spec.get("submitted_at", job.submitted_at)
            state = _JobState(job)
            per_job = attempts.get(job.id, {})
            for index, count in per_job.items():
                if 0 <= index < job.total:
                    state.attempts[index] = count
            for index, error in quarantined.get(job.id, {}).items():
                if 0 <= index < job.total:
                    state.quarantined[index] = error
                    job.quarantined[job.cache_keys[index]] = error
            out = leased.get(job.id, set())
            for index, key in enumerate(job.cache_keys):
                if key in store:
                    state.done[index] = True
                    job.completed += 1
                    continue
                coordinator._key_map.setdefault(key, []).append((job.id, index))
                if index not in state.quarantined and index not in out:
                    state.pending.append(index)
            coordinator._jobs[job.id] = state
            if state.pending:
                coordinator._ready[job.id] = None
            with coordinator._lock:  # _maybe_finish notifies waiters
                coordinator._maybe_finish(state)
            if job.status == "queued" and (job.completed or out or per_job):
                job.status = "running"
                job.started_at = job.started_at or time.time()
        for lease_id, grant in grants.items():
            state = coordinator._jobs.get(grant["job"])
            if state is None:  # pragma: no cover - grants follow their job
                continue
            indexes = [
                index for index in grant["indexes"] if not state.done[index]
            ]
            if not indexes:
                continue
            lease = Lease(
                lease_id,
                grant["worker"],
                grant["job"],
                indexes,
                [state.job.cache_keys[index] for index in indexes],
                now,
                now + (grant["expires"] - wall_now),
            )
            coordinator._leases[lease_id] = lease
            # the holder may still be alive: recreate its registration so
            # its heartbeats and completion land instead of 404ing
            if lease.worker_id not in coordinator._workers:
                coordinator._workers[lease.worker_id] = _WorkerState(
                    lease.worker_id, lease.worker_id, now
                )
        coordinator._worker_ids = itertools.count(max_worker + 1)
        coordinator._lease_ids = itertools.count(max_lease + 1)
        coordinator.recovered = {
            "jobs": len(coordinator._jobs),
            "leases": len(coordinator._leases),
            "pending_scenarios": sum(
                len(state.pending) for state in coordinator._jobs.values()
            ),
        }
        with coordinator._lock:
            coordinator._compact()
        return coordinator

    def jobs(self) -> list["Job"]:
        """The coordinator's jobs in intake order (for adoption by a
        :class:`~repro.service.jobs.JobManager`)."""
        with self._lock:
            return [state.job for state in self._jobs.values()]

    # -- job intake ---------------------------------------------------------

    def add_job(self, job: "Job") -> None:
        """Queue a job's scenarios for leasing.

        Scenarios whose cache key is already stored complete instantly —
        the farm never re-executes content the store already holds.
        """
        with self._lock:
            state = _JobState(job)
            self._jobs[job.id] = state
            for index, key in enumerate(job.cache_keys):
                if key in self.store:
                    state.done[index] = True
                    job.completed += 1
                else:
                    state.pending.append(index)
                    self._key_map.setdefault(key, []).append((job.id, index))
            if state.pending:
                self._ready[job.id] = None
            self._maybe_finish(state)
            self._append(
                "job",
                {
                    "id": job.id,
                    "scenarios": [
                        scenario.to_dict() for scenario in job.scenarios
                    ],
                    "submitted_at": job.submitted_at,
                },
            )
            if state.pending:
                self._work.notify_all()

    def wait_for_work(self, timeout: float) -> None:
        """Block until a scenario is queued or requeued, at most
        ``timeout`` seconds (how an idle in-process worker waits)."""
        with self._work:
            if not self._ready:
                self._work.wait(timeout)

    def wait_finished(self, job: "Job", timeout: float) -> bool:
        """Block until ``job`` reaches a terminal status, at most
        ``timeout`` seconds; returns whether it has."""
        with self._finished:
            return self._finished.wait_for(
                lambda: job.status not in ("queued", "running"), timeout
            )

    # -- worker lifecycle ---------------------------------------------------

    def register(self, name: str = "", local: bool = False) -> dict[str, Any]:
        """Register a worker; returns its id and the lease protocol knobs.

        ``local`` marks a worker in the coordinator's own process: its
        leases are journaled as such, and :meth:`recover` requeues them
        at once instead of waiting out their deadline.
        """
        with self._lock:
            worker_id = f"w-{next(self._worker_ids):04d}"
            self._workers[worker_id] = _WorkerState(
                worker_id, name or worker_id, self._clock(), local
            )
        return {
            "worker": worker_id,
            "lease_scenarios": self.lease_scenarios,
            "lease_timeout_s": self.lease_timeout,
            "heartbeat_s": self.lease_timeout / 3.0,
        }

    def lease(
        self, worker_id: str, max_scenarios: Optional[int] = None
    ) -> Optional[dict[str, Any]]:
        """Check out the next chunk of scenarios (None when queue is idle).

        Jobs take turns: the chunk comes from the first ready job, which
        then moves behind every other ready job.
        """
        limit = self.lease_scenarios if max_scenarios is None else max_scenarios
        if limit < 1:
            raise ValueError(f"max_scenarios must be >= 1, got {limit}")
        now = self._clock()
        with self._lock:
            worker = self._touch(worker_id, now)
            self._expire(now)
            while self._ready:
                job_id = next(iter(self._ready))
                del self._ready[job_id]
                state = self._jobs[job_id]
                if state.job.status == "failed":
                    continue
                indexes = self._pop_pending(state, limit)
                if not indexes:
                    continue
                if state.pending:
                    self._ready[job_id] = None
                job = state.job
                if job.status == "queued":
                    job.status = "running"
                    job.started_at = time.time()
                lease = Lease(
                    f"lease-{next(self._lease_ids):06d}",
                    worker.id,
                    job.id,
                    indexes,
                    [job.cache_keys[i] for i in indexes],
                    now,
                    now + self.lease_timeout,
                )
                self._leases[lease.id] = lease
                self.leases_issued += 1
                if _METRICS.enabled:
                    _M_LEASES_GRANTED.inc()
                self._append(
                    "grant",
                    {
                        "lease": lease.id,
                        "worker": worker.id,
                        "local": worker.local,
                        "job": job.id,
                        "indexes": indexes,
                        "expires": self._wall() + self.lease_timeout,
                    },
                )
                return {
                    "id": lease.id,
                    "worker": worker.id,
                    "job": job.id,
                    "scenarios": [
                        job.scenarios[i].to_dict() for i in indexes
                    ],
                    "deadline_s": self.lease_timeout,
                    "heartbeat_s": self.lease_timeout / 3.0,
                    "trace": trace_id_for_keys(lease.keys),
                }
            return None

    def heartbeat(self, lease_id: str, worker_id: str) -> dict[str, Any]:
        """Extend a lease's deadline; raises :class:`UnknownLease` when gone."""
        now = self._clock()
        with self._lock:
            self._touch(worker_id, now)
            self._expire(now)
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLease(
                    f"lease {lease_id!r} is not outstanding (expired, or the "
                    "coordinator restarted)"
                )
            lease.deadline = now + self.lease_timeout
            self._append(
                "beat",
                {"lease": lease.id, "expires": self._wall() + self.lease_timeout},
            )
            return {"id": lease.id, "deadline_s": self.lease_timeout}

    def complete(
        self,
        lease_id: str,
        worker_id: str,
        reports: Sequence[RunReport],
        executed: int = 0,
        cached: int = 0,
    ) -> dict[str, Any]:
        """Absorb a lease's finished reports and advance job progress.

        Reports from a lease that already expired are still absorbed
        (``late: true`` in the response) — the bytes are correct under
        their content address; only the accounting differs. A live
        lease completed with only part of its reports (a worker that
        stopped at a scenario boundary) returns the rest to the queue
        front without counting an attempt, as an expiry would.
        """
        now = self._clock()
        # durability order matters: the reports land in the store BEFORE
        # the lease is released in the journal, so a crash between the
        # two recovers a lease whose scenarios are already done — marked
        # complete at replay — never a released lease with lost work
        stored = self.store.put_many(
            [report for report in reports if report.cache_key]
        )
        with self._lock:
            worker = self._touch(worker_id, now)
            self._expire(now)
            lease = self._leases.pop(lease_id, None)
            fresh, duplicates = self._mark_done(
                [report.cache_key for report in reports]
            )
            requeued = 0
            if lease is not None:
                requeued = self._requeue(lease)
                self._append(
                    "release",
                    {"lease": lease.id, "requeue": bool(requeued), "error": ""},
                )
                worker.leases_completed += 1
            worker.executed += int(executed)
            worker.cached += int(cached)
            return {
                "stored": stored,
                "completed": fresh,
                "duplicates": duplicates,
                "requeued": requeued,
                "late": lease is None,
            }

    def fail(
        self, lease_id: str, worker_id: str, message: str
    ) -> dict[str, Any]:
        """A worker reports a lease it could not finish; requeue its work.

        Each scenario gets :data:`MAX_ATTEMPTS` failed tries across all
        workers; one that keeps failing is quarantined (the job finishes
        ``partial`` with a per-scenario error map) instead of looping
        forever or sinking its whole job.
        """
        now = self._clock()
        with self._lock:
            self._touch(worker_id, now)
            self._expire(now)
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                raise UnknownLease(
                    f"lease {lease_id!r} is not outstanding (expired, or the "
                    "coordinator restarted)"
                )
            self._append(
                "release",
                {"lease": lease.id, "requeue": True, "error": str(message)},
            )
            requeued = self._requeue(lease, error=str(message))
            return {"requeued": requeued}

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The farm's state (what ``GET /workers`` serves)."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            leases_by_worker: dict[str, int] = {}
            for lease in self._leases.values():
                leases_by_worker[lease.worker_id] = (
                    leases_by_worker.get(lease.worker_id, 0) + 1
                )
            pending = sum(
                1
                for state in self._jobs.values()
                for index in state.pending
                if not state.done[index]
            )
            quarantined = [
                {
                    "job": state.job.id,
                    "key": state.job.cache_keys[index],
                    "error": error,
                }
                for state in self._jobs.values()
                for index, error in sorted(state.quarantined.items())
            ]
            recent = sum(
                1 for stamp in self._completions
                if now - stamp <= _RATE_WINDOW_S
            )
            window = min(_RATE_WINDOW_S, max(now - self._started, 1e-9))
            return {
                "workers": [
                    {
                        "id": worker.id,
                        "name": worker.name,
                        "idle_s": round(now - worker.last_seen, 3),
                        "active_leases": leases_by_worker.get(worker.id, 0),
                        "leases_completed": worker.leases_completed,
                        "leases_lost": worker.leases_lost,
                        "executed": worker.executed,
                        "cached": worker.cached,
                    }
                    for worker in self._workers.values()
                ],
                "rates": {
                    "window_s": _RATE_WINDOW_S,
                    "recent_completions": recent,
                    "scenarios_per_s": round(recent / window, 4),
                    "uptime_s": round(now - self._started, 3),
                },
                "queue": {
                    "pending_scenarios": pending,
                    "outstanding_leases": len(self._leases),
                    "leases_issued": self.leases_issued,
                    "leases_expired": self.leases_expired,
                    "scenarios_completed": self.scenarios_completed,
                    "duplicates": self.duplicates,
                    "quarantined_scenarios": len(quarantined),
                },
                "quarantined": quarantined,
                "recovered": self.recovered,
                "journal_records": self.store.journal_size(),
                "lease_timeout_s": self.lease_timeout,
                "lease_scenarios": self.lease_scenarios,
            }

    def idle(self) -> bool:
        """True when no scenario is pending or leased."""
        with self._lock:
            self._expire(self._clock())
            if self._leases:
                return False
            return all(
                state.done[index]
                for state in self._jobs.values()
                for index in state.pending
            )

    # -- internals (call with the lock held) --------------------------------

    def _append(self, kind: str, payload: dict[str, Any]) -> None:
        """Journal one record under the coordinator lock.

        The mutation it describes is applied *first*, then the record is
        appended, and only then does the lock release — so no caller is
        ever acknowledged a transition the journal doesn't hold, and a
        compaction triggered by this very append (which snapshots live
        state, replacing history) can never drop the transition.
        """
        self.store.journal_append([(kind, json.dumps(payload, sort_keys=True))])
        self._appends_since_compact += 1
        if self._appends_since_compact >= self.compact_every:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the journal as a snapshot of live state.

        One ``job`` record per job, finished or not, one
        ``attempts``/``quarantine`` record where those are non-trivial,
        one ``grant`` per outstanding lease (with its *current*
        wall-clock deadline) — lease history collapses, however many
        lease cycles a long job goes through.
        """
        now = self._clock()
        wall_now = self._wall()
        records: list[tuple[str, str]] = []

        def record(kind: str, payload: dict[str, Any]) -> None:
            records.append((kind, json.dumps(payload, sort_keys=True)))

        for state in self._jobs.values():
            job = state.job
            record(
                "job",
                {
                    "id": job.id,
                    "scenarios": [
                        scenario.to_dict() for scenario in job.scenarios
                    ],
                    "submitted_at": job.submitted_at,
                },
            )
            live_attempts = {
                str(index): count
                for index, count in enumerate(state.attempts)
                if count
            }
            if live_attempts:
                record("attempts", {"job": job.id, "attempts": live_attempts})
            for index, error in sorted(state.quarantined.items()):
                record(
                    "quarantine",
                    {
                        "job": job.id,
                        "index": index,
                        "key": job.cache_keys[index],
                        "error": error,
                    },
                )
        for lease in self._leases.values():
            record(
                "grant",
                {
                    "lease": lease.id,
                    "worker": lease.worker_id,
                    "local": self._workers[lease.worker_id].local,
                    "job": lease.job_id,
                    "indexes": list(lease.indexes),
                    "expires": wall_now + (lease.deadline - now),
                },
            )
        self.store.journal_replace(records)
        self._appends_since_compact = 0

    def _touch(self, worker_id: str, now: float) -> _WorkerState:
        worker = self._workers.get(worker_id)
        if worker is None:
            raise UnknownWorker(
                f"worker {worker_id!r} is not registered (the coordinator "
                "may have restarted; register again)"
            )
        worker.last_seen = now
        return worker

    def _pop_pending(self, state: _JobState, limit: int) -> list[int]:
        """Up to ``limit`` not-yet-done indexes off the job's queue."""
        indexes: list[int] = []
        while state.pending and len(indexes) < limit:
            index = state.pending.popleft()
            if not state.done[index] and index not in state.quarantined:
                indexes.append(index)
        return indexes

    def _mark_done(self, keys: Sequence[str]) -> tuple[int, int]:
        """Mark scenarios done by cache key; returns (fresh, duplicate)."""
        fresh = 0
        duplicates = 0
        for key in keys:
            for job_id, index in self._key_map.get(key, ()):
                state = self._jobs.get(job_id)
                if state is None:
                    continue
                if state.done[index]:
                    duplicates += 1
                    continue
                state.done[index] = True
                # a late success beats an earlier quarantine: the report
                # is in the store, so the scenario is simply done
                state.quarantined.pop(index, None)
                state.job.quarantined.pop(key, None)
                fresh += 1
                state.job.completed += 1
                self._maybe_finish(state)
        self.scenarios_completed += fresh
        self.duplicates += duplicates
        if fresh:
            now = self._clock()
            self._completions.extend([now] * fresh)
        if _METRICS.enabled:
            if fresh:
                _M_SCENARIOS_COMPLETED.inc(fresh)
            if duplicates:
                _M_DUPLICATES.inc(duplicates)
        return fresh, duplicates

    def _maybe_finish(self, state: _JobState) -> None:
        """Move a job to its terminal status once every scenario is
        done or quarantined: ``done`` (clean), ``partial`` (some
        quarantined), ``failed`` (nothing completed at all)."""
        job = state.job
        if job.status in ("done", "partial", "failed"):
            return
        if job.completed + len(state.quarantined) < job.total:
            return
        if not state.quarantined:
            job.status = "done"
        elif job.completed:
            job.status = "partial"
        else:
            job.status = "failed"
        if state.quarantined:
            job.error = (
                f"{len(state.quarantined)} scenario(s) quarantined after "
                f"{MAX_ATTEMPTS} failed attempts each; see 'quarantined'"
            )
        job.started_at = job.started_at or time.time()
        job.finished_at = time.time()
        self._finished.notify_all()

    def _requeue(self, lease: Lease, error: str = "") -> int:
        """Return a dead lease's unfinished scenarios to the queue front.

        ``error`` non-empty means the worker *reported* a failure: those
        count toward :data:`MAX_ATTEMPTS` and can quarantine a scenario.
        A plain expiry (``error=""``) requeues without prejudice — lost
        leases are the coordinator's fault model, not the scenario's.
        """
        state = self._jobs.get(lease.job_id)
        if state is None:  # pragma: no cover - jobs are never deleted
            return 0
        requeued = 0
        for index in reversed(lease.indexes):
            if state.done[index] or index in state.quarantined:
                continue
            if error:
                state.attempts[index] += 1
                if state.attempts[index] >= MAX_ATTEMPTS:
                    self._quarantine(state, index, error)
                    continue
            state.pending.appendleft(index)
            requeued += 1
        if requeued:
            self._ready[state.job.id] = None
            self._work.notify_all()
            if _METRICS.enabled:
                _M_SCENARIOS_REQUEUED.inc(requeued)
        self._maybe_finish(state)
        return requeued

    def _quarantine(self, state: _JobState, index: int, error: str) -> None:
        job = state.job
        key = job.cache_keys[index]
        state.quarantined[index] = error
        job.quarantined[key] = error
        if _METRICS.enabled:
            _M_SCENARIOS_QUARANTINED.inc()
        self._append(
            "quarantine",
            {"job": job.id, "index": index, "key": key, "error": error},
        )

    def _expire(self, now: float) -> None:
        """Requeue every lease whose deadline has lapsed."""
        for lease_id in [
            lease_id
            for lease_id, lease in self._leases.items()
            if lease.deadline < now
        ]:
            lease = self._leases.pop(lease_id)
            self._append(
                "release", {"lease": lease.id, "requeue": True, "error": ""}
            )
            self._requeue(lease)
            self.leases_expired += 1
            if _METRICS.enabled:
                _M_LEASES_EXPIRED.inc()
            worker = self._workers.get(lease.worker_id)
            if worker is not None:
                worker.leases_lost += 1


def _id_number(identifier: str) -> int:
    """The numeric tail of a ``w-0007`` / ``lease-000042`` id (0 if odd)."""
    try:
        return int(identifier.rsplit("-", 1)[-1])
    except (ValueError, IndexError):
        return 0


def read_quarantined(store: ResultStore) -> list[dict[str, Any]]:
    """Quarantined scenarios recorded in a store's farm journal.

    Reads the durable record (no live coordinator needed), which is what
    lets ``repro store PATH --stats`` report poison scenarios after the
    farm is gone. Each entry: ``{"job", "key", "error"}``.
    """
    seen: dict[tuple[str, str], dict[str, Any]] = {}
    for _seq, kind, payload in store.journal_records():
        if kind != "quarantine":
            continue
        data = json.loads(payload)
        entry = {"job": data["job"], "key": data["key"], "error": data["error"]}
        seen[(data["job"], data["key"])] = entry
    return list(seen.values())
