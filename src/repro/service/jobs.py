"""Job queue and background workers for the serving layer.

A :class:`Job` is a submitted batch of scenarios; a :class:`JobManager`
owns a queue of them and a pool of worker threads that execute each job
in chunks through :func:`repro.runner.run_batch` — with the result store
threaded through, so every chunk lands in SQLite as it finishes, cache
hits skip execution, and a job that repeats stored work completes in
milliseconds. Each chunk may itself fan out across the existing
``multiprocessing`` pool (``processes``), so the service composes thread
-level job concurrency with process-level scenario parallelism.

Two job kinds exist: ``batch`` (a fixed scenario list) and ``adaptive``
(an :func:`repro.analysis.design.adaptive_sweep` specification — the
worker decides how many seeds each grid cell needs as it goes, and the
finished job's snapshot carries the canonical
:class:`~repro.analysis.AnalysisReport` under ``result``).

With a farm :class:`~repro.farm.Coordinator` attached (``repro serve
--workers remote``), the manager keeps the same submission/inspection
API but executes nothing itself: batch jobs are handed to the
coordinator's lease queue and remote worker processes drain them.

Shutdown drains instead of dropping: in-flight jobs stop at their next
chunk boundary and are marked ``cancelled`` (with queued jobs), so no
job is ever left reading ``running`` forever after the service stops.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.runner import Scenario, run_batch
from repro.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - import cycle at type time only
    from repro.farm import Coordinator

__all__ = ["Job", "JobManager", "coerce_grid"]


class _Cancelled(Exception):
    """Internal: the service is shutting down; stop at the chunk boundary."""


def coerce_grid(grid: Mapping[str, Any]) -> dict[str, list]:
    """JSON grid axes -> runner grid axes (configs arrive as dicts).

    Shared by the HTTP layer (batch jobs) and adaptive submission, so
    the two paths can never drift on which axes take config objects.
    Raises ValueError on malformed axes.
    """
    from repro.core.faults import AdversaryConfig, FaultConfig

    coerced: dict[str, list] = {}
    for key, values in dict(grid).items():
        if not isinstance(values, list):
            raise ValueError(f"grid axis {key!r} must be a list")
        if key == "adversary":
            coerced[key] = [
                AdversaryConfig.from_dict(v) if isinstance(v, dict) else v
                for v in values
            ]
        elif key == "faults":
            coerced[key] = [
                FaultConfig.from_dict(v) if isinstance(v, dict) else v
                for v in values
            ]
        else:
            coerced[key] = values
    return coerced

#: scenarios per run_batch call — the progress-reporting granularity
DEFAULT_CHUNK_SIZE = 8


class Job:
    """One submitted batch of scenarios and its execution state.

    ``status`` walks ``queued -> running -> done`` (or ``failed``;
    farmed jobs can also finish ``partial``, meaning some scenarios were
    quarantined after repeated failures — see ``quarantined`` for the
    per-scenario error map); ``completed``/``total`` is the progress
    counter the status endpoint reports; ``cache_keys`` are the content
    addresses of every scenario in submission order, known at submit
    time — clients can fetch reports by key the moment the job finishes
    (or earlier, for keys that were already stored).
    """

    def __init__(
        self,
        job_id: str,
        scenarios: Sequence[Scenario],
        kind: str = "batch",
        spec: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.spec = dict(spec or {})
        self.scenarios = list(scenarios)
        self.cache_keys = [
            scenario.cache_key() for scenario in self.scenarios
        ]
        self.status = "queued"
        self.completed = 0
        self.total = len(self.scenarios)
        #: cache key -> error, for scenarios the farm quarantined
        self.quarantined: dict[str, str] = {}
        self.error = ""
        self.result: Optional[dict[str, Any]] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe view of the job (what ``GET /jobs/<id>`` returns).

        For adaptive jobs ``total`` is the seed-budget upper bound (cells
        x max_seeds), ``completed`` counts runs resolved so far, and
        ``result`` is the finished analysis report dict (None until
        done).
        """
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "completed": self.completed,
            "total": self.total,
            "cache_keys": list(self.cache_keys),
            "quarantined": dict(self.quarantined),
            "error": self.error,
            "result": self.result,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobManager:
    """A queue of jobs drained by ``workers`` background threads.

    Parameters
    ----------
    store:
        The shared result store every job writes to (and reuses from).
    workers:
        Concurrent jobs; each worker thread runs one job at a time.
    processes:
        Per-chunk ``run_batch`` process fan-out (None/1: in-thread).
    chunk_size:
        Scenarios per ``run_batch`` call; smaller chunks mean finer
        progress reporting and more frequent store commits.
    coordinator:
        A farm :class:`~repro.farm.Coordinator`. When given, no local
        worker threads start — submitted batches go to the lease queue
        and remote ``repro worker`` processes execute them. A
        coordinator built by :meth:`~repro.farm.Coordinator.recover`
        already carries jobs replayed from the journal; the manager
        adopts them under their original ids, so clients polling
        ``GET /jobs/<id>`` across a coordinator restart keep working.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        processes: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        coordinator: "Optional[Coordinator]" = None,
    ) -> None:
        if workers < 1 and coordinator is None:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.store = store
        self.processes = processes
        self.chunk_size = chunk_size
        self.coordinator = coordinator
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(0 if coordinator is not None else workers)
        ]
        for thread in self._threads:
            thread.start()
        if coordinator is not None:
            self._adopt(coordinator.jobs())

    def _adopt(self, jobs: Sequence[Job]) -> None:
        """Adopt journal-recovered jobs under their original ids and
        advance the id counter past them (no id is ever reissued)."""
        highest = 0
        with self._lock:
            for job in jobs:
                self._jobs[job.id] = job
                tail = job.id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    highest = max(highest, int(tail))
            if highest:
                self._counter = itertools.count(highest + 1)

    # -- submission and inspection ------------------------------------------

    def submit(self, scenarios: Sequence[Scenario]) -> Job:
        """Enqueue a batch of scenarios."""
        if self._stop.is_set():
            raise RuntimeError("the job manager is shut down")
        batch = list(scenarios)
        if not batch:
            raise ValueError("cannot submit an empty batch")
        with self._lock:
            job = Job(f"job-{next(self._counter):04d}", batch)
            self._jobs[job.id] = job
        if self.coordinator is not None:
            self.coordinator.add_job(job)
        else:
            self._queue.put(job.id)
        return job

    def submit_adaptive(self, spec: Mapping[str, Any]) -> Job:
        """Enqueue an adaptive sweep (see ``adaptive_sweep`` for keys).

        ``spec`` must hold a ``base`` scenario dict and may
        hold ``grid``, ``target_halfwidth``, ``max_seeds``, ``batch``,
        ``metric``, ``confidence``, ``resamples``, ``seed``,
        ``seed_start``. Every knob is validated here (fail at submit
        time with a clear error, not later in a worker poll).
        """
        from repro.analysis.aggregate import METRICS

        if self._stop.is_set():
            raise RuntimeError("the job manager is shut down")
        if self.coordinator is not None:
            raise ValueError(
                "adaptive jobs need local workers; this service farms "
                "batches to remote workers (serve without --workers remote)"
            )
        spec = dict(spec)
        base = Scenario.from_dict(spec.get("base", {}))
        grid = coerce_grid(spec.get("grid") or {})
        max_seeds = int(spec.get("max_seeds", 64))
        batch_size = int(spec.get("batch", 4))
        if batch_size < 1 or max_seeds < batch_size:
            raise ValueError(
                f"need 1 <= batch <= max_seeds, got batch={batch_size} "
                f"max_seeds={max_seeds}"
            )
        if float(spec.get("target_halfwidth", 1.0)) <= 0.0:
            raise ValueError(
                f"target_halfwidth must be > 0, got {spec['target_halfwidth']}"
            )
        if int(spec.get("resamples", 1000)) < 1:
            raise ValueError(f"resamples must be >= 1, got {spec['resamples']}")
        metric = str(spec.get("metric", "rounds"))
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; allowed: {METRICS}")
        confidence = float(spec.get("confidence", 0.95))
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        from repro.runner import expand_grid

        cells = expand_grid(base, seeds=[0], grid=grid)
        if not cells:
            raise ValueError("the adaptive grid expands to zero cells")
        with self._lock:
            job = Job(
                f"job-{next(self._counter):04d}",
                cells,
                kind="adaptive",
                spec={**spec, "grid": grid, "max_seeds": max_seeds,
                      "batch": batch_size},
            )
            # for adaptive jobs the total is the seed-budget upper bound
            job.total = len(cells) * max_seeds
            self._jobs[job.id] = job
        self._queue.put(job.id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        with self._lock:
            return list(self._jobs.values())

    # -- execution ----------------------------------------------------------

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            job = self.get(job_id)
            if job is None:  # pragma: no cover - jobs are never deleted
                continue
            self._execute(job)
            self._queue.task_done()

    def _execute(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()
        try:
            if job.kind == "adaptive":
                self._execute_adaptive(job)
            else:
                self._execute_batch(job)
            job.status = "done"
        except _Cancelled:
            # shutdown drained this job at a chunk boundary: completed
            # chunks are in the store (a resubmission is a cache replay),
            # and the terminal status is visible instead of a forever
            # "running"
            job.status = "cancelled"
            job.error = "service shut down before the job finished"
        except Exception as error:  # noqa: BLE001 - report, don't kill worker
            job.status = "failed"
            job.error = f"{type(error).__name__}: {error}"
        finally:
            job.finished_at = time.time()

    def _execute_batch(self, job: Job) -> None:
        for start in range(0, job.total, self.chunk_size):
            if self._stop.is_set():
                raise _Cancelled()
            chunk = job.scenarios[start : start + self.chunk_size]
            run_batch(chunk, processes=self.processes, store=self.store)
            job.completed = min(start + len(chunk), job.total)

    def _execute_adaptive(self, job: Job) -> None:
        from repro.analysis.design import adaptive_sweep

        spec = job.spec

        def on_progress(done: int, _bound: int) -> None:
            if self._stop.is_set():
                raise _Cancelled()
            job.completed = min(done, job.total)

        report = adaptive_sweep(
            Scenario.from_dict(spec["base"]),
            grid=spec.get("grid") or {},
            target_halfwidth=float(spec.get("target_halfwidth", 1.0)),
            max_seeds=int(spec["max_seeds"]),
            batch=int(spec["batch"]),
            metric=str(spec.get("metric", "rounds")),
            confidence=float(spec.get("confidence", 0.95)),
            resamples=int(spec.get("resamples", 1000)),
            seed=int(spec.get("seed", 0)),
            seed_start=int(spec.get("seed_start", 0)),
            store=self.store,
            processes=self.processes,
            progress=on_progress,
        )
        job.result = report.to_dict()
        job.completed = job.total

    def shutdown(self, timeout: float = 5.0) -> None:
        """Drain and stop: no job is left looking ``queued``/``running``.

        In-flight jobs stop at their next chunk boundary and end up
        ``cancelled`` (their finished chunks are already in the store,
        so resubmitting one after a restart replays the done part from
        cache). Jobs still waiting in the queue are marked ``cancelled``
        without starting. Worker threads are joined — daemon teardown is
        the backstop, not the mechanism — and if one is still wedged
        after ``timeout`` its job is cancelled anyway so clients polling
        the snapshot always see a terminal status.
        """
        self._stop.set()
        while True:  # jobs the workers will never pick up
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                break
            job = self.get(job_id)
            if job is not None and job.status == "queued":
                self._cancel(job)
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._lock:
            stuck = [
                job
                for job in self._jobs.values()
                if job.status in ("queued", "running")
            ]
        for job in stuck:
            self._cancel(job)

    @staticmethod
    def _cancel(job: Job) -> None:
        job.status = "cancelled"
        job.error = job.error or "service shut down before the job finished"
        job.finished_at = job.finished_at or time.time()
