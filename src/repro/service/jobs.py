"""Job bookkeeping for the serving layer.

A :class:`Job` is a submitted batch of scenarios; a :class:`JobManager`
gives it an id and hands it to the service's one job queue, the
journaled farm :class:`~repro.farm.Coordinator`. The coordinator's
workers execute it: the service's own in-process threads and any remote
``repro worker`` processes, all leasing from the same queue. Every
report lands in the content-addressed :class:`~repro.store.ResultStore`,
scenarios already stored complete at submit time, and a job that
repeats stored work completes in milliseconds.

Two job kinds exist: ``batch`` (a fixed scenario list) and ``adaptive``
(an :func:`repro.analysis.design.adaptive_sweep` specification). An
adaptive job runs on a driver thread that decides how many seeds each
grid cell needs as it goes, submitting each seed batch as an ordinary
batch job and waiting for it; the finished job's snapshot carries the
canonical :class:`~repro.analysis.AnalysisReport` under ``result``.

Shutdown drains instead of dropping: every unfinished job is marked
``cancelled``, so no job is ever left reading ``running`` forever after
the service stops. A batch job's scenarios stay in the coordinator's
journal, so a ``--recover`` restart resumes it under its id.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.runner import RunReport, Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle at type time only
    from repro.farm import Coordinator

__all__ = ["Job", "JobManager", "coerce_grid"]

#: an adaptive driver's longest wait on its seed batch: the batch's end
#: wakes it at once, so this only bounds how long a shutdown takes to
#: reach it
_STOP_POLL_S = 0.1


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
    """Job ids, submission and inspection over a farm coordinator.

    Batch jobs go to ``coordinator``'s lease queue, and adaptive jobs
    run on driver threads that feed it seed batches; the manager owns
    no queue and executes nothing itself. Jobs the coordinator already
    holds — replayed from its journal by
    :meth:`~repro.farm.Coordinator.recover` — are adopted under their
    original ids, so clients polling ``GET /jobs/<id>`` across a
    restart keep working.
    """

    def __init__(self, coordinator: "Coordinator") -> None:
        self.coordinator = coordinator
        self.store = coordinator.store
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._stop = threading.Event()
        self._drivers: list[threading.Thread] = []
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
        """Queue a batch of scenarios on the coordinator."""
        if self._stop.is_set():
            raise RuntimeError("the job manager is shut down")
        batch = list(scenarios)
        if not batch:
            raise ValueError("cannot submit an empty batch")
        with self._lock:
            job = Job(f"job-{next(self._counter):04d}", batch)
            self._jobs[job.id] = job
        self.coordinator.add_job(job)
        return job

    def submit_adaptive(self, spec: Mapping[str, Any]) -> Job:
        """Start an adaptive sweep (see ``adaptive_sweep`` for keys).

        ``spec`` must hold a ``base`` scenario dict and may
        hold ``grid``, ``target_halfwidth``, ``max_seeds``, ``batch``,
        ``metric``, ``confidence``, ``resamples``, ``seed``,
        ``seed_start``. Every knob is validated here (fail at submit
        time with a clear error, not later in the driver).
        """
        from repro.analysis.aggregate import METRICS
        from repro.runner import expand_grid

        if self._stop.is_set():
            raise RuntimeError("the job manager is shut down")
        base = Scenario.from_dict(spec.get("base", {}))
        options = {
            "grid": coerce_grid(spec.get("grid") or {}),
            "target_halfwidth": float(spec.get("target_halfwidth", 1.0)),
            "max_seeds": int(spec.get("max_seeds", 64)),
            "batch": int(spec.get("batch", 4)),
            "metric": str(spec.get("metric", "rounds")),
            "confidence": float(spec.get("confidence", 0.95)),
            "resamples": int(spec.get("resamples", 1000)),
            "seed": int(spec.get("seed", 0)),
            "seed_start": int(spec.get("seed_start", 0)),
        }
        if not 1 <= options["batch"] <= options["max_seeds"]:
            raise ValueError(
                f"need 1 <= batch <= max_seeds, got batch={options['batch']} "
                f"max_seeds={options['max_seeds']}"
            )
        if options["target_halfwidth"] <= 0.0:
            raise ValueError(
                f"target_halfwidth must be > 0, got {options['target_halfwidth']}"
            )
        if options["resamples"] < 1:
            raise ValueError(f"resamples must be >= 1, got {options['resamples']}")
        if options["metric"] not in METRICS:
            raise ValueError(
                f"unknown metric {options['metric']!r}; allowed: {METRICS}"
            )
        if not 0.0 < options["confidence"] < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {options['confidence']}"
            )
        cells = expand_grid(base, seeds=[0], grid=options["grid"])
        if not cells:
            raise ValueError("the adaptive grid expands to zero cells")
        with self._lock:
            job = Job(
                f"job-{next(self._counter):04d}",
                cells,
                kind="adaptive",
                spec={"base": base, **options},
            )
            # for adaptive jobs the total is the seed-budget upper bound
            job.total = len(cells) * options["max_seeds"]
            self._jobs[job.id] = job
            driver = threading.Thread(
                target=self._drive, args=(job,),
                name=f"repro-adaptive-{job.id}", daemon=True,
            )
            self._drivers = [d for d in self._drivers if d.is_alive()]
            self._drivers.append(driver)
            driver.start()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        with self._lock:
            return list(self._jobs.values())

    # -- adaptive drivers ----------------------------------------------------

    def _run_seed_batch(
        self, job: Job, scenarios: list[Scenario]
    ) -> list[RunReport]:
        """Run one seed batch as a batch job and wait for its reports."""
        batch = self.submit(scenarios)
        while not self.coordinator.wait_finished(batch, _STOP_POLL_S):
            if self._stop.is_set():
                raise RuntimeError("the job manager is shut down")
        if batch.status != "done":
            raise RuntimeError(
                f"seed batch {batch.id} ended {batch.status}: {batch.error}"
            )
        job.completed = min(job.completed + len(scenarios), job.total)
        return [self.store.get(key) for key in batch.cache_keys]

    def _drive(self, job: Job) -> None:
        from repro.analysis.design import adaptive_sweep

        options = dict(job.spec)
        job.status = "running"
        job.started_at = time.time()
        try:
            report = adaptive_sweep(
                options.pop("base"),
                store=self.store,
                execute=lambda scenarios: self._run_seed_batch(job, scenarios),
                **options,
            )
            job.result = report.to_dict()
            job.completed = job.total
            job.status = "done"
        except Exception as error:  # noqa: BLE001 - report, don't kill the driver
            if self._stop.is_set():
                self._cancel(job)
            else:
                job.status = "failed"
                job.error = f"{type(error).__name__}: {error}"
        finally:
            job.finished_at = time.time()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Refuse new jobs and cancel every unfinished one.

        Called once the workers have stopped. An adaptive driver stops
        at its next look at its seed batch and is joined; if one is
        still wedged after ``timeout`` its job is cancelled anyway, so
        clients polling the snapshot always see a terminal status. A
        cancelled batch job's finished scenarios are in the store, and
        the journal still holds the job, so a ``--recover`` restart
        resumes it (and a resubmission replays the done part).
        """
        self._stop.set()
        for driver in self._drivers:
            driver.join(timeout=timeout)
        with self._lock:
            unfinished = [
                job
                for job in self._jobs.values()
                if job.status in ("queued", "running")
            ]
        for job in unfinished:
            self._cancel(job)

    @staticmethod
    def _cancel(job: Job) -> None:
        job.status = "cancelled"
        job.error = job.error or "service shut down before the job finished"
        job.finished_at = job.finished_at or time.time()
