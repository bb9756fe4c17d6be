"""The serving layer: run sweeps behind an HTTP API, answer from the store.

``repro serve --store results.db`` turns the simulator into a long-lived
service: clients submit scenario sweeps as JSON, every job becomes
chunked scenario leases in one journaled :mod:`repro.farm` coordinator,
workers execute them through the unified runner, every canonical report
lands in the content-addressed :class:`~repro.store.ResultStore`, and
repeat queries are answered with one SQLite read instead of a
recompute. The workers are the service's own ``--workers N`` threads
and any number of remote ``repro worker`` processes, all leasing from
the same queue — clients cannot tell which ran their sweep, and
``--recover`` resumes every unfinished job after a crash.

The pieces:

* :mod:`repro.service.jobs`   — :class:`JobManager`: job ids, adoption
  of recovered jobs, and the adaptive-sweep drivers;
* :mod:`repro.service.server` — :class:`ReproService`: the stdlib
  ``ThreadingHTTPServer`` JSON API (``/health``, ``/registry``,
  ``/jobs``, ``/reports``, and the farm's ``/workers``/``/leases``)
  behind a bounded handler thread pool;
* :mod:`repro.service.client` — :class:`ServiceClient`: a stdlib client
  for scripts, tests, workers, and the CI smoke; idempotent calls
  retry transport failures with bounded backoff and jitter;
* :mod:`repro.service.smoke`  — the end-to-end smoke
  (``python -m repro.service.smoke``) CI runs against a real
  ``repro serve`` subprocess.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager
from repro.service.server import ReproService, serve

__all__ = [
    "Job",
    "JobManager",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "serve",
]
