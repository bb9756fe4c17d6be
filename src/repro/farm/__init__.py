"""The distributed sweep farm: coordinator, leased workers, fault recovery.

One ``repro serve`` process coordinates: its job queue is a
:class:`Coordinator`. Its own ``--workers N`` threads and any number of
``repro worker --connect URL`` processes (on any host that can reach
it) pull chunked scenario leases, execute them through the unified
runner, and push canonical report bytes back into the shared
content-addressed store. The paper's own robustness theme applies to
the farm itself: progress must survive silently failing participants,
so leases carry heartbeat-extended deadlines and an expired lease's
scenarios return to the queue — a killed worker costs at most one chunk
of redone work, and content-addressed accounting makes re-delivered
results duplicates, not corruption. A farmed sweep's stored bytes are
identical to a serial :func:`repro.runner.run_batch` of the same grid,
which :mod:`repro.farm.smoke` proves while killing a worker mid-sweep.

The coordinator is held to the same standard as the workers: every
state transition is write-ahead journaled into the store's
``farm_journal`` table, and :meth:`Coordinator.recover` rebuilds the
exact queue/lease/progress state after a coordinator crash — in-flight
leases resume their remaining deadlines, jobs keep their ids, and the
chaos harness (:mod:`repro.chaos`) proves a sweep survives a
coordinator SIGKILL plus injected network faults byte-identically.

The pieces:

* :mod:`repro.farm.coordinator` — :class:`Coordinator`: the journaled
  scenario queue (chunking, deadlines, expiry requeue, quarantine,
  crash recovery, accounting);
* :mod:`repro.farm.worker` — :class:`FarmWorker`: the pull-execute-push
  loop behind ``repro worker`` and the service's own workers (over a
  :class:`LocalClient`), resilient to coordinator restarts;
* :mod:`repro.farm.smoke` — the kill-a-worker end-to-end check
  (``python -m repro.farm.smoke``) CI runs.
"""

from repro.farm.coordinator import (
    Coordinator,
    Lease,
    UnknownLease,
    UnknownWorker,
    read_quarantined,
)
from repro.farm.worker import FarmWorker, LocalClient, run_worker

__all__ = [
    "Coordinator",
    "FarmWorker",
    "Lease",
    "LocalClient",
    "UnknownLease",
    "UnknownWorker",
    "read_quarantined",
    "run_worker",
]
