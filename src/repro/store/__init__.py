"""Content-addressed result store: never compute the same scenario twice.

:class:`ResultStore` keeps canonical :class:`~repro.runner.RunReport`
records in a SQLite file, keyed by :meth:`Scenario.cache_key
<repro.runner.scenario.Scenario.cache_key>` — the SHA-256 content
address of the canonical scenario dict plus the code/schema version.
The runner's determinism contract (same scenario, byte-identical
canonical report) is what makes the cache correct by construction:
a hit returns exactly the bytes a fresh run would produce.

Thread it through the runner (``run_batch(..., store=store)``), the CLI
(``repro sweep --store PATH --resume``), or the serving layer
(:mod:`repro.service`)::

    from repro import Scenario, run_batch
    from repro.store import ResultStore

    with ResultStore("results.db") as store:
        reports = run_batch(scenarios, processes=4, store=store)
        # interrupted? run it again — finished scenarios are cache hits
        reports = run_batch(scenarios, processes=4, store=store)
        decay = store.query(algorithm="decay", topology="path")
"""

from repro.store.store import (
    ORDERABLE_COLUMNS,
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreRow,
    shard_index,
)

__all__ = [
    "ResultStore",
    "StoreRow",
    "ORDERABLE_COLUMNS",
    "STORE_SCHEMA_VERSION",
    "shard_index",
]
