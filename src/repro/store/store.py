"""Content-addressed store for canonical run reports, over SQLite shards.

One row per scenario cache key (:meth:`Scenario.cache_key
<repro.runner.scenario.Scenario.cache_key>`): the canonical report JSON
plus denormalized query columns (algorithm, topology, adversary, fault
model, seed, size, outcome). Because the runner's determinism contract
makes the canonical report a pure function of the scenario, the key is a
valid content address — two writers can only ever race to insert the
same bytes, so concurrent ``put_many`` from multiple processes needs
nothing beyond SQLite's own locking.

A store is a list of SQLite shards with one schema:

* a file path (or ``":memory:"``) is one shard at that path;
* a directory — existing, or requested with ``shards > 1`` — holds
  ``shard-NN.db`` files. Writes route by :func:`shard_index` of the
  cache key, so shards never contend on one file's write lock; ordered
  reads run the same query on every shard and lazily merge the sorted
  streams, so queries, pagination and exports are byte-identical to a
  single file. Because cache keys are content addresses, routing is also
  a *placement* function: any process that knows the shard count knows
  where a report lives without asking anyone.

A one-shard store neither routes nor merges. Timeline sidecars route
with their report; the farm journal is coordinator state, not
content-addressed data, so it never routes and lives on shard 0.

The store is safe to share across the service's handler and worker
threads and across processes (each process opens its own
:class:`ResultStore` on the same path).
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
import sqlite3
import threading
import time
import zlib
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.runner.report import RunReport
from repro.telemetry.metrics import METRICS as _METRICS
from repro.timeline.artifact import Timeline, timeline_key

__all__ = [
    "ResultStore",
    "StoreRow",
    "ORDERABLE_COLUMNS",
    "STORE_SCHEMA_VERSION",
    "shard_index",
]

#: bump on incompatible table changes; opening a mismatched store raises
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS reports (
    cache_key      TEXT PRIMARY KEY,
    algorithm      TEXT NOT NULL,
    topology       TEXT NOT NULL,
    adversary      TEXT NOT NULL,
    fault_model    TEXT NOT NULL,
    fault_p        REAL NOT NULL,
    seed           INTEGER NOT NULL,
    network_n      INTEGER NOT NULL,
    success        INTEGER NOT NULL,
    rounds         INTEGER NOT NULL,
    wall_time_s    REAL NOT NULL,
    canonical_json TEXT NOT NULL,
    created_at     REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_reports_algorithm ON reports (algorithm);
CREATE INDEX IF NOT EXISTS idx_reports_topology  ON reports (topology);
CREATE INDEX IF NOT EXISTS idx_reports_adversary ON reports (adversary);
CREATE INDEX IF NOT EXISTS idx_reports_seed      ON reports (seed);
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS farm_journal (
    seq     INTEGER PRIMARY KEY,
    kind    TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS timelines (
    cache_key      TEXT PRIMARY KEY,
    timeline_key   TEXT NOT NULL,
    canonical_json TEXT NOT NULL,
    created_at     REAL NOT NULL
);
"""

_SHARD_PATTERN = re.compile(r"^shard-(\d{2,})\.db$")

_M_PUT_SECONDS = _METRICS.histogram(
    "repro_store_put_seconds", "put_many backend-insert latency"
)
_M_PUT_ROWS = _METRICS.counter(
    "repro_store_put_rows_total", "rows actually written by put_many"
)
_M_PUT_OFFERED = _METRICS.counter(
    "repro_store_put_offered_total", "reports offered to put_many"
)
_M_QUERY_SECONDS = _METRICS.histogram(
    "repro_store_query_seconds", "query() latency including row decode"
)
_M_QUERIES = _METRICS.counter("repro_store_queries_total", "query() calls")
_M_GETS = _METRICS.counter("repro_store_gets_total", "get() lookups")
_M_GET_HITS = _METRICS.counter("repro_store_get_hits_total", "get() hits")

#: deterministic result order for query()/export_json()
_DEFAULT_ORDER = ("algorithm", "topology", "network_n", "seed", "cache_key")

#: columns query(order_by=...) accepts; every ordering is made total by a
#: trailing cache_key tiebreak
ORDERABLE_COLUMNS = (
    "algorithm",
    "topology",
    "adversary",
    "fault_model",
    "fault_p",
    "seed",
    "network_n",
    "success",
    "rounds",
    "wall_time_s",
    "created_at",
    "cache_key",
)


def shard_index(cache_key: str, shards: int) -> int:
    """Which shard a cache key routes to (stable across processes).

    CRC32 over the key text rather than ``int(key[:8], 16)`` so the
    routing works for any key string, not just hex digests.
    """
    return zlib.crc32(cache_key.encode("utf-8")) % shards


class StoreRow(NamedTuple):
    """One denormalized store row, as streamed by :meth:`ResultStore.iter_rows`.

    These are the indexed query columns only — no canonical JSON, no
    parsing — which is what lets streaming aggregation touch hundreds of
    thousands of rows per second.
    """

    cache_key: str
    algorithm: str
    topology: str
    adversary: str
    fault_model: str
    fault_p: float
    seed: int
    network_n: int
    success: bool
    rounds: int
    wall_time_s: float


class _SidecarTimeline(Mapping):
    """A stored timeline sidecar attached to a cache hit, decoded on first
    read.

    It holds the sidecar's canonical JSON text. The first key lookup,
    iteration, comparison or ``repr`` runs ``json.loads`` once and keeps
    the dict, so a hit whose caller never reads ``report.timeline`` (a
    resumed sweep, a replay compared by canonical bytes) never parses it.
    Read-only like any ``Mapping``, and equal to the plain dict a fresh
    run attaches, in either direction.
    """

    __slots__ = ("_text", "_data")

    def __init__(self, text: str) -> None:
        self._text = text
        self._data: Optional[dict] = None

    def _decoded(self) -> dict:
        if self._data is None:
            self._data = json.loads(self._text)
        return self._data

    def __getitem__(self, key: str) -> Any:
        return self._decoded()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self._decoded())

    def __repr__(self) -> str:
        return repr(self._decoded())


class _Shard:
    """One SQLite file of a store: its connection, lock and statements.

    ``where`` strings and ``values`` use SQLite ``?`` placeholders;
    ``order`` is a sequence of ascending column names, which is what
    lets :class:`ResultStore` merge sorted shard streams lazily instead
    of parsing SQL.
    """

    def __init__(
        self, path: str, timeout: float, shard_count: Optional[int] = None
    ) -> None:
        self.path = path
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            path, timeout=timeout, check_same_thread=False
        )
        try:
            with self._lock, self._connection as connection:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
                connection.executescript(_SCHEMA)
                row = connection.execute(
                    "SELECT value FROM store_meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is None:
                    connection.execute(
                        "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(STORE_SCHEMA_VERSION)),
                    )
                elif int(row[0]) != STORE_SCHEMA_VERSION:
                    raise ValueError(
                        f"store {path!r} has schema version {row[0]}, "
                        f"this library writes version {STORE_SCHEMA_VERSION}"
                    )
                if shard_count is not None:
                    # a directory's shard count, checked on every reopen
                    connection.execute(
                        "INSERT OR IGNORE INTO store_meta (key, value) "
                        "VALUES ('shard_count', ?)",
                        (str(shard_count),),
                    )
        except Exception:
            self._connection.close()
            raise

    def _one(self, sql: str, values: Sequence[Any] = ()) -> Optional[tuple]:
        with self._lock:
            return self._connection.execute(sql, values).fetchone()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # -- reports ------------------------------------------------------------

    def insert(self, rows: Sequence[tuple], replace: bool) -> int:
        """Insert report rows (schema column order); returns rows written.

        Every offered row also counts toward ``puts_attempted``:
        ``attempted - stored`` is how many duplicate puts the content
        addressing absorbed.
        """
        conflict = "REPLACE" if replace else "IGNORE"
        placeholders = ", ".join("?" * len(rows[0]))
        with self._lock, self._connection as connection:
            before = connection.total_changes
            connection.executemany(
                f"INSERT OR {conflict} INTO reports VALUES ({placeholders})",
                rows,
            )
            written = connection.total_changes - before
            connection.execute(
                "INSERT INTO store_meta (key, value) VALUES ('puts_attempted', ?) "
                "ON CONFLICT(key) DO UPDATE SET value = "
                "CAST(CAST(value AS INTEGER) + CAST(excluded.value AS INTEGER) "
                "AS TEXT)",
                (str(len(rows)),),
            )
            return written

    def fetch(self, cache_key: str, columns: Sequence[str]) -> Optional[tuple]:
        return self._one(
            f"SELECT {', '.join(columns)} FROM reports WHERE cache_key = ?",
            (cache_key,),
        )

    def fetch_hit(self, cache_key: str) -> Optional[tuple]:
        """A report's canonical JSON, wall time and timeline sidecar text
        (None without one), in one statement."""
        return self._one(
            "SELECT reports.canonical_json, reports.wall_time_s, "
            "timelines.canonical_json FROM reports LEFT JOIN timelines "
            "ON timelines.cache_key = reports.cache_key "
            "WHERE reports.cache_key = ?",
            (cache_key,),
        )

    def select(
        self,
        columns: Sequence[str],
        where: str,
        values: Sequence[Any],
        order: Sequence[str],
        limit: Optional[int] = None,
        offset: Optional[int] = None,
        batch_size: int = 4096,
    ) -> Iterator[tuple]:
        """Stream rows of ``columns`` sorted ascending by ``order``."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        sql = (
            f"SELECT {', '.join(columns)} FROM reports {where} "
            f"ORDER BY {', '.join(order)}"
        )
        values = list(values)
        if limit is not None:
            sql += " LIMIT ?"
            values.append(int(limit))
        elif offset is not None:
            # SQLite requires a LIMIT clause before OFFSET; -1 = unbounded
            sql += " LIMIT -1"
        if offset is not None:
            sql += " OFFSET ?"
            values.append(int(offset))
        with self._lock:
            cursor = self._connection.execute(sql, values)
        try:
            while True:
                with self._lock:
                    batch = cursor.fetchmany(batch_size)
                if not batch:
                    return
                yield from batch
        finally:
            cursor.close()

    def count(self, where: str, values: Sequence[Any]) -> int:
        return self._one(f"SELECT COUNT(*) FROM reports {where}", values)[0]

    def group_counts(self, column: str) -> list[tuple[str, int]]:
        with self._lock:
            return self._connection.execute(
                f"SELECT {column}, COUNT(*) FROM reports GROUP BY {column}"
            ).fetchall()

    def wall_time_sum(self) -> float:
        return self._one("SELECT COALESCE(SUM(wall_time_s), 0.0) FROM reports")[0]

    def attempted(self) -> int:
        row = self._one(
            "SELECT value FROM store_meta WHERE key = 'puts_attempted'"
        )
        return 0 if row is None else int(row[0])

    # -- timeline sidecars --------------------------------------------------

    def timeline_put(self, rows: Sequence[tuple[str, str, str, float]]) -> None:
        with self._lock, self._connection as connection:
            connection.executemany(
                "INSERT OR IGNORE INTO timelines "
                "(cache_key, timeline_key, canonical_json, created_at) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )

    def timeline_fetch(self, cache_key: str) -> Optional[tuple[str]]:
        return self._one(
            "SELECT canonical_json FROM timelines WHERE cache_key = ?",
            (cache_key,),
        )

    def timeline_count(self) -> int:
        return self._one("SELECT COUNT(*) FROM timelines")[0]

    # -- the farm journal ---------------------------------------------------

    def journal_append(self, records: Sequence[tuple[str, str]]) -> None:
        if not records:
            return
        with self._lock, self._connection as connection:
            connection.executemany(
                "INSERT INTO farm_journal (kind, payload) VALUES (?, ?)",
                records,
            )

    def journal_records(self) -> list[tuple[int, str, str]]:
        with self._lock:
            return self._connection.execute(
                "SELECT seq, kind, payload FROM farm_journal ORDER BY seq"
            ).fetchall()

    def journal_replace(self, records: Sequence[tuple[str, str]]) -> None:
        with self._lock, self._connection as connection:
            connection.execute("DELETE FROM farm_journal")
            connection.executemany(
                "INSERT INTO farm_journal (kind, payload) VALUES (?, ?)",
                records,
            )

    def journal_size(self) -> int:
        return self._one("SELECT COUNT(*) FROM farm_journal")[0]


def _recorded_shard_count(path: Path) -> Optional[int]:
    """The shard count one shard file records, if any (creates no file)."""
    connection = sqlite3.connect(f"{path.resolve().as_uri()}?mode=rw", uri=True)
    try:
        row = connection.execute(
            "SELECT value FROM store_meta WHERE key = 'shard_count'"
        ).fetchone()
    except sqlite3.OperationalError as error:
        if "no such table" not in str(error):
            raise
        row = None  # an empty file: its first open stopped before the schema
    finally:
        connection.close()
    return None if row is None else int(row[0])


def _shard_paths(path: str, shards: Optional[int]) -> tuple[list[str], str]:
    """The shard files of the store at ``path``, and its layout's name.

    A directory — existing, or requested with ``shards > 1`` — holds
    ``shard-NN.db`` files, each recording the directory's shard count.
    An existing directory's count is the larger of the recorded count
    and the one its file numbers imply (a directory that predates the
    record has only the latter), and must match ``shards`` when both are
    given: the routing function is part of the store's identity, so a
    count mismatch is a hard error, never a silent re-route. So is a
    missing shard file, before anything is created. Anything else,
    ``":memory:"`` included, is one file.
    """
    directory = Path(path)
    if not directory.is_dir() and (shards is None or int(shards) == 1):
        return [path], "sqlite"
    existing = {
        int(match.group(1)): entry
        for entry in (directory.iterdir() if directory.is_dir() else ())
        if (match := _SHARD_PATTERN.match(entry.name))
    }
    if existing:
        recorded = {_recorded_shard_count(entry) for entry in existing.values()}
        count = max((recorded - {None}) | {max(existing) + 1})
        missing = sorted(set(range(count)) - set(existing))
        if missing:
            raise ValueError(
                f"store {path!r} is missing shard files "
                f"{', '.join(f'shard-{index:02d}.db' for index in missing)} "
                f"of its {count}"
            )
        if shards is not None and int(shards) != count:
            raise ValueError(
                f"store {path!r} has {count} shards, "
                f"but shards={shards} was requested"
            )
        shards = count
    elif shards is None:
        raise ValueError(
            f"{path!r} is not a sharded store and no shard count was given"
        )
    if int(shards) < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    directory.mkdir(parents=True, exist_ok=True)
    return [
        str(directory / f"shard-{index:02d}.db") for index in range(int(shards))
    ], "sharded-sqlite"


class ResultStore:
    """A content-addressed result store over one or more SQLite shards.

    Parameters
    ----------
    path:
        Database file (created on first open), or a shard directory.
        ``":memory:"`` works for single-process, single-store use.
    timeout:
        SQLite busy timeout in seconds — how long a writer waits on a
        concurrent writer's transaction before giving up.
    shards:
        ``> 1`` creates (or opens) a sharded store at ``path``; ``None``
        auto-detects (a directory opens sharded, a file single).
    """

    def __init__(
        self,
        path: str,
        timeout: float = 30.0,
        shards: Optional[int] = None,
    ) -> None:
        self.path = str(path)
        paths, self._layout = _shard_paths(self.path, shards)
        count = len(paths) if self._layout == "sharded-sqlite" else None
        self._shards: list[_Shard] = []
        try:
            for shard_path in paths:
                self._shards.append(_Shard(shard_path, timeout, count))
        except Exception:
            self.close()
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- writes -------------------------------------------------------------

    def put(self, report: RunReport, replace: bool = False) -> int:
        """Store one report under its cache key; see :meth:`put_many`."""
        return self.put_many([report], replace=replace)

    def put_many(
        self, reports: Iterable[RunReport], replace: bool = False
    ) -> int:
        """Batch-insert reports, one transaction per shard; returns rows
        written.

        Every report must carry a non-empty ``cache_key``, as every
        report of :func:`repro.runner.run` does; a hand-built report, or
        one loaded from JSON that predates the store, has none. Existing
        keys are left untouched — the stored bytes are already the
        canonical answer — unless ``replace`` is true.

        Reports carrying a flight-recorder payload (``report.timeline``)
        also write a timeline sidecar under the same cache key; sidecars
        are content-addressed like reports, so a duplicate offer is one
        ignored insert. The payload is validated through
        :meth:`Timeline.from_dict` (farm workers' reports are outside
        input) and rendered once: its ``timeline_key`` is the SHA-256 of
        the stored text.
        """
        now = time.time()
        rows = []
        timeline_rows = []
        for report in reports:
            if not report.cache_key:
                raise ValueError(
                    "report has no cache_key (only reports of repro.run "
                    "are content-addressed; hand-built ones are not)"
                )
            scenario = report.scenario
            faults = scenario.get("faults", {})
            adversary = scenario.get("adversary")
            rows.append(
                (
                    report.cache_key,
                    report.algorithm,
                    str(scenario.get("topology", "")),
                    adversary["kind"] if adversary else "",
                    str(faults.get("model", "none")),
                    float(faults.get("p", 0.0)),
                    int(scenario.get("seed", 0)),
                    report.network_n,
                    int(report.success),
                    report.rounds,
                    report.wall_time_s,
                    report.to_json(canonical=True),
                    now,
                )
            )
            if report.timeline is not None:
                text = Timeline.from_dict(report.timeline).to_json()
                timeline_rows.append(
                    (report.cache_key, timeline_key(text), text, now)
                )
        if not rows:
            return 0
        start = time.perf_counter()
        written = sum(
            shard.insert(part, replace) for shard, part in self._partition(rows)
        )
        if timeline_rows:
            for shard, part in self._partition(timeline_rows):
                shard.timeline_put(part)
        if _METRICS.enabled:
            _M_PUT_OFFERED.inc(len(rows))
            _M_PUT_SECONDS.observe(time.perf_counter() - start)
            if written:
                _M_PUT_ROWS.inc(written)
        return written

    # -- reads --------------------------------------------------------------

    def get(self, cache_key: str) -> Optional[RunReport]:
        """The stored report for ``cache_key`` (None when absent).

        The returned report renders byte-identically to the run that was
        stored: ``report.to_json(canonical=True)`` equals the stored
        canonical JSON exactly. ``wall_time_s`` is the original run's
        (timing is outside the canonical form). A stored timeline
        sidecar is re-attached as ``report.timeline``, so a cache hit
        returns what the original run produced. The sidecar arrives as
        its canonical text in a read-only ``Mapping`` that is decoded
        on first read, so a hit whose timeline is never read never
        parses it.
        """
        row = self._shard(cache_key).fetch_hit(cache_key)
        if _METRICS.enabled:
            _M_GETS.inc()
            if row is not None:
                _M_GET_HITS.inc()
        if row is None:
            return None
        return self._report_from_row(*row)

    def get_json(self, cache_key: str) -> Optional[str]:
        """The stored canonical JSON text itself (None when absent)."""
        row = self._shard(cache_key).fetch(cache_key, ("canonical_json",))
        return None if row is None else row[0]

    # -- timeline sidecars ---------------------------------------------------
    #
    # Flight-recorder payloads (repro.timeline) ride next to the reports
    # table, keyed by the same scenario cache key — a sidecar, not a row
    # column, because timelines are orders of magnitude larger than the
    # canonical report and most stored runs never record one. The table
    # is created via ``IF NOT EXISTS``, so pre-timeline stores gain it on
    # open without a schema-version bump.

    def get_timeline(self, cache_key: str) -> Optional[Timeline]:
        """The flight-recorder sidecar stored for a report's cache key."""
        text = self.get_timeline_json(cache_key)
        return None if text is None else Timeline.from_json(text)

    def get_timeline_json(self, cache_key: str) -> Optional[str]:
        """The stored canonical timeline JSON itself (None when absent).

        These are the exact bytes ``GET /timelines/<key>`` serves.
        """
        sidecar = self._shard(cache_key).timeline_fetch(cache_key)
        return None if sidecar is None else sidecar[0]

    def timeline_count(self) -> int:
        """How many reports carry a timeline sidecar."""
        return sum(shard.timeline_count() for shard in self._shards)

    def __contains__(self, cache_key: str) -> bool:
        return self._shard(cache_key).fetch(cache_key, ("1",)) is not None

    def __len__(self) -> int:
        return sum(shard.count("", ()) for shard in self._shards)

    def keys(self) -> list[str]:
        """Every stored cache key, in deterministic (sorted) order."""
        return [
            row[0] for row in self._select(("cache_key",), "", [], ("cache_key",))
        ]

    def query(
        self,
        algorithm: Optional[str] = None,
        topology: Optional[str] = None,
        adversary: Optional[str] = None,
        fault_model: Optional[str] = None,
        seed_min: Optional[int] = None,
        seed_max: Optional[int] = None,
        success: Optional[bool] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
        order_by: Optional[str] = None,
    ) -> list[RunReport]:
        """Reports matching every given filter, in deterministic order.

        ``adversary`` filters on the adversary kind; pass ``"none"`` (or
        ``""``) to match runs without one. ``seed_min``/``seed_max`` are
        an inclusive range. ``None`` filters are inactive.

        ``order_by`` names one of :data:`ORDERABLE_COLUMNS` (default: the
        canonical algorithm/topology/n/seed order); every ordering gets a
        ``cache_key`` tiebreak, so it is total and ``limit``/``offset``
        paginate without duplicating or dropping rows between pages. A
        negative ``limit`` or ``offset`` is a ``ValueError``.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        if offset is not None and offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        where, values = self._where(
            algorithm, topology, adversary, fault_model,
            seed_min, seed_max, success,
        )
        start = time.perf_counter() if _METRICS.enabled else 0.0
        reports = [
            self._report_from_row(text, wall)
            for text, wall in self._select(
                ("canonical_json", "wall_time_s"),
                where,
                values,
                self._order(order_by),
                limit=limit,
                offset=offset,
            )
        ]
        if _METRICS.enabled:
            _M_QUERIES.inc()
            _M_QUERY_SECONDS.observe(time.perf_counter() - start)
        return reports

    def count(
        self,
        algorithm: Optional[str] = None,
        topology: Optional[str] = None,
        adversary: Optional[str] = None,
        fault_model: Optional[str] = None,
        seed_min: Optional[int] = None,
        seed_max: Optional[int] = None,
        success: Optional[bool] = None,
    ) -> int:
        """How many reports match the filters (see :meth:`query`)."""
        where, values = self._where(
            algorithm, topology, adversary, fault_model,
            seed_min, seed_max, success,
        )
        return sum(shard.count(where, values) for shard in self._shards)

    def stats(self) -> dict[str, Any]:
        """A summary of the store: totals and per-dimension breakdowns.

        Beyond the per-dimension counts, ``backend``/``shards`` describe
        the layout (``sqlite`` for a file, ``sharded-sqlite`` for a shard
        directory) and ``puts_attempted``/``dedup_ratio`` how much
        duplicate work the content addressing absorbed (farmed sweeps
        re-offering already-stored keys cost one ignored insert, not a
        recompute).
        """
        total = len(self)
        breakdown = {}
        for column in ("algorithm", "topology", "adversary"):
            counts: dict[str, int] = {}
            for shard in self._shards:
                for name, count in shard.group_counts(column):
                    counts[name] = counts.get(name, 0) + count
            breakdown[column] = {
                name or "none": count for name, count in sorted(counts.items())
            }
        attempted = sum(shard.attempted() for shard in self._shards)
        return {
            "path": self.path,
            "schema_version": STORE_SCHEMA_VERSION,
            "backend": self._layout,
            "shards": len(self._shards),
            "reports": total,
            "by_algorithm": breakdown["algorithm"],
            "by_topology": breakdown["topology"],
            "by_adversary": breakdown["adversary"],
            "stored_wall_time_s": sum(
                shard.wall_time_sum() for shard in self._shards
            ),
            "timelines": self.timeline_count(),
            "puts_attempted": attempted,
            "dedup_ratio": (
                round(1.0 - total / attempted, 4) if attempted else 0.0
            ),
            "journal_records": self.journal_size(),
        }

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard row counts and put-attempt counters (one entry for
        single-file stores)."""
        return [
            {
                "shard": index,
                "path": shard.path,
                "reports": shard.count("", ()),
                "attempted": shard.attempted(),
            }
            for index, shard in enumerate(self._shards)
        ]

    # -- the farm journal ----------------------------------------------------
    #
    # The farm coordinator's durable state rides in the store (a small
    # ``farm_journal`` table on shard 0; one journal per store, even
    # sharded, so there is a single total order to replay) so a
    # coordinator crash orphans nothing: :meth:`repro.farm.Coordinator
    # .recover` rebuilds the queue from these records plus the reports
    # table. The record formats belong to :mod:`repro.farm.coordinator`.

    def journal_append(self, records: list[tuple[str, str]]) -> None:
        """Append ``(kind, payload)`` journal records in one transaction."""
        self._shards[0].journal_append(records)

    def journal_records(self) -> list[tuple[int, str, str]]:
        """Every journal record as ``(seq, kind, payload)``, in seq order."""
        return self._shards[0].journal_records()

    def journal_replace(self, records: list[tuple[str, str]]) -> None:
        """Atomically replace the whole journal (compaction)."""
        self._shards[0].journal_replace(records)

    def journal_size(self) -> int:
        """How many records the journal holds (bounded by compaction)."""
        return self._shards[0].journal_size()

    # -- streaming ----------------------------------------------------------

    def iter_rows(
        self, batch_size: int = 4096, **filters: Any
    ) -> Iterator[StoreRow]:
        """Stream denormalized :class:`StoreRow` tuples, never the JSON.

        Rows come back in the same deterministic order as :meth:`query`
        (honoring ``order_by``) but are fetched ``batch_size`` at a time
        from one cursor per shard, so aggregating a million-row store
        holds one batch per shard in memory — this is the fast path
        streaming aggregation is built on.
        """
        order_by = filters.pop("order_by", None)
        where, values = self._where_from_filters(filters)
        for row in self._select(
            StoreRow._fields,
            where,
            values,
            self._order(order_by),
            batch_size=batch_size,
        ):
            yield StoreRow(*row[:8], bool(row[8]), row[9], row[10])

    def iter_reports(
        self, batch_size: int = 512, **filters: Any
    ) -> Iterator[RunReport]:
        """Stream full :class:`RunReport` records in :meth:`query` order.

        Like :meth:`query` but chunked: only ``batch_size`` canonical
        JSON blobs are resident at a time, which keeps exports of large
        stores flat in memory.
        """
        order_by = filters.pop("order_by", None)
        where, values = self._where_from_filters(filters)
        for text, wall in self._select(
            ("canonical_json", "wall_time_s"),
            where,
            values,
            self._order(order_by),
            batch_size=batch_size,
        ):
            yield self._report_from_row(text, wall)

    # -- export -------------------------------------------------------------

    def export_json(self, path: str, batch_size: int = 512, **filters: Any) -> int:
        """Write matching reports (see :meth:`query`) as a JSON array.

        The array holds full report dicts (timing included), the same
        shape ``repro sweep --format json`` emits; returns the number of
        reports written. Reports are streamed ``batch_size`` at a time
        (:meth:`iter_reports`), so exporting never materializes the whole
        store; the bytes are identical to a one-shot ``json.dump`` of the
        full list.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for report in self.iter_reports(batch_size=batch_size, **filters):
                handle.write("[\n" if written == 0 else ",\n")
                text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
                handle.write(
                    "\n".join("  " + line for line in text.splitlines())
                )
                written += 1
            handle.write("[]\n" if written == 0 else "\n]\n")
        return written

    # -- internals ----------------------------------------------------------

    def _shard(self, cache_key: str) -> _Shard:
        """The shard ``cache_key`` routes to."""
        shards = self._shards
        if len(shards) == 1:
            return shards[0]
        return shards[shard_index(cache_key, len(shards))]

    def _partition(self, rows: list[tuple]) -> list[tuple[_Shard, list[tuple]]]:
        """Rows (cache key first) grouped by the shard each routes to, as
        ``(shard, rows)`` pairs in shard order."""
        shards = self._shards
        if len(shards) == 1:
            return [(shards[0], rows)]
        by_shard: dict[int, list[tuple]] = {}
        for row in rows:
            by_shard.setdefault(shard_index(row[0], len(shards)), []).append(row)
        return [(shards[index], part) for index, part in sorted(by_shard.items())]

    def _select(
        self,
        columns: Sequence[str],
        where: str,
        values: Sequence[Any],
        order: Sequence[str],
        limit: Optional[int] = None,
        offset: Optional[int] = None,
        batch_size: int = 4096,
    ) -> Iterator[tuple]:
        """Stream rows of ``columns`` sorted ascending by ``order``.

        Each shard streams the order columns ahead of ``columns`` in the
        same sort, and a lazy heap merge reproduces a single file's
        global order exactly: every ordering the store issues ends with
        the unique cache_key, so the merge is total.
        """
        if len(self._shards) == 1:
            return self._shards[0].select(
                columns, where, values, order, limit, offset, batch_size
            )
        width = len(order)
        first = offset or 0
        # no shard needs more than offset + limit rows to cover a page
        stop = None if limit is None else first + limit
        merged = heapq.merge(
            *(
                shard.select(
                    tuple(order) + tuple(columns),
                    where,
                    values,
                    order,
                    limit=stop,
                    batch_size=batch_size,
                )
                for shard in self._shards
            ),
            key=lambda row: row[:width],
        )
        return (row[width:] for row in itertools.islice(merged, first, stop))

    @staticmethod
    def _order(order_by: Optional[str]) -> tuple[str, ...]:
        if order_by is None:
            return _DEFAULT_ORDER
        if order_by not in ORDERABLE_COLUMNS:
            raise ValueError(
                f"unknown order_by column {order_by!r}; "
                f"allowed: {', '.join(ORDERABLE_COLUMNS)}"
            )
        if order_by == "cache_key":
            return ("cache_key",)
        return (order_by, "cache_key")

    def _where_from_filters(self, filters: dict[str, Any]) -> tuple[str, list[Any]]:
        unknown = set(filters) - {
            "algorithm", "topology", "adversary", "fault_model",
            "seed_min", "seed_max", "success",
        }
        if unknown:
            raise TypeError(f"unknown filters {sorted(unknown)}")
        return self._where(
            filters.get("algorithm"),
            filters.get("topology"),
            filters.get("adversary"),
            filters.get("fault_model"),
            filters.get("seed_min"),
            filters.get("seed_max"),
            filters.get("success"),
        )

    @staticmethod
    def _report_from_row(
        canonical_json: str,
        wall_time_s: float,
        timeline_json: Optional[str] = None,
    ) -> RunReport:
        """One stored row as a report, built once: the canonical body,
        the original run's wall time and, when given, the undecoded
        timeline sidecar."""
        data = json.loads(canonical_json)
        data["wall_time_s"] = wall_time_s
        if timeline_json is not None:
            data["timeline"] = _SidecarTimeline(timeline_json)
        return RunReport.from_dict(data)

    @staticmethod
    def _where(
        algorithm: Optional[str],
        topology: Optional[str],
        adversary: Optional[str],
        fault_model: Optional[str],
        seed_min: Optional[int],
        seed_max: Optional[int],
        success: Optional[bool],
    ) -> tuple[str, list[Any]]:
        clauses: list[str] = []
        values: list[Any] = []
        for column, value in (
            ("algorithm", algorithm),
            ("topology", topology),
            ("fault_model", fault_model),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                values.append(value)
        if adversary is not None:
            clauses.append("adversary = ?")
            values.append("" if adversary == "none" else adversary)
        if seed_min is not None:
            clauses.append("seed >= ?")
            values.append(int(seed_min))
        if seed_max is not None:
            clauses.append("seed <= ?")
            values.append(int(seed_max))
        if success is not None:
            clauses.append("success = ?")
            values.append(int(bool(success)))
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, values
