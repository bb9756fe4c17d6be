"""The HTTP serving layer: a stdlib JSON API over store and job queue.

``repro serve`` binds a :class:`ReproService` — a
``ThreadingHTTPServer`` whose handler threads answer reads straight from
the :class:`~repro.store.ResultStore` while submitted sweeps wait in the
journaled farm :class:`~repro.farm.Coordinator`, the one job queue.
``--workers N`` in-process :class:`~repro.farm.FarmWorker` threads lease
from it directly, and remote ``repro worker`` processes lease from it
over the endpoints below. Endpoints:

==========================  =================================================
``GET  /health``            liveness + store size
``GET  /registry``          machine-readable registry dump
                            (``?adversaries=1`` for adversaries only)
``POST /jobs``              submit scenarios: ``{"scenarios": [dict, ...]}``
                            or ``{"base": dict, "seeds": [...],
                            "grid": {...}}`` -> job snapshot + cache keys;
                            or an adaptive sweep: ``{"adaptive": {"base":
                            dict, "grid": {...}, "target_halfwidth": ...,
                            "max_seeds": ..., "batch": ...}}`` (the
                            finished snapshot carries the canonical
                            analysis report under ``result``)
``GET  /jobs``              all jobs, submission order
``GET  /jobs/<id>``         one job's status/progress
``GET  /reports/<key>``     the stored canonical report JSON, byte-exact
``GET  /reports?...``       query: algorithm, topology, adversary,
                            fault_model, seed_min, seed_max, success,
                            limit, offset, order_by (stable pagination:
                            every ordering is total)
``GET  /analysis?...``      server-side analysis over the store:
                            ``kind=aggregate`` (``by``, ``metric``,
                            ``percentiles``, ...) or ``kind=compare``
                            (arm filters as ``a_<field>``/``b_<field>``,
                            ``match_on``, ...) -> canonical
                            :class:`~repro.analysis.AnalysisReport` dict
``GET  /metrics``           the process metrics registry in Prometheus
                            text exposition format 0.0.4
``GET  /metrics.json``      the same registry as a JSON snapshot (what
                            ``repro top`` polls)
==========================  =================================================

The lease protocol, served to remote ``repro worker`` processes:

==============================  =============================================
``POST /workers``               register: ``{"name": ...}`` -> worker id
                                + lease knobs
``GET  /workers``               fleet + queue counters snapshot
``POST /leases``                ``{"worker": id, "max_scenarios": N?}``
                                -> ``{"lease": {...}}`` or
                                ``{"lease": null}`` when idle
``PUT  /leases/<id>/heartbeat`` extend the deadline (410 when expired)
``POST /leases/<id>/complete``  push finished reports (or ``{"error":
                                ...}`` to requeue the chunk)
==============================  =============================================

Every response is JSON. Errors use ``{"error": message}`` with a 4xx/5xx
status. The HTTP front end runs handler threads on a bounded pool, so
thousands of concurrent report fetches queue instead of spawning
thousands of threads.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from repro.introspect import registry_dump
from repro.runner import RunReport, Scenario, expand_grid
from repro.service.jobs import JobManager, coerce_grid
from repro.store import ResultStore
from repro.telemetry.metrics import METRICS as _METRICS
from repro.telemetry.tracing import TRACE_HEADER

__all__ = ["ReproService", "serve"]

#: handler threads in the pooled front end
DEFAULT_HTTP_THREADS = 32

#: Prometheus text exposition content type (``GET /metrics``)
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: first path segments counted as the ``route`` label; anything else is
#: bucketed as "other" so a scanner cannot explode label cardinality
_KNOWN_ROUTES = frozenset(
    {"health", "registry", "jobs", "reports", "timelines", "analysis",
     "workers", "leases", "metrics", "metrics.json"}
)

_M_HTTP_REQUESTS = _METRICS.counter(
    "repro_http_requests_total",
    "HTTP requests by method and top-level route",
    labelnames=("method", "route"),
)
_G_STORE_REPORTS = _METRICS.gauge(
    "repro_store_reports", "reports in the service's result store"
)
_G_PENDING = _METRICS.gauge(
    "repro_farm_pending_scenarios", "scenarios waiting in the farm queue"
)
_G_OUTSTANDING = _METRICS.gauge(
    "repro_farm_outstanding_leases", "leases currently checked out"
)
_G_WORKERS = _METRICS.gauge(
    "repro_farm_workers", "workers registered with the coordinator"
)

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: /reports query parameters forwarded to ResultStore.query
_QUERY_STRING_FILTERS = (
    "algorithm", "topology", "adversary", "fault_model", "order_by",
)
_QUERY_INT_FILTERS = ("seed_min", "seed_max", "limit", "offset")

#: /analysis store filters (subset of the /reports filters)
_ANALYSIS_STRING_FILTERS = ("algorithm", "topology", "adversary", "fault_model")
_ANALYSIS_INT_FILTERS = ("seed_min", "seed_max")


class _BadRequest(ValueError):
    """A client error that maps to HTTP 400."""


def _int_param(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _BadRequest(f"{name} must be an integer") from None


def _float_param(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _BadRequest(f"{name} must be a number") from None


def _arm_value(text: str) -> Any:
    """Arm filter values arrive as strings; give numerics their type."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _scenarios_from_payload(payload: Any) -> list[Scenario]:
    """The POST /jobs body -> a scenario batch (raises _BadRequest)."""
    if not isinstance(payload, dict):
        raise _BadRequest("body must be a JSON object")
    try:
        if "scenarios" in payload:
            dicts = payload["scenarios"]
            if not isinstance(dicts, list) or not dicts:
                raise _BadRequest("'scenarios' must be a non-empty list")
            return [Scenario.from_dict(data) for data in dicts]
        if "base" in payload:
            base = Scenario.from_dict(payload["base"])
            seeds = payload.get("seeds")
            grid = coerce_grid(dict(payload.get("grid") or {}))
            return expand_grid(base, seeds=seeds, grid=grid)
    except _BadRequest:
        raise
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else error
        raise _BadRequest(str(message)) from error
    raise _BadRequest("body must contain 'scenarios' or 'base'")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproService`."""

    protocol_version = "HTTP/1.1"
    server: "_Server"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.service.verbose:
            super().log_message(format, *args)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: Any,
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._send_bytes(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            extra_headers=extra_headers,
        )

    def _count_request(self, method: str, parts: list[str]) -> None:
        if not _METRICS.enabled:
            return
        route = parts[0] if parts else "/"
        if route not in _KNOWN_ROUTES and route != "/":
            route = "other"
        _M_HTTP_REQUESTS.inc_labels((method, route))

    def _error(self, status: int, message: str) -> None:
        # error paths may leave a request body unread; closing the
        # connection keeps a keep-alive client from parsing those bytes
        # as its next request
        self.close_connection = True
        self._send_json(status, {"error": message})

    def _read_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        # a negative length would read to EOF, holding the handler thread
        if length < 0:
            raise _BadRequest("Content-Length must be a non-negative integer")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(f"body too large ({length} bytes)")
        try:
            return json.loads(self.rfile.read(length) or b"null")
        except json.JSONDecodeError as error:
            raise _BadRequest(f"invalid JSON body: {error}") from error

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST", self._route_post)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PUT", self._route_put)

    def _dispatch(self, method: str, route) -> None:
        """Route one request, answering errors with their status; an
        exception never kills the handler thread."""
        from repro.farm import UnknownLease, UnknownWorker

        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        self._count_request(method, parts)
        try:
            route(url, parts)
        except _BadRequest as error:
            self._error(400, str(error))
        except UnknownWorker as error:
            self._error(404, str(error))
        except UnknownLease as error:
            self._error(410, str(error))
        except Exception as error:  # noqa: BLE001 - never kill the handler
            self._error(500, f"{type(error).__name__}: {error}")

    def _route_get(self, url, parts: list[str]) -> None:
        if parts == ["health"]:
            self._get_health()
        elif parts == ["metrics"]:
            self._get_metrics()
        elif parts == ["metrics.json"]:
            self._get_metrics_json()
        elif parts == ["registry"]:
            query = parse_qs(url.query)
            self._send_json(
                200, registry_dump(adversaries_only="adversaries" in query)
            )
        elif parts == ["jobs"]:
            service = self.server.service
            self._send_json(
                200, {"jobs": [j.snapshot() for j in service.jobs.jobs()]}
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            self._get_job(parts[1])
        elif parts == ["reports"]:
            self._get_reports_query(parse_qs(url.query))
        elif parts == ["analysis"]:
            self._get_analysis(parse_qs(url.query))
        elif parts == ["workers"]:
            self._send_json(200, self.server.service.coordinator.snapshot())
        elif len(parts) == 2 and parts[0] == "reports":
            self._get_report(parts[1])
        elif len(parts) == 2 and parts[0] == "timelines":
            self._get_timeline(parts[1])
        else:
            self._error(404, f"unknown path {url.path!r}")

    def _route_post(self, url, parts: list[str]) -> None:
        if parts == ["jobs"]:
            self._post_job()
        elif parts == ["workers"]:
            self._post_worker()
        elif parts == ["leases"]:
            self._post_lease()
        elif len(parts) == 3 and parts[0] == "leases" and parts[2] == "complete":
            self._post_complete(parts[1])
        else:
            self._error(404, f"unknown path {url.path!r}")

    def _route_put(self, url, parts: list[str]) -> None:
        if len(parts) == 3 and parts[0] == "leases" and parts[2] == "heartbeat":
            worker_id = self._worker_id(self._read_body() or {})
            coordinator = self.server.service.coordinator
            self._send_json(200, coordinator.heartbeat(parts[1], worker_id))
        else:
            self._error(404, f"unknown path {url.path!r}")

    # -- endpoints ----------------------------------------------------------

    def _get_health(self) -> None:
        service = self.server.service
        from repro._version import __version__

        self._send_json(
            200,
            {
                "status": "ok",
                "version": __version__,
                "store_path": service.store.path,
                "reports": len(service.store),
            },
        )

    def _refresh_scrape_gauges(self) -> None:
        """Point-in-time gauges sampled at scrape, not on the hot path."""
        service = self.server.service
        _G_STORE_REPORTS.set(len(service.store))
        snapshot = service.coordinator.snapshot()
        _G_PENDING.set(snapshot["queue"]["pending_scenarios"])
        _G_OUTSTANDING.set(snapshot["queue"]["outstanding_leases"])
        _G_WORKERS.set(len(snapshot["workers"]))

    def _get_metrics(self) -> None:
        self._refresh_scrape_gauges()
        self._send_bytes(
            200,
            _METRICS.prometheus_text().encode("utf-8"),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _get_metrics_json(self) -> None:
        self._refresh_scrape_gauges()
        self._send_json(
            200,
            {
                "enabled": _METRICS.enabled,
                "metrics": _METRICS.snapshot(),
            },
        )

    def _get_job(self, job_id: str) -> None:
        job = self.server.service.jobs.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
        else:
            self._send_json(200, job.snapshot())

    def _get_report(self, cache_key: str) -> None:
        # serve the stored canonical bytes verbatim: what the client gets
        # over the wire is exactly what a fresh run would render
        text = self.server.service.store.get_json(cache_key)
        if text is None:
            self._error(404, f"no report stored under {cache_key!r}")
        else:
            self._send_bytes(200, text.encode("utf-8"))

    def _get_timeline(self, cache_key: str) -> None:
        # timelines are sidecars keyed by the *report* cache key; the
        # stored canonical bytes are served verbatim, same as reports
        text = self.server.service.store.get_timeline_json(cache_key)
        if text is None:
            self._error(404, f"no timeline stored under {cache_key!r}")
        else:
            self._send_bytes(200, text.encode("utf-8"))

    def _get_reports_query(self, query: dict[str, list[str]]) -> None:
        filters: dict[str, Any] = {}
        for name in _QUERY_STRING_FILTERS:
            if name in query:
                filters[name] = query[name][0]
        for name in _QUERY_INT_FILTERS:
            if name in query:
                try:
                    filters[name] = int(query[name][0])
                except ValueError:
                    raise _BadRequest(f"{name} must be an integer")
        if "success" in query:
            value = query["success"][0].lower()
            if value not in ("true", "false", "0", "1"):
                raise _BadRequest("success must be true/false/0/1")
            filters["success"] = value in ("true", "1")
        unknown = set(query) - set(_QUERY_STRING_FILTERS) - set(
            _QUERY_INT_FILTERS
        ) - {"success"}
        if unknown:
            raise _BadRequest(f"unknown query parameters {sorted(unknown)}")
        try:
            reports = self.server.service.store.query(**filters)
        except ValueError as error:
            raise _BadRequest(str(error)) from error
        self._send_json(
            200,
            {
                "count": len(reports),
                "reports": [report.to_dict() for report in reports],
            },
        )

    def _get_analysis(self, query: dict[str, list[str]]) -> None:
        from repro import analysis

        service = self.server.service
        params = {name: values[0] for name, values in query.items()}
        kind = params.pop("kind", "aggregate")
        filters: dict[str, Any] = {}
        for name in _ANALYSIS_STRING_FILTERS:
            if name in params:
                filters[name] = params.pop(name)
        for name in _ANALYSIS_INT_FILTERS:
            if name in params:
                filters[name] = _int_param(params.pop(name), name)
        # only forward knobs the client actually sent, so each analysis
        # function keeps its own defaults (aggregate and compare differ)
        knobs: dict[str, Any] = {}
        knobs["metric"] = params.pop("metric", "rounds")
        if "confidence" in params:
            knobs["confidence"] = _float_param(
                params.pop("confidence"), "confidence"
            )
        if "resamples" in params:
            knobs["resamples"] = _int_param(params.pop("resamples"), "resamples")
        if "seed" in params:
            knobs["seed"] = _int_param(params.pop("seed"), "seed")
        # pop every kind-specific parameter BEFORE running anything, so a
        # typo fails instantly instead of after a full store scan
        if kind == "aggregate":
            by = tuple(params.pop("by", "algorithm").split(","))
            percentiles = params.pop("percentiles", "5,50,95").split(",")
        elif kind == "compare":
            arm_a: dict[str, Any] = {}
            arm_b: dict[str, Any] = {}
            for name in list(params):
                if name.startswith("a_"):
                    arm_a[name[2:]] = _arm_value(params.pop(name))
                elif name.startswith("b_"):
                    arm_b[name[2:]] = _arm_value(params.pop(name))
            match_on = tuple(params.pop("match_on", "topology,n,seed").split(","))
        else:
            raise _BadRequest(
                f"unknown analysis kind {kind!r}; expected "
                "'aggregate' or 'compare'"
            )
        if params:
            raise _BadRequest(f"unknown query parameters {sorted(params)}")
        try:
            if kind == "aggregate":
                report = analysis.aggregate(
                    service.store,
                    by=by,
                    percentiles=[float(q) for q in percentiles],
                    filters=filters,
                    **knobs,
                )
            else:
                report = analysis.compare(
                    service.store,
                    arm_a=arm_a,
                    arm_b=arm_b,
                    match_on=match_on,
                    filters=filters,
                    **knobs,
                )
        except (KeyError, ValueError, TypeError) as error:
            message = error.args[0] if error.args else error
            raise _BadRequest(str(message)) from error
        self._send_json(200, report.to_dict())

    def _post_job(self) -> None:
        service = self.server.service
        payload = self._read_body()
        if isinstance(payload, dict) and "adaptive" in payload:
            spec = payload["adaptive"]
            if not isinstance(spec, dict) or "base" not in spec:
                raise _BadRequest(
                    "'adaptive' must be an object with a 'base' scenario"
                )
            try:
                job = service.jobs.submit_adaptive(spec)
            except (KeyError, ValueError, TypeError) as error:
                message = error.args[0] if error.args else error
                raise _BadRequest(str(message)) from error
            self._send_json(202, job.snapshot())
            return
        scenarios = _scenarios_from_payload(payload)
        try:
            job = service.jobs.submit(scenarios)
        except ValueError as error:
            raise _BadRequest(str(error)) from error
        self._send_json(202, job.snapshot())

    # -- the farm (lease protocol) ------------------------------------------

    @staticmethod
    def _worker_id(body: Any) -> str:
        if not isinstance(body, dict) or not body.get("worker"):
            raise _BadRequest("body must carry the registered 'worker' id")
        return str(body["worker"])

    def _post_worker(self) -> None:
        coordinator = self.server.service.coordinator
        body = self._read_body() or {}
        if not isinstance(body, dict):
            raise _BadRequest("body must be a JSON object")
        self._send_json(201, coordinator.register(str(body.get("name") or "")))

    def _post_lease(self) -> None:
        coordinator = self.server.service.coordinator
        body = self._read_body() or {}
        worker_id = self._worker_id(body)
        max_scenarios = body.get("max_scenarios")
        if max_scenarios is not None:
            try:
                max_scenarios = int(max_scenarios)
            except (TypeError, ValueError):
                raise _BadRequest("max_scenarios must be an integer") from None
        try:
            lease = coordinator.lease(worker_id, max_scenarios=max_scenarios)
        except ValueError as error:
            raise _BadRequest(str(error)) from error
        headers = None
        if lease is not None and lease.get("trace"):
            # propagate the lease's deterministic trace id to the worker
            headers = {TRACE_HEADER: lease["trace"]}
        self._send_json(200, {"lease": lease}, extra_headers=headers)

    def _post_complete(self, lease_id: str) -> None:
        coordinator = self.server.service.coordinator
        body = self._read_body() or {}
        worker_id = self._worker_id(body)
        if "error" in body:
            self._send_json(
                200, coordinator.fail(lease_id, worker_id, str(body["error"]))
            )
            return
        dicts = body.get("reports")
        if not isinstance(dicts, list):
            raise _BadRequest("'reports' must be a list of report dicts")
        try:
            executed = int(body.get("executed") or 0)
            cached = int(body.get("cached") or 0)
        except (TypeError, ValueError):
            raise _BadRequest("executed and cached must be integers") from None
        try:
            reports = [RunReport.from_dict(data) for data in dicts]
            keys = [
                Scenario.from_dict(report.scenario).cache_key()
                for report in reports
            ]
        except (KeyError, ValueError, TypeError) as error:
            message = error.args[0] if error.args else error
            raise _BadRequest(f"malformed report: {message}") from error
        # the store files a report under the key it carries, so a key
        # that is not its own scenario's would serve it for another one
        for report, key in zip(reports, keys):
            if report.cache_key != key:
                raise _BadRequest(
                    f"report key {report.cache_key!r} is not its scenario's "
                    f"cache key {key!r}"
                )
        self._send_json(
            200,
            coordinator.complete(
                lease_id, worker_id, reports, executed=executed, cached=cached
            ),
        )


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer with a bounded handler pool.

    The stock mixin spawns one thread per connection — fine for a test
    client, pathological for thousands of concurrent report fetches.
    Routing ``process_request`` through a fixed :class:`ThreadPoolExecutor`
    caps handler concurrency; excess connections wait in the accept
    queue instead of exhausting memory.
    """

    daemon_threads = True
    service: "ReproService"

    def __init__(self, address, handler, http_threads: int = DEFAULT_HTTP_THREADS):
        super().__init__(address, handler)
        self._pool = ThreadPoolExecutor(
            max_workers=http_threads, thread_name_prefix="repro-http"
        )

    def process_request(self, request, client_address) -> None:
        self._pool.submit(self.process_request_thread, request, client_address)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=False, cancel_futures=True)


class ReproService:
    """The store-backed sweep service: HTTP front, job queue behind.

    ``port=0`` binds an ephemeral port (see :attr:`port` after
    :meth:`start`), which is what the tests and the CI smoke use.

    Every job goes through one farm :class:`~repro.farm.Coordinator`,
    whose transitions are journaled into the store. ``workers`` (0 or
    more) in-process :class:`~repro.farm.FarmWorker` threads, named
    ``local-1`` ..., lease from it directly, and remote ``repro worker``
    processes lease from it over HTTP; ``workers=0`` runs nothing
    itself. ``processes`` is each local worker's per-lease process
    fan-out. ``shards`` opens (or creates) the store as a directory of
    that many SQLite shards.

    ``recover=True`` (``repro serve --recover``) rebuilds the
    coordinator from the store's farm journal instead of starting
    clean: jobs a crashed service left unfinished resume under their
    original ids, in-flight leases keep their remaining deadline time,
    and the holders of those leases can heartbeat/complete as if the
    restart never happened. Without ``--recover`` a leftover journal is
    discarded — resuming is explicit, never an accident.
    """

    def __init__(
        self,
        store_path: str,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
        processes: Optional[int] = None,
        verbose: bool = False,
        lease_scenarios: Optional[int] = None,
        lease_timeout: Optional[float] = None,
        shards: Optional[int] = None,
        http_threads: int = DEFAULT_HTTP_THREADS,
        recover: bool = False,
    ) -> None:
        from repro.farm import Coordinator, FarmWorker, LocalClient
        from repro.farm.coordinator import (
            DEFAULT_LEASE_SCENARIOS,
            DEFAULT_LEASE_TIMEOUT,
        )

        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        # the service is a long-lived observed process: metrics on by
        # default (REPRO_TELEMETRY=0 opts out); simulation hot paths in
        # worker *processes* are unaffected — they have their own registry
        if os.environ.get("REPRO_TELEMETRY", "") != "0":
            _METRICS.enable()
        self.store = ResultStore(store_path, shards=shards)
        build = Coordinator.recover if recover else Coordinator
        self.coordinator = build(
            self.store,
            lease_scenarios=lease_scenarios or DEFAULT_LEASE_SCENARIOS,
            lease_timeout=lease_timeout or DEFAULT_LEASE_TIMEOUT,
        )
        self.jobs = JobManager(self.coordinator)
        self.verbose = verbose
        self._server = _Server((host, port), _Handler, http_threads=http_threads)
        self._server.service = self
        self._thread: Optional[threading.Thread] = None
        # socketserver's shutdown() waits for a serve loop to end, so it
        # must not be called on a service whose loop was never started
        self._serving = False
        self.workers = [
            FarmWorker(
                LocalClient(self.coordinator),
                name=f"local-{index}",
                processes=processes,
                poll=0.0,
            )
            for index in range(1, workers + 1)
        ]
        self._worker_threads = [
            threading.Thread(target=worker.run, name=worker.name, daemon=True)
            for worker in self.workers
        ]
        for worker, thread in zip(self.workers, self._worker_threads):
            worker.register()
            thread.start()

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "ReproService":
        """Serve on a daemon thread (for tests and embedding); returns self."""
        self._serving = True
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the HTTP loop and the local workers, cancel unfinished
        jobs, and close the store.

        A local worker stops at its running lease's next scenario
        boundary and pushes the finished prefix; the coordinator
        requeues the rest, and the journal keeps it for ``--recover``.
        A service that never served skips the HTTP loop's stop.
        """
        if self._serving:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        for worker in self.workers:
            worker.stop()
        for thread in self._worker_threads:
            thread.join(timeout=5.0)
        self.jobs.shutdown()
        self.store.close()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def serve(store_path: str, **options: Any) -> int:
    """Run the service until interrupted (the ``repro serve`` command);
    ``options`` are :class:`ReproService`'s."""
    service = ReproService(store_path, verbose=True, **options)
    print(
        f"repro service on {service.url} "
        f"(store: {store_path}, {len(service.store)} reports; "
        f"{len(service.workers)} local worker(s); remote workers: repro "
        f"worker --connect {service.url})"
    )
    if service.coordinator.recovered:
        summary = service.coordinator.recovered
        print(
            f"recovered from journal: {summary['jobs']} job(s), "
            f"{summary['leases']} in-flight lease(s), "
            f"{summary['pending_scenarios']} scenario(s) requeued"
        )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0
