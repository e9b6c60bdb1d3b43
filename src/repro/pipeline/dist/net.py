"""Network job transport: the :class:`JobQueue` protocol over HTTP.

This module is the seam that turns the distributed layer from "worker
processes sharing a filesystem" into a service.  It adds no third
dependency to the claim/lease/ack protocol — just a wire:

* :class:`QueueServer` — a long-lived daemon built on the stdlib
  :mod:`http.server` (``ThreadingHTTPServer``) exposing a backing
  :class:`~repro.pipeline.dist.queues.JobQueue` — in-memory or
  directory-backed, so durable state and ``--resume`` keep working —
  as JSON-over-HTTP endpoints.  ``repro serve`` runs one.
* :class:`HttpJobQueue` — a client implementing the full
  :class:`~repro.pipeline.dist.queues.JobQueue` protocol over that
  wire, with per-thread connection reuse (HTTP/1.1 keep-alive),
  request timeouts, and bounded exponential-backoff retries on
  connection errors.  Because it *is* a ``JobQueue``,
  :class:`~repro.pipeline.dist.sweep.QueueRunner`,
  :class:`~repro.pipeline.dist.sweep.SweepRunner`,
  :class:`~repro.pipeline.dse.DSERunner`, and
  :func:`~repro.pipeline.dist.worker.run_worker` all work over the
  network unchanged: ``repro worker --queue-url http://host:port``
  (:func:`~repro.pipeline.dist.fleet.worker_entry`) on any machine
  that can reach the server joins the fleet, no shared filesystem
  needed.

Results drain **incrementally**: the ``/results`` endpoint is
paginated (lexicographic job-id cursor), and the runner consumes pages
as jobs finish instead of asking the server to buffer every report
into one response — see ``QueueRunner``'s drain loop.

## Wire format

Every endpoint speaks JSON, apart from the text of ``/metrics`` and
``/trace``.  ``POST`` bodies are JSON objects; ``GET`` parameters ride
in the query string.  Success is HTTP 200; a malformed request is 400,
an unknown endpoint 404, an internal failure 500 — all with
``{"error": ...}``.  The endpoint list is in ``docs/distributed.md``
("Wire protocol") and ``docs/observability.md``; ``tools/check_docs.py``
holds it equal to ``_ROUTES``.  Each queue verb's endpoint is declared
once, in ``_WIRE``: the server's routes and :class:`HttpJobQueue`'s
verbs are both built from it.

Semantics are exactly the queue protocol's (``docs/distributed.md``):
at-least-once with idempotent submission and stale-ack rejection.
``/submit`` in particular is **idempotent server-side**: resubmitting
a job id that is already pending, claimed, done, or failed is a 200
no-op returning the id — which is what makes the client's
connection-error retry of ``/submit`` safe (a lost *response* just
resubmits, and the queue keeps the original job).  One
transport-specific caveat: a retried ``/claim`` whose first attempt
succeeded server-side but whose response was lost can leave an
orphaned lease — it expires and is reaped like any dead worker's.

Request hardening: a body that is not a JSON object, an unparseable or
negative ``Content-Length``, or a body larger than 16 MiB is a clean
400 ``{"error": ...}`` (never an unhandled traceback in the handler
thread), and the connection is closed so a half-sent oversized body
cannot poison the next keep-alive request.

## Observability

The two text endpoints break the JSON rule on purpose — they speak the
formats their consumers already parse.  ``GET /metrics`` is Prometheus
text exposition: the server merges the metric snapshots workers ship
as the optional ``"metrics"`` field of their heartbeats (counters and
histograms sum across the fleet; a pruned worker's last snapshot folds
into a retired accumulator so fleet counters never regress), its own
process registry, and live queue-depth gauges.  ``GET /trace`` is the
fleet flight recorder: span records shipped as the optional
``"spans"`` heartbeat field land in a bounded ring, and the endpoint
returns the newest ``limit`` of them as JSONL (a ``kind="meta"``
header row first) — the same format ``repro trace`` renders.  Both
heartbeat fields are optional; a pre-observability worker's heartbeat
is still valid.  See ``docs/observability.md``.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time
import traceback
from collections import deque, namedtuple
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlencode, urlsplit

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.tracing import trace_meta

from .queues import Job, JobQueue, QueueStats, _require_positive
from .worker import Heartbeat

__all__ = [
    "HttpJobQueue",
    "HttpQueueError",
    "QueueServer",
]

_LOG = logging.getLogger(__name__)

#: hard cap on POST bodies — far above any job spec or result document,
#: far below anything that could exhaust a handler thread.
_MAX_BODY_BYTES = 16 * 1024 * 1024


class HttpQueueError(RuntimeError):
    """The queue server rejected a request or cannot be reached."""


# -- the wire table ---------------------------------------------------------
#: ``_Arg.default`` of a field every request must carry.
_REQUIRED = object()


class _Arg(namedtuple("_Arg", "field parse default param send",
                      defaults=(_REQUIRED, None, None))):
    """One argument of a queue verb on the wire.

    ``field`` is its JSON field (or query parameter), ``param`` the
    verb's parameter when named otherwise.  The server coerces the
    wire value with ``parse``; ``default`` stands in for an absent
    field.  ``send`` turns the client's argument into the wire value,
    and may refuse it before any request goes out (``None``: sent as
    given)."""


class _Endpoint(namedtuple("_Endpoint",
                           "method path verb args result answer read empty",
                           defaults=(None, None))):
    """One queue verb on the wire: ``method path`` calls ``verb`` of
    the served queue with ``args``, and the response carries its
    return value in the ``result`` field, or in a tuple of fields.
    The server sends ``answer(value)`` (a tuple for a tuple of fields),
    the client returns ``read`` of the field(s) (``read`` defaults to
    ``answer``).  ``empty()`` answers on the client, with no request,
    when every argument is empty."""


def _optional_str(value) -> str | None:
    return None if value is None else str(value)


def _split_ids(value) -> list[str]:
    return [job_id for job_id in str(value).split(",") if job_id]


def _positive_limit(limit: int) -> int:
    _require_positive("limit", limit)
    return limit


def _job_documents(jobs: list[Job]) -> tuple[list[dict], dict | None]:
    # ``"job"`` repeats the first job for clients that read only it.
    documents = [
        {"job_id": j.job_id, "spec": j.spec, "attempts": j.attempts}
        for j in jobs
    ]
    return documents, documents[0] if documents else None


def _jobs(documents: list[dict], first) -> list[Job]:
    return [
        Job(doc["job_id"], doc["spec"], int(doc.get("attempts", 0)))
        for doc in documents
    ]


#: every :class:`JobQueue` verb the wire carries.  ``/submit`` is
#: idempotent by the queue protocol, so a client retrying a lost
#: response never double-submits.  ``/claim`` hands out up to ``batch``
#: jobs in one round trip, under one lease.  The bulk ``/attempts``
#: form is listed first, so a request naming ``job_ids`` gets it: the
#: runner's poison breaker reads every counter in one request.
_WIRE = (
    _Endpoint("POST", "/submit", "submit",
              (_Arg("spec", dict, send=dict), _Arg("job_id", str)),
              "job_id", str),
    _Endpoint("POST", "/claim", "claim_batch",
              (_Arg("worker_id", str), _Arg("lease_seconds", float, 60.0),
               _Arg("batch", int, 1, "limit", _positive_limit)),
              ("jobs", "job"), _job_documents, _jobs),
    _Endpoint("POST", "/ack", "ack",
              (_Arg("job_id", str), _Arg("result", dict),
               _Arg("worker_id", _optional_str, None)),
              "accepted", bool),
    _Endpoint("POST", "/fail", "fail",
              (_Arg("job_id", str), _Arg("error", str),
               _Arg("worker_id", _optional_str, None)),
              "ok", lambda _: True, lambda _: None),
    _Endpoint("POST", "/reap", "reap_expired", (), "reaped", list),
    _Endpoint("GET", "/attempts", "attempts_map",
              (_Arg("job_ids", _split_ids, send=",".join),),
              "attempts_map", dict,
              lambda counts: {k: int(v) for k, v in counts.items()}, dict),
    _Endpoint("GET", "/attempts", "attempts", (_Arg("job_id", str),),
              "attempts", int),
    _Endpoint("GET", "/finished", "finished_ids", (), "finished", sorted,
              set),
    _Endpoint("GET", "/results", "results_page",
              (_Arg("after", _optional_str, None), _Arg("limit", int, 100)),
              ("results", "next"), tuple,
              lambda results, cursor: (dict(results), cursor)),
    _Endpoint("GET", "/failures", "failures", (), "failures", dict),
    _Endpoint("GET", "/failure-details", "failure_details", (), "failures",
              dict),
    _Endpoint("POST", "/retry", "retry", (_Arg("job_id", str),), "retried",
              bool),
    _Endpoint("POST", "/quarantine", "quarantine",
              (_Arg("job_id", str),
               _Arg("reason", str, "quarantined over the wire")),
              "quarantined", bool),
)


def _route(endpoints: list[_Endpoint]):
    """The route for the endpoints sharing one method and path: a
    request goes to the first whose first argument it names, else to
    the last.  Field lists are unpacked here, once, so a request costs
    a dict lookup and the coercions."""
    forms = []
    for endpoint in endpoints:
        fields = tuple(
            (arg.param or arg.field, arg.field, arg.parse, arg.default)
            for arg in endpoint.args
        )
        forms.append((fields, endpoint.verb, endpoint.result, endpoint.answer))

    def serve(server: "QueueServer", body: dict) -> dict:
        # the loop ends on the matching form, or else on the last one
        for fields, verb, result, answer in forms:
            if fields and fields[0][1] in body:
                break
        kwargs = {
            param: parse(
                body[field] if default is _REQUIRED
                else body.get(field, default)
            )
            for param, field, parse, default in fields
        }
        value = answer(getattr(server.queue, verb)(**kwargs))
        if isinstance(result, str):
            return {result: value}
        return dict(zip(result, value))

    return serve


def _wire_verb(endpoint: _Endpoint):
    """``endpoint``'s :class:`HttpJobQueue` method."""
    params = [arg.param or arg.field for arg in endpoint.args]
    known = set(params)
    result = endpoint.result
    read = endpoint.read or endpoint.answer

    def verb(self: "HttpJobQueue", *args, **kwargs):
        values = dict(zip(params, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or not values.keys() <= known:
            raise TypeError(
                f"{endpoint.verb}() takes ({', '.join(params)}), "
                f"got {args!r} {kwargs!r}"
            )
        fields = {}
        for arg, param in zip(endpoint.args, params):
            value = values.get(param, arg.default)
            if value is _REQUIRED:
                raise TypeError(f"{endpoint.verb}() needs {param!r}")
            fields[arg.field] = value if arg.send is None else arg.send(value)
        if endpoint.empty is not None and not any(fields.values()):
            return endpoint.empty()
        payload = self._request(endpoint.method, endpoint.path, fields)
        if isinstance(result, str):
            return read(payload[result])
        return read(*(payload[field] for field in result))

    verb.__name__ = endpoint.verb
    verb.__qualname__ = f"HttpJobQueue.{endpoint.verb}"
    verb.__doc__ = (
        f"``{endpoint.method} {endpoint.path}``: "
        f":meth:`JobQueue.{endpoint.verb}` over the wire."
    )
    return verb


# -- server -----------------------------------------------------------------
class _Text(namedtuple("_Text", "content_type render")):
    """A route answering text of ``content_type`` instead of JSON."""

    def __call__(self, server: "QueueServer", body: dict) -> str:
        return self.render(server, body)


def _ep_health(server: "QueueServer", body: dict) -> dict:
    return {"ok": True, "backend": type(server.queue).__name__}


def _ep_heartbeat(server: "QueueServer", body: dict) -> dict:
    server.record_heartbeat(body)
    return {"ok": True}


def _ep_stats(server: "QueueServer", body: dict) -> dict:
    stats = server.queue.stats()
    return {
        "pending": stats.pending,
        "claimed": stats.claimed,
        "done": stats.done,
        "failed": stats.failed,
        "workers": server.fleet(),
    }


def _ep_trace(server: "QueueServer", body: dict) -> str:
    limit = int(body.get("limit", 256))
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return server.trace_text(limit)


def _routes() -> dict:
    """``(method, path) -> route(server, body) -> payload``: the
    endpoints that are no queue verb, then the wire table's."""
    routes = {
        ("GET", "/health"): _ep_health,
        ("GET", "/stats"): _ep_stats,
        ("GET", "/metrics"): _Text(
            "text/plain; version=0.0.4",
            lambda server, body: server.metrics_text(),
        ),
        ("GET", "/trace"): _Text("application/jsonlines", _ep_trace),
        ("POST", "/heartbeat"): _ep_heartbeat,
    }
    shared: dict[tuple[str, str], list[_Endpoint]] = {}
    for endpoint in _WIRE:
        shared.setdefault((endpoint.method, endpoint.path), []).append(endpoint)
    routes.update((key, _route(group)) for key, group in shared.items())
    return routes


_ROUTES = _routes()


class _QueueHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: set by QueueServer right after construction.
    queue_server: "QueueServer"


class _QueueRequestHandler(BaseHTTPRequestHandler):
    """Routes requests through ``_ROUTES``: JSON in, JSON out, or the
    text a route declares."""

    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
    server_version = "repro-queue/1"
    # Responses are two small writes (headers, then body); with Nagle on,
    # the body write stalls behind the client's delayed ACK (~40ms per
    # request), which dominates a chatty claim/ack/heartbeat workload.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # stderr chatter off; logging on
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _send(
        self, status: int, payload: dict | str, content_type: str | None = None
    ) -> None:
        # JSON unless the route declared a text content type.
        if content_type is None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        else:
            body = payload.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before its response: nobody is left
            # to read it, so it is dropped, and so is the connection.
            self.close_connection = True

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        endpoint = _ROUTES.get((method, url.path))
        if endpoint is None:
            self._send(
                404, {"error": f"no such endpoint: {method} {url.path}"}
            )
            return
        try:
            if method == "POST":
                raw_length = self.headers.get("Content-Length") or "0"
                try:
                    length = int(raw_length)
                except ValueError:
                    raise ValueError(
                        f"unparseable Content-Length: {raw_length!r}"
                    ) from None
                if length < 0:
                    raise ValueError(f"negative Content-Length: {length}")
                if length > _MAX_BODY_BYTES:
                    raise ValueError(
                        f"request body of {length} bytes exceeds the "
                        f"{_MAX_BODY_BYTES}-byte cap"
                    )
                raw = self.rfile.read(length) if length else b""
                body = json.loads(raw) if raw else {}
                if not isinstance(body, dict):
                    raise ValueError(
                        f"request body must be a JSON object, "
                        f"got {type(body).__name__}"
                    )
            else:
                body = {k: v[-1] for k, v in parse_qs(url.query).items()}
        except (ValueError, json.JSONDecodeError) as exc:
            # The body may be unread (oversized) or half-read (garbage
            # framing) — drop the connection so the leftovers cannot be
            # misparsed as the next keep-alive request.
            self.close_connection = True
            self._send(400, {"error": f"bad request body: {exc}"})
            return
        try:
            payload = endpoint(self.server.queue_server, body)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: an infinite number where an int is expected
            self._send(400, {"error": f"bad request: {exc!r}"})
        except Exception:
            self._send(500, {"error": traceback.format_exc()})
        else:
            self._send(200, payload, getattr(endpoint, "content_type", None))


class QueueServer:
    """Serve a backing :class:`JobQueue` over JSON/HTTP.

    The server is transport only: every queue semantic — leases,
    retries, idempotent submission, durable ``--resume`` state —
    belongs to the backing queue, so serving a
    :class:`~repro.pipeline.dist.queues.DirectoryJobQueue` survives a
    server restart with all state intact (point a new server at the
    same directory).  Requests are handled on daemon threads; both
    built-in queues are thread-safe (a lock, or atomic renames).

    Use as a context manager or ``start()``/``stop()``: it serves on a
    background thread (the ``repro serve`` daemon's main thread sleeps
    and supervises its worker fleet, if any).  With ``port=0`` the OS
    picks a free port; read it back from ``url``.

    Fleet liveness: workers POST structured heartbeats (worker id,
    jobs done/failed, last job id — see
    :class:`~repro.pipeline.dist.worker.Heartbeat`), and ``/stats``
    reports the fleet under ``"workers"`` so an operator can see who
    is alive without another channel.  Entries expire:
    a worker silent for ``heartbeat_ttl_seconds`` is pruned (dead and
    retired workers no longer linger in ``/stats`` forever), and every
    reported entry carries ``age_seconds`` since its last beat.

    Fleet observability: heartbeats may carry a metrics snapshot and
    fresh trace spans (see the module docstring); ``/metrics`` serves
    the merged fleet in Prometheus text and ``/trace`` the span ring
    as JSONL.  A pruned worker's last snapshot folds into a retired
    accumulator first, so fleet counters never move backwards.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_ttl_seconds: float = 300.0,
        trace_capacity: int = 4096,
    ):
        if heartbeat_ttl_seconds <= 0:
            raise ValueError(
                f"heartbeat_ttl_seconds must be > 0, "
                f"got {heartbeat_ttl_seconds}"
            )
        self.queue = queue
        self.heartbeat_ttl_seconds = float(heartbeat_ttl_seconds)
        self._heartbeats: dict[str, dict] = {}
        self._heartbeat_lock = threading.Lock()
        self._worker_metrics: dict[str, dict] = {}
        self._retired_metrics: dict = {}
        # The server's own series live in a dedicated registry, never
        # the process-global one: an in-process worker ships the global
        # registry on its heartbeat, so merging the global registry
        # here would double-count every fleet series.
        self._registry = MetricsRegistry()
        self._trace: deque = deque(maxlen=int(trace_capacity))
        self._httpd = _QueueHTTPServer((host, port), _QueueRequestHandler)
        self._httpd.queue_server = self
        self._thread: threading.Thread | None = None

    # -- addressing ---------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "QueueServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        # Tight shutdown-poll interval: ``shutdown()`` blocks until the
        # serve loop's next poll tick, and the default 0.5s turns every
        # short-lived in-process server (tests, benchmarks) into a
        # quarter-second teardown stall.
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            name=f"queue-server-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "QueueServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- fleet liveness -----------------------------------------------
    def record_heartbeat(self, beat: dict) -> None:
        """Record one worker heartbeat (the ``/heartbeat`` endpoint).

        The optional observability fields ride along: a ``"metrics"``
        snapshot replaces this worker's previous one (worker counters
        are monotone, so replacement keeps the fleet sum monotone),
        and ``"spans"`` append to the fleet trace ring.
        """
        worker_id = str(beat.get("worker_id", "anon"))
        entry = {
            "completed": int(beat.get("completed", 0)),
            "failed": int(beat.get("failed", 0)),
            "last_job_id": beat.get("last_job_id"),
            "last_seen_unix": time.time(),
        }
        if beat.get("version") is not None:
            entry["version"] = str(beat["version"])
        metrics = beat.get("metrics")
        spans = beat.get("spans")
        with self._heartbeat_lock:
            self._prune_expired_locked(time.time())
            self._heartbeats[worker_id] = entry
            if isinstance(metrics, dict):
                self._worker_metrics[worker_id] = metrics
            if isinstance(spans, list):
                self._trace.extend(
                    record for record in spans if isinstance(record, dict)
                )
        self._registry.counter(
            "repro_heartbeats_total", "worker heartbeats recorded"
        ).inc()

    def _prune_expired_locked(self, now: float) -> None:
        """Drop heartbeats older than the TTL (caller holds the lock).
        A pruned worker's metrics fold into the retired accumulator so
        the fleet's ``/metrics`` counters never regress."""
        expired = [
            worker_id
            for worker_id, entry in self._heartbeats.items()
            if now - entry["last_seen_unix"] > self.heartbeat_ttl_seconds
        ]
        for worker_id in expired:
            del self._heartbeats[worker_id]
            snapshot = self._worker_metrics.pop(worker_id, None)
            if snapshot is not None:
                self._retired_metrics = merge_snapshots(
                    [self._retired_metrics, snapshot]
                )

    def fleet(self) -> dict[str, dict]:
        """Live heartbeats per worker id (``/stats`` payload): the
        recorded fields plus ``age_seconds`` since the last beat.
        Workers silent past the TTL are pruned, not reported."""
        now = time.time()
        with self._heartbeat_lock:
            self._prune_expired_locked(now)
            return {
                worker_id: {
                    **entry,
                    "age_seconds": max(0.0, now - entry["last_seen_unix"]),
                }
                for worker_id, entry in self._heartbeats.items()
            }

    # -- fleet observability ------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The merged fleet snapshot behind ``/metrics``: retired +
        live worker snapshots + the server's own series + live
        queue-depth gauges.  The process-global registry is *not*
        merged — an in-process worker already ships it via heartbeat."""
        with self._heartbeat_lock:
            self._prune_expired_locked(time.time())
            parts = [self._retired_metrics]
            parts.extend(self._worker_metrics.values())
            live_workers = len(self._heartbeats)
        parts.append(self._registry.snapshot())
        gauges = MetricsRegistry()
        depth = gauges.gauge(
            "repro_queue_jobs", "jobs in the backing queue by state"
        )
        stats = self.queue.stats()
        for state in ("pending", "claimed", "done", "failed"):
            depth.set(getattr(stats, state), state=state)
        gauges.gauge(
            "repro_fleet_workers", "workers with a live heartbeat"
        ).set(live_workers)
        parts.append(gauges.snapshot())
        return merge_snapshots(parts)

    def metrics_text(self) -> str:
        """``/metrics``: the merged fleet in Prometheus text format."""
        return render_prometheus(self.metrics_snapshot())

    def trace_text(self, limit: int = 256) -> str:
        """``/trace``: the newest ``limit`` fleet spans as JSONL, one
        ``kind="meta"`` header row first."""
        with self._heartbeat_lock:
            records = list(self._trace)[-int(limit):]
        lines = [json.dumps(trace_meta(), sort_keys=True)]
        lines.extend(json.dumps(r, sort_keys=True) for r in records)
        return "\n".join(lines) + "\n"


# -- client -----------------------------------------------------------------
def _wire_verbs(cls):
    """Give ``cls`` one method per ``_WIRE`` endpoint.  They are class
    attributes, not ``__getattr__`` forwarding: the stubs ``cls``
    inherits from :class:`JobQueue` would shadow that."""
    for endpoint in _WIRE:
        setattr(cls, endpoint.verb, _wire_verb(endpoint))
    return cls


@_wire_verbs
class HttpJobQueue(JobQueue):
    """:class:`JobQueue` client speaking JSON/HTTP to a :class:`QueueServer`.

    Implements the full queue protocol over the wire, so every runner
    and worker loop in :mod:`repro.pipeline.dist` works over the
    network unchanged.  Transport behavior:

    * **connection reuse** — one persistent HTTP/1.1 connection per
      thread (the server keeps them alive), so a worker's
      claim/ack/heartbeat cycle costs no reconnect.
    * **timeouts** — every request carries ``timeout`` seconds; a hung
      server surfaces as an error instead of a stuck fleet.
    * **bounded retries** — connection-level failures (refused, reset,
      timed out) retry up to ``retries`` more times with exponential
      backoff (``backoff_seconds`` doubling, capped at
      ``max_backoff_seconds``), then raise :class:`HttpQueueError`.
      HTTP-level errors (4xx/5xx) never retry: the server answered.

    Retrying a claim is not idempotent — if the response (not the
    request) was lost, a lease is orphaned server-side and recovered
    by normal expiry.  All other verbs are idempotent by protocol.

    A 200 response whose body is not valid JSON (or not UTF-8) raises
    :class:`HttpQueueError` immediately (no retry: the server already
    executed the request, and blind re-execution of a ``claim`` would
    double-lease) — a garbling middlebox surfaces as a clean typed
    error, never a ``KeyError`` three frames later.

    ``transport_hook(method, path, attempt)`` is the fault-injection
    seam used by :class:`~repro.pipeline.dist.chaos.ChaosTransport`:
    called before each attempt, it may return ``"drop"`` (simulate a
    connection failure before the request leaves), ``"lose-response"``
    (deliver the request, then lose the response — exercising exactly
    the retry-idempotency semantics above), ``"garble"`` (corrupt the
    response body), ``"delay"`` (stall briefly), or ``None``/``"ok"``.
    Leave it ``None`` in production; it costs nothing.

    The queue verbs are built from ``_WIRE`` (see ``_wire_verbs``);
    ``stats``, ``fleet`` and the non-queue extras are written out.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 10.0,
        retries: int = 5,
        backoff_seconds: float = 0.05,
        max_backoff_seconds: float = 2.0,
        transport_hook=None,
    ):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(
                f"HttpJobQueue speaks plain http, got {parts.scheme!r} "
                f"({url!r})"
            )
        if not parts.hostname:
            raise ValueError(f"queue url has no host: {url!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path.rstrip("/")
        netloc = f"[{self._host}]" if ":" in self._host else self._host
        self.url = f"http://{netloc}:{self._port}{self._prefix}"
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff_seconds = float(backoff_seconds)
        self.max_backoff_seconds = float(max_backoff_seconds)
        self.transport_hook = transport_hook
        self._local = threading.local()

    # -- transport ----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
        self._local.connection = None

    def close(self) -> None:
        """Close this thread's persistent connection (best-effort)."""
        self._drop_connection()

    def _request(
        self,
        method: str,
        path: str,
        fields: dict | None = None,
        *,
        parse_json: bool = True,
    ) -> dict | str:
        """One request with bounded retries: ``fields`` ride in a GET's
        query string (``None`` values left out) or as a POST's JSON
        body."""
        target = self._prefix + path
        payload = None
        if method == "GET":
            pairs = {k: v for k, v in (fields or {}).items() if v is not None}
            if pairs:
                target += "?" + urlencode(pairs)
        elif fields is not None:
            payload = json.dumps(fields).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(
                    min(
                        self.backoff_seconds * (2 ** (attempt - 1)),
                        self.max_backoff_seconds,
                    )
                )
            action = (
                self.transport_hook(method, path, attempt)
                if self.transport_hook is not None
                else None
            )
            if action == "drop":
                # Simulated connection failure before the request ever
                # reaches the server: reconnect and retry, exactly like
                # a real refused/reset connection.
                self._drop_connection()
                last_error = ConnectionError(
                    f"chaos: dropped {method} {path} (attempt {attempt})"
                )
                continue
            if action == "delay":
                time.sleep(min(self.backoff_seconds, 0.05))
            try:
                request_t0 = time.perf_counter()
                connection = self._connection()
                connection.request(method, target, body=payload, headers=headers)
                if action == "lose-response":
                    # The request reached the server (and executed!) but
                    # the response never comes back — the dangerous half
                    # of a retry, which is why submit/ack must be
                    # idempotent server-side.
                    self._drop_connection()
                    last_error = ConnectionError(
                        f"chaos: lost response for {method} {path} "
                        f"(attempt {attempt})"
                    )
                    continue
                response = connection.getresponse()
                raw = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                # connection-level failure: reconnect and retry
                self._drop_connection()
                last_error = exc
                continue
            if action == "garble":
                raw = b"\xff\x00chaos" + raw[: len(raw) // 2]
            registry = get_registry()
            registry.counter(
                "repro_http_requests_total",
                "queue-client requests that got an HTTP response",
            ).inc(path=path, status=str(status))
            registry.histogram(
                "repro_http_request_seconds",
                "queue-client request round-trip latency",
            ).observe(time.perf_counter() - request_t0, path=path)
            if attempt:
                registry.counter(
                    "repro_http_retries_total",
                    "request attempts past the first that got a response",
                ).inc(path=path)
            if status == 200:
                if not parse_json:
                    return raw.decode("utf-8", "replace")
                try:
                    return json.loads(raw) if raw else {}
                except ValueError as exc:  # bad JSON or bad UTF-8
                    # The server answered 200 but the body is damaged.
                    # No retry: the request already executed server-side
                    # and re-running a claim would double-lease.
                    raise HttpQueueError(
                        f"{method} {path} -> malformed response body: "
                        f"{exc} ({raw[:120]!r})"
                    ) from exc
            try:
                document = json.loads(raw) if raw else {}
            except ValueError:  # bad JSON or bad UTF-8
                document = {"error": raw.decode("utf-8", "replace")}
            detail = document.get("error", repr(raw[:200]))
            raise HttpQueueError(
                f"{method} {path} -> HTTP {status}: {detail}"
            )
        raise HttpQueueError(
            f"cannot reach queue server at {self.url} "
            f"({method} {path} failed {self.retries + 1} times; "
            f"last error: {last_error!r})"
        ) from last_error

    # -- JobQueue protocol: _WIRE's verbs (see _wire_verbs), and stats -
    def stats(self) -> QueueStats:
        payload = self._request("GET", "/stats")
        return QueueStats(
            pending=int(payload["pending"]),
            claimed=int(payload["claimed"]),
            done=int(payload["done"]),
            failed=int(payload["failed"]),
        )

    def fleet(self) -> dict[str, dict]:
        """Last-known worker heartbeats, as ``/stats`` reports them."""
        return dict(self._request("GET", "/stats")["workers"])

    # -- extras -------------------------------------------------------
    def heartbeat(self, beat: Heartbeat | dict) -> None:
        """Report worker liveness to the server (``/stats`` surfaces it)."""
        document = beat.to_dict() if isinstance(beat, Heartbeat) else dict(beat)
        self._request("POST", "/heartbeat", document)

    def health(self) -> dict:
        """Server liveness probe: ``{"ok": true, "backend": ...}``."""
        return self._request("GET", "/health")

    def metrics_text(self) -> str:
        """The server's merged fleet metrics, Prometheus text format."""
        return self._request("GET", "/metrics", parse_json=False)

    def trace_tail(self, limit: int = 256) -> str:
        """The newest ``limit`` fleet spans as JSONL (meta row first)."""
        return self._request("GET", "/trace", {"limit": limit}, parse_json=False)

