"""The live query observatory: a dependency-free HTTP metrics server.

A research engine becomes an operable system the moment someone can watch
it without attaching a debugger.  :class:`ObservatoryServer` wraps a
stdlib :class:`~http.server.ThreadingHTTPServer` around the telemetry the
library already produces and serves four read-only endpoints:

``/metrics``
    The registry's Prometheus text exposition (scrape it).
``/healthz``
    Liveness: ``{"status": "ok", "uptime_seconds": ...}`` plus the names
    of the running queries.
``/queries``
    Live progress of every registered query session — current phase,
    partition round, items resolved/deferred, budget spent vs. cap,
    degraded ties, estimated rounds remaining.
``/events``
    The flight recorder's tail (``?n=100`` bounds the window).

Everything above is read-only and lock-guarded, so continuous scraping
cannot perturb a running query: same top-k, same cost, same RNG state as
an unserved run — the serving-invariance integration test pins this.

With a :class:`~repro.service.QueryService` attached (``service=``), the
observatory becomes the service's network front door as well:
``/queries`` switches to the service's tenant-aware document (per-query
tenant, SLAs, status, live progress, plus cache/marketplace/admission
totals), and three service routes open up — ``POST /submit`` (a
:class:`~repro.service.QuerySpec` document in the body, the new query id
in the response), ``POST /cancel?id=...``, and ``GET /result?id=...``.
``/result`` holds the request open until the query finishes (at most
:data:`RESULT_WAIT_S`), so a client needs no polling loop of its own.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from .sinks import _jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession
    from ..service import QueryService
    from .recorder import FlightRecorder
    from .registry import MetricsRegistry

__all__ = ["QueryBoard", "ObservatoryServer", "get_query_board", "parse_address"]

#: Longest ``GET /result`` waits for its query to finish before replying
#: 202 with the pending document; a finished query replies 200 at once.
RESULT_WAIT_S = 1.0
#: Largest request body read; a longer ``Content-Length`` gets 413 unread.
MAX_BODY_BYTES = 1 << 20
#: Seconds a connection may sit silent, or stall mid-request, before the
#: server closes it and frees its handler thread.
IDLE_TIMEOUT_S = 30.0


def parse_address(spec: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) into a bind address.

    ``:0`` and ``0`` request an ephemeral port — the server publishes the
    one the kernel handed out via :attr:`ObservatoryServer.port`.
    """
    spec = spec.strip()
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", spec
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"invalid serve address {spec!r}; expected HOST:PORT"
        ) from None


class QueryBoard:
    """A thread-safe roster of live query sessions.

    The observatory's ``/queries`` endpoint reads it; the CLI (or any
    embedding service) registers each session under a stable name for the
    duration of its query.  Sessions finished-but-not-unregistered keep
    reporting their final state, which is handy for post-run scrapes.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, "CrowdSession"] = {}
        self._lock = threading.Lock()

    def register(self, name: str, session: "CrowdSession") -> None:
        """Expose ``session`` as ``name`` (replaces a previous holder)."""
        with self._lock:
            self._sessions[name] = session

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the roster (no-op when absent)."""
        with self._lock:
            self._sessions.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def progress(self) -> dict:
        """One JSON-ready document covering every registered query."""
        with self._lock:
            sessions = dict(self._sessions)
        return {
            "queries": [
                {"query": name, **sessions[name].progress()}
                for name in sorted(sessions)
            ]
        }


#: Process-wide default board.  Publishers that outlive any single server
#: (the CLI's ``--serve`` query) meet here, so an observatory constructed
#: over :func:`get_query_board` sees them all.
_default_board = QueryBoard()


def get_query_board() -> QueryBoard:
    """The process-wide default :class:`QueryBoard`.

    :class:`ObservatoryServer` still defaults to a private empty board —
    embedders that want the shared roster pass ``queries=get_query_board()``
    (the CLI's ``--serve`` does).
    """
    return _default_board


class _Handler(BaseHTTPRequestHandler):
    """Routes the observatory endpoints; everything else is 404."""

    server: "_ObservatoryHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; with Nagle on, the body
    # of every response after the first on a kept-alive connection waits
    # for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        observatory = self.server.observatory
        observatory._count_request(route)
        if route == "/metrics":
            self._send(200, observatory.registry.expose_text(),
                       "text/plain; version=0.0.4; charset=utf-8")
        elif route == "/healthz":
            self._send_json(200, observatory.health())
        elif route == "/queries":
            self._send_json(200, observatory.queries_payload())
        elif route == "/events":
            params = parse_qs(split.query)
            try:
                n = int(params["n"][0]) if "n" in params else None
            except ValueError:
                self._send_json(400, {"error": "n must be an integer"})
                return
            self._send_json(200, observatory.events(n))
        elif route == "/result":
            self._handle_result(split.query)
        else:
            self._send_json(404, {
                "error": f"no route {route!r}",
                "routes": observatory.routes(),
            })

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        observatory = self.server.observatory
        observatory._count_request(route)
        if observatory.service is None:
            self._send_json(404, {
                "error": "no query service attached",
                "routes": observatory.routes(),
            })
            return
        if route == "/submit":
            self._handle_submit()
        elif route == "/cancel":
            self._handle_cancel(split.query)
        else:
            self._send_json(404, {
                "error": f"no POST route {route!r}",
                "routes": ["/submit", "/cancel"],
            })

    # ------------------------------------------------------------------
    # service routes
    # ------------------------------------------------------------------
    def _read_body(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        if length <= 0:
            return {}
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            self._send_json(413, {
                "error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            })
            return None
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return payload

    def _handle_submit(self) -> None:
        from ..errors import AdmissionError, ConfigError, ServiceError
        from ..service import spec_from_document

        payload = self._read_body()
        if payload is None:
            return
        try:
            spec = spec_from_document(payload)
            handle = self.server.observatory.service.submit(spec)
        except (ConfigError, ValueError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})
        except AdmissionError as exc:
            self._send_json(429, {"error": str(exc)})
        except ServiceError as exc:
            self._send_json(409, {"error": str(exc)})
        else:
            self._send_json(202, {
                "id": handle.id,
                "query": spec.display_name,
                "tenant": spec.tenant,
                "status": handle.status(),
            })

    def _lookup_handle(self, query: str):
        params = parse_qs(query)
        id = params.get("id", [None])[0]
        if not id:
            self._send_json(400, {"error": "missing ?id=<query id>"})
            return None
        try:
            return self.server.observatory.service.handle(id)
        except KeyError:
            self._send_json(404, {"error": f"no query {id!r}"})
            return None

    def _handle_cancel(self, query: str) -> None:
        handle = self._lookup_handle(query)
        if handle is None:
            return
        cancelled = handle.cancel()
        self._send_json(200, {
            "id": handle.id,
            "cancelled": cancelled,
            "status": handle.status(),
        })

    def _handle_result(self, query: str) -> None:
        observatory = self.server.observatory
        if observatory.service is None:
            self._send_json(404, {
                "error": "no query service attached",
                "routes": observatory.routes(),
            })
            return
        handle = self._lookup_handle(query)
        if handle is None:
            return
        done = handle.wait(RESULT_WAIT_S)
        self._send_json(200 if done else 202, handle.to_document())

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload, default=_jsonable) + "\n",
                   "application/json; charset=utf-8")

    def _send(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args: object) -> None:
        """Silence per-request stderr chatter (metrics count requests)."""


class _ObservatoryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Back-reference installed by :class:`ObservatoryServer.start`.
    observatory: "ObservatoryServer"


class ObservatoryServer:
    """Serves telemetry over HTTP from a background daemon thread.

    Parameters
    ----------
    registry:
        The metrics registry ``/metrics`` exposes.  Defaults to the
        process-wide registry *at serve time*, so ``use_registry`` scopes
        apply.
    queries:
        The :class:`QueryBoard` behind ``/queries`` and the query names of
        ``/healthz`` (a fresh empty board by default).  An attached
        service's handles take its place.
    recorder:
        The :class:`~repro.telemetry.recorder.FlightRecorder` behind
        ``/events`` (absent → the endpoint reports an empty tail).
    service:
        An attached :class:`~repro.service.QueryService`.  Switches
        ``/queries`` to the service's tenant-aware document and opens the
        ``POST /submit`` / ``POST /cancel`` / ``GET /result`` routes.
    host, port:
        Bind address; port 0 asks the kernel for an ephemeral port.

    Usable as a context manager: ``with ObservatoryServer(...) as obs:``
    starts on entry and stops (joining the thread) on exit.
    """

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        queries: QueryBoard | None = None,
        recorder: "FlightRecorder | None" = None,
        service: "QueryService | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry = registry
        self.queries = queries if queries is not None else QueryBoard()
        self.recorder = recorder
        self.service = service
        self.host = host
        self.requested_port = port
        self._httpd: _ObservatoryHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    @property
    def registry(self) -> "MetricsRegistry":
        if self._registry is not None:
            return self._registry
        from . import get_registry  # deferred: the package imports this module

        return get_registry()

    @property
    def port(self) -> int:
        """The bound port (resolves 0 once the server has started)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self.requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    def start(self) -> "ObservatoryServer":
        """Bind and serve from a daemon thread; returns self.

        Binding failures (port in use, bad host) surface here, before
        any query work starts.
        """
        if self._httpd is not None:
            return self
        httpd = _ObservatoryHTTPServer(
            (self.host, self.requested_port), _Handler
        )
        httpd.observatory = self
        self._httpd = httpd
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="crowd-topk-observatory",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and join the serving thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObservatoryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # endpoint payloads (exposed for in-process use and tests)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        if self.service is not None:
            queries = sorted(
                f"{handle.id}:{handle.spec.display_name}"
                for handle in self.service.handles()
                if handle.status() == "running"
            )
        else:
            queries = self.queries.names()
        return {
            "status": "ok",
            "uptime_seconds": round(uptime, 3),
            "queries": queries,
            "recorder_events": (
                self.recorder.events_seen if self.recorder is not None else 0
            ),
        }

    def routes(self) -> list[str]:
        """Every route this observatory serves (service routes when attached)."""
        routes = ["/metrics", "/healthz", "/queries", "/events"]
        if self.service is not None:
            routes += ["/submit", "/cancel", "/result"]
        return routes

    def queries_payload(self) -> dict:
        """The ``/queries`` document: service-aware when a service is attached."""
        if self.service is not None:
            return self.service.queries_document()
        return self.queries.progress()

    def events(self, n: int | None = None) -> dict:
        if self.recorder is None:
            return {"capacity": 0, "events_seen": 0, "events": []}
        document = self.recorder.to_dict()
        if n is not None:
            document["events"] = document["events"][-n:] if n > 0 else []
        return document

    def _count_request(self, route: str) -> None:
        self.registry.counter("observatory_requests_total", route=route).inc()
