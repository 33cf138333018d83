"""The embedded telemetry HTTP endpoint.

A tiny stdlib-only HTTP server (``http.server.ThreadingHTTPServer`` on
a daemon thread) exposing the observability state of one running
session to the outside world — the "observe the planner from outside"
posture of the POSTGRES rule-system statistics tables, pointed at a
Prometheus scraper instead of a catalog:

* ``GET /metrics``  — Prometheus text exposition (0.0.4);
* ``GET /healthz``  — liveness JSON: ``200`` when healthy, ``503`` with
  a ``problems`` list when degraded (excessive DBCRON clock drift, a
  violated SLO, …);
* ``GET /slowlog``  — captured slow-query records, JSON;
* ``GET /traces``   — the trace ring as OTLP-style JSON;
* ``GET /events``   — the telemetry ring buffer as a JSON array;
* ``GET /profile?seconds=N`` — sample the process for N seconds (1 by
  default, capped at 60) and return that window as collapsed-stack
  text;
* ``GET /flamegraph`` — the profiler's full accumulation as
  collapsed-stack text, ready for ``flamegraph.pl`` or speedscope.

``HEAD`` is answered for every route with the same status and headers
and no body (scrapers and load balancers probe with HEAD; the stdlib
default would 501).  Other methods get ``405`` with an
``Allow: GET, HEAD`` header.

The server holds **no references into the stack** beyond the provider
callables handed to it, each invoked per request on the serving thread;
a provider that raises turns into a ``500`` with the error text rather
than killing the server.  Construction binds the socket synchronously
(``port=0`` picks an ephemeral port, reported via :attr:`port`), so a
caller can scrape immediately after the constructor returns.
"""

from __future__ import annotations

import json
import threading

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

__all__ = ["TelemetryServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Ceiling on ``/profile?seconds=N`` so a typo cannot pin a serving
#: thread for minutes.
MAX_PROFILE_SECONDS = 60.0


class TelemetryServer:
    """Serves one session's telemetry over HTTP on a daemon thread.

    Providers are zero-argument callables returning:

    * ``metrics_text`` — the ``/metrics`` body (Prometheus text);
    * ``health``       — the ``/healthz`` dict (``status`` of ``"ok"``
      or ``"degraded"`` decides 200 vs 503);
    * ``slowlog``      — a JSON-ready list for ``/slowlog``;
    * ``traces``       — a JSON-ready dict for ``/traces``;
    * ``events``       — a JSON-ready list for ``/events`` (optional);
    * ``rules``        — a JSON-ready dict for ``/rules`` (optional):
      the ``Session.rules.stats()`` report — scheduler kind, armed
      count, shed/throttle counters;
    * ``profile``      — a callable taking a ``seconds`` float and
      returning collapsed-stack text for ``/profile`` (optional);
    * ``flamegraph``   — collapsed-stack text of the profiler's full
      accumulation for ``/flamegraph`` (optional).
    """

    def __init__(self, *, metrics_text, health, slowlog, traces,
                 events=None, rules=None, profile=None, flamegraph=None,
                 port: int = 0, host: str = "127.0.0.1") -> None:
        self._providers = {
            "/metrics": ("prometheus", metrics_text),
            "/healthz": ("health", health),
            "/slowlog": ("json", slowlog),
            "/traces": ("json", traces),
            "/events": ("json", events if events is not None
                        else (lambda: [])),
            "/rules": ("json", rules if rules is not None
                       else (lambda: {})),
        }
        if profile is not None:
            self._providers["/profile"] = ("profile", profile)
        if flamegraph is not None:
            self._providers["/flamegraph"] = ("text", flamegraph)
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                server._handle(self)

            def do_HEAD(self) -> None:  # noqa: N802
                # Full provider dispatch (status and headers must match
                # the GET they stand in for), body suppressed in _send.
                server._handle(self, head=True)

            def _method_not_allowed(self) -> None:
                body = b"method not allowed\n"
                self.send_response(405)
                self.send_header("Allow", "GET, HEAD")
                self.send_header("Content-Type",
                                 "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_POST = _method_not_allowed    # noqa: N815
            do_PUT = _method_not_allowed     # noqa: N815
            do_DELETE = _method_not_allowed  # noqa: N815
            do_PATCH = _method_not_allowed   # noqa: N815
            do_OPTIONS = _method_not_allowed # noqa: N815

            def log_message(self, format, *args) -> None:
                pass  # keep scrape traffic off stderr

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = host
        #: The bound port (resolves ``port=0`` to the ephemeral choice).
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-telemetry-{self.port}", daemon=True)
        self._thread.start()

    # -- request handling -----------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler,
                head: bool = False) -> None:
        raw_path, _, query = handler.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        provider = self._providers.get(path)
        if provider is None:
            self._send(handler, 404, "text/plain; charset=utf-8",
                       b"not found\n", head)
            return
        kind, fn = provider
        try:
            if kind == "profile":
                # HEAD must not pin the serving thread sampling for the
                # requested window; answer from a zero-length sample.
                payload = fn(0.0 if head
                             else self._profile_seconds(query))
            else:
                payload = fn()
        except Exception as exc:  # provider failure is a 500, not a crash
            self._send(handler, 500, "text/plain; charset=utf-8",
                       f"provider error: {exc}\n".encode(), head)
            return
        if kind == "prometheus":
            self._send(handler, 200, PROMETHEUS_CONTENT_TYPE,
                       str(payload).encode(), head)
        elif kind in ("text", "profile"):
            body = str(payload)
            if body and not body.endswith("\n"):
                body += "\n"
            self._send(handler, 200, "text/plain; charset=utf-8",
                       body.encode(), head)
        elif kind == "health":
            status = 200 if payload.get("status") == "ok" else 503
            self._send(handler, status, "application/json",
                       self._json(payload), head)
        else:
            self._send(handler, 200, "application/json",
                       self._json(payload), head)

    @staticmethod
    def _profile_seconds(query: str) -> float:
        """The clamped ``seconds`` parameter of a ``/profile`` request."""
        try:
            raw = parse_qs(query).get("seconds", ["1"])[0]
            seconds = float(raw)
        except (ValueError, IndexError):
            seconds = 1.0
        return min(max(seconds, 0.05), MAX_PROFILE_SECONDS)

    @staticmethod
    def _json(payload) -> bytes:
        return (json.dumps(payload, indent=2, default=str) + "\n").encode()

    @staticmethod
    def _send(handler: BaseHTTPRequestHandler, status: int,
              content_type: str, body: bytes,
              head: bool = False) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        if not head:
            handler.wfile.write(body)

    # -- lifecycle ------------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the endpoint (e.g. ``http://127.0.0.1:43210``)."""
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __repr__(self) -> str:
        return f"TelemetryServer({self.url})"
