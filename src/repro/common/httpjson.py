"""Minimal JSON-over-HTTP server and client helpers.

DCDB's Pushers and Collect Agents expose RESTful APIs (paper
section 5.3) for configuration tasks and sensor-cache access.  This
module is the shared plumbing: a threaded HTTP server with a simple
route table returning JSON, and a blocking client for tools and tests.
Kept deliberately tiny — routing and (de)serialization only, no
framework semantics.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.observability import MetricsRegistry

#: A route handler: (path_params, query_params, body) -> (status, payload).
RouteHandler = Callable[[dict, dict, bytes], tuple[int, object]]

#: Request-duration buckets tuned for a local management API.
_DURATION_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class RawResponse:
    """A non-JSON handler payload: raw bytes with an explicit media type.

    Handlers normally return JSON-serializable objects; returning a
    ``RawResponse`` instead sends the body verbatim — used by the
    ``/metrics`` routes to speak the Prometheus text format.
    """

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes | str, content_type: str = "text/plain; charset=utf-8") -> None:
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.content_type = content_type


class BadRequest(ValueError):
    """Malformed client input: answered 400, the message naming the field."""


def number_param(params: dict, name: str, default, kind=int):
    """``params[name]`` (a query parameter or a JSON field) converted by
    ``kind``, or ``default`` when absent or null; :class:`BadRequest`
    when it does not convert."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"{name}: expected a number, got {raw!r}") from None


def json_body(body: bytes) -> dict:
    """A request body as a JSON object (``{}`` when empty);
    :class:`BadRequest` when it is anything else."""
    try:
        payload = json.loads(body or b"{}")
    except ValueError as exc:  # also UnicodeDecodeError
        raise BadRequest(f"body: not JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise BadRequest("body: expected a JSON object")
    return payload


class JsonHttpServer:
    """A route-table HTTP server speaking JSON.

    Routes are registered as ``(method, pattern)`` where pattern
    segments beginning with ``:`` capture path parameters::

        server.route("GET", "/plugins", list_plugins)
        server.route("POST", "/plugins/:name/start", start_plugin)

    Handlers return ``(status_code, json_serializable)``.  A
    :class:`BadRequest` becomes a 400 and any other exception a 500,
    with the error message in the body; this API is for trusted
    management networks, matching DCDB's deployment model.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._routes: list[tuple[str, list[str], str, RouteHandler]] = []
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests = self.metrics.counter(
            "dcdb_http_requests_total",
            "REST API requests served",
            ("method", "route", "status"),
        )
        self._durations = self.metrics.histogram(
            "dcdb_http_request_duration_seconds",
            "REST API request handling time",
            ("route",),
            buckets=_DURATION_BUCKETS,
        )

    def route(self, method: str, pattern: str, handler: RouteHandler) -> None:
        segments = [s for s in pattern.split("/") if s]
        normalized = "/" + "/".join(segments)
        self._routes.append((method.upper(), segments, normalized, handler))

    def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, object]:
        parsed = urllib.parse.urlparse(path)
        segments = [s for s in parsed.path.split("/") if s]
        query = {k: v[0] for k, v in urllib.parse.parse_qs(parsed.query).items()}
        started = time.perf_counter()
        for route_method, pattern, route_label, handler in self._routes:
            if route_method != method or len(pattern) != len(segments):
                continue
            params: dict[str, str] = {}
            matched = True
            for pat, seg in zip(pattern, segments):
                if pat.startswith(":"):
                    params[pat[1:]] = urllib.parse.unquote(seg)
                elif pat != seg:
                    matched = False
                    break
            if matched:
                try:
                    status, payload = handler(params, query, body)
                except BadRequest as exc:
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - surfaced as HTTP 500
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                self._durations.labels(route=route_label).observe(
                    time.perf_counter() - started
                )
                self._requests.labels(
                    method=method, route=route_label, status=status
                ).inc()
                return status, payload
        self._requests.labels(method=method, route="<unmatched>", status=404).inc()
        return 404, {"error": f"no route for {method} {parsed.path}"}

    def start(self) -> None:
        if self._httpd is not None:
            return
        dispatch = self._dispatch

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _respond(self, method: str) -> None:
                length = int(self.headers.get("Content-Length", "0") or "0")
                body = self.rfile.read(length) if length else b""
                status, payload = dispatch(method, self.path, body)
                if isinstance(payload, RawResponse):
                    data = payload.body
                    content_type = payload.content_type
                else:
                    data = json.dumps(payload).encode("utf-8")
                    content_type = "application/json"
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                self._respond("GET")

            def do_POST(self) -> None:  # noqa: N802
                self._respond("POST")

            def do_PUT(self) -> None:  # noqa: N802
                self._respond("PUT")

            def do_DELETE(self) -> None:  # noqa: N802
                self._respond("DELETE")

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # management API; request logging handled upstream

        self._httpd = ThreadingHTTPServer((self.host, self._requested_port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="rest-api", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "JsonHttpServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def http_text(method: str, url: str, timeout: float = 5.0) -> tuple[int, str, str]:
    """Perform one HTTP request; returns (status, body text, content type)."""
    request = urllib.request.Request(url, method=method.upper())
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            content_type = response.headers.get("Content-Type", "")
            return response.status, response.read().decode("utf-8"), content_type
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace"), ""


def http_json(
    method: str, url: str, body: object | None = None, timeout: float = 5.0
) -> tuple[int, object]:
    """Perform one JSON HTTP request; returns (status, decoded body)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method.upper())
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read() or b"null")
        except json.JSONDecodeError:
            payload = None
        return exc.code, payload
