"""The Pusher's RESTful API.

Paper section 5.3: the API "provides an interface to retrieve the
current configuration (e.g., of plugins or sensors) and allows for
starting and stopping individual plugins ... one can modify a plugin's
configuration file at runtime and trigger a reload ... Further, the
RESTful API also provides access to a sensor cache that stores the
latest readings of all sensors."

Endpoints
---------
``GET  /status``                     Pusher-level counters and plugin list.
``GET  /plugins``                    Loaded plugins with group/sensor counts.
``GET  /plugins/{alias}/sensors``    Sensor inventory of one plugin.
``POST /plugins/{alias}/start``      Begin sampling.
``POST /plugins/{alias}/stop``       Stop sampling.
``POST /plugins/{alias}/reload``     Body = new INFO config; seamless reload.
``GET  /cache?topic=...``            Cached readings of a sensor.
``GET  /average?topic=...&window_ms=...``  Smoothed recent value.
``GET  /metrics``                    Prometheus exposition (``?format=json`` for JSON).
``GET  /health``                     Liveness checks (200 ok / 503 degraded).
``GET  /traces``                     Recent pipeline traces (``limit``, ``sid``, ``minLatencyMs``).
"""

from __future__ import annotations

from repro.common.httpjson import JsonHttpServer, RawResponse, number_param
from repro.core.pusher.pusher import Pusher
from repro.observability import (
    PROMETHEUS_CONTENT_TYPE,
    render_health,
    render_json,
    render_prometheus,
)


class PusherRestApi:
    """Binds a :class:`Pusher` to a :class:`JsonHttpServer`."""

    def __init__(self, pusher: Pusher, host: str = "127.0.0.1", port: int = 0) -> None:
        self.pusher = pusher
        # Share the pusher's registry so the HTTP request counters are
        # part of the same /metrics exposition.
        self.server = JsonHttpServer(host, port, metrics=pusher.metrics)
        s = self.server
        s.route("GET", "/status", self._status)
        s.route("GET", "/metrics", self._metrics)
        s.route("GET", "/health", self._health)
        s.route("GET", "/traces", self._traces)
        s.route("GET", "/plugins", self._plugins)
        s.route("GET", "/plugins/:alias/sensors", self._sensors)
        s.route("POST", "/plugins/:alias/start", self._start)
        s.route("POST", "/plugins/:alias/stop", self._stop)
        s.route("POST", "/plugins/:alias/reload", self._reload)
        s.route("GET", "/cache", self._cache)
        s.route("GET", "/average", self._average)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.server.start()

    def stop(self) -> None:
        self.server.stop()

    @property
    def port(self) -> int | None:
        return self.server.port

    def __enter__(self) -> "PusherRestApi":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- handlers -----------------------------------------------------------

    def _status(self, params: dict, query: dict, body: bytes):
        return 200, self.pusher.status()

    def _metrics(self, params: dict, query: dict, body: bytes):
        families = self.pusher.metrics.collect()
        if query.get("format") == "json":
            return 200, render_json(families)
        return 200, RawResponse(render_prometheus(families), PROMETHEUS_CONTENT_TYPE)

    def _health(self, params: dict, query: dict, body: bytes):
        return render_health(self.pusher.health())

    def _traces(self, params: dict, query: dict, body: bytes):
        limit = number_param(query, "limit", 50)
        min_latency_ms = number_param(query, "minLatencyMs", 0.0, float)
        return 200, self.pusher.spans.traces(
            limit=limit,
            sid=query.get("sid"),
            min_latency_ns=int(min_latency_ms * 1e6),
        )

    def _plugins(self, params: dict, query: dict, body: bytes):
        return 200, {
            alias: {
                "running": plugin.running,
                "groups": [
                    {
                        "name": group.name,
                        "intervalMs": group.interval_ns // 1_000_000,
                        "sensors": len(group),
                        "readErrors": group.read_errors,
                    }
                    for group in plugin.groups
                ],
            }
            for alias, plugin in self.pusher.plugins.items()
        }

    def _sensors(self, params: dict, query: dict, body: bytes):
        plugin = self.pusher.plugins.get(params["alias"])
        if plugin is None:
            return 404, {"error": f"plugin {params['alias']!r} not loaded"}
        sensors = []
        for group in plugin.groups:
            for sensor in group.sensors:
                latest = sensor.cache.latest()
                sensors.append(
                    {
                        "name": sensor.name,
                        "topic": self.pusher.topic_of(sensor),
                        "unit": sensor.metadata.unit,
                        "group": group.name,
                        "latest": None
                        if latest is None
                        else {"timestamp": latest.timestamp, "value": latest.value},
                    }
                )
        return 200, sensors

    def _start(self, params: dict, query: dict, body: bytes):
        self.pusher.start_plugin(params["alias"])
        return 200, {"ok": True}

    def _stop(self, params: dict, query: dict, body: bytes):
        self.pusher.stop_plugin(params["alias"])
        return 200, {"ok": True}

    def _reload(self, params: dict, query: dict, body: bytes):
        config_text = body.decode("utf-8")
        plugin = self.pusher.reload_plugin(params["alias"], config_text)
        return 200, {"ok": True, "sensors": plugin.sensor_count}

    def _find_cache(self, query: dict):
        topic = query.get("topic")
        if not topic:
            return None, (400, {"error": "missing topic parameter"})
        sensor = self.pusher.sensor_by_topic(topic)
        if sensor is None:
            return None, (404, {"error": f"unknown sensor topic {topic!r}"})
        return sensor, None

    def _cache(self, params: dict, query: dict, body: bytes):
        sensor, error = self._find_cache(query)
        if error is not None:
            return error
        return 200, [
            {"timestamp": r.timestamp, "value": r.value} for r in sensor.cache.snapshot()
        ]

    def _average(self, params: dict, query: dict, body: bytes):
        sensor, error = self._find_cache(query)
        if error is not None:
            return error
        window_ms = number_param(query, "window_ms", None)
        window_ns = window_ms * 1_000_000 if window_ms else None
        avg = sensor.cache.average(window_ns)
        if avg is None:
            return 404, {"error": "no cached readings"}
        return 200, {"average": avg}
