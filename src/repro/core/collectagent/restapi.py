"""The Collect Agent's RESTful API.

Paper section 5.3: "Analogous to Pushers, Collect Agents provide a
sensor cache that can be queried via the same RESTful API and that
gives access to the most recent readings of all Pushers connected to
them.  This can be used, for example, to feed all readings into
another (legacy) monitoring framework without having to deal with the
protocols of various sensors."

Here that cache is the store: ``/cache`` answers the stored rows of
the last ``cacheMaxAgeNs`` before a sensor's newest one (time-ordered,
duplicates resolved last-write-wins) and ``/latest`` the newest stored
row, so a reading shows once the writer has committed it.

Endpoints
---------
``GET /status``                    Ingest counters.
``GET /topics``                    All sensor topics in the store.
``GET /cache?topic=...``           Recent stored readings of one sensor.
``GET /latest?topic=...``          Most recent stored reading.
``GET /query?topic=...&start=...&end=...``  Readings from storage.
``GET /metrics``                   Prometheus exposition (``?format=json`` for JSON).
``GET /health``                    Liveness checks (200 ok / 503 degraded).
``GET /traces``                    Recent pipeline traces (``limit``, ``sid``, ``minLatencyMs``).
"""

from __future__ import annotations

from repro.common.httpjson import JsonHttpServer, RawResponse
from repro.core.collectagent.agent import CollectAgent
from repro.observability import (
    PROMETHEUS_CONTENT_TYPE,
    merge_snapshots,
    render_health,
    render_json,
    render_prometheus,
)


class CollectAgentRestApi:
    """Binds a :class:`CollectAgent` to a :class:`JsonHttpServer`."""

    def __init__(self, agent: CollectAgent, host: str = "127.0.0.1", port: int = 0) -> None:
        self.agent = agent
        # Share the agent/broker registry; storage-backend registries
        # are merged in per scrape (they may live in other objects).
        self.server = JsonHttpServer(host, port, metrics=agent.metrics)
        s = self.server
        s.route("GET", "/status", self._status)
        s.route("GET", "/metrics", self._metrics)
        s.route("GET", "/health", self._health)
        s.route("GET", "/traces", self._traces)
        s.route("GET", "/topics", self._topics)
        s.route("GET", "/cache", self._cache)
        s.route("GET", "/latest", self._latest)
        s.route("GET", "/query", self._query)
        s.route("GET", "/analytics", self._analytics)
        s.route("GET", "/alarms", self._alarms)

    def start(self) -> None:
        self.server.start()

    def stop(self) -> None:
        self.server.stop()

    @property
    def port(self) -> int | None:
        return self.server.port

    def __enter__(self) -> "CollectAgentRestApi":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- handlers ----------------------------------------------------------

    def _status(self, params: dict, query: dict, body: bytes):
        return 200, self.agent.status()

    def _metrics(self, params: dict, query: dict, body: bytes):
        registries = self.agent.metrics_registries()
        families = merge_snapshots([r.collect() for r in registries])
        if query.get("format") == "json":
            return 200, render_json(families)
        return 200, RawResponse(render_prometheus(families), PROMETHEUS_CONTENT_TYPE)

    def _health(self, params: dict, query: dict, body: bytes):
        return render_health(self.agent.health())

    def _traces(self, params: dict, query: dict, body: bytes):
        limit = int(query.get("limit", "50"))
        min_latency_ms = float(query.get("minLatencyMs", "0"))
        return 200, self.agent.spans.traces(
            limit=limit,
            sid=query.get("sid"),
            min_latency_ns=int(min_latency_ms * 1e6),
        )

    def _topics(self, params: dict, query: dict, body: bytes):
        return 200, self.agent.topics()

    def _cache(self, params: dict, query: dict, body: bytes):
        topic = query.get("topic")
        if not topic:
            return 400, {"error": "missing topic parameter"}
        readings = self.agent.recent(topic)
        if readings is None:
            return 404, {"error": f"unknown topic {topic!r}"}
        return 200, [{"timestamp": r.timestamp, "value": r.value} for r in readings]

    def _latest(self, params: dict, query: dict, body: bytes):
        topic = query.get("topic")
        if not topic:
            return 400, {"error": "missing topic parameter"}
        reading = self.agent.latest(topic)
        if reading is None:
            return 404, {"error": f"no cached readings for {topic!r}"}
        return 200, {"timestamp": reading.timestamp, "value": reading.value}

    def _query(self, params: dict, query: dict, body: bytes):
        topic = query.get("topic")
        if not topic:
            return 400, {"error": "missing topic parameter"}
        sid = self.agent.sid_of(topic)
        if sid is None:
            return 404, {"error": f"unknown topic {topic!r}"}
        start = int(query.get("start", "0"))
        end = int(query.get("end", str((1 << 63) - 1)))
        timestamps, values = self.agent.backend.query(sid, start, end)
        return 200, {
            "topic": topic,
            "timestamps": timestamps.tolist(),
            "values": values.tolist(),
        }

    def _manager(self):
        return getattr(self.agent, "analytics", None)

    def _analytics(self, params: dict, query: dict, body: bytes):
        manager = self._manager()
        if manager is None:
            return 404, {"error": "no analytics manager attached"}
        return 200, manager.status()

    def _alarms(self, params: dict, query: dict, body: bytes):
        manager = self._manager()
        if manager is None:
            return 404, {"error": "no analytics manager attached"}
        limit = int(query.get("limit", "100"))
        events = list(manager.alarms)[-limit:]
        return 200, [
            {
                "timestamp": e.timestamp,
                "operator": e.operator,
                "topic": e.topic,
                "value": e.value,
                "message": e.message,
            }
            for e in events
        ]
