"""A Grafana simple-JSON data source over libDCDB.

Serves the de-facto Grafana JSON datasource protocol:

``GET  /``            health check (datasource "Save & Test").
``POST /search``      body ``{"target": "<prefix>"}`` — metric name
                      completion; returns topics below the prefix.
``POST /query``       body ``{"range": {"from_ns": .., "to_ns": ..},
                      "targets": [{"target": "<topic>"}, ...],
                      "maxDataPoints": N}`` — returns Grafana series
                      ``[{"target": .., "datapoints": [[value, ms]..]}]``.
``GET  /hierarchy``   query param ``prefix`` — next-level names for
                      the drill-down drop-downs (paper Figure 3).
``POST /annotations`` alarm events from an attached analytics manager,
                      rendered by Grafana as chart annotations (the
                      paper lists alert notifications among Grafana's
                      benefits, section 5.4).

Long ranges are downsampled server-side to ``maxDataPoints`` buckets,
which is what keeps million-sensor deployments plottable.  Whenever a
rollup tier covers the requested window the buckets are served from
pre-aggregated rows through the tier-aware planner
(:meth:`~repro.libdcdb.api.DCDBClient.query_aggregate_many`) instead
of re-scanning raw readings; targets may carry an ``"aggregation"``
key (``avg``/``min``/``max``/``sum``/``count``, default ``avg``) to
pick the statistic.  Raw scans with mean downsampling remain the
fallback for virtual sensors, short windows and uncovered spans.
Virtual sensors work transparently: the client resolves and evaluates
them like any topic.
"""

from __future__ import annotations

import json

import numpy as np

from repro.common.errors import DCDBError
from repro.common.httpjson import JsonHttpServer
from repro.libdcdb.api import DCDBClient
from repro.libdcdb.interpolation import downsample_mean


class GrafanaDataSource:
    """Binds a :class:`DCDBClient` to the Grafana JSON protocol.

    ``analytics`` (optional) is an
    :class:`~repro.analytics.manager.AnalyticsManager` whose alarm log
    backs the ``/annotations`` endpoint.
    """

    def __init__(
        self,
        client: DCDBClient,
        host: str = "127.0.0.1",
        port: int = 0,
        analytics=None,
    ) -> None:
        self.client = client
        self.analytics = analytics
        # Share the client's registry so the libDCDB latency and
        # tier-selection instruments ride along on this server's HTTP
        # instruments.
        self.server = JsonHttpServer(host, port, metrics=getattr(client, "metrics", None))
        s = self.server
        s.route("GET", "/", self._health)
        s.route("POST", "/search", self._search)
        s.route("POST", "/query", self._query)
        s.route("GET", "/hierarchy", self._hierarchy)
        s.route("POST", "/annotations", self._annotations)

    def start(self) -> None:
        self.server.start()

    def stop(self) -> None:
        self.server.stop()

    @property
    def port(self) -> int | None:
        return self.server.port

    def __enter__(self) -> "GrafanaDataSource":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- handlers ---------------------------------------------------------

    def _health(self, params: dict, query: dict, body: bytes):
        """Datasource "Save & Test": probe the backend instead of
        answering 200 unconditionally — a dead cluster must fail the
        test, not pass it and then error on every panel."""
        backend = self.client.backend
        details: dict[str, object] = {"datasource": "dcdb"}
        liveness = getattr(backend, "node_liveness", None)
        if liveness is not None:
            live, total = liveness()
            details["replicasLive"] = live
            details["replicasTotal"] = total
            states = getattr(backend, "node_states", None)
            if states is not None:
                # Per-node failure-detector detail: which replica is
                # suspect/down, and how suspicious (phi), so an operator
                # sees *which* node to look at, not just a count.
                details["nodes"] = states()
            if live == 0:
                return 503, {"status": "unavailable", **details}
        try:
            # Cheap metadata round-trip exercises the same path every
            # query depends on (sid mapping lives in metadata).
            backend.metadata_keys("")
        except DCDBError as exc:
            return 503, {"status": "unavailable", "error": str(exc), **details}
        return 200, {"status": "ok", **details}

    def _search(self, params: dict, query: dict, body: bytes):
        payload = json.loads(body or b"{}")
        prefix = payload.get("target", "")
        topics = self.client.topics(prefix)
        virtuals = [v.topic for v in self.client.virtual_sensors()]
        return 200, sorted(set(topics) | {v for v in virtuals if v.startswith(prefix)})

    def _query(self, params: dict, query: dict, body: bytes):
        payload = json.loads(body or b"{}")
        time_range = payload.get("range", {})
        start = int(time_range.get("from_ns", 0))
        end = int(time_range.get("to_ns", (1 << 62)))
        max_points = int(payload.get("maxDataPoints", 1000) or 1000)
        targets = [t for t in payload.get("targets", []) if t.get("target")]
        results: dict[str, tuple] = {}
        errors: dict[str, str] = {}
        legacy: list[str] = []  # raw read + mean downsample path
        planned: dict[str, str] = {}  # topic -> aggregation, tier planner path
        for target in targets:
            topic = target["target"]
            if topic in results or topic in errors or topic in planned or topic in legacy:
                continue
            aggregation = target.get("aggregation")
            try:
                if aggregation is None:
                    # Dashboard default: route through the planner only
                    # when a rollup tier can actually serve the window —
                    # otherwise keep the raw-scan + mean-downsample path
                    # (virtual sensors, short windows, uncovered spans).
                    plan = self.client.plan_aggregate(topic, start, end, max_points)
                    if plan.tier_index is None:
                        legacy.append(topic)
                        continue
                    aggregation = "avg"
                planned[topic] = aggregation
            except DCDBError as exc:
                errors[topic] = str(exc)
        by_aggregation: dict[str, list[str]] = {}
        for topic, aggregation in planned.items():
            by_aggregation.setdefault(aggregation, []).append(topic)
        for aggregation, group in by_aggregation.items():
            try:
                results.update(
                    self.client.query_aggregate_many(
                        group, start, end, aggregation, max_points
                    )
                )
            except DCDBError:
                # One bad target must not fail the group: retry each on
                # its own so errors are reported per series.
                for topic in group:
                    try:
                        results[topic] = self.client.query_aggregate(
                            topic, start, end, aggregation, max_points
                        )
                    except DCDBError as exc:
                        errors[topic] = str(exc)
        for topic in legacy:
            try:
                timestamps, values = self.client.query(topic, start, end)
            except DCDBError as exc:
                errors[topic] = str(exc)
                continue
            if timestamps.size > max_points:
                # Inclusive range + ceil division: at most max_points buckets.
                bucket_ns = max(1, -(-(end - start + 1) // max_points))
                timestamps, values = downsample_mean(timestamps, values, bucket_ns)
            results[topic] = (timestamps, values)
        series = []
        for target in targets:
            topic = target["target"]
            if topic in errors:
                series.append({"target": topic, "error": errors[topic], "datapoints": []})
                continue
            timestamps, values = results[topic]
            datapoints = list(  # [value, ms epoch] pairs, as Grafana wants
                zip(values.astype(np.float64).tolist(), (timestamps // 1_000_000).tolist())
            )
            series.append({"target": topic, "datapoints": datapoints})
        return 200, series

    def _hierarchy(self, params: dict, query: dict, body: bytes):
        prefix = query.get("prefix", "")
        return 200, self.client.hierarchy_children(prefix)

    def _annotations(self, params: dict, query: dict, body: bytes):
        if self.analytics is None:
            return 200, []
        payload = json.loads(body or b"{}")
        time_range = payload.get("range", {})
        start = int(time_range.get("from_ns", 0))
        end = int(time_range.get("to_ns", (1 << 62)))
        return 200, [
            {
                "time": event.timestamp // 1_000_000,  # ms epochs
                "title": event.operator,
                "text": event.message,
                "tags": [event.topic],
            }
            for event in self.analytics.alarms
            if start <= event.timestamp <= end
        ]
