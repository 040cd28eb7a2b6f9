"""The Pusher daemon: synchronized sampling plus the MQTT push path.

Paper section 4.1: the Pusher's MQTT Client "periodically extracts the
data from the sensors in each plugin and pushes it to the associated
Collect Agent"; sensor read intervals are synchronized within groups,
across plugins, and across Pushers (via NTP — we align to the shared
wall clock, the same arithmetic).  Two send disciplines are supported,
matching the paper's observation on AMG interference (section 6.2.1):

* ``continuous`` — readings are published as soon as a sensor has
  accumulated ``minValues`` of them;
* ``burst`` — readings accumulate and are flushed together every
  ``burst_interval`` (the configuration that helped AMG by
  concentrating network interference into short windows).

The Pusher runs in one of two modes:

* **threaded** (:meth:`Pusher.start`/:meth:`Pusher.stop`): a pool of
  sampling threads serves a shared due-time heap — the paper's
  production deployments use two such threads (section 6.1);
* **stepped** (:meth:`Pusher.advance_to`): time is driven explicitly,
  making large simulated fleets and unit tests deterministic while
  exercising the identical collection/publish code path.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC, now_ns
from repro.core import payload as payload_mod
from repro.core.pusher.plugin import Plugin, PluginSensor, SensorGroup
from repro.core.pusher.registry import create_configurator
from repro.core.sensor import SensorReading
from repro.observability import MetricsRegistry, PipelineTracer, SpanRecorder
from repro.observability.spans import default_recorder

logger = logging.getLogger(__name__)


@dataclass
class PusherConfig:
    """Global Pusher settings (the ``global`` block of dcdbpusher.conf)."""

    #: MQTT topic prefix identifying this Pusher's place in the
    #: hierarchy, e.g. "/lrz/coolmuc3/rack2/node17".
    mqtt_prefix: str = "/test/host0"
    broker_host: str = "127.0.0.1"
    broker_port: int = 1883
    #: Transport used when no client object is injected: "tcp" builds
    #: a reconnecting MQTTClient, "inproc" an InProcClient (the hub is
    #: then reachable via the transport instance).
    transport: str = "tcp"
    qos: int = 0
    #: Number of sampling threads (paper evaluation uses 2).
    threads: int = 2
    #: "continuous" or "burst".
    send_mode: str = "continuous"
    #: Flush period for burst mode; paper's AMG experiment used
    #: "regular bursts twice per minute" = 30 s.
    burst_interval_ns: int = 30 * NS_PER_SEC
    #: Sensor cache window (ms) applied to plugins loaded hereafter.
    cache_interval_ms: int = 120_000
    #: Pipeline-trace sampling: trace 1 of every N collected readings,
    #: and the message that carries it (1 = all, 0 = tracing off).
    #: Bounds self-monitoring overhead.
    trace_sample_every: int = 1

    def __post_init__(self) -> None:
        if self.send_mode not in ("continuous", "burst"):
            raise ConfigError(f"unknown send mode {self.send_mode!r}")
        if self.threads < 1:
            raise ConfigError("need at least one sampling thread")
        if self.trace_sample_every < 0:
            raise ConfigError("trace_sample_every must be >= 0")


class Pusher:
    """Hosts plugins, samples their groups on time, publishes readings.

    ``client`` is any object with the MQTT client surface
    (``connect/publish/disconnect``) — a real
    :class:`~repro.mqtt.client.MQTTClient`, an
    :class:`~repro.mqtt.inproc.InProcClient`, or a test double.  When
    omitted, a TCP client is built from the config.  ``clock`` is a
    nanosecond-returning callable; inject a
    :class:`~repro.common.timeutil.SimClock` for stepped operation.
    """

    #: Minimum gap between reconnect attempts after publish failures.
    RECONNECT_BACKOFF_NS = 5 * NS_PER_SEC

    def __init__(
        self,
        config: PusherConfig | None = None,
        client=None,
        clock=None,
        metrics: MetricsRegistry | None = None,
        spans: SpanRecorder | None = None,
    ) -> None:
        self.config = config if config is not None else PusherConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else default_recorder()
        if client is None:
            from repro.mqtt.transport import get_transport

            transport = get_transport(self.config.transport)
            client = transport.make_client(
                f"pusher{self.config.mqtt_prefix.replace('/', '-')}",
                host=self.config.broker_host,
                port=self.config.broker_port,
                metrics=self.metrics,
            )
        self.client = client
        # The event-loop client reconnects on its own; hook its
        # re-establishment signal so the Pusher re-announces metadata
        # and its reconnect counter stays truthful.
        if getattr(client, "on_reconnect", "absent") is None:
            client.on_reconnect = self._on_client_reconnect
        self._clock = clock if clock is not None else now_ns
        self.plugins: dict[str, Plugin] = {}
        self._lock = threading.RLock()
        # Pending readings per sensor awaiting publication.
        self._pending: dict[PluginSensor, list[SensorReading]] = {}
        self._pending_lock = threading.Lock()
        # Trace IDs started at collection, awaiting the publish that
        # carries them on the wire (keyed by sensor; a later sampled
        # collect for the same unflushed sensor supersedes the trace).
        self._pending_traces: dict[PluginSensor, int] = {}
        self._topics: dict[PluginSensor, str] = {}
        # Threaded-mode machinery.
        self._heap: list[tuple[int, int, SensorGroup]] = []
        self._heap_cond = threading.Condition()
        self._tiebreak = itertools.count()
        self._workers: list[threading.Thread] = []
        self._burst_thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self.running = False
        # Statistics surfaced by the REST API and /metrics — registry
        # counters, because several sampling threads mutate them.
        self._readings_collected = self.metrics.counter(
            "dcdb_pusher_readings_collected_total", "Sensor readings collected"
        )
        self._messages_published = self.metrics.counter(
            "dcdb_pusher_messages_published_total", "MQTT messages published"
        )
        self._publish_failures = self.metrics.counter(
            "dcdb_pusher_publish_failures_total", "Publish attempts that raised"
        )
        self._reconnects = self.metrics.counter(
            "dcdb_pusher_reconnects_total", "Successful broker reconnections"
        )
        self.metrics.gauge(
            "dcdb_pusher_sensors", "Sensors across all loaded plugins"
        ).set_function(lambda: self.sensor_count)
        self.metrics.gauge(
            "dcdb_pusher_pending_readings", "Readings queued awaiting publication"
        ).set_function(self._pending_count)
        self.tracer = PipelineTracer(
            self.metrics,
            clock=self._clock,
            sample_every=self.config.trace_sample_every,
            spans=self.spans,
        )
        self._last_reconnect_ns = -(10**18)
        self._started_monotonic = time.monotonic()

    def _pending_count(self) -> int:
        with self._pending_lock:
            return sum(len(queue) for queue in self._pending.values())

    # Backward-compatible counter views over the registry.

    @property
    def readings_collected(self) -> int:
        return int(self._readings_collected.value)

    @property
    def messages_published(self) -> int:
        return int(self._messages_published.value)

    @property
    def publish_failures(self) -> int:
        return int(self._publish_failures.value)

    @property
    def reconnects(self) -> int:
        return int(self._reconnects.value)

    # -- plugin lifecycle --------------------------------------------------

    def load_plugin(self, name: str, config_source, plugin_alias: str | None = None) -> Plugin:
        """Instantiate plugin ``name`` from its configuration.

        ``plugin_alias`` allows loading the same plugin type twice
        under different names (e.g. two tester instances).  The plugin
        starts stopped; call :meth:`start_plugin`.
        """
        alias = plugin_alias or name
        with self._lock:
            if alias in self.plugins:
                raise ConfigError(f"plugin {alias!r} already loaded")
            configurator = create_configurator(name)
            configurator.cache_maxage_ns = self.config.cache_interval_ms * NS_PER_MS
            plugin = configurator.read_config(config_source)
            plugin.name = alias
            self.plugins[alias] = plugin
            for group in plugin.groups:
                for sensor in group.sensors:
                    self._topics[sensor] = self.config.mqtt_prefix + sensor.mqtt_suffix
                # Self-monitoring groups (the dcdbmon plugin) read this
                # Pusher's own registry; hand it over on load.
                attach = getattr(group, "attach_registry", None)
                if attach is not None:
                    attach(self.metrics)
        return plugin

    def unload_plugin(self, alias: str) -> None:
        with self._lock:
            plugin = self.plugins.pop(alias, None)
            if plugin is None:
                raise ConfigError(f"plugin {alias!r} not loaded")
            if plugin.running:
                self._stop_plugin_locked(plugin)
            for sensor in plugin.all_sensors():
                self._topics.pop(sensor, None)
                self._pending.pop(sensor, None)
                self._pending_traces.pop(sensor, None)

    def start_plugin(self, alias: str) -> None:
        """Begin sampling the plugin's groups."""
        with self._lock:
            plugin = self._plugin(alias)
            if plugin.running:
                return
            for entity in plugin.entities:
                entity.connect()
            now = self._clock()
            for group in plugin.groups:
                group.start()
                group.schedule_after(now)
                if self.running:
                    self._push_heap(group)
            plugin.running = True

    def stop_plugin(self, alias: str) -> None:
        with self._lock:
            plugin = self._plugin(alias)
            if not plugin.running:
                return
            self._stop_plugin_locked(plugin)

    def _stop_plugin_locked(self, plugin: Plugin) -> None:
        plugin.running = False
        for group in plugin.groups:
            group.stop()
            group.next_due_ns = None
        for entity in plugin.entities:
            entity.disconnect()

    def reload_plugin(self, alias: str, config_source) -> Plugin:
        """Replace a plugin's configuration without interrupting the
        Pusher — the seamless re-configuration of paper section 5.3."""
        with self._lock:
            plugin = self._plugin(alias)
            was_running = plugin.running
            type_name = plugin.configurator.plugin_name
            # Validate the new configuration BEFORE tearing down the old
            # plugin — a bad reload must leave the running one untouched.
            create_configurator(type_name).read_config(config_source)
            self.unload_plugin(alias)
            new_plugin = self.load_plugin(type_name, config_source, plugin_alias=alias)
            if was_running:
                self.start_plugin(alias)
            return new_plugin

    def _plugin(self, alias: str) -> Plugin:
        plugin = self.plugins.get(alias)
        if plugin is None:
            raise ConfigError(f"plugin {alias!r} not loaded")
        return plugin

    # -- metadata auto-publish ---------------------------------------------

    #: Topic prefix carrying sensor-metadata announcements.  Collect
    #: Agents intercept it (see CollectAgent) and persist the carried
    #: sensor configuration, so units/scaling factors configured at the
    #: Pusher become queryable without manual ``dcdb-config`` steps.
    METADATA_PREFIX = "$DCDB/metadata"

    def announce_metadata(self, alias: str | None = None) -> int:
        """Publish the sensor metadata of one plugin (or all).

        Returns the number of announcements sent.  Call after
        connecting; `start()` invokes it automatically.
        """
        import json

        count = 0
        with self._lock:
            plugins = (
                list(self.plugins.values())
                if alias is None
                else [self._plugin(alias)]
            )
            items = [
                (self._topics[sensor], sensor.metadata)
                for plugin in plugins
                for sensor in plugin.all_sensors()
                if sensor in self._topics
            ]
        for topic, metadata in items:
            document = {
                "topic": topic,
                "unit": metadata.unit,
                "scale": metadata.scale,
                "integrable": metadata.integrable,
                "ttl_s": metadata.ttl_s,
                "interval_ns": metadata.interval_ns,
            }
            try:
                self.client.publish(
                    f"{self.METADATA_PREFIX}{topic}",
                    json.dumps(document).encode("utf-8"),
                    qos=self.config.qos,
                )
                count += 1
            except Exception as exc:  # noqa: BLE001 - best-effort announcements
                logger.warning("metadata announcement for %s failed: %s", topic, exc)
        return count

    # -- shared collection path ----------------------------------------------

    def topic_of(self, sensor: PluginSensor) -> str:
        return self._topics[sensor]

    def _collect(self, group: SensorGroup, timestamp: int) -> None:
        """Read one group and queue/publish its readings."""
        results = group.read(timestamp)
        if not results:
            return
        self._readings_collected.inc(len(results))
        # Sensors may appear dynamically (e.g. the appinstr plugin
        # discovering instruments at runtime); give them topics.
        for sensor, reading in results:
            if sensor not in self._topics:
                self._topics[sensor] = self.config.mqtt_prefix + sensor.mqtt_suffix
            trace_id = self.tracer.sample()
            if trace_id is not None:
                self.tracer.hop(
                    "collect",
                    "pusher",
                    trace_id,
                    reading.timestamp,
                    reading.timestamp,
                    sid=self._topics[sensor],
                )
                with self._pending_lock:
                    self._pending_traces[sensor] = trace_id
        burst = self.config.send_mode == "burst"
        with self._pending_lock:
            for sensor, reading in results:
                queue = self._pending.setdefault(sensor, [])
                queue.append(reading)
        if not burst:
            self._flush_ready(group.min_values)

    def _flush_ready(self, min_values: int) -> None:
        """Publish every sensor whose queue reached ``min_values``."""
        to_send: list[tuple[PluginSensor, list[SensorReading]]] = []
        with self._pending_lock:
            for sensor, queue in self._pending.items():
                if len(queue) >= min_values and queue:
                    to_send.append((sensor, queue[:]))
                    queue.clear()
        for sensor, readings in to_send:
            self._publish(sensor, readings)

    def flush(self) -> int:
        """Publish everything pending regardless of thresholds.

        Returns the number of MQTT messages sent.  This is the burst
        flush; it is also called on shutdown so no readings are lost.
        """
        with self._pending_lock:
            to_send = [(s, q[:]) for s, q in self._pending.items() if q]
            for _, q in self._pending.items():
                q.clear()
        for sensor, readings in to_send:
            self._publish(sensor, readings)
        return len(to_send)

    def _publish(self, sensor: PluginSensor, readings: list[SensorReading]) -> None:
        topic = self._topics.get(sensor)
        if topic is None:
            return
        with self._pending_lock:
            trace_id = self._pending_traces.pop(sensor, None)
        try:
            start_ns = self._clock()
            self.client.publish(
                topic,
                payload_mod.encode_readings(readings, trace_id=trace_id),
                qos=self.config.qos,
            )
            self._messages_published.inc()
            if trace_id is not None:
                self.tracer.hop(
                    "publish",
                    "pusher",
                    trace_id,
                    readings[0].timestamp,
                    start_ns,
                    topic=topic,
                    qos=self.config.qos,
                    readings=len(readings),
                )
        except Exception as exc:  # noqa: BLE001 - transport errors must not kill sampling
            logger.warning("publish of %s failed: %s", topic, exc)
            self._publish_failures.inc()
            self._try_reconnect()

    def _on_client_reconnect(self) -> None:
        """The client re-established its session on its own (event-loop
        transport): count it and re-announce sensor metadata so a
        restarted Collect Agent relearns units and scaling factors."""
        self._reconnects.inc()
        logger.info("client auto-reconnected; re-announcing metadata")
        self.announce_metadata()

    def _try_reconnect(self) -> None:
        """Re-establish the MQTT connection after a publish failure.

        A Collect Agent restart must not require restarting every
        Pusher in the facility.  Attempts are rate-limited to one per
        ``RECONNECT_BACKOFF_NS`` so a down agent costs one connect
        attempt per window, not one per reading.  Clients with their
        own reconnect machinery (the event-loop MQTTClient) are left
        alone once they have connected — closing them here would race
        the in-flight replay.
        """
        if getattr(self.client, "auto_reconnect", False) and getattr(
            self.client, "ever_connected", False
        ):
            return
        now = self._clock()
        if now - self._last_reconnect_ns < self.RECONNECT_BACKOFF_NS:
            return
        self._last_reconnect_ns = now
        try:
            self.client.close()
            self.client.connect()
            self._reconnects.inc()
            logger.info("reconnected to broker after publish failure")
            self.announce_metadata()
        except Exception as exc:  # noqa: BLE001
            logger.warning("reconnect attempt failed: %s", exc)

    # -- stepped (simulation/test) mode -----------------------------------------

    def advance_to(self, t_ns: int) -> int:
        """Process every group due at or before ``t_ns`` in time order.

        Returns the number of sampling cycles executed.  The clock
        passed at construction is not consulted; the caller owns time.
        """
        cycles = 0
        while True:
            best: SensorGroup | None = None
            with self._lock:
                for plugin in self.plugins.values():
                    if not plugin.running:
                        continue
                    for group in plugin.groups:
                        if not group.enabled or group.next_due_ns is None:
                            continue
                        if group.next_due_ns <= t_ns and (
                            best is None or group.next_due_ns < best.next_due_ns
                        ):
                            best = group
            if best is None:
                return cycles
            due = best.next_due_ns
            self._collect(best, due)
            best.next_due_ns = due + best.interval_ns
            cycles += 1

    # -- threaded mode -------------------------------------------------------------

    def start(self) -> None:
        """Connect the client and launch the sampling thread pool."""
        if self.running:
            return
        self.client.connect()
        self.announce_metadata()
        self._stop_event.clear()
        self.running = True
        with self._lock:
            now = self._clock()
            for plugin in self.plugins.values():
                if plugin.running:
                    for group in plugin.groups:
                        if group.next_due_ns is None:
                            group.schedule_after(now)
                        self._push_heap(group)
        for i in range(self.config.threads):
            worker = threading.Thread(
                target=self._worker_loop, name=f"pusher-sampler-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        if self.config.send_mode == "burst":
            self._burst_thread = threading.Thread(
                target=self._burst_loop, name="pusher-burst", daemon=True
            )
            self._burst_thread.start()

    def stop(self) -> None:
        """Stop sampling, flush pending readings, disconnect."""
        if not self.running:
            return
        self.running = False
        self._stop_event.set()
        with self._heap_cond:
            self._heap_cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=2.0)
        self._workers.clear()
        if self._burst_thread is not None:
            self._burst_thread.join(timeout=2.0)
            self._burst_thread = None
        self.flush()
        try:
            self.client.disconnect()
        except Exception:  # noqa: BLE001
            pass

    def __enter__(self) -> "Pusher":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _push_heap(self, group: SensorGroup) -> None:
        if group.next_due_ns is None:
            return
        with self._heap_cond:
            heapq.heappush(self._heap, (group.next_due_ns, next(self._tiebreak), group))
            self._heap_cond.notify()

    def _worker_loop(self) -> None:
        while not self._stop_event.is_set():
            with self._heap_cond:
                while not self._heap and not self._stop_event.is_set():
                    self._heap_cond.wait(timeout=0.5)
                if self._stop_event.is_set():
                    return
                due, _, group = heapq.heappop(self._heap)
            # Sleep outside the lock until the group is due.
            while True:
                now = self._clock()
                if now >= due:
                    break
                if self._stop_event.wait(min((due - now) / NS_PER_SEC, 0.5)):
                    return
            plugin_running = any(
                plugin.running and group in plugin.groups
                for plugin in self.plugins.values()
            )
            if plugin_running and group.enabled:
                self._collect(group, due)
                group.next_due_ns = due + group.interval_ns
                self._push_heap(group)

    def _burst_loop(self) -> None:
        interval_s = self.config.burst_interval_ns / NS_PER_SEC
        while not self._stop_event.wait(interval_s):
            self.flush()

    # -- introspection ----------------------------------------------------------------

    @property
    def sensor_count(self) -> int:
        with self._lock:
            return sum(plugin.sensor_count for plugin in self.plugins.values())

    def sensor_by_topic(self, topic: str) -> PluginSensor | None:
        with self._lock:
            for sensor, sensor_topic in self._topics.items():
                if sensor_topic == topic:
                    return sensor
        return None

    def health(self) -> dict[str, tuple[bool, dict]]:
        """Component liveness checks for the ``/health`` endpoint.

        Shaped for :func:`repro.observability.render_health`: the
        pusher is healthy when its sampling loops run and the broker
        link is up.
        """
        connected = bool(getattr(self.client, "connected", False))
        with self._lock:
            plugins_total = len(self.plugins)
            plugins_running = sum(1 for p in self.plugins.values() if p.running)
        return {
            "pusher": (
                self.running,
                {"running": self.running, "pendingReadings": self._pending_count()},
            ),
            "transport": (
                connected,
                {"connected": connected, "reconnects": self.reconnects},
            ),
            "plugins": (
                not self.running or plugins_running == plugins_total,
                {"running": plugins_running, "loaded": plugins_total},
            ),
        }

    def status(self) -> dict:
        """JSON-friendly snapshot for the REST API.

        Existing keys are stable; ``latency`` carries the registry's
        per-hop pipeline percentiles (None before the first stamp).
        """
        with self._lock:
            return {
                "mqttPrefix": self.config.mqtt_prefix,
                "running": self.running,
                "sendMode": self.config.send_mode,
                "uptimeSeconds": round(time.monotonic() - self._started_monotonic, 3),
                "qos": self.config.qos,
                "traceSampleEvery": self.config.trace_sample_every,
                "readingsCollected": self.readings_collected,
                "messagesPublished": self.messages_published,
                "publishFailures": self.publish_failures,
                "reconnects": self.reconnects,
                # Staging-queue depth of the publish path, mirroring the
                # Collect Agent status' writer queue on the ingest side.
                "pendingReadings": self._pending_count(),
                "latency": {
                    hop: self.tracer.percentiles(hop) for hop in ("collect", "publish")
                },
                "plugins": {
                    alias: {
                        "running": plugin.running,
                        "groups": len(plugin.groups),
                        "sensors": plugin.sensor_count,
                    }
                    for alias, plugin in self.plugins.items()
                },
            }
