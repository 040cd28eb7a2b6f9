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

import numpy as np

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC, now_ns
from repro.core.payload import encode_frames
from repro.core.pusher.plugin import Cycle, Plugin, PluginSensor, SensorGroup
from repro.core.pusher.registry import create_configurator
from repro.mqtt.client import MQTTClient
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
    (``connect/publish_many/disconnect``) — an
    :class:`~repro.mqtt.client.MQTTClient` over TCP or over a memory
    pipe (``MQTTClient(client_id, broker=...)``), or a test double.
    When omitted, a TCP client is built from the config.  ``clock`` is a
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
            client = MQTTClient(
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
        # Readings awaiting publication, as each group's pending cycles.
        self._pending: dict[SensorGroup, _PendingCycles] = {}
        self._pending_lock = threading.Lock()
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
            return sum(int(queue.counts.sum()) for queue in self._pending.values())

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
            # Send what the plugin still has pending before forgetting it.
            batch = _Batch()
            with self._pending_lock:
                for group in plugin.groups:
                    self._pending.pop(group, _PendingCycles()).take_all(batch)
            self._send(batch)
            for sensor in plugin.all_sensors():
                self._topics.pop(sensor, None)

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
        messages = [
            (
                f"{self.METADATA_PREFIX}{topic}",
                json.dumps(
                    {
                        "topic": topic,
                        "unit": metadata.unit,
                        "scale": metadata.scale,
                        "integrable": metadata.integrable,
                        "ttl_s": metadata.ttl_s,
                        "interval_ns": metadata.interval_ns,
                    }
                ).encode("utf-8"),
            )
            for topic, metadata in items
        ]
        try:
            refused = self.client.publish_many(messages, qos=self.config.qos)
        except Exception as exc:  # noqa: BLE001 - best-effort announcements
            refused = dict.fromkeys(range(len(messages)), exc)
        for i, exc in refused.items():
            logger.warning("metadata announcement for %s failed: %s", items[i][0], exc)
        return len(messages) - len(refused)

    # -- shared collection path ----------------------------------------------

    def topic_of(self, sensor: PluginSensor) -> str:
        return self._topics[sensor]

    def _collect(self, group: SensorGroup, timestamp: int) -> None:
        """Read one group cycle, queue it and publish, in one batch,
        every sensor of the group that reached the group's ``minValues``."""
        cycle = group.read(timestamp)
        if cycle is None:
            return
        count = np.count_nonzero(cycle.keep)
        if not count:
            return
        self._readings_collected.inc(count)
        sampled = self.tracer.sample_many(count)
        with self._pending_lock:
            queue = self._pending.get(group)
            if queue is None:
                queue = self._pending[group] = _PendingCycles()
            topics = queue.topics
            if len(topics) < len(group.sensors):
                # Sensors may appear dynamically (e.g. the appinstr
                # plugin discovering instruments at runtime).
                for sensor in group.sensors[len(topics) :]:
                    topic = self._topics.get(sensor)
                    if topic is None:
                        topic = self._topics[sensor] = self.config.mqtt_prefix + sensor.mqtt_suffix
                    topics.append(topic)
            kept = np.flatnonzero(cycle.keep) if sampled else None
            for position, trace_id in sampled.items():
                sensor = int(kept[position])
                self.tracer.hop(
                    "collect", "pusher", trace_id, timestamp, timestamp, sid=topics[sensor]
                )
                # A later sampled reading supersedes an unsent trace.
                queue.traces[sensor] = trace_id
            queue.add(timestamp, cycle)
            # No sensor has more readings pending than there are cycles.
            if self.config.send_mode == "burst" or len(queue.stamps) < group.min_values:
                return
            batch = queue.take(np.flatnonzero(queue.counts >= group.min_values), _Batch())
        self._send(batch)

    def flush(self) -> int:
        """Publish everything pending regardless of thresholds.

        Returns the number of MQTT messages sent.  This is the burst
        flush; it is also called on shutdown so no readings are lost.
        """
        batch = _Batch()
        with self._pending_lock:
            for queue in self._pending.values():
                queue.take_all(batch)
        self._send(batch)
        return len(batch.messages) + batch.unencodable

    def _send(self, batch: "_Batch") -> None:
        """Publish one batch's messages with one client call.

        A message carrying a value the wire cannot hold fails on its
        own, as does one the client refuses (invalid topic); the
        neighbours are still published.  Only a batch the client could
        not write makes a reconnect attempt.
        """
        if not (batch.messages or batch.unencodable):
            return
        start_ns = self._clock()
        messages = batch.messages
        refused: dict[int, Exception] = {}
        write_failed = False
        try:
            if messages:
                refused = self.client.publish_many(messages, qos=self.config.qos)
        except Exception as exc:  # noqa: BLE001 - transport errors must not kill sampling
            refused, write_failed = dict.fromkeys(range(len(messages)), exc), True
        self._messages_published.inc(len(messages) - len(refused))
        for i, trace_id, origin, readings in batch.traced:
            if i not in refused:
                self.tracer.hop(
                    "publish",
                    "pusher",
                    trace_id,
                    origin,
                    start_ns,
                    topic=messages[i][0],
                    qos=self.config.qos,
                    readings=readings,
                )
        failed = len(refused) + batch.unencodable
        if failed:
            total = len(messages) + batch.unencodable
            reason = next(iter(refused.values()), "a value not an int within int64")
            logger.warning("publish of %d/%d messages failed: %s", failed, total, reason)
            self._publish_failures.inc(failed)
        if write_failed:
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
                {"connected": connected, "reconnects": int(self._reconnects.value)},
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
                "readingsCollected": int(self._readings_collected.value),
                "messagesPublished": int(self._messages_published.value),
                "publishFailures": int(self._publish_failures.value),
                "reconnects": int(self._reconnects.value),
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


@dataclass
class _Batch:
    """Messages ready for one ``publish_many``."""

    messages: list[tuple[str, bytes]] = field(default_factory=list)
    #: (message index, trace id, origin ns, readings) per traced message.
    traced: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: Messages that would carry a value the wire cannot hold.
    unencodable: int = 0


class _PendingCycles:
    """One group's readings awaiting publication: its pending sampling
    cycles as columns, with the count of readings each sensor has
    pending.  Guarded by the Pusher's pending lock."""

    __slots__ = ("topics", "stamps", "columns", "masks", "counts", "bad", "traces")

    def __init__(self) -> None:
        self.topics: list[str] = []  # per sensor
        self.stamps: list[int] = []  # per pending cycle
        self.columns: list[np.ndarray] = []  # values, per pending cycle
        self.masks: list[np.ndarray] = []  # readings queued, per pending cycle
        self.counts = np.zeros(0, np.int64)
        self.bad = np.zeros(0, bool)  # a queued value the wire cannot hold
        self.traces: dict[int, int] = {}  # sensor -> trace id awaiting publish

    def add(self, timestamp: int, cycle: Cycle) -> None:
        width = len(cycle.values)
        if width > len(self.counts):  # the group gained sensors
            grow = width - len(self.counts)
            self.counts = np.append(self.counts, np.zeros(grow, np.int64))
            self.bad = np.append(self.bad, np.zeros(grow, bool))
            self.columns = [np.append(c, np.zeros(grow, np.int64)) for c in self.columns]
            self.masks = [np.append(m, np.zeros(grow, bool)) for m in self.masks]
        self.stamps.append(timestamp)
        self.columns.append(cycle.values)
        self.masks.append(cycle.keep)
        self.counts += cycle.keep
        if cycle.bad is not None:
            self.bad |= cycle.bad

    def take_all(self, batch: _Batch) -> _Batch:
        return self.take(np.flatnonzero(self.counts), batch)

    def take(self, sensors: np.ndarray, batch: _Batch) -> _Batch:
        """Dequeue the pending readings of ``sensors`` (indices, each
        with a reading pending) into ``batch``, one message per sensor,
        framed in one pass."""
        if not sensors.size:
            return batch
        masks = np.vstack(self.masks)
        unencodable = self.bad[sensors]
        good = sensors[~unencodable]
        # Every reading of the good sensors, sensor by sensor, oldest first.
        which, cycles = np.nonzero(masks[:, good].T)
        counts = self.counts[good]
        stamps = np.array(self.stamps)[cycles]
        values = np.vstack(self.columns)[cycles, good[which]]
        traces = {}  # message index -> trace id
        for j in list(self.traces):
            i = int(np.searchsorted(good, j))
            if i < len(good) and good[i] == j:
                traces[i] = self.traces.pop(j)
        payloads = encode_frames(stamps, values, counts.tolist(), traces)
        offset = len(batch.messages)
        batch.messages += zip(map(self.topics.__getitem__, good.tolist()), payloads)
        firsts = np.cumsum(counts) - counts
        batch.traced += [
            (offset + i, trace_id, int(stamps[firsts[i]]), int(counts[i]))
            for i, trace_id in traces.items()
        ]
        batch.unencodable += int(unencodable.sum())
        for j in sensors[unencodable].tolist():
            self.traces.pop(j, None)
        self.counts[sensors] = 0
        self.bad[sensors] = False
        if not self.counts.any():
            self.stamps, self.columns, self.masks = [], [], []
        else:  # keep the cycles other sensors still have readings in
            masks[:, sensors] = False
            alive = np.flatnonzero(masks.any(axis=1)).tolist()
            self.stamps = [self.stamps[r] for r in alive]
            self.columns = [self.columns[r] for r in alive]
            self.masks = list(masks[alive])
        return batch
