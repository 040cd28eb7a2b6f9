"""Collect Agent implementation.

Wires together three pieces:

* a transport endpoint — either a TCP
  :class:`~repro.mqtt.broker.PublishOnlyBroker` (production layout) or
  an in-process :class:`~repro.mqtt.inproc.InProcHub` (simulation) —
  from which every accepted PUBLISH is delivered via hook;
* the :class:`~repro.core.sid.SidMapper` translating topics into
  storage keys (1:1, hierarchical, paper section 4.2);
* a :class:`~repro.storage.backend.StorageBackend` receiving the
  readings through a
  :class:`~repro.core.collectagent.writer.BatchingWriter` — the one
  ingest path, whether it coalesces on writer threads or writes each
  message on the broker's thread (``writers=0``).

The agent also keeps a per-topic :class:`~repro.core.sensor.SensorCache`
("gives access to the most recent readings of all Pushers connected",
paper section 5.3) and counters for the load experiments.
"""

from __future__ import annotations

import json
import logging
import threading
import time

from repro.common.errors import BackpressureError, TransportError
from repro.common.timeutil import NS_PER_SEC, now_ns
from repro.core import payload as payload_mod
from repro.core.collectagent.writer import BatchingWriter, WriterConfig
from repro.core.sensor import SensorCache
from repro.core.sid import PersistentSidMapper, SensorId
from repro.mqtt.packets import Publish
from repro.mqtt.transport import get_transport
from repro.observability import MetricsRegistry, PipelineTracer, SpanRecorder
from repro.observability.spans import default_recorder
from repro.storage.backend import StorageBackend
from repro.storage.rollup import RollupConfig, RollupEngine

logger = logging.getLogger(__name__)


class CollectAgent:
    """Receives Pusher publishes and persists them.

    Parameters
    ----------
    backend:
        Destination storage.
    broker:
        Transport endpoint exposing ``add_publish_hook``; when None a
        publish-only broker is built from ``transport`` on
        ``host:port``.
    transport:
        Transport selector used when ``broker`` is None: ``"tcp"``
        (default), ``"inproc"``, or a
        :class:`~repro.mqtt.transport.Transport` instance.
    cache_maxage_ns:
        Window of the agent-side sensor cache.
    default_ttl_s:
        TTL applied to stored readings (0 = keep forever).
    writer_config:
        Configuration of the
        :class:`~repro.core.collectagent.writer.BatchingWriter` every
        reading is staged in.  With writer threads it coalesces writes
        across MQTT messages off the dispatch thread (paper section
        5.3: Cassandra inserts happen in large asynchronous batches).
        ``None`` (the default) builds ``WriterConfig(writers=0)``: each
        message is written on the dispatch thread before the hook
        returns, and a failed write stays staged for the next message
        to retry.
    rollup_config:
        When given, a :class:`~repro.storage.rollup.RollupEngine`
        continuously maintains 10s/1m/1h min/max/sum/count rollup
        series per sensor, observed after each successful storage
        flush.  ``None`` disables rollups.
    """

    def __init__(
        self,
        backend: StorageBackend,
        broker=None,
        host: str = "127.0.0.1",
        port: int = 1883,
        cache_maxage_ns: int = 120 * NS_PER_SEC,
        default_ttl_s: int = 0,
        metrics: MetricsRegistry | None = None,
        clock=None,
        trace_sample_every: int = 1,
        writer_config: WriterConfig | None = None,
        transport=None,
        spans: SpanRecorder | None = None,
        rollup_config: RollupConfig | None = None,
    ) -> None:
        self.backend = backend
        self.spans = spans if spans is not None else default_recorder()
        self._clock = clock if clock is not None else now_ns
        self._started_monotonic = time.monotonic()
        # The agent and its broker share ONE registry so status() and
        # /metrics read broker stats from the snapshot rather than
        # duck-typing broker attributes.
        if metrics is None:
            metrics = getattr(broker, "metrics", None) if broker is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if broker is None:
            self.transport = get_transport(transport)
            broker = self.transport.make_broker(
                publish_only=True, host=host, port=port, metrics=self.metrics
            )
        else:
            self.transport = transport
        self.broker = broker
        # Component codes are coordinated through backend metadata so
        # several Collect Agents sharing one Storage Backend (and
        # restarts of this agent) agree on the topic->SID mapping.
        self.sid_mapper = PersistentSidMapper(backend)
        self.cache_maxage_ns = cache_maxage_ns
        self.default_ttl_s = default_ttl_s
        # Concurrency contract for _caches (the single place it is
        # documented — every reader below relies on it): the dict is
        # mutated only under _caches_lock and only ever grows.  Readers
        # therefore need no lock as long as they touch the dict through
        # ONE atomic operation — a single ``dict.get`` or a whole-dict
        # key snapshot such as ``sorted(d)``/``list(d)``, which CPython
        # executes as one C call without releasing the GIL.  Anything
        # that iterates the dict incrementally (multiple bytecodes
        # between reads) must take _caches_lock.
        self._caches: dict[str, SensorCache] = {}
        self._caches_lock = threading.Lock()
        self._readings_stored = self.metrics.counter(
            "dcdb_agent_readings_stored_total", "Readings handed to the storage backend"
        )
        self._decode_errors = self.metrics.counter(
            "dcdb_agent_decode_errors_total", "Payloads/topics/metadata that failed to parse"
        )
        self._metadata_announcements = self.metrics.counter(
            "dcdb_agent_metadata_announcements_total", "Sensor metadata documents persisted"
        )
        self.metrics.gauge(
            "dcdb_agent_cached_topics", "Distinct topics in the agent-side sensor cache"
        ).set_function(lambda: len(self._caches))
        self.metrics.gauge(
            "dcdb_agent_known_sensors", "Topics with an assigned storage SID"
        ).set_function(lambda: len(self.sid_mapper))
        self.tracer = PipelineTracer(
            self.metrics, clock=clock, sample_every=trace_sample_every, spans=self.spans
        )
        self.rollup = (
            RollupEngine(backend, rollup_config, metrics=self.metrics, clock=clock)
            if rollup_config is not None
            else None
        )
        self.writer = BatchingWriter(
            backend,
            writer_config if writer_config is not None else WriterConfig(writers=0),
            metrics=self.metrics,
            clock=clock,
            tracer=self.tracer,
            rollup=self.rollup,
        )
        self._backpressure_drops = self.metrics.counter(
            "dcdb_agent_backpressure_drops_total",
            "Readings rejected because the staging queue was full",
        )
        self.broker.add_publish_hook(self._on_publish)

    # Backward-compatible counter views over the registry.

    @property
    def readings_stored(self) -> int:
        return int(self._readings_stored.value)

    @property
    def decode_errors(self) -> int:
        return int(self._decode_errors.value)

    @property
    def metadata_announcements(self) -> int:
        return int(self._metadata_announcements.value)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.writer.start()
        start = getattr(self.broker, "start", None)
        if start is not None:
            start()

    def stop(self) -> None:
        # Drain the staging queue BEFORE flushing the backend: every
        # accepted reading must reach the backend's write path first,
        # or flush() would freeze a memtable that is still missing them.
        self.writer.stop()
        if self.rollup is not None:
            # One last pass so every sealable bucket (and any batch a
            # transient fault left pending) lands before shutdown.
            self.rollup.flush()
        self.backend.flush()
        stop = getattr(self.broker, "stop", None)
        if stop is not None:
            stop()

    def __enter__(self) -> "CollectAgent":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def port(self) -> int | None:
        return getattr(self.broker, "port", None)

    # -- ingest path ------------------------------------------------------------

    #: Must match Pusher.METADATA_PREFIX.
    METADATA_PREFIX = "$DCDB/metadata"

    def _on_publish(self, client_id: str, packet: Publish) -> None:
        if packet.topic.startswith(self.METADATA_PREFIX):
            self._on_metadata(client_id, packet)
            return
        try:
            readings, trace_id = payload_mod.decode_message(packet.payload)
        except TransportError as exc:
            self._decode_errors.inc()
            logger.warning("bad payload on %s from %s: %s", packet.topic, client_id, exc)
            return
        if not readings:
            return
        # Wire-traced messages were sampled at the pusher; a headerless
        # one is sampled here, at this agent's own stride.
        if trace_id is None:
            trace_id = self.tracer.sample()
        start_ns = self._clock() if trace_id is not None else 0
        known = self.sid_mapper.lookup_topic(packet.topic)
        try:
            sid = known if known is not None else self.sid_mapper.sid_for_topic(packet.topic)
        except TransportError as exc:
            self._decode_errors.inc()
            logger.warning("bad topic %r from %s: %s", packet.topic, client_id, exc)
            return
        if known is None:
            # Persist the topic->SID mapping so query tools in other
            # processes can resolve topics (libDCDB reads these keys).
            self.backend.put_metadata(f"sidmap{packet.topic}", sid.hex())
        ttl = self.default_ttl_s
        items = [(sid, r.timestamp, r.value, ttl) for r in readings]
        if trace_id is not None:
            self.tracer.hop(
                "insert",
                "agent",
                trace_id,
                items[0][1],
                start_ns,
                topic=packet.topic,
                readings=len(items),
            )
        # Stage and return: the writer records "commit" once the batch
        # is durable, whether on its own thread or (writers=0) on this
        # one before put() returns.
        try:
            self.writer.put(items, trace_id)
        except BackpressureError as exc:
            self._backpressure_drops.inc(len(items))
            logger.warning("backpressure on %s: %s", packet.topic, exc)
            return
        cache = self._cache_for(packet.topic)
        for reading in readings:
            cache.store(reading)
        self._readings_stored.inc(len(readings))

    def _on_metadata(self, client_id: str, packet: Publish) -> None:
        """Persist a Pusher's sensor-metadata announcement.

        Stored under the same ``sensorconfig<topic>`` keys the config
        tool writes, so libDCDB decodes announced sensors without any
        manual configuration (DCDB's auto-publish behaviour).
        """
        try:
            document = json.loads(packet.payload)
            topic = document["topic"]
            if topic != packet.topic[len(self.METADATA_PREFIX) :]:
                raise ValueError("metadata topic mismatch")
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            self._decode_errors.inc()
            logger.warning("bad metadata announcement from %s: %s", client_id, exc)
            return
        record = {
            "topic": topic,
            "unit": document.get("unit", "count"),
            "scale": float(document.get("scale", 1.0)),
            "integrable": bool(document.get("integrable", False)),
            "ttl_s": int(document.get("ttl_s", 0)),
            "attributes": {"interval_ns": str(document.get("interval_ns", 0))},
        }
        self.backend.put_metadata(f"sensorconfig{topic}", json.dumps(record))
        self._metadata_announcements.inc()

    def _cache_for(self, topic: str) -> SensorCache:
        # Lock-free fast path: one dict.get per the _caches contract.
        cache = self._caches.get(topic)
        if cache is None:
            with self._caches_lock:
                cache = self._caches.get(topic)
                if cache is None:
                    cache = SensorCache(maxage_ns=self.cache_maxage_ns)
                    self._caches[topic] = cache
        return cache

    # -- cache / introspection API (backs REST) --------------------------------------

    def cached_topics(self) -> list[str]:
        # sorted(dict) snapshots the keys in one C call (see the
        # _caches contract), so this read needs no lock either.
        return sorted(self._caches)

    def cache_of(self, topic: str) -> SensorCache | None:
        # Single dict.get per the _caches contract.
        return self._caches.get(topic)

    def latest(self, topic: str):
        """Most recent cached reading of ``topic``, or None."""
        cache = self._caches.get(topic)
        return cache.latest() if cache is not None else None

    def sid_of(self, topic: str) -> SensorId | None:
        return self.sid_mapper.lookup_topic(topic)

    def metrics_registries(self) -> list[MetricsRegistry]:
        """All registries behind this agent's ``/metrics`` exposition.

        The agent/broker registry plus whatever the storage backend
        exposes (a :class:`~repro.storage.cluster.StorageCluster`
        contributes one per node).
        """
        registries = [self.metrics, *self.backend.metrics_registries()]
        seen: set[int] = set()
        return [r for r in registries if not (id(r) in seen or seen.add(id(r)))]

    def health(self) -> dict[str, tuple[bool, dict]]:
        """Per-component readiness checks for the ``/health`` route.

        Components: the transport endpoint (loop thread alive for the
        TCP broker; trivially ready in-proc), the writer (queue below
        its high watermark, running — a zero-thread writer runs until
        stopped) and storage (live replica count when the backend is a
        cluster).
        """
        checks: dict[str, tuple[bool, dict]] = {}
        threads = getattr(self.broker, "transport_threads", None)
        if threads is not None:
            checks["broker"] = (
                threads >= 1,
                {"transportThreads": threads, "port": self.port},
            )
        else:
            checks["broker"] = (True, {"inproc": True})
        wstatus = self.writer.status()
        depth = wstatus["queueDepth"]
        capacity = wstatus["queueCapacity"]
        below_watermark = depth < 0.9 * capacity
        checks["writer"] = (
            wstatus["running"] and below_watermark,
            {
                "queueDepth": depth,
                "queueCapacity": capacity,
                "belowWatermark": below_watermark,
            },
        )
        liveness = getattr(self.backend, "node_liveness", None)
        if liveness is not None:
            live, total = liveness()
            detail: dict = {"liveReplicas": live, "totalReplicas": total}
            states = getattr(self.backend, "node_states", None)
            if states is not None:
                detail["nodes"] = states()
            checks["storage"] = (live > 0, detail)
        else:
            checks["storage"] = (True, {"backend": type(self.backend).__name__})
        return checks

    def status(self) -> dict:
        """JSON-friendly snapshot for the REST API.

        Broker statistics come from the shared registry snapshot (the
        broker writes its counters there), not from duck-typed broker
        attributes.  Existing keys are stable; ``latency`` adds the
        per-hop pipeline percentiles.
        """
        return {
            "uptimeSeconds": round(time.monotonic() - self._started_monotonic, 3),
            "traceSampleEvery": self.tracer.sample_every,
            "cacheMaxAgeNs": self.cache_maxage_ns,
            "defaultTtlSeconds": self.default_ttl_s,
            "readingsStored": self.readings_stored,
            "decodeErrors": self.decode_errors,
            "knownSensors": len(self.sid_mapper),
            "connectedClients": int(
                self.metrics.value("dcdb_broker_connected_clients")
            ),
            "messagesReceived": int(
                self.metrics.value("dcdb_broker_messages_received_total")
            ),
            "latency": {
                hop: self.tracer.percentiles(hop)
                for hop in ("dispatch", "insert", "commit")
            },
            # Queue/flush statistics of the ingest path (writers: 0 when
            # the agent writes synchronously).
            "writer": self.writer.status(),
            # None when continuous aggregation is disabled.
            "rollup": self.rollup.status() if self.rollup is not None else None,
        }
