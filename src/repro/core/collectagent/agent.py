"""Collect Agent implementation.

Wires together three pieces:

* a :class:`~repro.mqtt.broker.MQTTBroker` — listening on TCP
  (production layout) or, built with ``port=None``, serving memory
  pipes (simulation) — whose hook hands over every PUBLISH one read
  decoded;
* the :class:`~repro.core.sid.SidMapper` translating topics into
  storage keys (1:1, hierarchical, paper section 4.2);
* a :class:`~repro.storage.backend.StorageBackend` receiving the
  readings through a
  :class:`~repro.core.collectagent.writer.BatchingWriter`, which
  flushes on the broker's event loop (elsewhere before the hook
  returns); a QoS 1 PUBACK waits for the flush that commits its read.

The agent's sensor cache ("gives access to the most recent readings of
all Pushers connected", paper section 5.3) is the store itself:
:meth:`CollectAgent.recent` and :meth:`CollectAgent.latest` read the
newest stored rows, so a reading shows there once the writer has
committed it.  The agent also keeps counters for the load experiments.
"""

from __future__ import annotations

import json
import logging
import time
from itertools import accumulate

from repro.common.errors import StorageError, TransportError
from repro.common.timeutil import NS_PER_SEC, now_ns
from repro.core import payload as payload_mod
from repro.core.collectagent.writer import Acks, BatchingWriter, WriterConfig
from repro.core.sensor import SensorReading
from repro.core.sid import PersistentSidMapper, SensorId
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.packets import Publish
from repro.observability import MetricsRegistry, PipelineTracer, SpanRecorder
from repro.observability.spans import default_recorder
from repro.storage.backend import ReadingBatch, StorageBackend
from repro.storage.rollup import RollupConfig, RollupEngine

logger = logging.getLogger(__name__)


class CollectAgent:
    """Receives Pusher publishes and persists them.

    Parameters
    ----------
    backend:
        Destination storage.
    broker:
        The :class:`~repro.mqtt.broker.MQTTBroker` whose publish hook
        feeds this agent; when None one listening on TCP ``host:port``
        is built.
    cache_maxage_ns:
        Window of the sensor cache: :meth:`recent` answers the stored
        rows at most this old relative to a sensor's newest one.
    default_ttl_s:
        TTL applied to stored readings (0 = keep forever).
    writer_config:
        Configuration of the
        :class:`~repro.core.collectagent.writer.BatchingWriter` every
        reading is staged in (``None``: ``WriterConfig()``); it
        coalesces writes across MQTT messages (paper section 5.3:
        Cassandra inserts happen in large asynchronous batches).
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
        if metrics is None and broker is not None:
            metrics = broker.metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if broker is None:
            broker = MQTTBroker(host, port, metrics=self.metrics)
        self.broker = broker
        # Component codes are coordinated through backend metadata so
        # several Collect Agents sharing one Storage Backend (and
        # restarts of this agent) agree on the topic->SID mapping.
        self.sid_mapper = PersistentSidMapper(backend)
        self.cache_maxage_ns = cache_maxage_ns
        self.default_ttl_s = default_ttl_s
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
            writer_config if writer_config is not None else WriterConfig(),
            metrics=self.metrics,
            clock=clock,
            tracer=self.tracer,
            rollup=self.rollup,
            loop=self.broker,
        )
        self.broker.add_publish_hook(self._on_publish)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.broker.start()

    def stop(self) -> None:
        # Stop the broker, so nothing more is staged, then drain the
        # staging queue on this thread BEFORE flushing the backend:
        # every accepted reading must reach the backend's write path
        # first, or flush() would freeze a memtable still missing them.
        self.broker.stop()
        self.writer.stop()
        if self.rollup is not None:
            # One last pass so every sealable bucket (and any batch a
            # transient fault left pending) lands before shutdown.
            self.rollup.flush()
        self.backend.flush()

    def __enter__(self) -> "CollectAgent":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def port(self) -> int | None:
        return self.broker.port

    # -- ingest path ------------------------------------------------------------

    #: Must match Pusher.METADATA_PREFIX.
    METADATA_PREFIX = "$DCDB/metadata"

    def _on_publish(self, client_id: str, packets: list[Publish]) -> Acks | None:
        """Ingest one socket read's PUBLISHes: per message only the
        metadata, frame check, trace sampling and SID; one
        ``decode_message`` and one ``writer.put`` (a run per message)
        for them all.  A message that raises has those before it staged.
        Returns the :class:`Acks` holding the read's QoS 1 PUBACKs, or
        None when it staged nothing or has no QoS 1 message."""
        topics, sids, lengths, frames, traces = [], [], [], [], []
        acks = None
        try:
            for packet in packets:
                topic, payload = packet.topic, packet.payload
                if topic.startswith(self.METADATA_PREFIX):
                    self._on_metadata(client_id, packet)
                    continue
                trace_id = payload_mod.trace_id_of(payload)
                if trace_id is not None:
                    payload = memoryview(payload)[payload_mod.TRACE_HEADER_SIZE :]
                if len(payload) % payload_mod.RECORD_SIZE:
                    self._decode_errors.inc()
                    logger.warning("bad payload length on %s from %s", topic, client_id)
                    continue
                if not payload:
                    continue
                # Wire-traced messages were sampled at the pusher; a
                # headerless one is sampled here, at this agent's own stride.
                if trace_id is None:
                    trace_id = self.tracer.sample()
                start_ns = self._clock() if trace_id is not None else 0
                sid = self.sid_mapper.lookup_topic(topic)
                if sid is None:
                    try:
                        sid = self.sid_mapper.sid_for_topic(topic)
                    except TransportError as exc:
                        self._decode_errors.inc()
                        logger.warning("bad topic %r from %s: %s", topic, client_id, exc)
                        continue
                if trace_id is not None:
                    traces.append((len(sids), trace_id, start_ns))
                topics.append(topic)
                sids.append(sid)
                lengths.append(len(payload) // payload_mod.RECORD_SIZE)
                frames.append(payload)
        finally:
            if sids:
                if any(packet.qos for packet in packets):
                    acks = Acks(self.writer)
                try:
                    self._stage(topics, sids, lengths, frames, traces, acks)
                except StorageError as exc:  # a put after stop(): never acked
                    logger.warning("read from %s refused: %s", client_id, exc)
        return acks

    def _stage(self, topics, sids, lengths, frames, traces, acks: Acks | None) -> None:
        timestamps, values, _ = payload_mod.decode_message(b"".join(frames))
        batch = ReadingBatch(sids, lengths, timestamps, values, [self.default_ttl_s] * len(sids))
        starts = [0, *accumulate(lengths)]
        hops = []
        for run, trace_id, start_ns in traces:
            origin_ns = int(timestamps[starts[run]])
            self.tracer.hop("insert", "agent", trace_id, origin_ns, start_ns,
                            topic=topics[run], readings=lengths[run])
            hops.append((run, trace_id, origin_ns))
        # The writer records "commit" once a message is durable.
        self.writer.put(batch, hops, acks)
        self._readings_stored.inc(len(batch))

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

    # -- sensor cache (backs REST): the newest stored rows -----------------

    def topics(self) -> list[str]:
        """Every topic with a stored ``sidmap`` key, sorted — on a
        shared store also other agents' and virtual sensors' topics."""
        return sorted(key[len("sidmap") :] for key in self.backend.metadata_keys("sidmap"))

    def latest(self, topic: str) -> SensorReading | None:
        """The newest stored reading of ``topic``, or None."""
        sid = self.sid_of(topic)
        newest = self.backend.latest(sid) if sid is not None else None
        return SensorReading(*newest) if newest is not None else None

    def recent(self, topic: str) -> list[SensorReading] | None:
        """The stored readings of ``topic`` at most ``cache_maxage_ns``
        older than its newest one, oldest first; None for a topic
        without a SID."""
        sid = self.sid_of(topic)
        if sid is None:
            return None
        newest = self.backend.latest(sid)
        if newest is None:
            return []
        timestamps, values = self.backend.query(sid, newest[0] - self.cache_maxage_ns, newest[0])
        return list(map(SensorReading, timestamps.tolist(), values.tolist()))

    def sid_of(self, topic: str) -> SensorId | None:
        """The SID of ``topic``: the mapper's, or else the stored
        ``sidmap<topic>`` value (a topic stored before this agent
        started, or by another agent on the same store)."""
        sid = self.sid_mapper.lookup_topic(topic)
        if sid is None:
            stored = self.backend.get_metadata(f"sidmap{topic}")
            sid = SensorId.from_hex(stored) if stored else None
        return sid

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

        Components: the broker (ready while its loop thread runs, or
        always when it has no listener), the writer (queue below
        its high watermark, running until stopped) and storage (live replica count when the backend is a
        cluster).
        """
        checks: dict[str, tuple[bool, dict]] = {}
        checks["broker"] = (
            self.broker.ready,
            {"transportThreads": self.broker.transport_threads, "port": self.port},
        )
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
            "readingsStored": int(self._readings_stored.value),
            "decodeErrors": int(self._decode_errors.value),
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
            # Queue/flush statistics of the ingest path.
            "writer": self.writer.status(),
            # None when continuous aggregation is disabled.
            "rollup": self.rollup.status() if self.rollup is not None else None,
        }
