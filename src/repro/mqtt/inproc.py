"""In-process MQTT-compatible transport.

Large simulated deployments (a thousand Pushers feeding one Collect
Agent, as in the paper's Figure 8 experiment) would drown in socket
and thread overhead if every simulated node opened a real TCP
connection from a single test process.  :class:`InProcHub` implements
the same publish/subscribe semantics as :class:`~repro.mqtt.broker.MQTTBroker`
as plain function calls — identical topic matching, identical hook
interface — so the Collect Agent and Pusher code paths above the
transport are byte-for-byte the same in both modes.

:class:`InProcClient` intentionally mirrors the public surface of
:class:`~repro.mqtt.client.MQTTClient` (connect/publish/subscribe/
disconnect), so higher layers accept either interchangeably.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt
from repro.mqtt.broker import PublishHook, trace_dispatch
from repro.mqtt.topics import SubscriptionTree, validate_filter, validate_topic
from repro.observability import MetricsRegistry, PipelineTracer, SpanRecorder

MessageCallback = Callable[[str, bytes], None]


class InProcHub:
    """A broker-equivalent hub living inside the process.

    Exposes the same counters and ``add_publish_hook`` API as the TCP
    broker, allowing the Collect Agent to attach to either.
    """

    def __init__(
        self,
        allow_subscribe: bool = True,
        metrics: MetricsRegistry | None = None,
        trace_sample_every: int = 1,
        spans: SpanRecorder | None = None,
    ) -> None:
        self.allow_subscribe = allow_subscribe
        self._subs = SubscriptionTree()
        self._lock = threading.Lock()
        self._hooks: list[PublishHook] = []
        self._clients: dict[int, "InProcClient"] = {}
        self._ids = itertools.count(1)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._messages_received = self.metrics.counter(
            "dcdb_broker_messages_received_total", "PUBLISH packets accepted"
        )
        self._messages_delivered = self.metrics.counter(
            "dcdb_broker_messages_delivered_total", "PUBLISH packets routed to subscribers"
        )
        self._bytes_received = self.metrics.counter(
            "dcdb_broker_bytes_received_total", "Payload+topic bytes received"
        )
        self.metrics.gauge(
            "dcdb_broker_connected_clients", "Currently attached in-proc clients"
        ).set_function(lambda: self.connected_clients)
        # Event-loop transport parity: the same metric families exist on
        # both transports so dashboards work unchanged.  Keepalive and
        # write buffering have no in-proc equivalent, so these stay 0.
        self.metrics.gauge(
            "dcdb_broker_connections", "Open transport connections"
        ).set_function(lambda: self.connected_clients)
        self._keepalive_disconnects = self.metrics.counter(
            "dcdb_broker_keepalive_disconnects_total",
            "Sessions disconnected for exceeding 1.5x their keepalive",
        )
        self.metrics.gauge(
            "dcdb_broker_write_buffer_bytes",
            "Bytes queued in per-session outgoing write buffers",
        )
        self.tracer = PipelineTracer(
            self.metrics, sample_every=trace_sample_every, spans=spans
        )

    #: TCP-broker parity: a hub has no listener, so its "port" is None
    #: and lifecycle calls are no-ops.  Lets transport-agnostic callers
    #: (CollectAgent, SimulatedCluster) treat both brokers uniformly.
    port: int | None = None

    def start(self) -> None:
        return

    def stop(self) -> None:
        return

    def __enter__(self) -> "InProcHub":
        return self

    def __exit__(self, *exc: object) -> None:
        return

    def add_publish_hook(self, hook: PublishHook) -> None:
        self._hooks.append(hook)

    @property
    def connected_clients(self) -> int:
        with self._lock:
            return len(self._clients)

    # Backward-compatible counter views over the registry.

    @property
    def messages_received(self) -> int:
        return int(self._messages_received.value)

    @property
    def messages_delivered(self) -> int:
        return int(self._messages_delivered.value)

    @property
    def bytes_received(self) -> int:
        return int(self._bytes_received.value)

    # -- client-facing operations (called by InProcClient) ------------

    def _attach(self, client: "InProcClient") -> int:
        with self._lock:
            key = next(self._ids)
            self._clients[key] = client
            return key

    def _detach(self, key: int) -> None:
        with self._lock:
            self._clients.pop(key, None)
            self._subs.remove_subscriber(key)

    def _publish(self, client_id: str, packet: pkt.Publish) -> None:
        self._messages_received.inc()
        self._bytes_received.inc(len(packet.payload) + len(packet.topic))
        trace_dispatch(self.tracer, client_id, packet)
        with self._lock:
            targets = list(self._subs.match(packet.topic).items())
            clients = {k: self._clients.get(k) for k, _ in targets}
        for hook in self._hooks:
            hook(client_id, packet)
        delivered = 0
        for key, _qos in targets:
            target = clients.get(key)
            if target is not None:
                target._deliver(packet.topic, packet.payload)
                delivered += 1
        if delivered:
            self._messages_delivered.inc(delivered)

    def _subscribe(self, key: int, pattern: str, qos: int) -> int:
        if not self.allow_subscribe:
            raise TransportError("this hub is publish-only")
        with self._lock:
            self._subs.subscribe(pattern, key, qos)
        return qos

    def _unsubscribe(self, key: int, pattern: str) -> None:
        with self._lock:
            self._subs.unsubscribe(pattern, key)


class InProcClient:
    """Client endpoint for an :class:`InProcHub`.

    API-compatible with :class:`~repro.mqtt.client.MQTTClient` for the
    operations DCDB components use.
    """

    def __init__(
        self, client_id: str, hub: InProcHub, metrics: MetricsRegistry | None = None
    ) -> None:
        self.client_id = client_id
        self.hub = hub
        self._key: int | None = None
        self._callbacks: list[tuple[str, MessageCallback]] = []
        self.on_message: MessageCallback | None = None
        # Surface parity with MQTTClient's reconnect machinery: an
        # in-proc link cannot drop, so these are inert but present.
        self.auto_reconnect = False
        self.ever_connected = False
        self.on_reconnect: Callable[[], None] | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._messages_sent = self.metrics.counter(
            "dcdb_client_messages_sent_total", "Messages published by this client"
        )
        self._bytes_sent = self.metrics.counter(
            "dcdb_client_bytes_sent_total", "Payload+topic bytes published"
        )
        self._reconnects_counter = self.metrics.counter(
            "dcdb_client_reconnects_total",
            "Automatic broker reconnections completed by this client",
        )
        self._qos0_drops = self.metrics.counter(
            "dcdb_client_qos0_drops_total",
            "QoS 0 publishes dropped while disconnected",
        )

    @property
    def messages_sent(self) -> int:
        return int(self._messages_sent.value)

    @property
    def bytes_sent(self) -> int:
        return int(self._bytes_sent.value)

    # -- lifecycle ------------------------------------------------------

    def connect(self, timeout: float = 5.0) -> None:
        if self._key is None:
            self._key = self.hub._attach(self)
            self.ever_connected = True

    def disconnect(self) -> None:
        if self._key is not None:
            self.hub._detach(self._key)
            self._key = None

    close = disconnect

    @property
    def connected(self) -> bool:
        return self._key is not None

    def __enter__(self) -> "InProcClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.disconnect()

    # -- operations -------------------------------------------------------

    def publish(
        self,
        topic: str,
        payload: bytes,
        qos: int = 0,
        retain: bool = False,
        wait_ack: bool = False,
        timeout: float = 5.0,
    ) -> None:
        if self._key is None:
            if qos == 0 and self.ever_connected:
                self._qos0_drops.inc()
            raise TransportError("client is not connected")
        validate_topic(topic)
        packet = pkt.Publish(
            topic=topic,
            payload=payload,
            qos=qos,
            retain=retain,
            packet_id=1 if qos else None,
        )
        self.hub._publish(self.client_id, packet)
        self._messages_sent.inc()
        self._bytes_sent.inc(len(payload) + len(topic))

    def subscribe(
        self,
        pattern: str,
        callback: MessageCallback | None = None,
        qos: int = 0,
        timeout: float = 5.0,
    ) -> int:
        if self._key is None:
            raise TransportError("client is not connected")
        validate_filter(pattern)
        granted = self.hub._subscribe(self._key, pattern, min(qos, 1))
        if callback is not None:
            self._callbacks.append((pattern, callback))
        return granted

    def unsubscribe(self, pattern: str) -> None:
        if self._key is None:
            raise TransportError("client is not connected")
        self.hub._unsubscribe(self._key, pattern)
        self._callbacks = [(p, cb) for p, cb in self._callbacks if p != pattern]

    # -- delivery ---------------------------------------------------------

    def _deliver(self, topic: str, payload: bytes) -> None:
        from repro.mqtt.topics import topic_matches

        delivered = False
        for pattern, callback in self._callbacks:
            if topic_matches(pattern, topic):
                callback(topic, payload)
                delivered = True
        if not delivered and self.on_message is not None:
            self.on_message(topic, payload)
