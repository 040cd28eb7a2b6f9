"""Event-loop TCP MQTT brokers.

Two variants are provided:

* :class:`MQTTBroker` — a general-purpose 3.1.1 broker with
  subscriptions, wildcard routing, retained messages and last-will
  delivery.  Useful for integration tests and as a drop-in hub when a
  deployment wants third-party MQTT consumers next to DCDB.

* :class:`PublishOnlyBroker` — the Collect Agent's stripped-down
  variant (paper section 4.2): it accepts CONNECT/PUBLISH/PINGREQ and
  rejects SUBSCRIBE, since the Storage Backend is the only consumer
  and is wired in-process through ``on_publish`` callbacks.  Skipping
  the topic-filtering machinery keeps the per-reading cost to a parse
  and a function call.

Concurrency model: ONE :class:`~repro.mqtt.eventloop.EventLoop`
thread runs the listener and every client session — O(1) transport
threads regardless of connection count, where the previous revision
spawned a reader thread per client (plus the client-side ping
threads) and topped out on context-switch churn long before the
hardware did.  Delivery to subscribers goes through per-session
bounded write buffers; a slow consumer either loses messages or the
connection (``overflow_policy``) instead of wedging the publisher.

The broker also enforces the MQTT 3.1.1 keepalive contract [3.1.2.10]
server-side: a session silent for more than 1.5x its negotiated
keepalive is disconnected and its last-will fires, so crashed Pushers
are detected without waiting for TCP timeouts.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from typing import Callable

from repro.common.errors import TransportError
from repro.core import payload as payload_mod
from repro.mqtt import packets as pkt
from repro.mqtt.eventloop import Connection, EventLoop
from repro.mqtt.topics import SubscriptionTree, topic_matches, validate_topic
from repro.observability import (
    EventLoopLagProbe,
    MetricsRegistry,
    PipelineTracer,
    SpanRecorder,
)

logger = logging.getLogger(__name__)

# Callback invoked for every accepted PUBLISH: (client_id, publish packet).
PublishHook = Callable[[str, pkt.Publish], None]


def trace_dispatch(tracer: PipelineTracer, client_id: str, packet: pkt.Publish) -> None:
    """Record the ``dispatch`` hop of an accepted PUBLISH, if traced.

    A wire-traced message keeps its Pusher's trace ID; a headerless one
    is sampled at this broker's own stride.  ``$``-topics and payloads
    that are not reading frames are never traced.  Shared by the TCP
    broker and the in-process hub.
    """
    if packet.topic.startswith("$"):
        return
    trace_id = payload_mod.trace_id_of(packet.payload)
    if trace_id is None:
        trace_id = tracer.sample()
        if trace_id is None:
            return
    origin = payload_mod.payload_origin_ns(packet.payload)
    if origin is not None:
        tracer.hop(
            "dispatch",
            "broker",
            trace_id,
            origin,
            topic=packet.topic,
            qos=packet.qos,
            client=client_id,
        )


#: How often the keepalive sweep runs.  Bounded below the smallest
#: useful grace period (keepalive=1 -> 1.5 s) so expiry lands close to
#: the contractual deadline.
KEEPALIVE_TICK_S = 0.25


class _Session:
    """Per-connection state inside the broker."""

    __slots__ = ("conn", "addr", "client_id", "will", "keepalive", "connected")

    def __init__(self, conn: Connection, addr: tuple[str, int]) -> None:
        self.conn = conn
        self.addr = addr
        self.client_id: str | None = None
        self.will: pkt.Publish | None = None
        self.keepalive = 0
        self.connected = False  # CONNECT/CONNACK handshake completed

    def send(self, data: bytes) -> bool:
        return self.conn.write(data)


class MQTTBroker:
    """A small event-loop MQTT 3.1.1 broker.

    Usage::

        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        ... clients connect to broker.port ...
        broker.stop()

    ``authenticator`` (if given) is called with (client_id, username,
    password) and must return True to accept the connection.

    ``max_write_buffer`` bounds each session's outgoing buffer;
    ``overflow_policy`` picks what happens to a slow consumer whose
    buffer fills: ``"disconnect"`` (default) severs it, ``"drop"``
    discards the overflowing message and keeps the session.
    """

    #: Whether SUBSCRIBE packets are honoured.
    allow_subscribe = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 1883,
        authenticator: Callable[[str, str | None, bytes | None], bool] | None = None,
        metrics: MetricsRegistry | None = None,
        trace_sample_every: int = 1,
        fault_injector=None,
        max_write_buffer: int = 1 << 20,
        overflow_policy: str = "disconnect",
        spans: SpanRecorder | None = None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._authenticator = authenticator
        # Optional chaos hook (repro.faults.BrokerFaultInjector or any
        # object with on_data(client_id, bytes) -> None | "drop" |
        # "disconnect" | "stall" | ("stall", seconds)), consulted once
        # per recv chunk on the event loop.  None in production: the
        # check is one attribute load per chunk.
        self._fault_injector = fault_injector
        self.max_write_buffer = max_write_buffer
        self.overflow_policy = overflow_policy
        self._server_sock: socket.socket | None = None
        self._loop: EventLoop | None = None
        self._keepalive_timer = None
        self._sessions: dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._subs = SubscriptionTree()
        self._subs_lock = threading.Lock()
        self._retained: dict[str, pkt.Publish] = {}
        self._hooks: list[PublishHook] = []
        self._running = False
        self._stopping = False
        # Registry-backed counters: publishers on the loop thread race
        # metric scrapes, so these must not be bare attributes.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._messages_received = self.metrics.counter(
            "dcdb_broker_messages_received_total", "PUBLISH packets accepted"
        )
        self._messages_delivered = self.metrics.counter(
            "dcdb_broker_messages_delivered_total", "PUBLISH packets routed to subscribers"
        )
        self._bytes_received = self.metrics.counter(
            "dcdb_broker_bytes_received_total", "Raw bytes read from client sockets"
        )
        self._keepalive_disconnects = self.metrics.counter(
            "dcdb_broker_keepalive_disconnects_total",
            "Sessions disconnected for exceeding 1.5x their keepalive",
        )
        self._write_overflows = self.metrics.counter(
            "dcdb_broker_write_overflow_total",
            "Messages hitting a full per-session write buffer",
        )
        self.metrics.gauge(
            "dcdb_broker_connected_clients", "Currently connected MQTT sessions"
        ).set_function(lambda: self.connected_clients)
        self.metrics.gauge(
            "dcdb_broker_connections", "Open transport connections (pre- and post-CONNECT)"
        ).set_function(lambda: self.connected_clients)
        self.metrics.gauge(
            "dcdb_broker_write_buffer_bytes",
            "Bytes queued in per-session outgoing write buffers",
        ).set_function(self._write_buffer_bytes)
        self.tracer = PipelineTracer(
            self.metrics, sample_every=trace_sample_every, spans=spans
        )
        self._lag_probe: EventLoopLagProbe | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bind, listen and start the event loop."""
        if self._running:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(512)
        sock.setblocking(False)
        self._server_sock = sock
        self.port = sock.getsockname()[1]
        self._stopping = False
        self._running = True
        loop = EventLoop(name=f"mqtt-broker-{self.port}")
        self._loop = loop
        loop.start()
        self._lag_probe = EventLoopLagProbe(
            loop, self.metrics, name=f"broker-{self.port}"
        )
        self._lag_probe.start()
        loop.call_soon(self._install_listener)

    def _install_listener(self) -> None:
        loop, sock = self._loop, self._server_sock
        if loop is None or sock is None or not self._running:
            return
        try:
            loop._selector.register(sock, selectors.EVENT_READ, self._on_accept)
        except (ValueError, KeyError, OSError):
            pass
        self._keepalive_timer = loop.call_later(KEEPALIVE_TICK_S, self._keepalive_tick)

    def stop(self) -> None:
        """Close the listener and all client connections.

        Idempotent and silent: sessions are torn down from the loop
        thread with their last-wills suppressed (a broker shutting
        down is not a client crash), so no spurious will deliveries
        and no bad-file-descriptor noise from half-closed sockets.
        """
        if not self._running:
            return
        self._running = False
        self._stopping = True
        if self._lag_probe is not None:
            self._lag_probe.stop()
            self._lag_probe = None
        loop = self._loop
        if loop is not None and loop.running:
            done = threading.Event()

            def _teardown() -> None:
                try:
                    if self._keepalive_timer is not None:
                        self._keepalive_timer.cancel()
                        self._keepalive_timer = None
                    sock = self._server_sock
                    if sock is not None:
                        try:
                            loop._selector.unregister(sock)
                        except (ValueError, KeyError, OSError):
                            pass
                    with self._sessions_lock:
                        sessions = list(self._sessions.values())
                    for session in sessions:
                        session.will = None  # shutdown suppresses wills
                        session.conn.close()
                finally:
                    done.set()

            loop.call_soon(_teardown)
            done.wait(timeout=2.0)
            loop.stop(join=True)
        self._loop = None
        if self._server_sock is not None:
            try:
                self._server_sock.close()
            except OSError:
                pass
            self._server_sock = None
        # Belt and braces: anything the loop did not get to.
        with self._sessions_lock:
            leftovers = list(self._sessions.values())
            self._sessions.clear()
        for session in leftovers:
            session.will = None
            try:
                session.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "MQTTBroker":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- hooks --------------------------------------------------------

    def add_publish_hook(self, hook: PublishHook) -> None:
        """Register a callback invoked for every accepted PUBLISH.

        This is how the Collect Agent attaches its storage writer.
        """
        self._hooks.append(hook)

    def set_fault_injector(self, injector) -> None:
        """Attach (or with None, remove) a socket-level fault injector."""
        self._fault_injector = injector
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            self._wire_filter(session)

    @property
    def connected_clients(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    @property
    def transport_threads(self) -> int:
        """Threads serving transport I/O — 1 (the loop), however many
        clients are connected."""
        return 1 if self._loop is not None and self._loop.running else 0

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

    @property
    def keepalive_disconnects(self) -> int:
        return int(self._keepalive_disconnects.value)

    def _write_buffer_bytes(self) -> int:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        return sum(s.conn.outbuf_len for s in sessions)

    # -- event-loop handlers ----------------------------------------------

    def _on_accept(self, mask: int) -> None:
        sock = self._server_sock
        loop = self._loop
        if sock is None or loop is None or not self._running:
            return
        while True:
            try:
                client_sock, addr = sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            client_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = Connection(
                loop,
                client_sock,
                on_packet=self._on_packet,
                on_close=self._on_conn_close,
                on_bytes=self._on_bytes,
                on_error=self._on_protocol_error,
                on_overflow=self._on_overflow,
                max_write_buffer=self.max_write_buffer,
                overflow_policy=self.overflow_policy,
                label=f"broker-session-{addr[1]}",
            )
            session = _Session(conn, addr)
            conn.owner = session  # type: ignore[attr-defined]
            self._wire_filter(session)
            with self._sessions_lock:
                self._sessions[id(session)] = session
            conn.attach()

    def _wire_filter(self, session: _Session) -> None:
        injector = self._fault_injector
        if injector is None:
            session.conn.data_filter = None
        else:
            # client_id is read at call time: injectors keyed on the id
            # see None before CONNECT, exactly as the per-chunk hook in
            # the threaded revision did.
            session.conn.data_filter = lambda conn, data: injector.on_data(
                session.client_id, data
            )

    def _on_bytes(self, conn: Connection, n: int) -> None:
        self._bytes_received.inc(n)

    def _on_overflow(self, conn: Connection) -> None:
        self._write_overflows.inc()
        session = getattr(conn, "owner", None)
        if session is not None:
            logger.warning(
                "write buffer full for client %s (%d bytes queued, policy=%s)",
                session.client_id,
                conn.outbuf_len,
                self.overflow_policy,
            )

    def _on_protocol_error(self, conn: Connection, exc: Exception) -> None:
        session = getattr(conn, "owner", None)
        if not self._stopping:
            addr = session.addr if session is not None else "?"
            logger.warning("protocol error from %s: %s", addr, exc)

    def _on_packet(self, conn: Connection, packet: pkt.Packet) -> None:
        session: _Session = conn.owner  # type: ignore[attr-defined]
        if not session.connected:
            if not isinstance(packet, pkt.Connect):
                raise TransportError("first packet must be CONNECT")
            self._handle_connect(session, packet)
            return
        if isinstance(packet, pkt.Publish):
            self._handle_publish(session, packet)
        elif isinstance(packet, pkt.Subscribe):
            self._handle_subscribe(session, packet)
        elif isinstance(packet, pkt.Unsubscribe):
            self._handle_unsubscribe(session, packet)
        elif isinstance(packet, pkt.PingReq):
            session.send(pkt.PingResp().encode())
        elif isinstance(packet, pkt.Disconnect):
            session.will = None  # clean close: will discarded
            conn.close()
        else:
            raise TransportError(
                f"unexpected packet {type(packet).__name__} from client"
            )

    def _keepalive_tick(self) -> None:
        loop = self._loop
        if loop is None or not self._running:
            return
        now = time.monotonic()
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            if session.keepalive <= 0 or session.conn.closed:
                continue
            # MQTT 3.1.1 [3.1.2.10]: the server may disconnect a
            # client silent for 1.5x its keepalive.  PINGREQs (or any
            # traffic) reset last_rx naturally.
            if now - session.conn.last_rx > session.keepalive * 1.5:
                logger.info(
                    "client %s exceeded keepalive, disconnecting",
                    session.client_id,
                )
                self._keepalive_disconnects.inc()
                session.conn.close()  # abnormal close: the will fires
        self._keepalive_timer = loop.call_later(KEEPALIVE_TICK_S, self._keepalive_tick)

    # -- packet handlers --------------------------------------------------

    def _handle_connect(self, session: _Session, packet: pkt.Connect) -> None:
        if self._authenticator is not None and not self._authenticator(
            packet.client_id, packet.username, packet.password
        ):
            session.send(
                pkt.ConnAck(return_code=pkt.CONNACK_REFUSED_BAD_CREDENTIALS).encode()
            )
            session.conn.close()  # no will: none registered yet
            return
        session.client_id = packet.client_id
        session.keepalive = packet.keepalive
        if packet.will_topic is not None:
            session.will = pkt.Publish(
                topic=packet.will_topic,
                payload=packet.will_payload,
                qos=min(packet.will_qos, 1),
                retain=packet.will_retain,
                packet_id=1 if packet.will_qos else None,
            )
        session.connected = True
        session.send(pkt.ConnAck(session_present=False).encode())

    def _handle_publish(self, session: _Session, packet: pkt.Publish) -> None:
        validate_topic(packet.topic)
        self._messages_received.inc()
        trace_dispatch(self.tracer, session.client_id or "", packet)
        if packet.retain:
            if packet.payload:
                self._retained[packet.topic] = packet
            else:
                self._retained.pop(packet.topic, None)
        for hook in self._hooks:
            hook(session.client_id or "", packet)
        # Ack after the hooks: a QoS 1 PUBACK means the reading was
        # handed to storage, not merely parsed.
        if packet.qos == 1:
            session.send(pkt.PubAck(packet_id=packet.packet_id).encode())
        self._route(packet)

    def _route(self, packet: pkt.Publish) -> None:
        with self._subs_lock:
            targets = self._subs.match(packet.topic)
        if not targets:
            return
        for sub_key, granted_qos in targets.items():
            with self._sessions_lock:
                target = self._sessions.get(sub_key)
            if target is None or target.conn.closed:
                continue
            out_qos = min(packet.qos, granted_qos)
            out = pkt.Publish(
                topic=packet.topic,
                payload=packet.payload,
                qos=out_qos,
                retain=False,
                packet_id=packet.packet_id if out_qos else None,
            )
            if target.send(out.encode()):
                self._messages_delivered.inc()

    def _handle_subscribe(self, session: _Session, packet: pkt.Subscribe) -> None:
        codes: list[int] = []
        for topic, qos in packet.topics:
            if not self.allow_subscribe:
                codes.append(pkt.SUBACK_FAILURE)
                continue
            try:
                with self._subs_lock:
                    self._subs.subscribe(topic, id(session), min(qos, 1))
                codes.append(min(qos, 1))
            except TransportError:
                codes.append(pkt.SUBACK_FAILURE)
        session.send(
            pkt.SubAck(packet_id=packet.packet_id, return_codes=tuple(codes)).encode()
        )
        if not self.allow_subscribe:
            return
        # Deliver retained messages matching the new filters.
        for topic, qos in packet.topics:
            for rtopic, retained in list(self._retained.items()):
                if topic_matches(topic, rtopic):
                    out = pkt.Publish(
                        topic=retained.topic,
                        payload=retained.payload,
                        qos=0,
                        retain=True,
                    )
                    session.send(out.encode())

    def _handle_unsubscribe(self, session: _Session, packet: pkt.Unsubscribe) -> None:
        with self._subs_lock:
            for topic in packet.topics:
                self._subs.unsubscribe(topic, id(session))
        session.send(pkt.UnsubAck(packet_id=packet.packet_id).encode())

    def _on_conn_close(self, conn: Connection) -> None:
        session = getattr(conn, "owner", None)
        if session is None:
            return
        with self._sessions_lock:
            self._sessions.pop(id(session), None)
        with self._subs_lock:
            self._subs.remove_subscriber(id(session))
        # Abnormal disconnect with a registered will: publish it.
        # Shutdown clears wills first, so a stopping broker never
        # fabricates client deaths.
        if session.will is not None and not self._stopping:
            will = session.will
            session.will = None
            for hook in self._hooks:
                hook(session.client_id or "", will)
            self._route(will)


class PublishOnlyBroker(MQTTBroker):
    """The Collect Agent's minimal broker.

    Only the publish interface of the MQTT standard is supported
    (paper section 4.2): SUBSCRIBE requests are answered with a failure
    return code for every filter, so well-behaved clients learn that
    this endpoint is ingest-only.  All readings reach consumers through
    :meth:`MQTTBroker.add_publish_hook`.
    """

    allow_subscribe = False
