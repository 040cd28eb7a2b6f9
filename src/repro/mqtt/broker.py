"""The Collect Agent's event-loop TCP MQTT broker.

Only the publish interface of MQTT 3.1.1 is implemented (paper
section 4.2): the broker accepts CONNECT/PUBLISH/PINGREQ/DISCONNECT,
and the Storage Backend — its only consumer — is wired in-process
through :meth:`MQTTBroker.add_publish_hook`.  SUBSCRIBE is answered
with a failure return code for every filter, so well-behaved clients
learn that this endpoint is ingest-only; no topic filtering, retained
messages or last-wills stand between a parse and the hook call.

Concurrency model: ONE :class:`~repro.mqtt.eventloop.EventLoop`
thread runs the listener and every client session — O(1) transport
threads regardless of connection count.  The broker only writes
CONNACK, PUBACK, PINGRESP and SUBACK; each session's write buffer is
bounded (``max_write_buffer``) and a client that does not read its
acks loses its connection instead of growing the buffer.

The broker also enforces the MQTT 3.1.1 keepalive contract [3.1.2.10]
server-side: a session silent for more than 1.5x its negotiated
keepalive is disconnected, so crashed Pushers are detected without
waiting for TCP timeouts.

In-process runs (simulations, tests, examples) use the same broker
over memory pipes: :meth:`MQTTBroker.open_memory_session` opens a
session whose wire is a
:class:`~repro.mqtt.eventloop.MemoryConnection`, and a broker built
with ``port=None`` serves only those — no listener, no loop thread.
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
from repro.mqtt.eventloop import Connection, EventLoop, MemoryConnection
from repro.mqtt.topics import validate_topic
from repro.observability import (
    EventLoopLagProbe,
    MetricsRegistry,
    PipelineTracer,
    SpanRecorder,
)

logger = logging.getLogger(__name__)

#: Callback for accepted PUBLISHes, ``(client_id, packets)``: every
#: PUBLISH one read (a socket chunk or a memory-pipe write) brought
#: from that client, in order.  QoS 1 PUBACKs follow the hooks, or a
#: hook returns a callable that takes the send and runs it once the
#: read is committed.  A hook that raises should first stage the
#: messages before the failing one.
PublishHook = Callable[[str, list[pkt.Publish]], Callable | None]


#: How often the keepalive sweep runs.  Bounded below the smallest
#: useful grace period (keepalive=1 -> 1.5 s) so expiry lands close to
#: the contractual deadline.
KEEPALIVE_TICK_S = 0.25


class _Session:
    """Per-connection state inside the broker."""

    __slots__ = ("conn", "addr", "client_id", "keepalive", "connected")

    def __init__(self, conn: Connection, addr: tuple[str, int]) -> None:
        self.conn = conn
        self.addr = addr
        self.client_id: str | None = None
        self.keepalive = 0
        self.connected = False  # CONNECT/CONNACK handshake completed

    def send(self, data: bytes) -> bool:
        return self.conn.write(data)


class MQTTBroker:
    """The Collect Agent's publish-only event-loop MQTT 3.1.1 broker.

    Usage::

        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        ... clients connect to broker.port ...
        broker.stop()

    ``authenticator`` (if given) is called with (client_id, username,
    password) and must return True to accept the connection.

    ``max_write_buffer`` bounds each session's outgoing buffer of
    acks; a client that lets it fill is disconnected.

    ``port=None`` builds a broker without a listener: ``start`` and
    ``stop`` open no socket and run no thread, and clients reach it
    only through :meth:`open_memory_session`
    (``MQTTClient(client_id, broker=...)``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = 1883,
        authenticator: Callable[[str, str | None, bytes | None], bool] | None = None,
        metrics: MetricsRegistry | None = None,
        trace_sample_every: int = 1,
        fault_injector=None,
        max_write_buffer: int = 1 << 20,
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
        self._server_sock: socket.socket | None = None
        self._loop: EventLoop | None = None
        self._keepalive_timer = None
        self._sessions: dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._hooks: list[PublishHook] = []
        self._running = False
        self._stopping = False
        # Registry-backed counters: publishers on the loop thread race
        # metric scrapes, so these must not be bare attributes.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._messages_received = self.metrics.counter(
            "dcdb_broker_messages_received_total", "PUBLISH packets accepted"
        )
        self._bytes_received = self.metrics.counter(
            "dcdb_broker_bytes_received_total", "Raw bytes received from client sessions"
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
        """Bind, listen and start the event loop (without a port: only
        mark the broker running)."""
        if self._running:
            return
        if self._requested_port is None:
            self._stopping = False
            self._running = True
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
        thread, so no bad-file-descriptor noise from half-closed
        sockets.
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

    def on_loop_thread(self) -> bool:
        """Whether the caller runs on the broker's event loop."""
        loop = self._loop
        return loop is not None and loop.on_loop_thread()

    def call_later(self, delay_s: float, callback: Callable[[], None]):
        """Run ``callback`` on the broker's event loop after ``delay_s``."""
        return self._loop.call_later(delay_s, callback)

    @property
    def connected_clients(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    @property
    def transport_threads(self) -> int:
        """Threads serving transport I/O — 1 (the loop), however many
        clients are connected; 0 without a listener."""
        return 1 if self._loop is not None and self._loop.running else 0

    @property
    def ready(self) -> bool:
        """Whether the broker serves sessions: its loop runs, or it has
        no listener (memory sessions need no thread)."""
        return self._requested_port is None or self.transport_threads >= 1

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
                on_overflow=self._on_overflow,
                max_write_buffer=self.max_write_buffer,
                label=f"broker-session-{addr[1]}",
                **self._session_handlers(),
            )
            self._add_session(conn, addr)
            conn.attach()

    def open_memory_session(self, **handlers) -> MemoryConnection:
        """Open a session over a memory pipe and return the client's end,
        built with ``handlers`` (:class:`Connection` callbacks).

        The session is set up as an accepted socket's is; the client
        then sends CONNECT through the pipe.  No listener or loop is
        needed, but a stopped broker refuses.
        """
        if self._stopping:
            raise TransportError("broker is stopped")
        conn = MemoryConnection(label="broker-session-memory", **self._session_handlers())
        self._add_session(conn, ("memory", 0))
        return MemoryConnection(peer=conn, **handlers)

    def _session_handlers(self) -> dict:
        return {
            "on_packets": self._on_packets,
            "on_close": self._on_conn_close,
            "on_bytes": self._on_bytes,
            "on_error": self._on_protocol_error,
        }

    def _add_session(self, conn: Connection, addr: tuple[str, int]) -> None:
        session = _Session(conn, addr)
        conn.owner = session  # type: ignore[attr-defined]
        self._wire_filter(session)
        with self._sessions_lock:
            self._sessions[id(session)] = session

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
                "write buffer full for client %s (%d bytes queued), disconnecting",
                session.client_id,
                conn.outbuf_len,
            )

    def _on_protocol_error(self, conn: Connection, exc: Exception) -> None:
        session = getattr(conn, "owner", None)
        if not self._stopping:
            addr = session.addr if session is not None else "?"
            logger.warning("protocol error from %s: %s", addr, exc)

    def _on_packets(self, conn: Connection, packets: list[pkt.Packet]) -> None:
        """One socket read's packets: each run of PUBLISHes is handed
        on whole, any other packet is handled after the run before it."""
        session: _Session = conn.owner  # type: ignore[attr-defined]
        run: list[pkt.Publish] = []
        for packet in packets:
            if type(packet) is pkt.Publish and session.connected:
                try:
                    validate_topic(packet.topic)
                except TransportError:
                    self._publish(session, run)  # the valid ones before it
                    raise
                run.append(packet)
                continue
            self._publish(session, run)
            run = []
            self._on_control(session, packet)
            if conn.closed:
                return
        self._publish(session, run)

    def _on_control(self, session: _Session, packet: pkt.Packet) -> None:
        conn = session.conn
        if not session.connected:
            if not isinstance(packet, pkt.Connect):
                raise TransportError("first packet must be CONNECT")
            self._handle_connect(session, packet)
            return
        if isinstance(packet, pkt.Subscribe):
            # Ingest-only endpoint: every filter is refused.
            codes = (pkt.SUBACK_FAILURE,) * len(packet.topics)
            session.send(pkt.SubAck(packet.packet_id, codes).encode())
        elif isinstance(packet, pkt.PingReq):
            session.send(pkt.PingResp().encode())
        elif isinstance(packet, pkt.Disconnect):
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
                session.conn.close()
        self._keepalive_timer = loop.call_later(KEEPALIVE_TICK_S, self._keepalive_tick)

    # -- packet handlers --------------------------------------------------

    def _handle_connect(self, session: _Session, packet: pkt.Connect) -> None:
        if self._authenticator is not None and not self._authenticator(
            packet.client_id, packet.username, packet.password
        ):
            session.send(
                pkt.ConnAck(return_code=pkt.CONNACK_REFUSED_BAD_CREDENTIALS).encode()
            )
            session.conn.close()
            return
        session.client_id = packet.client_id
        session.keepalive = packet.keepalive
        session.connected = True
        session.send(pkt.ConnAck(session_present=False).encode())

    def _publish(self, session: _Session, packets: list[pkt.Publish]) -> None:
        if not packets:
            return
        client_id = session.client_id or ""
        tracer = self.tracer
        for packet in packets:
            # The dispatch hop: a wire-traced message keeps its Pusher's
            # trace ID, a headerless one is sampled at this broker's own
            # stride; $-topics and non-reading payloads are never traced.
            if not packet.topic.startswith("$"):
                trace_id = payload_mod.trace_id_of(packet.payload)
                if trace_id is None:
                    trace_id = tracer.sample()
                if trace_id is not None:
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
        self._messages_received.inc(len(packets))
        hold = None
        for hook in self._hooks:
            hold = hook(client_id, packets) or hold
        # A QoS 1 PUBACK means the reading is committed, not parsed.
        acks = b"".join(pkt.PubAck(p.packet_id).encode() for p in packets if p.qos == 1)
        if acks:
            if hold is None:
                session.send(acks)
            else:
                hold(lambda: session.send(acks))

    def _on_conn_close(self, conn: Connection) -> None:
        session = getattr(conn, "owner", None)
        if session is None:
            return
        with self._sessions_lock:
            self._sessions.pop(id(session), None)
