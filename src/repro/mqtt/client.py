"""Event-loop MQTT client with automatic reconnection.

This is the Pusher side of the transport (paper section 4.1: the MQTT
Client component "periodically extracts the data from the sensors in
each plugin and pushes it to the associated Collect Agent").  It
supports:

* QoS 0 fire-and-forget publishing (DCDB's default for readings);
* QoS 1 publishing with a bounded in-flight window and PUBACK
  tracking, for configurations that need at-least-once delivery;
* keepalive PINGREQs as an event-loop timer (the dedicated ping
  thread of the previous revision is gone);
* automatic reconnection with capped exponential backoff and session
  re-establishment — unacked QoS-1 publishes are re-sent with the DUP
  flag, so a Collect Agent restart costs a Pusher nothing but the
  outage window.

All socket I/O runs on one :class:`~repro.mqtt.eventloop.EventLoop`
thread per client.  The public API stays blocking and thread-safe:
multiple plugin threads may publish concurrently; writes go through
the connection's buffered non-blocking writer.

Reconnect semantics for publishers:

* QoS 1 publishes issued while the connection is down (but the client
  has connected before and auto-reconnect is on) are QUEUED into the
  bounded in-flight window and replayed on session re-establishment,
  instead of raising as the previous revision did.
* QoS 0 publishes in the same window still raise
  :class:`TransportError` (callers like the Pusher count failures on
  it) but are additionally counted in
  ``dcdb_client_qos0_drops_total`` — fire-and-forget readings lost to
  the outage are visible on /metrics.

``on_reconnect`` (if set) is invoked from the event-loop thread after
every successful automatic re-establishment; the Pusher uses it to
re-announce sensor metadata.

``MQTTClient(client_id, broker=broker)`` connects over a memory pipe
(:meth:`~repro.mqtt.broker.MQTTBroker.open_memory_session`) instead
of a socket: the same CONNECT/CONNACK, PUBACK and framing code, with no loop thread, no keepalive and no automatic reconnect.
A write returns once the broker has handled it, and an exception from
a broker hook (other than a protocol error) reaches the publisher.
"""

from __future__ import annotations

import functools
import logging
import socket
import threading
from typing import Callable

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt
from repro.mqtt.eventloop import Connection, EventLoop, Timer
from repro.mqtt.topics import validate_topic
from repro.observability import MetricsRegistry

logger = logging.getLogger(__name__)

#: How long a reconnect attempt waits for the TCP connect + CONNACK
#: before giving up and backing off again.
RECONNECT_ATTEMPT_TIMEOUT_S = 2.0
CONNACK_GUARD_S = 5.0
#: Validated, encoded topic names cached per client (a Pusher's sensors).
TOPIC_CACHE_SIZE = 8192


class _Inflight:
    """One QoS-1 publish awaiting its PUBACK (or a connection)."""

    __slots__ = ("packet_id", "topic", "payload", "retain", "event", "sent")

    def __init__(self, packet_id: int, topic: str, payload: bytes, retain: bool) -> None:
        self.packet_id = packet_id
        self.topic = topic
        self.payload = payload
        self.retain = retain
        self.event = threading.Event()
        self.sent = False  # written to some connection at least once


def _topic_field(topic: str) -> bytes:
    """A PUBLISH's validated, encoded topic name."""
    validate_topic(topic)
    return pkt.encode_string(topic)


class MQTTClient:
    """A synchronous MQTT 3.1.1 client on an event loop.

    Parameters mirror the subset of Mosquitto options DCDB uses.  The
    object may be used as a context manager; ``connect`` must be called
    before publishing.  With ``reconnect=True``
    (the default) a lost connection is re-established automatically
    with exponential backoff between ``reconnect_min_delay_s`` and
    ``reconnect_max_delay_s``.  Given a ``broker``, the client connects
    to it over a memory pipe and ``host``, ``port``, ``keepalive`` and
    ``reconnect`` do not apply.
    """

    def __init__(
        self,
        client_id: str,
        host: str = "127.0.0.1",
        port: int = 1883,
        keepalive: int = 60,
        username: str | None = None,
        password: bytes | None = None,
        max_inflight: int = 64,
        metrics: MetricsRegistry | None = None,
        reconnect: bool = True,
        reconnect_min_delay_s: float = 0.1,
        reconnect_max_delay_s: float = 5.0,
        broker=None,
    ) -> None:
        self.client_id = client_id
        self.host = host
        self.port = port
        #: The in-process broker this client reaches over a memory pipe
        #: (None: a socket to host:port).
        self.broker = broker
        self.keepalive = keepalive if broker is None else 0
        self.username = username
        self.password = password
        self.max_inflight = max_inflight
        self.auto_reconnect = reconnect and broker is None
        self.reconnect_min_delay_s = reconnect_min_delay_s
        self.reconnect_max_delay_s = reconnect_max_delay_s
        #: Set once the first session is established; gates both the
        #: reconnect machinery and the QoS-1 queueing window.
        self.ever_connected = False
        #: Invoked (loop thread) after each automatic re-establishment.
        self.on_reconnect: Callable[[], None] | None = None
        self._loop: EventLoop | None = None
        self._conn: Connection | None = None
        self._connack = threading.Event()
        self._connack_code: int | None = None
        self._connected = False  # CONNACK accepted on the current conn
        self._closing = False
        self._reconnect_pending = False
        self._reconnect_delay_s = reconnect_min_delay_s
        self._ping_timer: Timer | None = None
        self._reconnect_timer: Timer | None = None
        self._connack_guard: Timer | None = None
        self._next_packet_id = 1
        self._id_lock = threading.Lock()
        self._inflight: dict[int, _Inflight] = {}  # insertion-ordered
        self._inflight_lock = threading.Lock()
        self._inflight_sem = threading.Semaphore(max_inflight)
        self._topic_field = functools.lru_cache(maxsize=TOPIC_CACHE_SIZE)(_topic_field)
        # Registry counters: several plugin threads publish through
        # one client concurrently.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._messages_sent = self.metrics.counter(
            "dcdb_client_messages_sent_total", "MQTT messages published by this client"
        )
        self._bytes_sent = self.metrics.counter(
            "dcdb_client_bytes_sent_total", "Encoded bytes written to the broker socket"
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

    @property
    def reconnects(self) -> int:
        return int(self._reconnects_counter.value)

    @property
    def qos0_drops(self) -> int:
        return int(self._qos0_drops.value)

    # -- lifecycle ------------------------------------------------------

    def connect(self, timeout: float = 5.0) -> None:
        """Open the connection and perform the MQTT handshake; a client
        that is connected stays on its session."""
        if self.connected:
            return
        loop = sock = None
        if self.broker is None:
            sock = socket.create_connection((self.host, self.port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            loop = self._loop
            if loop is None or not loop.running:
                loop = EventLoop(name=f"mqtt-client-{self.client_id}")
                self._loop = loop
                loop.start()
        self._closing = False
        self._connack.clear()
        self._connack_code = None
        self._reconnect_delay_s = self.reconnect_min_delay_s
        conn = self._make_connection(loop, sock)
        self._conn = conn
        conn.attach()
        self._send_connect(conn)
        if not self._connack.wait(timeout):
            self.close()
            raise TransportError("timed out waiting for CONNACK")
        if self._connack_code != pkt.CONNACK_ACCEPTED:
            code = self._connack_code
            self.close()
            raise TransportError(f"connection refused (return code {code})")

    def disconnect(self) -> None:
        """Send DISCONNECT and close the connection."""
        # Flag intent before the handshake: the broker closes the socket
        # on DISCONNECT, and that close racing ahead of ours must not be
        # mistaken for a lost connection (which would schedule a
        # reconnect attempt).
        self._closing = True
        conn = self._conn
        if conn is not None and self._connected:
            conn.write(pkt.Disconnect().encode())
        self.close()

    def close(self) -> None:
        """Tear down the connection without the DISCONNECT handshake.

        The client stays reusable: a later ``connect()`` builds a fresh
        event loop.  Pending QoS-1 publishes are abandoned and their
        waiters unblocked.
        """
        self._closing = True
        self._connected = False
        for timer in (self._ping_timer, self._reconnect_timer, self._connack_guard):
            if timer is not None:
                timer.cancel()
        self._ping_timer = self._reconnect_timer = self._connack_guard = None
        loop = self._loop
        self._loop = None
        if loop is not None:
            loop.stop(join=True)
        conn = self._conn
        self._conn = None
        if conn is not None:
            conn.close()  # loop stopped: teardown runs inline
        with self._inflight_lock:
            pending = list(self._inflight.values())
        self._abandon(pending)
        self._connack.set()  # unblock any connect() waiter

    @property
    def connected(self) -> bool:
        return self._conn is not None and self._connected and not self._closing

    def __enter__(self) -> "MQTTClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.disconnect()

    # -- publishing -----------------------------------------------------

    def publish(
        self,
        topic: str,
        payload: bytes,
        qos: int = 0,
        retain: bool = False,
        wait_ack: bool = False,
        timeout: float = 5.0,
    ) -> None:
        """Publish ``payload`` on ``topic``.

        With ``qos=1`` the message enters the bounded in-flight window;
        ``wait_ack=True`` additionally blocks until the broker's PUBACK
        arrives (or raises on timeout).  During a reconnect window,
        QoS-1 messages queue (replayed on re-establishment) while QoS-0
        messages raise and are counted as drops.
        """
        refused, records = self._publish(((topic, payload),), qos, retain)
        if refused:
            raise refused[0]
        if wait_ack and records:
            record = records[0]
            if not record.event.wait(timeout):
                with self._inflight_lock:
                    still_mine = self._inflight.pop(record.packet_id, None)
                if still_mine is not None:
                    self._inflight_sem.release()
                raise TransportError(f"PUBACK timeout for packet {record.packet_id}")
            if self._closing:
                raise TransportError("client closed while awaiting PUBACK")

    def publish_many(
        self, messages: list[tuple[str, bytes]], qos: int = 0
    ) -> dict[int, TransportError]:
        """Publish ``(topic, payload)`` pairs, one PUBLISH each, in one write.

        Returns the messages refused on their own (invalid topic) by
        index and writes the rest.  A batch that cannot be written
        raises as :meth:`publish` does, one QoS-0 drop per message.
        QoS 1 writes once per slice of the in-flight window.
        """
        return self._publish(messages, qos, False)[0]

    def _publish(
        self, messages, qos: int, retain: bool
    ) -> tuple[dict[int, TransportError], list[_Inflight]]:
        if qos not in (0, 1):
            raise TransportError(f"unsupported QoS {qos} (only 0 and 1)")
        if qos and not self._connected and not (
            self.auto_reconnect and self.ever_connected and not self._closing
        ):
            raise TransportError("client is not connected")
        refused: dict[int, TransportError] = {}
        records: list[_Inflight] = []
        unwritten: list[_Inflight] = []
        buf = bytearray()
        topic_field, frame = self._topic_field, pkt.frame_publish
        for i, (topic, payload) in enumerate(messages):
            try:
                field = topic_field(topic)
            except TransportError as exc:
                refused[i] = exc
                continue
            packet_id = None
            if qos:
                # Never wait for window space while holding framed
                # messages: the PUBACKs that free it answer only what
                # was written.
                if not self._inflight_sem.acquire(blocking=False):
                    self._write_inflight(buf, unwritten)
                    buf, unwritten = bytearray(), []
                    self._inflight_sem.acquire()
                record = _Inflight(self._allocate_packet_id(), topic, payload, retain)
                with self._inflight_lock:
                    self._inflight[record.packet_id] = record
                records.append(record)
                unwritten.append(record)
                packet_id = record.packet_id
            frame(buf, field, payload, qos, retain, False, packet_id)
        if qos:
            self._write_inflight(buf, unwritten)
            return refused, records
        written = len(messages) - len(refused)
        if written:
            conn = self._conn
            if conn is None or not self._connected or not conn.write(buf):
                if self.ever_connected:  # always true once a write was tried
                    self._qos0_drops.inc(written)
                raise TransportError("client is not connected")
            self._bytes_sent.inc(len(buf))
            self._messages_sent.inc(written)
        return refused, records

    def _write_inflight(self, buf: bytearray, records: list[_Inflight]) -> None:
        """Write framed QoS-1 publishes; while disconnected they stay
        queued in the window and session re-establishment replays them."""
        conn = self._conn
        if not (records and self._connected and conn is not None):
            return
        try:
            written = conn.write(buf)
        except Exception:
            # A memory pipe raised a broker hook's error: nothing will
            # acknowledge or replay these, so they leave the window.
            self._abandon(records)
            raise
        if written:
            self._bytes_sent.inc(len(buf))
            fresh = [record for record in records if not record.sent]
            for record in fresh:
                record.sent = True
            self._messages_sent.inc(len(fresh))

    def _abandon(self, records: list[_Inflight]) -> None:
        """Drop ``records`` still awaiting a PUBACK from the window and
        unblock their waiters."""
        with self._inflight_lock:
            dropped = [r for r in records if self._inflight.pop(r.packet_id, None) is r]
        for record in dropped:
            record.event.set()
            self._inflight_sem.release()

    # -- internals --------------------------------------------------------

    def _allocate_packet_id(self) -> int:
        with self._id_lock:
            pid = self._next_packet_id
            self._next_packet_id = pid % 0xFFFF + 1
            return pid

    def _make_connection(
        self, loop: EventLoop | None, sock: socket.socket | None
    ) -> Connection:
        handlers = {
            "on_packets": self._on_packets,
            "on_close": self._on_conn_close,
            "on_error": self._on_protocol_error,
            "label": f"client-{self.client_id}",
        }
        if self.broker is not None:
            return self.broker.open_memory_session(**handlers)
        return Connection(loop, sock, **handlers)

    def _send_connect(self, conn: Connection) -> None:
        data = pkt.Connect(
            client_id=self.client_id,
            keepalive=self.keepalive,
            username=self.username,
            password=self.password,
        ).encode()
        if conn.write(data):
            self._bytes_sent.inc(len(data))

    # -- event-loop handlers ----------------------------------------------

    def _on_protocol_error(self, conn: Connection, exc: Exception) -> None:
        logger.warning("client %s: protocol error: %s", self.client_id, exc)

    def _on_packets(self, conn: Connection, packets: list[pkt.Packet]) -> None:
        for packet in packets:
            if isinstance(packet, pkt.ConnAck):
                self._handle_connack(conn, packet)
            elif isinstance(packet, pkt.PubAck):
                with self._inflight_lock:
                    record = self._inflight.pop(packet.packet_id, None)
                if record is not None:
                    record.event.set()
                    self._inflight_sem.release()
            elif isinstance(packet, pkt.PingResp):
                pass
            else:
                logger.debug("client %s: ignoring %s", self.client_id, type(packet).__name__)

    def _handle_connack(self, conn: Connection, packet: pkt.ConnAck) -> None:
        self._connack_code = packet.return_code
        if self._connack_guard is not None:
            self._connack_guard.cancel()
            self._connack_guard = None
        if packet.return_code != pkt.CONNACK_ACCEPTED:
            was_reconnect = self._reconnect_pending
            self._reconnect_pending = False
            self._connack.set()
            if was_reconnect:
                logger.warning(
                    "client %s: reconnect refused (return code %d)",
                    self.client_id,
                    packet.return_code,
                )
                conn.close()  # on_close schedules the next backoff step
            return
        self._session_established(conn)

    def _session_established(self, conn: Connection) -> None:
        was_reconnect = self._reconnect_pending
        self._reconnect_pending = False
        self._connected = True
        self.ever_connected = True
        self._reconnect_delay_s = self.reconnect_min_delay_s
        self._start_ping_timer()
        self._connack.set()
        if was_reconnect:
            # Session re-establishment: the unacked QoS-1 window in
            # publish order (DUP set on anything that already hit the
            # wire once).
            with self._inflight_lock:
                pending = list(self._inflight.values())
            buf = bytearray()
            for record in pending:
                field, pid = self._topic_field(record.topic), record.packet_id
                pkt.frame_publish(buf, field, record.payload, 1, record.retain, record.sent, pid)
            self._write_inflight(buf, pending)
            self._reconnects_counter.inc()
            logger.info(
                "client %s: reconnected to %s:%d (replayed %d in-flight)",
                self.client_id,
                self.host,
                self.port,
                len(pending),
            )
            callback = self.on_reconnect
            if callback is not None:
                try:
                    callback()
                except Exception:  # noqa: BLE001 - user hook
                    logger.exception("on_reconnect hook failed for %s", self.client_id)

    def _start_ping_timer(self) -> None:
        if self.keepalive <= 0:
            return
        loop = self._loop
        if loop is None or not loop.running:
            return
        interval = max(self.keepalive * 0.5, 1.0)

        def tick() -> None:
            if self._closing or not self._connected:
                return
            conn = self._conn
            if conn is not None:
                conn.write(pkt.PingReq().encode())
            self._ping_timer = loop.call_later(interval, tick)

        if self._ping_timer is not None:
            self._ping_timer.cancel()
        self._ping_timer = loop.call_later(interval, tick)

    def _on_conn_close(self, conn: Connection) -> None:
        if conn is not self._conn:
            return
        was_connected = self._connected
        self._connected = False
        if self._ping_timer is not None:
            self._ping_timer.cancel()
            self._ping_timer = None
        self._connack.set()  # unblock a connect() waiting on a dead socket
        if self._closing or not self.auto_reconnect or not self.ever_connected:
            return
        if was_connected:
            logger.warning(
                "client %s: connection to %s:%d lost, reconnecting",
                self.client_id,
                self.host,
                self.port,
            )
        self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        loop = self._loop
        if loop is None or not loop.running or self._closing:
            return
        delay = self._reconnect_delay_s
        self._reconnect_delay_s = min(delay * 2, self.reconnect_max_delay_s)
        self._reconnect_timer = loop.call_later(delay, self._reconnect_attempt)

    def _reconnect_attempt(self) -> None:
        self._reconnect_timer = None
        if self._closing or self._connected:
            return
        loop = self._loop
        if loop is None or not loop.running:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=RECONNECT_ATTEMPT_TIMEOUT_S
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            self._schedule_reconnect()
            return
        self._reconnect_pending = True
        conn = self._make_connection(loop, sock)
        self._conn = conn
        conn.attach()
        self._send_connect(conn)

        def guard() -> None:
            self._connack_guard = None
            if not self._connected and conn is self._conn:
                conn.close()  # no CONNACK: back off and retry

        self._connack_guard = loop.call_later(CONNACK_GUARD_S, guard)
