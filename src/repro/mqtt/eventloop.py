"""Single-threaded ``selectors``-based event loop for the MQTT stack.

The transport concurrency model of the reproduction (paper section
4.2: one Collect Agent broker fans in thousands of Pusher
connections).  A thread-per-client layout caps out on context-switch
and GIL churn long before the hardware does, so the broker and the
client run their socket I/O on ONE :class:`EventLoop` thread:

* :class:`EventLoop` — a ``selectors.DefaultSelector`` wrapped with
  thread-safe ``call_soon``/``call_later`` scheduling and a
  self-pipe wakeup, so any thread can hand work to the loop.
* :class:`Connection` — a non-blocking socket with the shared
  read/write state machine: incremental MQTT packet decoding on
  reads, a bounded outgoing write buffer that severs a peer which
  stops reading, per-connection read stalling (the fault-injection
  seam), and idempotent teardown.

The same two classes back :class:`~repro.mqtt.broker.MQTTBroker`
(one loop for the listener plus every session — O(1) transport
threads, not O(n) readers) and :class:`~repro.mqtt.client.MQTTClient`
(one loop replacing the old reader + ping thread pair; keepalive and
reconnect backoff are loop timers).

:class:`MemoryConnection` is the socketless variant for in-process
runs: a pair of them is a synchronous pipe, each ``write`` decoded and
handled by the peer end on the writer's thread, through the same
receive path a socket read takes.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt

logger = logging.getLogger(__name__)

__all__ = [
    "EventLoop",
    "Timer",
    "Connection",
    "MemoryConnection",
    "DROP",
    "DISCONNECT",
    "STALL",
]

#: Actions a ``data_filter`` (fault-injection seam) may return.
DROP = "drop"
DISCONNECT = "disconnect"
STALL = "stall"

#: Default pause applied by a bare ``"stall"`` action.
DEFAULT_STALL_S = 0.05

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class Timer:
    """Handle for a ``call_later`` callback; ``cancel()`` is thread-safe."""

    __slots__ = ("deadline", "callback", "cancelled")

    def __init__(self, deadline: float, callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """A selector loop on one daemon thread.

    All selector mutations and handler callbacks happen on the loop
    thread; other threads communicate exclusively through
    :meth:`call_soon`/:meth:`call_later`, which append under a lock and
    wake the selector through a socketpair.  ``call_soon`` sends the
    wake byte only when the ready queue goes from empty to non-empty:
    the loop empties the whole queue before it selects again, so one
    byte per idle-to-busy transition is enough.
    """

    def __init__(self, name: str = "mqtt-loop") -> None:
        self.name = name
        self._selector = selectors.DefaultSelector()
        wake_r, wake_w = socket.socketpair()
        wake_r.setblocking(False)
        wake_w.setblocking(False)
        self._wake_r = wake_r
        self._wake_w = wake_w
        self._selector.register(wake_r, _READ, self._drain_wake)
        self._lock = threading.Lock()
        self._ready: deque[Callable[[], None]] = deque()
        self._timers: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._thread: threading.Thread | None = None
        self._running = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def on_loop_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def start(self) -> None:
        if self._running or self._closed:
            return
        self._running = True
        self._thread = threading.Thread(target=self._run, name=self.name, daemon=True)
        self._thread.start()

    def stop(self, join: bool = True) -> None:
        """Stop the loop; idempotent, safe from any thread."""
        if self._closed:
            return
        if not self._running:
            # Never started: release the selector infrastructure here
            # (a started loop closes it on exit from _run).
            self._dispose()
            return
        self._running = False
        self.wake()
        thread = self._thread
        if join and thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    # -- scheduling -----------------------------------------------------

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the loop thread as soon as possible."""
        with self._lock:
            idle = not self._ready
            self._ready.append(callback)
        if idle:
            self.wake()

    def call_later(self, delay_s: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` on the loop thread after ``delay_s`` seconds."""
        timer = Timer(time.monotonic() + max(0.0, delay_s), callback)
        with self._lock:
            heapq.heappush(self._timers, (timer.deadline, next(self._seq), timer))
        self.wake()
        return timer

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, InterruptedError):
            pass  # pipe already full: the loop will wake anyway
        except OSError:
            pass  # loop torn down concurrently

    # -- internals ------------------------------------------------------

    def _drain_wake(self, mask: int) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _next_timeout(self) -> float | None:
        with self._lock:
            if self._ready:
                return 0.0
            if self._timers:
                return max(0.0, self._timers[0][0] - time.monotonic())
        return None

    def _run(self) -> None:
        try:
            while self._running:
                timeout = self._next_timeout()
                try:
                    events = self._selector.select(timeout)
                except OSError:
                    events = []
                for key, mask in events:
                    handler = key.data
                    try:
                        handler(mask)
                    except Exception:  # noqa: BLE001 - loop must survive handlers
                        logger.exception("unhandled error in %s handler", self.name)
                self._run_ready()
                self._run_timers()
        finally:
            self._dispose()

    def _run_ready(self) -> None:
        while True:
            with self._lock:
                if not self._ready:
                    return
                callback = self._ready.popleft()
            try:
                callback()
            except Exception:  # noqa: BLE001
                logger.exception("unhandled error in %s callback", self.name)

    def _run_timers(self) -> None:
        now = time.monotonic()
        while True:
            with self._lock:
                if not self._timers or self._timers[0][0] > now:
                    return
                _, _, timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            try:
                timer.callback()
            except Exception:  # noqa: BLE001
                logger.exception("unhandled error in %s timer", self.name)

    def _dispose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._running = False
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass


class Connection:
    """One non-blocking MQTT connection driven by an :class:`EventLoop`.

    Owners (broker session / client) provide callbacks:

    * ``on_packets(conn, packets)`` — every MQTT packet one socket
      read completed, in order, loop thread.  Raising
      :class:`TransportError` marks a protocol violation: the
      connection is closed after ``on_error``.
    * ``on_close(conn)`` — invoked exactly once when the connection is
      torn down, whatever the cause.
    * ``on_bytes(conn, n)`` — raw receive accounting (optional).
    * ``on_error(conn, exc)`` — protocol-error logging (optional).

    ``data_filter(conn, data)`` is the fault-injection seam: consulted
    once per recv chunk before decoding, it may return ``None``
    (process), ``"drop"`` (the chunk vanishes), ``"disconnect"``
    (half-close the socket mid-stream, as a severed link), or
    ``"stall"`` / ``("stall", seconds)`` (keep the connection but stop
    reading from it for a while — a wedged peer or congested path).

    Writes are thread-safe and buffered: ``write()`` appends to the
    outgoing buffer and the loop drains it as the socket allows.  With
    ``max_write_buffer > 0``, a write that would overflow the buffer
    calls ``on_overflow`` and severs the peer that stopped reading.
    """

    #: Whether an exception from ``on_packets`` other than a protocol
    #: error costs the connection (logged); a socket's peer reconnects.
    close_on_handler_error = True

    def __init__(
        self,
        loop: EventLoop | None,
        sock: socket.socket | None,
        *,
        on_packets: Callable[["Connection", list[pkt.Packet]], None],
        on_close: Callable[["Connection"], None] | None = None,
        on_bytes: Callable[["Connection", int], None] | None = None,
        on_error: Callable[["Connection", Exception], None] | None = None,
        on_overflow: Callable[["Connection"], None] | None = None,
        max_write_buffer: int = 0,
        label: str = "",
    ) -> None:
        if sock is not None:
            sock.setblocking(False)
        self.loop = loop
        self.sock = sock
        self.label = label
        self.on_packets = on_packets
        self.on_close = on_close
        self.on_bytes = on_bytes
        self.on_error = on_error
        self.on_overflow = on_overflow
        self.data_filter: Callable[["Connection", bytes], object] | None = None
        self.max_write_buffer = max_write_buffer
        self.last_rx = time.monotonic()
        self._decoder = pkt.StreamDecoder()
        self._feed_lock = threading.Lock()
        self._outbuf = bytearray()
        self._outlock = threading.Lock()
        self._closed = False
        self._close_notified = False
        self._registered = False
        self._want_write = False
        self._flush_queued = False  # a cross-thread flush awaits the loop
        self._paused = False
        self._resume_timer: Timer | None = None

    # -- introspection --------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def outbuf_len(self) -> int:
        return len(self._outbuf)

    def fileno(self) -> int:
        return self.sock.fileno()

    # -- lifecycle ------------------------------------------------------

    def attach(self) -> None:
        """Register with the loop (from any thread)."""
        if self.loop.on_loop_thread():
            self._register()
        else:
            self.loop.call_soon(self._register)

    def close(self) -> None:
        """Tear down; idempotent, safe from any thread."""
        if self._closed:
            return
        if self.loop.on_loop_thread() or not self.loop.running:
            self._finish_close()
        else:
            self.loop.call_soon(self._finish_close)

    def _register(self) -> None:
        if self._closed:
            return
        try:
            self.loop._selector.register(self.sock, _READ, self._on_events)
        except (ValueError, KeyError, OSError):
            self._finish_close()
            return
        self._registered = True
        if self._outbuf:
            self._flush()

    def _finish_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._resume_timer is not None:
            self._resume_timer.cancel()
            self._resume_timer = None
        if self._registered:
            try:
                self.loop._selector.unregister(self.sock)
            except (ValueError, KeyError, OSError):
                pass
            self._registered = False
        # Best-effort flush of anything already queued (DISCONNECT,
        # final acks) before the FIN.
        with self._outlock:
            pending = bytes(self._outbuf)
            self._outbuf.clear()
        if pending:
            try:
                self.sock.send(pending)
            except OSError:
                pass
        try:
            self.sock.close()
        except OSError:
            pass
        self._notify_close()

    def _notify_close(self) -> None:
        if self.on_close is not None and not self._close_notified:
            self._close_notified = True
            try:
                self.on_close(self)
            except Exception:  # noqa: BLE001
                logger.exception("on_close handler failed for %s", self.label)

    # -- reading --------------------------------------------------------

    def pause_reading(self, seconds: float) -> None:
        """Stop reading from the socket for ``seconds`` (loop thread)."""
        if self._closed or self._paused:
            return
        self._paused = True
        self._sync_interest()
        self._resume_timer = self.loop.call_later(seconds, self._resume_reading)

    def _resume_reading(self) -> None:
        self._resume_timer = None
        if self._closed or not self._paused:
            return
        self._paused = False
        self._sync_interest()

    def _on_events(self, mask: int) -> None:
        if mask & _WRITE:
            self._flush()
        if mask & _READ and not self._closed and not self._paused:
            self._on_readable()

    def _on_readable(self) -> None:
        try:
            data = self.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.close()
            return
        if not data:
            self.close()
            return
        self.last_rx = time.monotonic()
        filt = self.data_filter
        if filt is not None:
            action = filt(self, data)
            if action is not None:
                name, arg = action if isinstance(action, tuple) else (action, None)
                if name == DROP:
                    return
                if name == DISCONNECT:
                    self.close()
                    return
                if name == STALL:
                    # The chunk itself is still processed — a stall
                    # delays subsequent reads, it does not eat data.
                    self.pause_reading(arg if arg else DEFAULT_STALL_S)
        self._receive(data)

    def _receive(self, data: bytes) -> None:
        """Account, decode and hand on one chunk of inbound bytes.

        The decoder is fed under a lock and ``on_packets`` runs outside
        it, so a handler may write to a connection that feeds this one.
        A protocol error closes the connection.
        """
        if self.on_bytes is not None:
            self.on_bytes(self, len(data))
        try:
            with self._feed_lock:
                packets = self._decoder.feed(data)
            if packets:
                self.on_packets(self, packets)
        except TransportError as exc:
            self._protocol_error(exc)
        except Exception:  # noqa: BLE001 - a broken handler must not
            # wedge the loop; the connection is sacrificed.
            if not self.close_on_handler_error:
                raise
            logger.exception("packet handler failed for %s", self.label)
            self.close()

    def _protocol_error(self, exc: Exception) -> None:
        if self.on_error is not None:
            try:
                self.on_error(self, exc)
            except Exception:  # noqa: BLE001
                logger.exception("on_error handler failed for %s", self.label)
        self.close()

    # -- writing --------------------------------------------------------

    def write(self, data: bytes) -> bool:
        """Queue ``data`` for sending; thread-safe.

        Returns False when the connection is closed or the write buffer
        overflowed (the connection is being severed).
        """
        overflowed = queue_flush = False
        on_loop = self.loop.on_loop_thread()
        with self._outlock:
            if self._closed:
                return False
            if (
                self.max_write_buffer
                and self._outbuf
                and len(self._outbuf) + len(data) > self.max_write_buffer
            ):
                overflowed = True
            else:
                self._outbuf += data
                queue_flush = not (on_loop or self._flush_queued)
                self._flush_queued |= queue_flush
        if overflowed:
            if self.on_overflow is not None:
                try:
                    self.on_overflow(self)
                except Exception:  # noqa: BLE001
                    logger.exception("on_overflow handler failed for %s", self.label)
            self.close()
            return False
        if on_loop:
            self._flush()
        elif queue_flush:
            self.loop.call_soon(self._flush)
        return True

    def _flush(self) -> None:
        if self._closed:
            return
        while True:
            with self._outlock:
                # Cleared before the buffer is read: a later write
                # queues a flush of its own.
                self._flush_queued = False
                if not self._outbuf:
                    break
                chunk = bytes(self._outbuf[:65536])
            try:
                sent = self.sock.send(chunk)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self.close()
                return
            if sent:
                with self._outlock:
                    del self._outbuf[:sent]
            if sent < len(chunk):
                break
        with self._outlock:
            pending = bool(self._outbuf)
        if pending != self._want_write:
            self._want_write = pending
            self._sync_interest()

    # -- selector interest ----------------------------------------------

    def _sync_interest(self) -> None:
        if self._closed:
            return
        events = 0
        if not self._paused:
            events |= _READ
        if self._want_write:
            events |= _WRITE
        try:
            if events == 0:
                if self._registered:
                    self.loop._selector.unregister(self.sock)
                    self._registered = False
            elif self._registered:
                self.loop._selector.modify(self.sock, events, self._on_events)
            else:
                self.loop._selector.register(self.sock, events, self._on_events)
                self._registered = True
        except (ValueError, KeyError, OSError):
            self.close()


class MemoryConnection(Connection):
    """One end of a socketless in-process pipe.

    ``write`` hands the bytes to the peer end's :meth:`_receive` on the
    writer's thread and returns after the peer has handled them, so
    "written" means "decoded and dispatched" and a single-threaded
    caller stays deterministic.  There is no loop, no write buffer and
    no fault-injection filter.  An exception from the peer's handler
    other than :class:`TransportError` reaches the writer instead of
    closing the pipe, since nothing would reconnect it.  Closing either
    end closes both.
    """

    close_on_handler_error = False

    def __init__(self, peer: "MemoryConnection | None" = None, **handlers) -> None:
        super().__init__(None, None, **handlers)
        self.peer = peer
        if peer is not None:
            peer.peer = self

    def attach(self) -> None:
        return

    def write(self, data: bytes) -> bool:
        peer = self.peer
        if self._closed or peer is None or peer._closed:
            return False
        peer._receive(data)
        return True

    def close(self) -> None:
        with self._outlock:
            if self._closed:
                return
            self._closed = True
        self._notify_close()
        if self.peer is not None:
            self.peer.close()
