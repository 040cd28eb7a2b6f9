"""Transport fan-in benchmark: event-loop broker vs thread-per-client.

Measures end-to-end fan-in throughput — 200 concurrent pushers
connecting and publishing pre-encoded MQTT blobs (driven from 8 sender
threads) until the broker has counted every message — against the
pre-change architecture kept in-test: a blocking accept thread plus
one blocking reader thread per connection, exactly the transport the
event loop replaced.  Both sides decode with the same
:class:`~repro.mqtt.packets.StreamDecoder`, so the gate isolates the
transport architecture (selector loop vs 200-thread GIL convoy), not
the parser.

``make bench-transport`` smoke-runs this module with
``--benchmark-disable``; the >= 2x speedup gate only arms when
benchmarking is enabled (``make bench`` / ``make bench-baseline``).
"""

import socket
import threading
import time

from repro.mqtt import packets as pkt
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.packets import StreamDecoder

PUSHERS = 200
SEND_ROUNDS = 20
MSGS_PER_ROUND = 10
SENDER_THREADS = 8
EXPECTED = PUSHERS * SEND_ROUNDS * MSGS_PER_ROUND


def _best_of(rounds, fn, *args):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


# -- pre-change reference implementation ------------------------------------


class ThreadPerClientBroker:
    """The prior revision's transport shape: blocking ``accept`` in one
    thread, one blocking-``recv`` reader thread per connection."""

    def __init__(self) -> None:
        self.port = 0
        self.messages_received = 0
        self._lock = threading.Lock()
        self._server: socket.socket | None = None
        self._conns: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._stopping = False

    def start(self) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(512)
        self._server = server
        self.port = server.getsockname()[1]
        acceptor = threading.Thread(
            target=self._accept_loop, name="ref-broker-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.append(sock)
            reader = threading.Thread(
                target=self._client_loop, args=(sock,),
                name="ref-broker-client", daemon=True,
            )
            reader.start()
            self._threads.append(reader)

    def _client_loop(self, sock: socket.socket) -> None:
        decoder = StreamDecoder()
        try:
            while True:
                data = sock.recv(4096)
                if not data:
                    return
                # One lock round-trip per recv chunk, not per message,
                # so the reference is not handicapped by counter
                # contention.
                chunk_count = 0
                for packet in decoder.feed(data):
                    if isinstance(packet, pkt.Connect):
                        sock.sendall(pkt.ConnAck().encode())
                    elif isinstance(packet, pkt.Publish):
                        chunk_count += 1
                        if packet.qos:
                            sock.sendall(pkt.PubAck(packet.packet_id).encode())
                if chunk_count:
                    with self._lock:
                        self.messages_received += chunk_count
        except OSError:
            return

    def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
        with self._lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)


# -- the shared fan-in workload ----------------------------------------------


def run_fanin(make_broker, count_received, stop_broker):
    """Connect 200 pushers, blast pre-encoded publishes from 8 sender
    threads, and wait until the broker has counted every message."""
    broker = make_broker()
    broker.start()
    socks: list[socket.socket] = []
    try:
        connect_blob = pkt.Connect(client_id="bench", keepalive=0).encode()
        batch = pkt.Publish(topic="/bench/fan", payload=b"x" * 64).encode()
        batch *= MSGS_PER_ROUND
        for _ in range(PUSHERS):
            s = socket.create_connection(("127.0.0.1", broker.port), timeout=10.0)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.sendall(connect_blob)
            socks.append(s)

        def sender(chunk):
            for _ in range(SEND_ROUNDS):
                for s in chunk:
                    s.sendall(batch)

        per_thread = PUSHERS // SENDER_THREADS
        senders = [
            threading.Thread(
                target=sender,
                args=(socks[i * per_thread : (i + 1) * per_thread],),
                daemon=True,
            )
            for i in range(SENDER_THREADS)
        ]
        for t in senders:
            t.start()
        for t in senders:
            t.join()
        # Closing before the broker drained its receive buffers would
        # RST the connections (the CONNACKs are never read) and discard
        # in-flight data — wait for the full count first.
        deadline = time.monotonic() + 60.0
        while count_received(broker) < EXPECTED and time.monotonic() < deadline:
            time.sleep(0.001)
        got = count_received(broker)
        assert got == EXPECTED, f"broker counted {got}/{EXPECTED} publishes"
    finally:
        for s in socks:
            s.close()
        stop_broker(broker)


def run_eventloop():
    run_fanin(
        lambda: MQTTBroker("127.0.0.1", 0),
        lambda b: b.metrics.value("dcdb_broker_messages_received_total"),
        lambda b: b.stop(),
    )


def run_thread_per_client():
    run_fanin(
        ThreadPerClientBroker,
        lambda b: b.messages_received,
        lambda b: b.stop(),
    )


class TestTransportFanIn:
    def test_eventloop_vs_thread_per_client(self, benchmark):
        """Fan-in throughput at 200 concurrent pushers.

        Gate from the issue: the selector-based event-loop broker must
        sustain >= 2x the thread-per-client architecture it replaced.
        The reference pays for 200 reader threads waking per chunk and
        convoying on the GIL; the event loop drains the same sockets
        from one thread.
        """
        benchmark.pedantic(run_eventloop, rounds=3, iterations=1)
        if benchmark.enabled:
            reference_seconds = _best_of(3, run_thread_per_client)
            eventloop_seconds = benchmark.stats.stats.min
            speedup = reference_seconds / eventloop_seconds
            print(
                f"\nfan-in ({PUSHERS} pushers, {EXPECTED} msgs): "
                f"thread-per-client {reference_seconds * 1e3:.0f} ms, "
                f"event loop {eventloop_seconds * 1e3:.0f} ms ({speedup:.2f}x)"
            )
            assert speedup >= 2.0, (
                f"event-loop fan-in only {speedup:.2f}x over thread-per-client"
            )
