"""Event-loop transport tests: fan-in scale, keepalive expiry,
write-buffer backpressure, reconnect replay, shutdown hygiene."""

import resource
import socket
import sys
import threading
import time

import pytest

from repro.faults import BrokerFaultInjector
from repro.mqtt import packets as pkt
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.eventloop import Connection, EventLoop


def received(broker):
    """PUBLISH packets ``broker`` has accepted."""
    return broker.metrics.value("dcdb_broker_messages_received_total")


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def broker():
    with MQTTBroker("127.0.0.1", 0) as b:
        yield b


class TestEventLoop:
    def test_call_soon_runs_on_loop_thread(self):
        loop = EventLoop()
        loop.start()
        try:
            seen = []
            done = threading.Event()
            loop.call_soon(lambda: (seen.append(threading.current_thread()), done.set()))
            assert done.wait(2.0)
            assert seen[0].name == "mqtt-loop"
        finally:
            loop.stop()

    def test_call_later_ordering_and_cancel(self):
        loop = EventLoop()
        loop.start()
        try:
            order = []
            done = threading.Event()
            loop.call_later(0.05, lambda: order.append("b"))
            loop.call_later(0.01, lambda: order.append("a"))
            cancelled = loop.call_later(0.02, lambda: order.append("never"))
            cancelled.cancel()
            loop.call_later(0.08, lambda: (order.append("c"), done.set()))
            assert done.wait(2.0)
            assert order == ["a", "b", "c"]
        finally:
            loop.stop()

    def test_stop_is_idempotent(self):
        loop = EventLoop()
        loop.start()
        loop.stop()
        loop.stop()
        never_started = EventLoop()
        never_started.stop()


class TestFanIn500:
    def test_500_connections_o1_transport_threads(self):
        """500 concurrent raw MQTT connections served by ONE loop thread.

        The pre-change broker spawned a reader thread per client; the
        acceptance criterion is O(1) transport threads (accept+loop
        combined in one) at 500 concurrent connections, with every
        publish delivered.
        """
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < 1200:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(4096, hard), hard)
            )
        with MQTTBroker("127.0.0.1", 0) as broker:
            threads_before = {
                t.name for t in threading.enumerate() if t.name.startswith("mqtt-broker")
            }
            assert len(threads_before) == 1  # the loop, nothing else
            socks = []
            try:
                for i in range(500):
                    s = socket.create_connection(("127.0.0.1", broker.port), timeout=5.0)
                    s.sendall(pkt.Connect(client_id=f"fan{i}", keepalive=0).encode())
                    socks.append(s)
                assert wait_until(lambda: broker.connected_clients == 500, timeout=15.0)
                blob = pkt.Publish(topic="/fan/in", payload=b"x" * 64).encode()
                for s in socks:
                    s.sendall(blob)
                assert wait_until(
                    lambda: received(broker) == 500, timeout=15.0
                ), f"only {received(broker)}/500 publishes arrived"
                # Still exactly one transport thread for 500 sessions.
                broker_threads = [
                    t
                    for t in threading.enumerate()
                    if t.name.startswith("mqtt-broker") and t.is_alive()
                ]
                assert len(broker_threads) == 1
                assert broker.transport_threads == 1
            finally:
                for s in socks:
                    try:
                        s.close()
                    except OSError:
                        pass
            assert wait_until(lambda: broker.connected_clients == 0, timeout=15.0)


class TestWakeCoalescing:
    def test_foreign_writes_arrive_in_order_with_few_wakes(self):
        loop = EventLoop()
        wakes = []
        wake = loop.wake
        loop.wake = lambda: (wakes.append(1), wake())
        loop.start()
        a, b = socket.socketpair()
        conn = Connection(loop, a, on_packets=lambda c, ps: None)
        try:
            conn.attach()
            assert wait_until(lambda: conn._registered)
            wakes.clear()
            chunks = [f"<{i}>".encode() for i in range(2000)]
            for chunk in chunks:
                assert conn.write(chunk)
            expected = b"".join(chunks)
            received = bytearray()
            b.settimeout(5.0)
            while len(received) < len(expected):
                received += b.recv(65536)
            assert bytes(received) == expected
            # One wake per idle-to-busy transition of the loop, at most
            # one queued flush per connection: far fewer than writes.
            assert len(wakes) < len(chunks) // 10
        finally:
            loop.stop()
            conn.close()
            b.close()

    def test_many_threads_strand_no_callback_and_no_write(self):
        """call_soon and cross-thread writes from more threads than
        cores, switching often: every callback runs and every byte
        arrives, each thread's in its own order."""
        loop = EventLoop()
        loop.start()
        a, b = socket.socketpair()
        conn = Connection(loop, a, on_packets=lambda c, ps: None)
        conn.attach()
        ran = []

        def producer(t):
            for i in range(500):
                loop.call_soon(lambda i=i: ran.append((t, i)))
                assert conn.write(b"%d:%d;" % (t, i))
                # Now and then let the loop drain to empty, so the
                # idle-to-busy transition races the other producers.
                time.sleep(0.001 if i % 50 == 0 else 0)

        threads = [threading.Thread(target=producer, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            expected = sum(len(b"%d:%d;" % (t, i)) for t in range(4) for i in range(500))
            received = bytearray()
            b.settimeout(5.0)
            while len(received) < expected:
                received += b.recv(65536)
            assert wait_until(lambda: len(ran) == 2000, timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
            loop.stop()
            conn.close()
            b.close()
        writes = [tuple(map(int, w.split(b":"))) for w in bytes(received).split(b";")[:-1]]
        for t in range(4):
            assert [i for tt, i in ran if tt == t] == list(range(500))
            assert [i for tt, i in writes if tt == t] == list(range(500))


class TestMalformedBody:
    def test_broker_closes_a_connection_with_a_truncated_subscribe(self, broker, caplog):
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
        try:
            sock.sendall(pkt.Connect(client_id="broken", keepalive=0).encode())
            assert isinstance(pkt.decode_packet(sock.recv(4))[0], pkt.ConnAck)
            # A complete SUBSCRIBE frame missing its QoS byte, then a PINGREQ.
            sock.sendall(b"\x82\x07\x00\x01\x00\x03a/b" + pkt.PingReq().encode())
            assert sock.recv(16) == b""  # closed, not stalled
        finally:
            sock.close()
        assert wait_until(lambda: "malformed packet body" in caplog.text)


class TestKeepaliveExpiry:
    def test_expired_session_disconnected_with_will_and_metric(self, broker):
        """A CONNECT carrying a will is accepted (the will fields are
        decoded and validated), but the broker keeps no will: the
        expiry is counted and no publish hook hears of it."""
        fired = []
        broker.add_publish_hook(lambda cid, ps: fired.extend((cid, p.topic) for p in ps))
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
        sock.sendall(
            pkt.Connect(
                client_id="mute", keepalive=1, will_topic="/dead/mute", will_payload=b"x"
            ).encode()
        )
        assert wait_until(lambda: broker.connected_clients == 1)
        # Silent past 1.5x keepalive: the broker must disconnect us and
        # count the expiry.
        expired = "dcdb_broker_keepalive_disconnects_total"
        assert wait_until(lambda: broker.metrics.value(expired) == 1, timeout=5.0)
        assert wait_until(lambda: broker.connected_clients == 0)
        assert fired == []
        sock.close()

    def test_zero_keepalive_never_expires(self, broker):
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
        sock.sendall(pkt.Connect(client_id="forever", keepalive=0).encode())
        assert wait_until(lambda: broker.connected_clients == 1)
        time.sleep(1.0)
        assert broker.connected_clients == 1
        assert broker.metrics.value("dcdb_broker_keepalive_disconnects_total") == 0
        sock.close()


class TestWriteBufferOverflow:
    def _stuffed_connection(self, loop):
        """A Connection whose peer never reads, with tiny buffers so the
        kernel cannot hide the backlog."""
        a, b = socket.socketpair()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        conn = Connection(
            loop,
            a,
            on_packets=lambda c, ps: None,
            max_write_buffer=16384,
            label="slow-consumer",
        )
        conn.attach()
        return conn, b

    def test_disconnect_policy_severs_slow_consumer(self):
        loop = EventLoop()
        loop.start()
        try:
            conn, peer = self._stuffed_connection(loop)
            chunk = b"m" * 4096
            for _ in range(64):
                if not conn.write(chunk):
                    break
            assert wait_until(lambda: conn.closed, timeout=2.0)
            peer.close()
        finally:
            loop.stop()

    def test_broker_severs_slow_reader_end_to_end(self):
        """A client that floods PINGREQs and never reads its PINGRESPs
        fills its session buffer; the broker counts the overflow and
        closes the session instead of buffering without bound."""
        with MQTTBroker("127.0.0.1", 0, max_write_buffer=16384) as broker:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", broker.port))
            sock.sendall(pkt.Connect(client_id="slow-reader", keepalive=0).encode())
            assert wait_until(lambda: broker.connected_clients == 1)
            # Small kernel buffers on both ends, so the acks back up
            # into the session's write buffer within a few KiB.
            (session,) = broker._sessions.values()
            session.conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            overflowed = "dcdb_broker_write_overflow_total"
            pings = pkt.PingReq().encode() * 1024
            deadline = time.monotonic() + 10.0
            try:
                while not broker.metrics.value(overflowed) and time.monotonic() < deadline:
                    sock.sendall(pings)
            except OSError:
                pass  # the broker closed the session mid-flood
            assert wait_until(lambda: broker.metrics.value(overflowed) == 1)
            assert wait_until(lambda: broker.connected_clients == 0)
            sock.close()


class TestClientReconnect:
    def test_replays_unacked_qos1_exactly_once(self):
        """Publishes queued during the outage are re-sent exactly once
        when the session is re-established on the same port."""
        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        port = broker.port
        delivered = []
        client = MQTTClient(
            "replayer", port=port, reconnect_min_delay_s=0.05, keepalive=0
        )
        client.connect()
        try:
            client.publish("/r/pre", b"pre", qos=1, wait_ack=True)
            broker.stop()
            assert wait_until(lambda: not client.connected, timeout=5.0)
            # Queue strictly while the broker is down: these cannot have
            # hit the first incarnation, so any duplicate must come from
            # a replay bug.
            for i in range(3):
                client.publish("/r/queued", f"q{i}".encode(), qos=1)
            broker2 = MQTTBroker("127.0.0.1", port)
            broker2.add_publish_hook(
                lambda cid, ps: delivered.extend(bytes(p.payload) for p in ps)
            )
            broker2.start()
            try:
                assert wait_until(
                    lambda: sorted(delivered) == [b"q0", b"q1", b"q2"], timeout=10.0
                ), f"delivered: {delivered}"
                time.sleep(0.3)  # window for an erroneous double replay
                assert sorted(delivered) == [b"q0", b"q1", b"q2"]
                assert client.reconnects == 1
                assert client.metrics.value("dcdb_client_reconnects_total") == 1
            finally:
                client.disconnect()
                broker2.stop()
        finally:
            broker.stop()

    def test_qos0_during_outage_raises_and_counts_drop(self):
        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        client = MQTTClient("q0", port=broker.port, keepalive=0)
        client.connect()
        try:
            broker.stop()
            assert wait_until(lambda: not client.connected, timeout=5.0)
            from repro.common.errors import TransportError

            with pytest.raises(TransportError, match="not connected"):
                client.publish("/q0/x", b"lost")
            assert client.qos0_drops == 1
            assert client.metrics.value("dcdb_client_qos0_drops_total") == 1
        finally:
            client.close()
            broker.stop()


class TestShutdownHygiene:
    def test_stop_is_idempotent_and_silent(self, caplog):
        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        client = MQTTClient("bye", port=broker.port, reconnect=False)
        client.connect()
        with caplog.at_level("WARNING", logger="repro.mqtt"):
            broker.stop()
            broker.stop()  # idempotent
        assert not [r for r in caplog.records if "Bad file descriptor" in r.message]
        client.close()

    def test_restart_on_same_port_works(self):
        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        port = broker.port
        broker.stop()
        broker2 = MQTTBroker("127.0.0.1", port)
        broker2.start()
        try:
            with MQTTClient("again", port=port) as client:
                client.publish("/again", b"1", qos=1, wait_ack=True)
            assert received(broker2) == 1
        finally:
            broker2.stop()


class TestInjectionSeam:
    def test_stall_pauses_reading_without_dropping_data(self, broker):
        injector = BrokerFaultInjector(stall_seconds=0.3)
        broker.set_fault_injector(injector)
        injector.stall_client_after("staller", chunks=1)
        with MQTTClient("staller", port=broker.port, keepalive=0) as client:
            client.publish("/st/1", b"a", qos=1, wait_ack=True)
            # The next chunk triggers a 0.3 s read stall; the publish
            # is delayed but not lost (the chunk is still processed).
            start = time.monotonic()
            client.publish("/st/2", b"b", qos=1, wait_ack=True, timeout=5.0)
            elapsed = time.monotonic() - start
            assert injector.stalls == 1
            assert received(broker) == 2
            assert elapsed < 5.0

    def test_injector_attaches_to_live_sessions(self, broker):
        with MQTTClient("late-target", port=broker.port, keepalive=0) as client:
            client.publish("/live/1", b"x", qos=1, wait_ack=True)
            injector = BrokerFaultInjector()
            broker.set_fault_injector(injector)
            injector.disconnect_client_after("late-target", chunks=0)
            client.auto_reconnect = False  # observe the cut itself
            from repro.common.errors import TransportError

            with pytest.raises((TransportError, OSError)):
                client.publish("/live/2", b"y", qos=1, wait_ack=True, timeout=2.0)
            assert injector.disconnects == 1
