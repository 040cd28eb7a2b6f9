"""In-process sessions: the production broker and client over a memory pipe.

``MQTTBroker(port=None)`` opens no listener and runs no thread;
``MQTTClient(client_id, broker=...)`` reaches it through a
:class:`~repro.mqtt.eventloop.MemoryConnection` pair, so every byte is
framed, decoded and dispatched by the same code a TCP session runs.
"""

import threading
import time

import pytest

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient


def received(broker):
    """PUBLISH packets ``broker`` has accepted."""
    return broker.metrics.value("dcdb_broker_messages_received_total")


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestInProcHub:
    """The cases the retired function-call hub was held to, now on
    memory sessions of the real broker."""

    def test_publish_hooks(self):
        broker = MQTTBroker(port=None)
        seen = []
        broker.add_publish_hook(
            lambda cid, ps: seen.extend((cid, p.topic, p.payload) for p in ps)
        )
        client = MQTTClient("c1", broker=broker)
        client.connect()
        client.publish("/s", b"v")
        assert seen == [("c1", "/s", b"v")]

    def test_publish_only_hub_rejects_subscribe(self):
        broker = MQTTBroker(port=None)
        got = []
        conn = broker.open_memory_session(on_packets=lambda c, ps: got.extend(ps))
        conn.write(pkt.Connect(client_id="c", keepalive=0).encode())
        conn.write(pkt.Subscribe(packet_id=7, topics=(("/x/#", 0),)).encode())
        assert got[1:] == [pkt.SubAck(7, (pkt.SUBACK_FAILURE,))]
        assert not conn.closed  # a refused filter costs no session

    def test_disconnected_client_cannot_publish(self):
        broker = MQTTBroker(port=None)
        client = MQTTClient("c", broker=broker)
        with pytest.raises(TransportError, match="not connected"):
            client.publish("/x", b"")

    def test_invalid_topic_rejected(self):
        broker = MQTTBroker(port=None)
        client = MQTTClient("c", broker=broker)
        client.connect()
        with pytest.raises(TransportError):
            client.publish("/has/#/wildcard", b"")
        assert received(broker) == 0

    def test_counters(self):
        """Both byte counters count what crossed the pipe: the CONNECT
        and the PUBLISH frame, not payload + topic."""
        broker = MQTTBroker(port=None)
        pub = MQTTClient("pub", broker=broker)
        pub.connect()
        pub.publish("/a", b"1234")
        wire = len(pkt.Connect(client_id="pub", keepalive=0).encode()) + len(
            pkt.Publish(topic="/a", payload=b"1234").encode()
        )
        assert received(broker) == 1
        assert pub.messages_sent == 1
        assert pub.bytes_sent == wire
        assert broker.metrics.value("dcdb_broker_bytes_received_total") == wire

    def test_connected_clients(self):
        broker = MQTTBroker(port=None)
        a = MQTTClient("a", broker=broker)
        b = MQTTClient("b", broker=broker)
        a.connect()
        b.connect()
        assert broker.connected_clients == 2
        a.disconnect()
        assert broker.connected_clients == 1

    def test_context_manager(self):
        broker = MQTTBroker(port=None)
        with MQTTClient("c", broker=broker) as client:
            assert client.connected
            assert broker.connected_clients == 1
        assert not client.connected
        assert broker.connected_clients == 0

    def test_connect_idempotent(self):
        """A second ``connect()`` on a connected client keeps its one
        session."""
        broker = MQTTBroker(port=None)
        client = MQTTClient("c", broker=broker)
        client.connect()
        client.connect()
        assert broker.connected_clients == 1


class TestInProcConcurrency:
    def test_parallel_publishers_counted_exactly(self):
        broker = MQTTBroker(port=None)
        topics = []
        broker.add_publish_hook(lambda cid, ps: topics.extend(p.topic for p in ps))
        clients = [MQTTClient(f"c{i}", broker=broker) for i in range(8)]
        for client in clients:
            client.connect()

        def blast(client, idx):
            for j in range(500):
                client.publish(f"/conc/{idx}/s{j % 10}", b"x")

        threads = [
            threading.Thread(target=blast, args=(c, i))
            for i, c in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert received(broker) == 8 * 500
        assert len(topics) == 8 * 500

    def test_sessions_come_and_go_while_publishing(self):
        broker = MQTTBroker(port=None)
        stop = threading.Event()
        pub = MQTTClient("pub", broker=broker)
        pub.connect()
        errors = []

        def publisher():
            i = 0
            try:
                while not stop.is_set():
                    pub.publish(f"/live/s{i % 5}", b"")
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=publisher)
        thread.start()
        try:
            for i in range(50):
                other = MQTTClient(f"other{i}", broker=broker)
                other.connect()
                other.publish("/live/other", b"")
                other.disconnect()
        finally:
            stop.set()
            thread.join()
        assert errors == []


class TestMemorySession:
    """What a memory session shares with a socket session, and where
    it differs."""

    BATCH = [("/eq/a", b"1" * 16), ("/eq/b", b"2" * 32), ("/eq/+", b"x"), ("/eq/c", b"")]

    @staticmethod
    def _run_batches(broker, client):
        calls = []
        broker.add_publish_hook(
            lambda cid, ps: calls.append(
                (cid, [(p.topic, p.payload, p.qos, p.packet_id, p.dup) for p in ps])
            )
        )
        client.connect()
        refused = []
        for qos in (0, 1):
            refused.append(sorted(client.publish_many(TestMemorySession.BATCH, qos=qos)))
            # One batch per read on both wires: wait before the next.
            assert wait_until(
                lambda: received(broker) == 3 * (qos + 1) and not client._inflight
            )
        counters = (
            client.messages_sent,
            client.bytes_sent,
            received(broker),
            broker.metrics.value("dcdb_broker_bytes_received_total"),
        )
        client.disconnect()
        return refused, calls, counters

    def test_memory_and_tcp_sessions_hand_the_hook_the_same_runs(self):
        memory = MQTTBroker(port=None)
        got_memory = self._run_batches(memory, MQTTClient("eq", broker=memory))
        with MQTTBroker("127.0.0.1", 0) as tcp:
            client = MQTTClient("eq", port=tcp.port, keepalive=0)
            got_tcp = self._run_batches(tcp, client)
        assert got_memory == got_tcp
        refused, calls, _ = got_memory
        assert refused == [[2], [2]]
        assert [[p[2:4] for p in run] for _cid, run in calls] == [
            [(0, None)] * 3,
            [(1, 1), (1, 2), (1, 3)],
        ]

    def test_short_body_publish_is_a_protocol_error_that_closes_the_session(self):
        """A complete PUBLISH frame shorter than its own topic field."""
        broker = MQTTBroker(port=None)
        seen = []
        broker.add_publish_hook(lambda cid, ps: seen.extend(ps))
        client = MQTTClient("broken", broker=broker)
        client.connect()
        assert broker.connected_clients == 1
        client._conn.write(b"\x30\x03\x00\x05a" + pkt.PingReq().encode())
        assert broker.connected_clients == 0
        assert not client.connected
        assert seen == []
        with pytest.raises(TransportError, match="not connected"):
            client.publish("/after", b"x")

    def test_hook_error_reaches_the_publisher_and_keeps_the_session(self):
        broker = MQTTBroker(port=None)
        failing = {"/boom"}

        def hook(cid, packets):
            if any(p.topic in failing for p in packets):
                raise RuntimeError("storage said no")

        broker.add_publish_hook(hook)
        client = MQTTClient("c", broker=broker)
        client.connect()
        with pytest.raises(RuntimeError, match="storage said no"):
            client.publish("/boom", b"x")
        client.publish("/fine", b"y")
        assert client.connected
        assert received(broker) == 2

    def test_qos1_hook_errors_do_not_leak_the_inflight_window(self):
        broker = MQTTBroker(port=None)

        def hook(cid, packets):
            raise RuntimeError("storage said no")

        broker.add_publish_hook(hook)
        client = MQTTClient("c", broker=broker, max_inflight=4)
        client.connect()
        for i in range(10):  # more failures than the window holds
            with pytest.raises(RuntimeError):
                client.publish_many([(f"/q/{i}", b"x"), (f"/q/{i}/b", b"y")], qos=1)
        assert not client._inflight
        assert client.connected

    def test_publish_hook_may_publish(self):
        """A hook runs with no feed lock held, so it may publish through
        a second memory session, whose hook call publishes back through
        the first session while that one's hook call is still running."""
        broker = MQTTBroker(port=None)
        pub = MQTTClient("pub", broker=broker)
        relay = MQTTClient("relay", broker=broker)
        seen = []

        def hook(cid, packets):
            for p in packets:
                seen.append((cid, p.topic, p.payload))
                if p.topic.startswith("/in/"):
                    relay.publish("/out" + p.topic[3:], p.payload)
                elif p.topic.startswith("/out/"):
                    pub.publish("/done" + p.topic[4:], p.payload)

        broker.add_publish_hook(hook)
        pub.connect()
        relay.connect()
        pub.publish("/in/a", b"1")
        assert seen == [
            ("pub", "/in/a", b"1"),
            ("relay", "/out/a", b"1"),
            ("pub", "/done/a", b"1"),
        ]

    def test_listenerless_broker_runs_no_thread(self):
        broker = MQTTBroker(port=None)
        before = threading.active_count()
        broker.start()
        assert broker.port is None
        assert broker.transport_threads == 0
        assert broker.ready
        assert threading.active_count() == before
        client = MQTTClient("c", broker=broker)
        client.connect()
        broker.stop()
        assert not client.connected
        with pytest.raises(TransportError, match="stopped"):
            client.connect()
