"""Integration tests of the TCP broker and client over real sockets."""

import socket
import threading
import time

import pytest

from repro.common.errors import ConfigError, TransportError
from repro.mqtt import packets as pkt
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.transport import get_transport


@pytest.fixture
def broker():
    with MQTTBroker("127.0.0.1", 0) as b:
        yield b


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def make_client(broker, client_id, **kwargs):
    client = MQTTClient(client_id, port=broker.port, **kwargs)
    client.connect()
    return client


class TestPublishSubscribe:
    """The publish half of MQTT's publish/subscribe, the only half the
    broker serves."""

    def test_qos1_waits_for_ack(self, broker):
        pub = make_client(broker, "pub")
        pub.publish("/q", b"1", qos=1, wait_ack=True)
        assert broker.metrics.value("dcdb_broker_messages_received_total") == 1
        pub.disconnect()

    def test_publish_hook_sees_everything(self, broker):
        seen = []
        broker.add_publish_hook(lambda cid, ps: seen.extend((cid, p.topic) for p in ps))
        pub = make_client(broker, "hooked")
        pub.publish("/h/1", b"x", qos=1, wait_ack=True)
        assert seen == [("hooked", "/h/1")]
        pub.disconnect()


class TestLifecycle:
    def test_authenticator_rejects(self):
        broker = MQTTBroker(
            "127.0.0.1", 0, authenticator=lambda cid, user, pw: user == "ok"
        )
        with broker:
            good = MQTTClient("a", port=broker.port, username="ok")
            good.connect()
            good.disconnect()
            bad = MQTTClient("b", port=broker.port, username="evil")
            with pytest.raises(TransportError, match="refused"):
                bad.connect()

    def test_connected_clients_counter(self, broker):
        a = make_client(broker, "a")
        b = make_client(broker, "b")
        a.connect()  # already connected: keeps its one session
        time.sleep(0.05)
        assert broker.connected_clients == 2
        a.disconnect()
        b.disconnect()
        deadline = time.monotonic() + 2
        while broker.connected_clients and time.monotonic() < deadline:
            time.sleep(0.02)
        assert broker.connected_clients == 0

    def test_keepalive_ping(self, broker):
        client = make_client(broker, "pinger", keepalive=1)
        time.sleep(1.2)
        # Connection must survive the keepalive window via PINGREQ.
        client.publish("/alive", b"1", qos=1, wait_ack=True)
        client.disconnect()

    def test_concurrent_publishers(self, broker):
        seen = []
        broker.add_publish_hook(lambda cid, ps: seen.extend(p.topic for p in ps))
        clients = [make_client(broker, f"p{i}") for i in range(4)]

        def blast(client, idx):
            for j in range(25):
                client.publish(f"/conc/{idx}", str(j).encode())

        threads = [
            threading.Thread(target=blast, args=(c, i)) for i, c in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wait_until(lambda: len(seen) == 100)
        assert sorted(seen) == sorted(f"/conc/{i}" for i in range(4) for _ in range(25))
        for c in clients:
            c.disconnect()


def raw_session(broker, client_id):
    """A socket that has completed CONNECT/CONNACK with ``broker``."""
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=3.0)
    sock.sendall(pkt.Connect(client_id=client_id, keepalive=0).encode())
    assert isinstance(read_packet(sock), pkt.ConnAck)
    return sock


def read_packet(sock):
    """The next whole packet from ``sock``."""
    decoder = pkt.StreamDecoder()
    while True:
        data = sock.recv(1)
        if not data:
            raise ConnectionError("closed by the broker")
        packets = decoder.feed(data)
        if packets:
            return packets[0]


class TestPublishOnlyBroker:
    """SUBSCRIBE is refused filter by filter; the session stays up."""

    def test_subscribe_rejected(self, broker):
        sock = raw_session(broker, "c")
        try:
            sock.sendall(
                pkt.Subscribe(packet_id=5, topics=(("/a/#", 0), ("/b/+", 1))).encode()
            )
            assert read_packet(sock) == pkt.SubAck(5, (pkt.SUBACK_FAILURE,) * 2)
            sock.sendall(pkt.Publish("/a/x", b"v", qos=1, packet_id=9).encode())
            assert read_packet(sock) == pkt.PubAck(9)
        finally:
            sock.close()

    def test_unsubscribe_closes_the_session(self, broker, caplog):
        sock = raw_session(broker, "c")
        try:
            # UNSUBSCRIBE (type 10) for one filter: not a packet the
            # broker decodes.
            sock.sendall(b"\xa2\x07\x00\x01\x00\x03/a/")
            assert sock.recv(16) == b""
        finally:
            sock.close()
        assert wait_until(lambda: "unsupported packet type 10" in caplog.text)
        assert wait_until(lambda: broker.connected_clients == 0)

    def test_publish_still_flows_to_hooks(self, broker):
        seen = []
        broker.add_publish_hook(lambda cid, ps: seen.extend(p.topic for p in ps))
        client = make_client(broker, "c")
        client.publish("/s/1", b"v", qos=1, wait_ack=True)
        assert seen == ["/s/1"]
        client.disconnect()


class TestTransportFactory:
    def test_make_broker_builds_the_publish_only_broker(self):
        transport = get_transport("tcp")
        broker = transport.make_broker(publish_only=True, port=0, trace_sample_every=7)
        assert isinstance(broker, MQTTBroker)
        assert broker.tracer.sample_every == 7
        with pytest.raises(ConfigError, match="publish-only"):
            transport.make_broker(publish_only=False)
