"""Integration tests of the TCP broker and client over real sockets."""

import threading
import time

import pytest

from repro.common.errors import TransportError
from repro.mqtt.broker import MQTTBroker, PublishOnlyBroker
from repro.mqtt.client import MQTTClient


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


class Collector:
    """Thread-safe message sink with wait support."""

    def __init__(self):
        self.messages = []
        self._cond = threading.Condition()

    def __call__(self, topic, payload):
        with self._cond:
            self.messages.append((topic, payload))
            self._cond.notify_all()

    def wait_for(self, count, timeout=5.0):
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self.messages) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True


class TestPublishSubscribe:
    def test_basic_delivery(self, broker):
        sink = Collector()
        sub = make_client(broker, "sub")
        sub.subscribe("/data/#", sink)
        pub = make_client(broker, "pub")
        pub.publish("/data/x", b"42")
        assert sink.wait_for(1)
        assert sink.messages == [("/data/x", b"42")]
        pub.disconnect()
        sub.disconnect()

    def test_qos1_waits_for_ack(self, broker):
        pub = make_client(broker, "pub")
        pub.publish("/q", b"1", qos=1, wait_ack=True)
        assert broker.messages_received == 1
        pub.disconnect()

    def test_wildcard_plus(self, broker):
        sink = Collector()
        sub = make_client(broker, "sub")
        sub.subscribe("/a/+/c", sink)
        pub = make_client(broker, "pub")
        pub.publish("/a/b/c", b"hit")
        pub.publish("/a/b/d", b"miss")
        pub.publish("/a/x/c", b"hit2")
        assert sink.wait_for(2)
        time.sleep(0.05)
        assert len(sink.messages) == 2
        pub.disconnect()
        sub.disconnect()

    def test_multiple_subscribers_fanout(self, broker):
        sinks = [Collector() for _ in range(3)]
        subs = []
        for i, sink in enumerate(sinks):
            sub = make_client(broker, f"sub{i}")
            sub.subscribe("/fan/#", sink)
            subs.append(sub)
        pub = make_client(broker, "pub")
        pub.publish("/fan/out", b"x")
        for sink in sinks:
            assert sink.wait_for(1)
        for sub in subs:
            sub.disconnect()
        pub.disconnect()

    def test_unsubscribe_stops_delivery(self, broker):
        sink = Collector()
        sub = make_client(broker, "sub")
        sub.subscribe("/u/#", sink)
        pub = make_client(broker, "pub")
        pub.publish("/u/1", b"a")
        assert sink.wait_for(1)
        sub.unsubscribe("/u/#")
        time.sleep(0.05)
        pub.publish("/u/2", b"b")
        time.sleep(0.15)
        assert len(sink.messages) == 1
        pub.disconnect()
        sub.disconnect()

    def test_late_subscription_and_resubscribe_receive(self, broker):
        # Publishes with nothing subscribed skip the topic trie; the
        # skip must follow subscribe, unsubscribe and disconnect.
        pub = make_client(broker, "pub")
        for i in range(5):
            pub.publish("/late/x", b"early%d" % i, qos=1, wait_ack=True)
        sink = Collector()
        sub = make_client(broker, "sub")
        sub.subscribe("/late/#", sink)
        pub.publish("/late/x", b"one", qos=1, wait_ack=True)
        assert sink.wait_for(1)
        sub.unsubscribe("/late/#")
        time.sleep(0.05)  # UNSUBSCRIBE has no client-side wait
        pub.publish("/late/x", b"missed", qos=1, wait_ack=True)
        sub.subscribe("/late/#", sink)
        pub.publish("/late/x", b"two", qos=1, wait_ack=True)
        assert sink.wait_for(2)
        sub.disconnect()
        assert wait_until(lambda: broker.connected_clients == 1)
        other = Collector()
        sub2 = make_client(broker, "sub2")
        sub2.subscribe("/late/#", other)
        pub.publish("/late/x", b"three", qos=1, wait_ack=True)
        assert other.wait_for(1)
        assert [p for _, p in sink.messages] == [b"one", b"two"]
        assert other.messages == [("/late/x", b"three")]
        pub.disconnect()
        sub2.disconnect()

    def test_retained_message_delivered_to_late_subscriber(self, broker):
        pub = make_client(broker, "pub")
        pub.publish("/state/mode", b"eco", retain=True)
        time.sleep(0.05)
        sink = Collector()
        sub = make_client(broker, "late")
        sub.subscribe("/state/#", sink)
        assert sink.wait_for(1)
        assert sink.messages[0] == ("/state/mode", b"eco")
        pub.disconnect()
        sub.disconnect()

    def test_publish_hook_sees_everything(self, broker):
        seen = []
        broker.add_publish_hook(lambda cid, ps: seen.extend((cid, p.topic) for p in ps))
        pub = make_client(broker, "hooked")
        pub.publish("/h/1", b"x", qos=1, wait_ack=True)
        assert seen == [("hooked", "/h/1")]
        pub.disconnect()


class TestLifecycle:
    def test_will_published_on_abnormal_disconnect(self, broker):
        sink = Collector()
        watcher = make_client(broker, "watcher")
        watcher.subscribe("/dead/#", sink)
        from repro.mqtt import packets as pkt

        # Build a raw connection carrying a will, then sever it.
        import socket

        sock = socket.create_connection(("127.0.0.1", broker.port))
        sock.sendall(
            pkt.Connect(
                client_id="dying", will_topic="/dead/dying", will_payload=b"rip"
            ).encode()
        )
        time.sleep(0.1)
        sock.close()  # abnormal: no DISCONNECT packet
        assert sink.wait_for(1)
        assert sink.messages[0] == ("/dead/dying", b"rip")
        watcher.disconnect()

    def test_clean_disconnect_suppresses_will(self, broker):
        sink = Collector()
        watcher = make_client(broker, "watcher")
        watcher.subscribe("/dead/#", sink)
        from repro.mqtt import packets as pkt
        import socket

        sock = socket.create_connection(("127.0.0.1", broker.port))
        sock.sendall(
            pkt.Connect(client_id="polite", will_topic="/dead/polite").encode()
        )
        time.sleep(0.1)
        sock.sendall(pkt.Disconnect().encode())
        time.sleep(0.1)
        sock.close()
        time.sleep(0.15)
        assert sink.messages == []
        watcher.disconnect()

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
        sink = Collector()
        sub = make_client(broker, "sub")
        sub.subscribe("/conc/#", sink)
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
        assert sink.wait_for(100)
        for c in clients:
            c.disconnect()
        sub.disconnect()


class TestPublishOnlyBroker:
    def test_subscribe_rejected(self):
        with PublishOnlyBroker("127.0.0.1", 0) as broker:
            client = make_client(broker, "c")
            with pytest.raises(TransportError, match="rejected"):
                client.subscribe("/anything/#")
            client.disconnect()

    def test_publish_still_flows_to_hooks(self):
        with PublishOnlyBroker("127.0.0.1", 0) as broker:
            seen = []
            broker.add_publish_hook(lambda cid, ps: seen.extend(p.topic for p in ps))
            client = make_client(broker, "c")
            client.publish("/s/1", b"v", qos=1, wait_ack=True)
            assert seen == ["/s/1"]
            client.disconnect()
