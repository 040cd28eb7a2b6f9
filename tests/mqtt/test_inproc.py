"""Tests for the in-process transport: semantics parity with TCP."""

import pytest

from repro.common.errors import TransportError
from repro.mqtt.inproc import InProcClient, InProcHub


class TestInProcHub:
    def test_publish_reaches_subscriber(self):
        hub = InProcHub()
        sink = []
        sub = InProcClient("sub", hub)
        sub.connect()
        sub.subscribe("/a/#", lambda t, p: sink.append((t, p)))
        pub = InProcClient("pub", hub)
        pub.connect()
        pub.publish("/a/b", b"x")
        assert sink == [("/a/b", b"x")]

    def test_publish_hooks(self):
        hub = InProcHub(allow_subscribe=False)
        seen = []
        hub.add_publish_hook(lambda cid, ps: seen.extend((cid, p.topic, p.payload) for p in ps))
        client = InProcClient("c1", hub)
        client.connect()
        client.publish("/s", b"v")
        assert seen == [("c1", "/s", b"v")]

    def test_publish_only_hub_rejects_subscribe(self):
        hub = InProcHub(allow_subscribe=False)
        client = InProcClient("c", hub)
        client.connect()
        with pytest.raises(TransportError, match="publish-only"):
            client.subscribe("/x/#")

    def test_disconnected_client_cannot_publish(self):
        hub = InProcHub()
        client = InProcClient("c", hub)
        with pytest.raises(TransportError, match="not connected"):
            client.publish("/x", b"")

    def test_invalid_topic_rejected(self):
        hub = InProcHub()
        client = InProcClient("c", hub)
        client.connect()
        with pytest.raises(TransportError):
            client.publish("/has/#/wildcard", b"")

    def test_disconnect_removes_subscriptions(self):
        hub = InProcHub()
        sink = []
        sub = InProcClient("sub", hub)
        sub.connect()
        sub.subscribe("/a/#", lambda t, p: sink.append(t))
        sub.disconnect()
        pub = InProcClient("pub", hub)
        pub.connect()
        pub.publish("/a/b", b"")
        assert sink == []
        assert hub.messages_delivered == 0

    def test_unsubscribe(self):
        hub = InProcHub()
        sink = []
        sub = InProcClient("sub", hub)
        sub.connect()
        sub.subscribe("/a/#", lambda t, p: sink.append(t))
        sub.unsubscribe("/a/#")
        pub = InProcClient("pub", hub)
        pub.connect()
        pub.publish("/a/b", b"")
        assert sink == []

    def test_counters(self):
        hub = InProcHub()
        pub = InProcClient("pub", hub)
        pub.connect()
        pub.publish("/a", b"1234")
        assert hub.messages_received == 1
        assert pub.messages_sent == 1
        assert pub.bytes_sent == 4 + len("/a")

    def test_connected_clients(self):
        hub = InProcHub()
        a = InProcClient("a", hub)
        b = InProcClient("b", hub)
        a.connect()
        b.connect()
        assert hub.connected_clients == 2
        a.disconnect()
        assert hub.connected_clients == 1

    def test_on_message_fallback(self):
        hub = InProcHub()
        sink = []
        sub = InProcClient("sub", hub)
        sub.connect()
        sub.subscribe("/a/#")  # no callback registered
        sub.on_message = lambda t, p: sink.append(t)
        pub = InProcClient("pub", hub)
        pub.connect()
        pub.publish("/a/b", b"")
        assert sink == ["/a/b"]

    def test_context_manager(self):
        hub = InProcHub()
        with InProcClient("c", hub) as client:
            assert client.connected
        assert not client.connected

    def test_connect_idempotent(self):
        hub = InProcHub()
        client = InProcClient("c", hub)
        client.connect()
        client.connect()
        assert hub.connected_clients == 1


class TestInProcConcurrency:
    def test_parallel_publishers_counted_exactly(self):
        import threading

        hub = InProcHub(allow_subscribe=False)
        received = []
        hub.add_publish_hook(lambda cid, ps: received.extend(p.topic for p in ps))
        clients = [InProcClient(f"c{i}", hub) for i in range(8)]
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
        assert hub.messages_received == 8 * 500
        assert len(received) == 8 * 500

    def test_subscribe_while_publishing(self):
        import threading

        hub = InProcHub()
        stop = threading.Event()
        pub = InProcClient("pub", hub)
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
                sub = InProcClient(f"sub{i}", hub)
                sub.connect()
                sub.subscribe("/live/#", lambda t, p: None)
                sub.disconnect()
        finally:
            stop.set()
            thread.join()
        assert errors == []
