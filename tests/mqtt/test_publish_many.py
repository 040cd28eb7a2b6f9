"""``MQTTClient.publish_many``: one buffer and one write for a batch of
PUBLISHes, byte for byte what one ``Publish.encode`` per message gives."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient


class CapturingConn:
    """Stands in for the client's connection: keeps every write and,
    when ``ack`` is set, answers each QoS-1 PUBLISH with its PUBACK."""

    def __init__(self, client, ack=False):
        self.client = client
        self.ack = ack
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        if self.ack:
            acks = [
                pkt.PubAck(packet_id=p.packet_id)
                for p in pkt.StreamDecoder().feed(bytes(data))
                if p.packet_id is not None
            ]
            self.client._on_packets(self, acks)
        return True


def capturing_client(max_inflight=64, ack=False):
    client = MQTTClient("capture", max_inflight=max_inflight)
    client._conn = CapturingConn(client, ack=ack)
    client._connected = client.ever_connected = True
    return client


def fields(packets):
    return [(p.topic, bytes(p.payload), p.qos, p.packet_id, p.retain, p.dup) for p in packets]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


topics = st.text(
    alphabet=st.characters(blacklist_characters="#+\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
)
payloads = st.one_of(
    st.binary(max_size=300),
    # Across the two- and three-byte remaining-length boundaries.
    st.integers(16_370, 16_400).map(lambda n: bytes(range(256)) * (n // 256) + b"x" * (n % 256)),
)
messages = st.lists(st.tuples(topics, payloads), max_size=30)


class TestWireEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(messages=messages, qos=st.sampled_from([0, 1]))
    def test_one_write_equals_one_encode_per_message(self, messages, qos):
        client = capturing_client()
        assert client.publish_many(messages, qos=qos) == {}
        expected = b"".join(
            pkt.Publish(
                topic=topic, payload=payload, qos=qos, packet_id=i + 1 if qos else None
            ).encode()
            for i, (topic, payload) in enumerate(messages)
        )
        writes = client._conn.writes
        assert len(writes) == (1 if messages else 0)
        assert b"".join(writes) == expected
        assert fields(pkt.StreamDecoder().feed(b"".join(writes))) == fields(
            pkt.StreamDecoder().feed(expected)
        )
        # The counters read what one publish per message gives.
        assert client.messages_sent == len(messages)
        assert client.bytes_sent == len(expected)

    @settings(max_examples=50, deadline=None)
    @given(messages=st.lists(st.tuples(topics, payloads), min_size=1, max_size=10), data=st.data())
    def test_an_invalid_topic_is_refused_on_its_own(self, messages, data):
        bad = data.draw(st.integers(0, len(messages)))
        batch = messages[:bad] + [("/bad/#", b"x")] + messages[bad:]
        qos = data.draw(st.sampled_from([0, 1]))
        client = capturing_client()
        refused = client.publish_many(batch, qos=qos)
        assert list(refused) == [bad]
        assert isinstance(refused[bad], TransportError)
        written = fields(pkt.StreamDecoder().feed(b"".join(client._conn.writes)))
        assert [(t, p) for t, p, *_ in written] == messages
        assert client.messages_sent == len(messages)

    def test_qos1_batch_is_written_in_window_slices_with_ordered_ids(self):
        client = capturing_client(max_inflight=4, ack=True)
        batch = [(f"/w/s{i}", bytes([i])) for i in range(10)]
        assert client.publish_many(batch, qos=1) == {}
        slices = [pkt.StreamDecoder().feed(w) for w in client._conn.writes]
        assert [len(s) for s in slices] == [4, 4, 2]
        assert [p.packet_id for s in slices for p in s] == list(range(1, 11))
        assert not client._inflight

    def test_qos0_batch_while_disconnected_raises_and_counts_each_drop(self):
        client = capturing_client()
        client._connected = False
        with pytest.raises(TransportError, match="not connected"):
            client.publish_many([("/d/a", b"1"), ("/d/b", b"2"), ("/d/#", b"3")])
        assert client.qos0_drops == 2  # the invalid topic was never a drop
        assert client._conn.writes == []

    def test_inproc_client_refuses_invalid_topics_alone(self):
        broker = MQTTBroker(port=None)
        client = MQTTClient("p", broker=broker)
        client.connect()
        refused = client.publish_many([("/i/a", b"1"), ("/i/+", b"2"), ("/i/b", b"3")])
        assert list(refused) == [1]
        assert client.messages_sent == 2


class TestLiveBroker:
    def test_qos1_batch_larger_than_the_window_completes(self):
        with MQTTBroker("127.0.0.1", 0) as broker:
            delivered = []
            broker.add_publish_hook(lambda cid, ps: delivered.extend(bytes(p.payload) for p in ps))
            client = MQTTClient("big", port=broker.port, max_inflight=8, keepalive=0)
            client.connect()
            try:
                batch = [(f"/big/s{i}", b"%d" % i) for i in range(50)]
                assert client.publish_many(batch, qos=1) == {}
                assert wait_until(lambda: len(delivered) == 50 and not client._inflight)
                assert delivered == [p for _, p in batch]
                assert client.messages_sent == 50
            finally:
                client.disconnect()

    def test_qos1_batch_queued_in_an_outage_replays_exactly_once(self):
        broker = MQTTBroker("127.0.0.1", 0)
        broker.start()
        port = broker.port
        client = MQTTClient(
            "bounce", port=port, max_inflight=8, reconnect_min_delay_s=0.05, keepalive=0
        )
        client.connect()
        delivered = []
        try:
            broker.stop()
            assert wait_until(lambda: not client.connected, timeout=5.0)
            # Larger than the window: the first slice queues, then the
            # call waits for PUBACKs that only the next broker can give.
            batch = [(f"/bounce/s{i}", b"%d" % i) for i in range(20)]
            result = []
            sender = threading.Thread(
                target=lambda: result.append(client.publish_many(batch, qos=1))
            )
            sender.start()
            broker2 = MQTTBroker("127.0.0.1", port)
            broker2.add_publish_hook(
                lambda cid, ps: delivered.extend(bytes(p.payload) for p in ps)
            )
            broker2.start()
            try:
                sender.join(timeout=15.0)
                assert not sender.is_alive()
                assert result == [{}]
                assert wait_until(lambda: len(delivered) >= 20 and not client._inflight)
                time.sleep(0.3)  # window for an erroneous double replay
                assert sorted(delivered) == sorted(p for _, p in batch)
                assert client.reconnects == 1
            finally:
                client.disconnect()
                broker2.stop()
        finally:
            broker.stop()
