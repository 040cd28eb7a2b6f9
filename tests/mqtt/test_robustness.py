"""Robustness tests: malformed input must not take the broker down."""

import socket
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient


@pytest.fixture
def broker():
    with MQTTBroker("127.0.0.1", 0) as b:
        yield b


def raw_connection(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    return sock


def broker_still_works(broker):
    client = MQTTClient("prober", port=broker.port)
    client.connect()
    client.publish("/probe", b"ok", qos=1, wait_ack=True)
    client.disconnect()
    return True


class TestBrokerSurvivesGarbage:
    def test_random_bytes(self, broker):
        sock = raw_connection(broker)
        sock.sendall(bytes(range(256)) * 4)
        time.sleep(0.1)
        sock.close()
        assert broker_still_works(broker)

    def test_publish_before_connect_rejected(self, broker):
        sock = raw_connection(broker)
        sock.sendall(pkt.Publish(topic="/x", payload=b"1").encode())
        time.sleep(0.1)
        # Protocol violation: the broker drops the connection.
        sock.settimeout(1.0)
        data = sock.recv(64)
        assert data == b""  # closed
        sock.close()
        assert broker_still_works(broker)

    def test_wildcard_in_publish_topic_rejected(self, broker):
        sock = raw_connection(broker)
        sock.sendall(pkt.Connect(client_id="evil").encode())
        time.sleep(0.1)
        # Hand-craft a PUBLISH with a wildcard topic (the dataclass
        # itself refuses, so build the frame manually).
        topic = "/a/#".encode()
        body = len(topic).to_bytes(2, "big") + topic + b"payload"
        frame = bytes([0x30]) + pkt.encode_remaining_length(len(body)) + body
        sock.sendall(frame)
        time.sleep(0.15)
        sock.close()
        assert broker.metrics.value("dcdb_broker_messages_received_total") == 0
        assert broker_still_works(broker)

    def test_half_packet_then_disconnect(self, broker):
        sock = raw_connection(broker)
        sock.sendall(pkt.Connect(client_id="half").encode())
        time.sleep(0.05)
        full = pkt.Publish(topic="/half", payload=b"x" * 100).encode()
        sock.sendall(full[: len(full) // 2])
        sock.close()
        time.sleep(0.1)
        assert broker_still_works(broker)

    def test_huge_remaining_length_header(self, broker):
        sock = raw_connection(broker)
        # 5-byte remaining length is a protocol violation.
        sock.sendall(b"\x10\xff\xff\xff\xff\x01")
        time.sleep(0.1)
        sock.close()
        assert broker_still_works(broker)

    def test_many_rapid_connects_disconnects(self, broker):
        for i in range(20):
            sock = raw_connection(broker)
            sock.sendall(pkt.Connect(client_id=f"churn{i}").encode())
            sock.close()
        time.sleep(0.2)
        assert broker_still_works(broker)


class TestClientApiMisuse:
    def test_publish_before_connect(self):
        client = MQTTClient("nc", port=1)
        with pytest.raises(TransportError, match="not connected"):
            client.publish("/x", b"")

    def test_connect_refused_port(self):
        client = MQTTClient("nc", host="127.0.0.1", port=1)
        with pytest.raises(OSError):
            client.connect()

    def test_double_disconnect_safe(self):
        with MQTTBroker("127.0.0.1", 0) as broker:
            client = MQTTClient("dd", port=broker.port)
            client.connect()
            client.disconnect()
            client.disconnect()


class TestDecoderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=0, max_size=512))
    def test_stream_decoder_never_crashes_uncontrolled(self, data):
        decoder = pkt.StreamDecoder()
        try:
            decoder.feed(data)
        except TransportError:
            pass  # the one sanctioned failure mode

    @settings(max_examples=100, deadline=None)
    @given(
        st.binary(min_size=0, max_size=64),
        st.binary(min_size=0, max_size=64),
    )
    def test_valid_packet_survives_garbage_prefix_rejection(self, garbage, payload):
        # After a TransportError the caller discards the connection, so
        # we only require the error to be the typed one.
        packet = pkt.Publish(topic="/ok", payload=payload)
        decoder = pkt.StreamDecoder()
        try:
            out = decoder.feed(garbage + packet.encode())
        except TransportError:
            return
        # If garbage happened to parse, every decoded object is a
        # legitimate packet instance.
        for decoded in out:
            assert hasattr(decoded, "encode")


class TestKeepaliveEnforcement:
    def test_silent_client_dropped(self, broker):
        sock = raw_connection(broker)
        sock.settimeout(5.0)
        sock.sendall(pkt.Connect(client_id="silent", keepalive=1).encode())
        assert isinstance(pkt.decode_packet(sock.recv(4))[0], pkt.ConnAck)
        # No PINGREQ: the broker must drop us within ~1.5 s.
        assert sock.recv(16) == b""
        sock.close()

    def test_pinging_client_survives_keepalive(self, broker):
        client = MQTTClient("pinger2", port=broker.port, keepalive=1)
        client.connect()
        time.sleep(2.2)  # > 1.5x keepalive; PINGREQs keep us alive
        client.publish("/still/here", b"1", qos=1, wait_ack=True)
        client.disconnect()
