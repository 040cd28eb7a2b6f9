"""Tests for the MQTT 3.1.1 wire-format codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TransportError
from repro.mqtt import packets as pkt


def round_trip(packet):
    decoded, consumed = pkt.decode_packet(packet.encode())
    assert consumed == len(packet.encode())
    return decoded


class TestRemainingLength:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, b"\x00"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (16383, b"\xff\x7f"),
            (16384, b"\x80\x80\x01"),
            (268_435_455, b"\xff\xff\xff\x7f"),
        ],
    )
    def test_spec_vectors(self, value, encoded):
        assert pkt.encode_remaining_length(value) == encoded
        decoded, offset = pkt.decode_remaining_length(encoded, 0)
        assert decoded == value and offset == len(encoded)

    def test_out_of_range_rejected(self):
        with pytest.raises(TransportError):
            pkt.encode_remaining_length(268_435_456)
        with pytest.raises(TransportError):
            pkt.encode_remaining_length(-1)

    def test_malformed_five_bytes_rejected(self):
        with pytest.raises(TransportError, match="malformed"):
            pkt.decode_remaining_length(b"\xff\xff\xff\xff\x01", 0)

    @given(st.integers(min_value=0, max_value=268_435_455))
    def test_round_trip_property(self, value):
        encoded = pkt.encode_remaining_length(value)
        decoded, offset = pkt.decode_remaining_length(encoded, 0)
        assert decoded == value and offset == len(encoded)


class TestConnect:
    def test_minimal_round_trip(self):
        packet = pkt.Connect(client_id="pusher0", keepalive=30)
        assert round_trip(packet) == packet

    def test_credentials_round_trip(self):
        packet = pkt.Connect(client_id="c", username="admin", password=b"secret")
        assert round_trip(packet) == packet

    def test_will_round_trip(self):
        packet = pkt.Connect(
            client_id="c",
            will_topic="/dead/pusher0",
            will_payload=b"gone",
            will_qos=1,
            will_retain=True,
        )
        assert round_trip(packet) == packet

    def test_password_without_username_invalid(self):
        with pytest.raises(TransportError):
            pkt.Connect(client_id="c", password=b"x").encode()

    def test_unsupported_protocol_level(self):
        raw = bytearray(pkt.Connect(client_id="c").encode())
        # Protocol level byte sits after the fixed header (2) + "MQTT" string (6).
        raw[8] = 9
        with pytest.raises(TransportError, match="protocol level"):
            pkt.decode_packet(bytes(raw))

    def test_reserved_flag_rejected(self):
        raw = bytearray(pkt.Connect(client_id="c").encode())
        raw[9] |= 0x01
        with pytest.raises(TransportError, match="reserved flag"):
            pkt.decode_packet(bytes(raw))


class TestPublish:
    def test_qos0_round_trip(self):
        packet = pkt.Publish(topic="/a/b", payload=b"\x00\x01\x02")
        assert round_trip(packet) == packet

    def test_qos1_round_trip(self):
        packet = pkt.Publish(topic="/a", payload=b"x", qos=1, packet_id=42)
        assert round_trip(packet) == packet

    def test_wire_bytes(self):
        # MQTT 3.1.1 §3.3: flags nibble, remaining length, topic, id, payload.
        assert pkt.Publish(topic="/a", payload=b"x").encode() == b"\x30\x05\x00\x02/ax"
        assert (
            pkt.Publish(topic="/a", payload=b"x", qos=1, packet_id=42, retain=True, dup=True).encode()
            == b"\x3b\x07\x00\x02/a\x00\x2ax"
        )
        long = pkt.Publish(topic="/a", payload=bytes(200)).encode()
        assert long[:6] == b"\x30\xcc\x01\x00\x02/" and len(long) == 3 + 204

    def test_retain_dup_flags(self):
        packet = pkt.Publish(topic="/a", payload=b"", qos=1, packet_id=1, retain=True, dup=True)
        decoded = round_trip(packet)
        assert decoded.retain and decoded.dup

    def test_qos2_rejected(self):
        with pytest.raises(TransportError):
            pkt.Publish(topic="/a", qos=2, packet_id=1)

    def test_qos1_requires_packet_id(self):
        with pytest.raises(TransportError):
            pkt.Publish(topic="/a", qos=1)

    def test_empty_payload(self):
        assert round_trip(pkt.Publish(topic="/t")).payload == b""

    def test_utf8_topic(self):
        packet = pkt.Publish(topic="/größe/τ", payload=b"1")
        assert round_trip(packet).topic == "/größe/τ"

    @given(
        topic=st.text(
            alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=64,
        ),
        payload=st.binary(max_size=512),
        qos=st.sampled_from([0, 1]),
    )
    def test_round_trip_property(self, topic, payload, qos):
        packet = pkt.Publish(
            topic=topic, payload=payload, qos=qos, packet_id=7 if qos else None
        )
        assert round_trip(packet) == packet


class TestSubscribe:
    def test_round_trip(self):
        packet = pkt.Subscribe(packet_id=5, topics=(("/a/#", 1), ("/b/+/c", 0)))
        assert round_trip(packet) == packet

    def test_empty_topics_rejected_on_encode(self):
        with pytest.raises(TransportError):
            pkt.Subscribe(packet_id=1).encode()

    def test_bad_flags_rejected(self):
        raw = bytearray(pkt.Subscribe(packet_id=1, topics=(("/a", 0),)).encode())
        raw[0] = (raw[0] & 0xF0) | 0x00  # flags must be 0b0010
        with pytest.raises(TransportError, match="flags"):
            pkt.decode_packet(bytes(raw))

    def test_suback_round_trip(self):
        packet = pkt.SubAck(packet_id=5, return_codes=(0, 1, pkt.SUBACK_FAILURE))
        assert round_trip(packet) == packet


class TestOtherPackets:
    def test_connack(self):
        packet = pkt.ConnAck(session_present=True, return_code=pkt.CONNACK_REFUSED_BAD_CREDENTIALS)
        assert round_trip(packet) == packet

    def test_puback(self):
        assert round_trip(pkt.PubAck(packet_id=999)) == pkt.PubAck(packet_id=999)

    def test_unsubscribe(self):
        """UNSUBSCRIBE is not decoded: the publish-only broker has no
        subscriptions to drop."""
        with pytest.raises(TransportError, match="unsupported packet type 10"):
            pkt.decode_packet(b"\xa2\x04\x00\x03\x00\x00")

    def test_ping_round_trips(self):
        assert round_trip(pkt.PingReq()) == pkt.PingReq()
        assert round_trip(pkt.PingResp()) == pkt.PingResp()

    def test_disconnect(self):
        assert round_trip(pkt.Disconnect()) == pkt.Disconnect()

    def test_unknown_packet_type(self):
        with pytest.raises(TransportError, match="unsupported packet type"):
            pkt.decode_packet(b"\x00\x00")


class TestStreamDecoder:
    def test_single_packet(self):
        decoder = pkt.StreamDecoder()
        packets = decoder.feed(pkt.PingReq().encode())
        assert packets == [pkt.PingReq()]

    def test_multiple_packets_one_chunk(self):
        data = pkt.PingReq().encode() + pkt.Publish(topic="/a", payload=b"1").encode()
        packets = pkt.StreamDecoder().feed(data)
        assert len(packets) == 2

    def test_byte_by_byte_feeding(self):
        packet = pkt.Publish(topic="/long/topic/name", payload=b"payload bytes", qos=1, packet_id=3)
        decoder = pkt.StreamDecoder()
        received = []
        for byte in packet.encode():
            received.extend(decoder.feed(bytes([byte])))
        assert received == [packet]
        assert decoder.pending_bytes == 0

    def test_partial_retained(self):
        packet = pkt.Publish(topic="/a", payload=b"12345")
        data = packet.encode()
        decoder = pkt.StreamDecoder()
        assert decoder.feed(data[:3]) == []
        assert decoder.pending_bytes == 3
        assert decoder.feed(data[3:]) == [packet]

    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=8))
    def test_arbitrary_chunking_property(self, payloads):
        packets = [pkt.Publish(topic=f"/s/{i}", payload=p) for i, p in enumerate(payloads)]
        stream = b"".join(p.encode() for p in packets)
        decoder = pkt.StreamDecoder()
        received = []
        # Feed in chunks of 7 bytes.
        for i in range(0, len(stream), 7):
            received.extend(decoder.feed(stream[i : i + 7]))
        assert received == packets


class TestStreamDecoderFraming:
    """Only an incomplete fixed header or body means "wait for more
    bytes"; a complete frame whose body is short of its own fields is a
    protocol error, never a stall."""

    def test_subscribe_missing_its_qos_byte_is_an_error_not_a_stall(self):
        decoder = pkt.StreamDecoder()
        with pytest.raises(TransportError, match="malformed packet body"):
            decoder.feed(b"\x82\x07\x00\x01\x00\x03a/b" + pkt.PingReq().encode())

    def test_publish_shorter_than_its_topic_is_an_error(self):
        with pytest.raises(TransportError):
            pkt.StreamDecoder().feed(b"\x30\x03\x00\x05a")

    def test_trailing_partial_packet_stays_pending(self):
        tail = pkt.Publish(topic="/t", payload=b"xyz").encode()
        decoder = pkt.StreamDecoder()
        assert decoder.feed(pkt.PingReq().encode() + tail[:4]) == [pkt.PingReq()]
        assert decoder.pending_bytes == 4
        assert decoder.feed(tail[4:]) == [pkt.Publish(topic="/t", payload=b"xyz")]
        assert decoder.pending_bytes == 0

    packets = st.lists(
        st.one_of(
            st.builds(
                pkt.Publish,
                topic=st.text(alphabet="abc/", min_size=1, max_size=12),
                payload=st.binary(max_size=300),
            ),
            st.builds(
                pkt.Publish,
                topic=st.just("/q"),
                payload=st.binary(max_size=20),
                qos=st.just(1),
                packet_id=st.integers(1, 0xFFFF),
            ),
            st.just(pkt.PingReq()),
            st.builds(pkt.PubAck, packet_id=st.integers(0, 0xFFFF)),
            st.builds(
                pkt.Subscribe,
                packet_id=st.integers(1, 0xFFFF),
                topics=st.just((("/a/#", 1),)),
            ),
        ),
        min_size=1,
        max_size=30,
    )

    @settings(max_examples=150, deadline=None)
    @given(packets, st.lists(st.integers(0, 10_000), max_size=12))
    def test_any_split_points_give_the_same_packets(self, packets, cuts):
        stream = b"".join(p.encode() for p in packets)
        bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
        decoder = pkt.StreamDecoder()
        received = []
        for start, end in zip(bounds, bounds[1:]):
            received.extend(decoder.feed(stream[start:end]))
        assert received == packets
        assert decoder.pending_bytes == 0
        assert all(type(p.payload) is bytes for p in received if isinstance(p, pkt.Publish))
