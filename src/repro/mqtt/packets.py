"""MQTT 3.1.1 control-packet codec.

Implements the wire format from the OASIS MQTT 3.1.1 specification for
the packets DCDB needs: CONNECT/CONNACK for session setup, PUBLISH and
PUBACK (QoS 0 and 1) for sensor readings, SUBSCRIBE/SUBACK (the
broker refuses every filter: it is publish-only), PINGREQ/PINGRESP
keepalives and DISCONNECT.  QoS 2 is deliberately unsupported, matching DCDB's use of
the protocol (telemetry tolerates at-least-once delivery; the exactly-
once handshake would double the per-reading round trips).

Every packet is a frozen dataclass with ``encode()`` producing the full
wire bytes (fixed header included).  :func:`decode_packet` parses one
complete packet from a buffer; :class:`StreamDecoder` incrementally
parses a TCP byte stream, which is how the broker and client consume
sockets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.common.errors import TransportError

# Packet type numbers (MQTT 3.1.1 table 2.1).
CONNECT = 1
CONNACK = 2
PUBLISH = 3
PUBACK = 4
SUBSCRIBE = 8
SUBACK = 9
PINGREQ = 12
PINGRESP = 13
DISCONNECT = 14

# CONNACK return codes.
CONNACK_ACCEPTED = 0
CONNACK_REFUSED_PROTOCOL = 1
CONNACK_REFUSED_IDENTIFIER = 2
CONNACK_REFUSED_UNAVAILABLE = 3
CONNACK_REFUSED_BAD_CREDENTIALS = 4
CONNACK_REFUSED_NOT_AUTHORIZED = 5

SUBACK_FAILURE = 0x80

_MAX_REMAINING_LENGTH = 268_435_455  # 4 varint bytes


def encode_remaining_length(length: int) -> bytes:
    """Encode the MQTT variable-length 'remaining length' field."""
    if not 0 <= length <= _MAX_REMAINING_LENGTH:
        raise TransportError(f"remaining length {length} out of range")
    if length < 0x80:  # one byte: every PUBLISH of a Pusher reading
        return bytes((length,))
    out = bytearray()
    while True:
        digit = length % 128
        length //= 128
        if length > 0:
            out.append(digit | 0x80)
        else:
            out.append(digit)
            return bytes(out)


def decode_remaining_length(buf: bytes, offset: int) -> tuple[int, int]:
    """Decode a remaining-length varint starting at ``offset``.

    Returns ``(value, next_offset)``.  Raises :class:`IndexError` if the
    buffer is too short (the stream decoder catches this to wait for
    more bytes) and :class:`TransportError` on a malformed encoding.
    """
    multiplier = 1
    value = 0
    for i in range(4):
        byte = buf[offset + i]
        value += (byte & 0x7F) * multiplier
        if not byte & 0x80:
            return value, offset + i + 1
        multiplier *= 128
    raise TransportError("malformed remaining length (more than 4 bytes)")


def encode_string(s: str) -> bytes:
    """An MQTT UTF-8 string: a 2-byte big-endian length, then the bytes."""
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise TransportError("MQTT string exceeds 65535 bytes")
    return struct.pack("!H", len(data)) + data


def _decode_string(buf: bytes, offset: int) -> tuple[str, int]:
    if offset + 2 > len(buf):
        raise TransportError("truncated MQTT string length")
    (length,) = struct.unpack_from("!H", buf, offset)
    end = offset + 2 + length
    if end > len(buf):
        raise TransportError("truncated MQTT string body")
    return buf[offset + 2 : end].decode("utf-8"), end


def _fixed_header(ptype: int, flags: int, remaining: int) -> bytes:
    return bytes([(ptype << 4) | (flags & 0x0F)]) + encode_remaining_length(remaining)


def frame_publish(
    out: bytearray,
    topic: bytes,
    payload: bytes,
    qos: int = 0,
    retain: bool = False,
    dup: bool = False,
    packet_id: int | None = None,
) -> None:
    """Append one PUBLISH to ``out``; ``topic`` is an :func:`encode_string`
    and ``packet_id`` is written only at QoS > 0."""
    out.append((PUBLISH << 4) | (qos << 1) | (0x08 if dup else 0) | (0x01 if retain else 0))
    out += encode_remaining_length(len(topic) + len(payload) + (2 if qos else 0))
    out += topic
    if qos:
        out += packet_id.to_bytes(2, "big")
    out += payload


@dataclass(frozen=True, slots=True)
class Connect:
    """CONNECT — client session request.

    ``keepalive`` is in seconds; 0 disables the server-side timeout.
    Will messages are supported because DCDB Pushers can register a
    'last will' so the Collect Agent notices dead collectors.
    """

    client_id: str
    keepalive: int = 60
    clean_session: bool = True
    username: str | None = None
    password: bytes | None = None
    will_topic: str | None = None
    will_payload: bytes = b""
    will_qos: int = 0
    will_retain: bool = False

    def encode(self) -> bytes:
        flags = 0
        if self.clean_session:
            flags |= 0x02
        payload = encode_string(self.client_id)
        if self.will_topic is not None:
            flags |= 0x04 | (self.will_qos << 3)
            if self.will_retain:
                flags |= 0x20
            payload += encode_string(self.will_topic)
            payload += struct.pack("!H", len(self.will_payload)) + self.will_payload
        if self.username is not None:
            flags |= 0x80
            payload += encode_string(self.username)
        if self.password is not None:
            if self.username is None:
                raise TransportError("password without username is invalid in MQTT 3.1.1")
            flags |= 0x40
            payload += struct.pack("!H", len(self.password)) + self.password
        var = encode_string("MQTT") + bytes([4, flags]) + struct.pack("!H", self.keepalive)
        body = var + payload
        return _fixed_header(CONNECT, 0, len(body)) + body

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "Connect":
        name, off = _decode_string(body, 0)
        if name not in ("MQTT", "MQIsdp"):
            raise TransportError(f"unknown protocol name {name!r}")
        if off + 4 > len(body):
            raise TransportError("truncated CONNECT variable header")
        level = body[off]
        cflags = body[off + 1]
        if level != 4 and name == "MQTT":
            raise TransportError(f"unsupported protocol level {level}")
        if cflags & 0x01:
            raise TransportError("CONNECT reserved flag must be zero")
        (keepalive,) = struct.unpack_from("!H", body, off + 2)
        off += 4
        client_id, off = _decode_string(body, off)
        will_topic = None
        will_payload = b""
        will_qos = 0
        will_retain = False
        if cflags & 0x04:
            will_topic, off = _decode_string(body, off)
            (wlen,) = struct.unpack_from("!H", body, off)
            will_payload = body[off + 2 : off + 2 + wlen]
            off += 2 + wlen
            will_qos = (cflags >> 3) & 0x03
            will_retain = bool(cflags & 0x20)
        username = None
        password = None
        if cflags & 0x80:
            username, off = _decode_string(body, off)
        if cflags & 0x40:
            (plen,) = struct.unpack_from("!H", body, off)
            password = body[off + 2 : off + 2 + plen]
            off += 2 + plen
        return cls(
            client_id=client_id,
            keepalive=keepalive,
            clean_session=bool(cflags & 0x02),
            username=username,
            password=password,
            will_topic=will_topic,
            will_payload=will_payload,
            will_qos=will_qos,
            will_retain=will_retain,
        )


@dataclass(frozen=True, slots=True)
class ConnAck:
    """CONNACK — broker response to CONNECT."""

    session_present: bool = False
    return_code: int = CONNACK_ACCEPTED

    def encode(self) -> bytes:
        body = bytes([1 if self.session_present else 0, self.return_code])
        return _fixed_header(CONNACK, 0, len(body)) + body

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "ConnAck":
        if len(body) != 2:
            raise TransportError("CONNACK body must be 2 bytes")
        return cls(session_present=bool(body[0] & 0x01), return_code=body[1])


@dataclass(frozen=True, slots=True)
class Publish:
    """PUBLISH — one message on one topic.

    In DCDB the topic identifies a sensor and the payload carries one
    or more (timestamp, value) readings (see
    :mod:`repro.core.collectagent.payload` for the framing).
    """

    topic: str
    payload: bytes = b""
    qos: int = 0
    retain: bool = False
    dup: bool = False
    packet_id: int | None = None

    def __post_init__(self) -> None:
        if self.qos not in (0, 1):
            raise TransportError(f"unsupported QoS {self.qos} (only 0 and 1)")
        if self.qos > 0 and self.packet_id is None:
            raise TransportError("QoS>0 PUBLISH requires a packet id")

    def encode(self) -> bytes:
        out, topic = bytearray(), encode_string(self.topic)
        frame_publish(out, topic, self.payload, self.qos, self.retain, self.dup, self.packet_id)
        return bytes(out)

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "Publish":
        qos = (flags >> 1) & 0x03
        if qos == 3:
            raise TransportError("PUBLISH with invalid QoS 3")
        topic, off = _decode_string(body, 0)
        packet_id = None
        if qos > 0:
            if off + 2 > len(body):
                raise TransportError("truncated PUBLISH packet id")
            (packet_id,) = struct.unpack_from("!H", body, off)
            off += 2
        return cls(
            topic=topic,
            payload=body[off:],
            qos=qos,
            retain=bool(flags & 0x01),
            dup=bool(flags & 0x08),
            packet_id=packet_id,
        )


@dataclass(frozen=True, slots=True)
class PubAck:
    """PUBACK — QoS 1 acknowledgement."""

    packet_id: int

    def encode(self) -> bytes:
        body = struct.pack("!H", self.packet_id)
        return _fixed_header(PUBACK, 0, len(body)) + body

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "PubAck":
        if len(body) != 2:
            raise TransportError("PUBACK body must be 2 bytes")
        return cls(packet_id=struct.unpack("!H", body)[0])


@dataclass(frozen=True, slots=True)
class Subscribe:
    """SUBSCRIBE — request delivery for a list of topic filters."""

    packet_id: int
    topics: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def encode(self) -> bytes:
        if not self.topics:
            raise TransportError("SUBSCRIBE requires at least one topic filter")
        body = struct.pack("!H", self.packet_id)
        for topic, qos in self.topics:
            if qos not in (0, 1):
                raise TransportError(f"unsupported requested QoS {qos}")
            body += encode_string(topic) + bytes([qos])
        return _fixed_header(SUBSCRIBE, 0x02, len(body)) + body

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "Subscribe":
        if flags != 0x02:
            raise TransportError("SUBSCRIBE fixed-header flags must be 0b0010")
        (packet_id,) = struct.unpack_from("!H", body, 0)
        off = 2
        topics: list[tuple[str, int]] = []
        while off < len(body):
            topic, off = _decode_string(body, off)
            if off >= len(body) + 1:
                raise TransportError("truncated SUBSCRIBE QoS byte")
            qos = body[off]
            off += 1
            topics.append((topic, qos))
        if not topics:
            raise TransportError("SUBSCRIBE with empty topic list")
        return cls(packet_id=packet_id, topics=tuple(topics))


@dataclass(frozen=True, slots=True)
class SubAck:
    """SUBACK — per-filter grant results for a SUBSCRIBE."""

    packet_id: int
    return_codes: tuple[int, ...] = field(default_factory=tuple)

    def encode(self) -> bytes:
        body = struct.pack("!H", self.packet_id) + bytes(self.return_codes)
        return _fixed_header(SUBACK, 0, len(body)) + body

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "SubAck":
        (packet_id,) = struct.unpack_from("!H", body, 0)
        return cls(packet_id=packet_id, return_codes=tuple(body[2:]))


@dataclass(frozen=True, slots=True)
class PingReq:
    """PINGREQ — client keepalive probe."""

    def encode(self) -> bytes:
        return _fixed_header(PINGREQ, 0, 0)

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "PingReq":
        return cls()


@dataclass(frozen=True, slots=True)
class PingResp:
    """PINGRESP — broker keepalive answer."""

    def encode(self) -> bytes:
        return _fixed_header(PINGRESP, 0, 0)

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "PingResp":
        return cls()


@dataclass(frozen=True, slots=True)
class Disconnect:
    """DISCONNECT — clean session teardown."""

    def encode(self) -> bytes:
        return _fixed_header(DISCONNECT, 0, 0)

    @classmethod
    def decode(cls, flags: int, body: bytes) -> "Disconnect":
        return cls()


Packet = (
    Connect
    | ConnAck
    | Publish
    | PubAck
    | Subscribe
    | SubAck
    | PingReq
    | PingResp
    | Disconnect
)

_DECODERS = {
    CONNECT: Connect.decode,
    CONNACK: ConnAck.decode,
    PUBLISH: Publish.decode,
    PUBACK: PubAck.decode,
    SUBSCRIBE: Subscribe.decode,
    SUBACK: SubAck.decode,
    PINGREQ: PingReq.decode,
    PINGRESP: PingResp.decode,
    DISCONNECT: Disconnect.decode,
}


def encode_packet(packet: Packet) -> bytes:
    """Encode any packet object to wire bytes."""
    return packet.encode()


def decode_packet(data: bytes, offset: int = 0) -> tuple[Packet, int]:
    """Decode the one complete packet at ``offset`` of ``data``.

    Returns ``(packet, end_offset)``.  Raises :class:`TransportError` on
    malformed or unsupported input, and :class:`IndexError` only while
    the fixed header or the body is still incomplete.
    """
    first = data[offset]
    ptype = first >> 4
    remaining, body_off = decode_remaining_length(data, offset + 1)
    end = body_off + remaining
    if end > len(data):
        raise IndexError("incomplete packet")
    decoder = _DECODERS.get(ptype)
    if decoder is None:
        raise TransportError(f"unsupported packet type {ptype}")
    try:
        packet = decoder(first & 0x0F, bytes(data[body_off:end]))
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        # A complete frame short of its own fields is malformed, not
        # incomplete: no further bytes can mend it.
        raise TransportError(f"malformed packet body (type {ptype}): {exc}") from exc
    return packet, end


class StreamDecoder:
    """Incremental decoder for a TCP byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete packets come back
    in order.  Partial packets are buffered internally.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Packet]:
        """Append ``data`` and return all packets now complete, decoded
        in place; the consumed bytes are trimmed once per call."""
        buf = self._buf
        buf += data
        packets: list[Packet] = []
        offset = 0
        while offset < len(buf):
            try:
                packet, offset = decode_packet(buf, offset)
            except IndexError:  # an incomplete packet: wait for more bytes
                break
            packets.append(packet)
        del buf[:offset]
        return packets

    @property
    def pending_bytes(self) -> int:
        """Number of buffered bytes not yet forming a full packet."""
        return len(self._buf)
