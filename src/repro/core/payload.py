"""Wire framing of sensor readings inside MQTT payloads.

DCDB publishes each sensor's readings under its own topic; a payload
carries one or more (timestamp, value) pairs so that a Pusher batching
several sampling cycles into one MQTT message (burst mode, paper
section 6.2.1) needs no extra protocol.  The frame is a flat sequence
of big-endian ``(int64 timestamp_ns, int64 value)`` records — 16 bytes
per reading, no header, count implied by length.  This matches DCDB's
compact fixed-width framing and keeps the Collect Agent's parse cost
to a ``struct.iter_unpack``.

Sampled readings may additionally carry a **trace header**: a 12-byte
big-endian ``(uint8 magic, uint8 version, uint16 flags, uint64
trace_id)`` prefix that propagates a trace ID end-to-end (pusher →
broker → collect agent → storage).  Because records are 16 bytes, a
headered payload has ``len % 16 == 12`` — a length class no legacy
frame can produce — so headerless payloads decode unchanged and old
decoders never misparse new ones as readings.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.common.errors import TransportError
from repro.core.sensor import SensorReading

_RECORD = struct.Struct("!qq")
RECORD_SIZE = _RECORD.size  # 16 bytes

_TRACE_HEADER = struct.Struct("!BBHQ")
TRACE_HEADER_SIZE = _TRACE_HEADER.size  # 12 bytes
TRACE_MAGIC = 0xD7
TRACE_VERSION = 1


def encode_readings(
    readings: Iterable[SensorReading], trace_id: int | None = None
) -> bytes:
    """Pack readings into the 16-byte-per-record wire frame.

    When ``trace_id`` is given the frame is prefixed with the 12-byte
    trace header, marking the whole message as a sampled trace.
    """
    body = b"".join(_RECORD.pack(r.timestamp, r.value) for r in readings)
    if trace_id is None:
        return body
    return _TRACE_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 0, trace_id) + body


def encode_reading(timestamp: int, value: int) -> bytes:
    """Pack a single reading (the common continuous-mode case)."""
    return _RECORD.pack(timestamp, value)


def has_trace_header(payload: bytes) -> bool:
    """True if the payload starts with a valid trace header."""
    return (
        len(payload) >= TRACE_HEADER_SIZE
        and len(payload) % RECORD_SIZE == TRACE_HEADER_SIZE
        and payload[0] == TRACE_MAGIC
        and payload[1] == TRACE_VERSION
    )


def trace_id_of(payload: bytes) -> int | None:
    """Trace ID carried by the payload, or None if untraced.

    O(1): peeks the header without touching the records, so brokers
    can recover trace context per message regardless of burst size.
    """
    if not has_trace_header(payload):
        return None
    return _TRACE_HEADER.unpack_from(payload)[3]


_TS = struct.Struct("!q")

#: Timestamps beyond ~2106 CE (2^62 ns) cannot be real reading origins;
#: ASCII/JSON bytes reinterpreted as big-endian int64 land far above
#: this (``{`` = 0x7B in the top byte ≈ 8.9e18), so the bound rejects
#: textual payloads that happen to be 16-byte multiples.
_MAX_PLAUSIBLE_ORIGIN_NS = 1 << 62


def payload_origin_ns(payload: bytes) -> int | None:
    """Origin timestamp of a reading payload, or None if it isn't one.

    Peeks the first record's timestamp without copying or decoding the
    rest, so brokers can trace a message in O(1) regardless of burst
    size.  Trace-headered payloads peek past the header; payloads whose
    leading 8 bytes do not look like a nanosecond timestamp (negative,
    or beyond 2^62) are rejected as non-reading frames.
    """
    offset = TRACE_HEADER_SIZE if has_trace_header(payload) else 0
    if (len(payload) - offset) % RECORD_SIZE or len(payload) - offset < RECORD_SIZE:
        return None
    origin = _TS.unpack_from(payload, offset)[0]
    if not 0 <= origin < _MAX_PLAUSIBLE_ORIGIN_NS:
        return None
    return origin


def decode_message(payload: bytes) -> tuple[list[SensorReading], int | None]:
    """Unpack a wire frame into (readings, trace_id-or-None)."""
    if has_trace_header(payload):
        return decode_readings(payload[TRACE_HEADER_SIZE:]), _TRACE_HEADER.unpack_from(
            payload
        )[3]
    return decode_readings(payload), None


def decode_readings(payload: bytes) -> list[SensorReading]:
    """Unpack a wire frame back into readings.

    Accepts both headerless frames and trace-headered ones (the header
    is stripped), so decoders that do not care about tracing keep
    working against traced payloads.  Raises :class:`TransportError`
    if the payload length is not a multiple of the record size — a
    framing error worth surfacing rather than silently truncating.
    """
    if has_trace_header(payload):
        payload = payload[TRACE_HEADER_SIZE:]
    if len(payload) % RECORD_SIZE != 0:
        raise TransportError(
            f"payload length {len(payload)} is not a multiple of {RECORD_SIZE}"
        )
    return [SensorReading(ts, value) for ts, value in _RECORD.iter_unpack(payload)]
