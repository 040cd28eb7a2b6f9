"""Wire framing of sensor readings inside MQTT payloads.

DCDB publishes each sensor's readings under its own topic; a payload
carries one or more (timestamp, value) pairs so that a Pusher batching
several sampling cycles into one MQTT message (burst mode, paper
section 6.2.1) needs no extra protocol.  The frame is a flat sequence
of big-endian ``(int64 timestamp_ns, int64 value)`` records — 16 bytes
per reading, no header, count implied by length.  This matches DCDB's
compact fixed-width framing and keeps the Collect Agent's parse cost
to one ``np.frombuffer`` per message.

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

import numpy as np

from repro.common.errors import TransportError
from repro.core.sensor import SensorReading

#: The record layout: big-endian int64 timestamp, then value.
_RECORD = np.dtype([("t", ">i8"), ("v", ">i8")])
RECORD_SIZE = _RECORD.itemsize  # 16 bytes

_TRACE_HEADER = struct.Struct("!BBHQ")
TRACE_HEADER_SIZE = _TRACE_HEADER.size  # 12 bytes
TRACE_MAGIC = 0xD7
TRACE_VERSION = 1


def encode_frames(timestamps, values, counts: list[int], traces: dict[int, int]) -> list[bytes]:
    """Frame consecutive runs of int64 ``(timestamps, values)`` columns
    as wire payloads in one pass: payload ``i`` carries the next
    ``counts[i]`` records, prefixed with the 12-byte trace header when
    ``traces`` maps ``i`` to a trace id.
    """
    records = np.empty(len(values), _RECORD)
    records["t"] = timestamps
    records["v"] = values
    if len(set(counts)) == 1 and counts[0]:
        # Equal runs (every message of a cycle): one slice per record group.
        frames = records.view(np.dtype((np.void, RECORD_SIZE * counts[0]))).tolist()
    else:
        body, offsets = records.tobytes(), np.cumsum(counts).tolist()
        starts = [0] + offsets[:-1]
        frames = [body[a * RECORD_SIZE : b * RECORD_SIZE] for a, b in zip(starts, offsets)]
    for i, trace_id in traces.items():
        frames[i] = _TRACE_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 0, trace_id) + frames[i]
    return frames


def encode_readings(
    readings: Iterable[SensorReading], trace_id: int | None = None
) -> bytes:
    """Pack readings into the 16-byte-per-record wire frame (one message
    of :func:`encode_frames`).

    When ``trace_id`` is given the frame is prefixed with the 12-byte
    trace header, marking the whole message as a sampled trace.  Raises
    on a timestamp or value that is not an int within int64.
    """
    pairs = np.array([(r.timestamp, r.value) for r in readings]).reshape(-1, 2)
    if pairs.size and pairs.dtype != np.int64:
        raise ValueError("readings must be ints within int64")
    traces = {} if trace_id is None else {0: trace_id}
    return encode_frames(pairs[:, 0], pairs[:, 1], [len(pairs)], traces)[0]


def encode_reading(timestamp: int, value: int) -> bytes:
    """Pack a single reading (the common continuous-mode case)."""
    return encode_readings([SensorReading(timestamp, value)])


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
_WIRE_INT64 = np.dtype(">i8")
_INT64 = np.dtype(np.int64)

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


def decode_message(payload: bytes) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Unpack a wire frame into ``(timestamps, values, trace_id-or-None)``.

    The records become two int64 columns with one ``np.frombuffer``
    and one byte-order conversion, whatever the burst size.  Raises
    :class:`TransportError` on a length that is not a whole number of
    records.
    """
    offset = len(payload) % RECORD_SIZE  # a trace header's 12 bytes, or 0
    trace_id = None
    if offset:
        if not has_trace_header(payload):
            raise TransportError(
                f"payload length {len(payload)} is not a multiple of {RECORD_SIZE}"
            )
        trace_id = _TRACE_HEADER.unpack_from(payload)[3]
    records = np.frombuffer(payload, _WIRE_INT64, -1, offset).astype(_INT64)
    return records[0::2], records[1::2], trace_id


def decode_readings(payload: bytes) -> list[SensorReading]:
    """Unpack a wire frame back into readings, for decoders that do not
    care about tracing: a trace header is stripped, and framing errors
    raise :class:`TransportError` as in :func:`decode_message`."""
    timestamps, values, _trace_id = decode_message(payload)
    return list(map(SensorReading, timestamps.tolist(), values.tolist()))
