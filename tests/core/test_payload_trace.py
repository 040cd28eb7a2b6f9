"""Wire compatibility of the optional trace header.

The trace header is opt-in sugar on the flat 16-byte-record frame;
these tests pin the compatibility contract: headerless payloads decode
exactly as before, headered ones round-trip their trace id, and a
trace-aware agent ingests both shapes side by side (old pusher / new
pusher mixes feeding one Collect Agent).
"""

from __future__ import annotations

import pytest

from repro.common.errors import TransportError
from repro.core.payload import (
    RECORD_SIZE,
    TRACE_HEADER_SIZE,
    TRACE_MAGIC,
    decode_message,
    decode_readings,
    encode_reading,
    encode_readings,
    has_trace_header,
    payload_origin_ns,
    trace_id_of,
)
from repro.core.sensor import SensorReading

READINGS = [SensorReading(1_000, 42), SensorReading(2_000, -7)]


def as_readings(timestamps, values):
    """``decode_message``'s int64 columns as readings."""
    assert timestamps.dtype == values.dtype == "int64"
    return [SensorReading(t, v) for t, v in zip(timestamps.tolist(), values.tolist())]


class TestHeaderlessFrames:
    def test_encode_without_trace_id_is_legacy_frame(self):
        payload = encode_readings(READINGS)
        assert len(payload) == len(READINGS) * RECORD_SIZE
        assert not has_trace_header(payload)
        assert trace_id_of(payload) is None

    def test_decode_message_returns_none_trace(self):
        timestamps, values, trace_id = decode_message(encode_readings(READINGS))
        assert as_readings(timestamps, values) == READINGS
        assert trace_id is None

    def test_single_reading_unchanged(self):
        payload = encode_reading(123, 456)
        assert len(payload) == RECORD_SIZE
        assert decode_readings(payload) == [SensorReading(123, 456)]


class TestHeaderedFrames:
    def test_round_trip(self):
        payload = encode_readings(READINGS, trace_id=0xDEADBEEF)
        assert len(payload) % RECORD_SIZE == TRACE_HEADER_SIZE
        assert has_trace_header(payload)
        assert trace_id_of(payload) == 0xDEADBEEF
        timestamps, values, trace_id = decode_message(payload)
        assert as_readings(timestamps, values) == READINGS
        assert trace_id == 0xDEADBEEF

    def test_legacy_decoder_strips_header(self):
        # A decoder that does not care about tracing still gets the
        # readings out of a traced payload.
        payload = encode_readings(READINGS, trace_id=99)
        assert decode_readings(payload) == READINGS

    def test_empty_batch_with_header(self):
        payload = encode_readings([], trace_id=5)
        assert has_trace_header(payload)
        timestamps, values, trace_id = decode_message(payload)
        assert as_readings(timestamps, values) == []
        assert trace_id == 5

    def test_header_shape_cannot_alias_legacy_frame(self):
        # 12 mod 16 is unreachable for flat 16-byte records, and the
        # magic byte guards the (impossible) collision anyway.
        legacy = encode_readings(READINGS)
        assert len(legacy) % RECORD_SIZE == 0
        assert legacy[0] != TRACE_MAGIC or not has_trace_header(legacy)

    def test_wrong_magic_not_treated_as_header(self):
        payload = bytearray(encode_readings(READINGS, trace_id=7))
        payload[0] ^= 0xFF
        assert not has_trace_header(bytes(payload))
        # ... and the now-unrecognized 12-byte prefix makes the length
        # invalid for a flat frame: framing error, not silent garbage.
        with pytest.raises(TransportError):
            decode_readings(bytes(payload))

    def test_truncated_frame_rejected(self):
        with pytest.raises(TransportError):
            decode_readings(b"\x00" * 17)


class TestPayloadOrigin:
    def test_single_record(self):
        assert payload_origin_ns(encode_reading(123_456, 7)) == 123_456

    def test_multi_record_returns_first(self):
        assert payload_origin_ns(encode_readings(READINGS)) == 1_000

    def test_headered_frame_peeks_past_header(self):
        assert payload_origin_ns(encode_readings(READINGS, trace_id=9)) == 1_000
        assert payload_origin_ns(encode_readings([], trace_id=9)) is None

    def test_non_reading_payloads_rejected(self):
        assert payload_origin_ns(b"") is None
        assert payload_origin_ns(b"short") is None
        assert payload_origin_ns(b"x" * 17) is None
        # JSON that happens to be a 16-byte multiple is not a timestamp.
        assert payload_origin_ns(b'{"json": "meta"}') is None
        assert payload_origin_ns(encode_reading(-1, 0)) is None


class TestOldNewMixThroughAgent:
    def test_agent_ingests_both_shapes(self):
        from repro.core.collectagent import CollectAgent
        from repro.mqtt.broker import MQTTBroker
        from repro.mqtt.client import MQTTClient
        from repro.storage import MemoryBackend

        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        old_pusher = MQTTClient("old", broker=broker)
        new_pusher = MQTTClient("new", broker=broker)
        old_pusher.connect()
        new_pusher.connect()
        old_pusher.publish("/mix/old/s0", encode_readings([SensorReading(1_000, 1)]))
        new_pusher.publish(
            "/mix/new/s0",
            encode_readings([SensorReading(2_000, 2)], trace_id=0xABC),
        )
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 2
        sids = backend.sids()
        assert len(sids) == 2
        values = sorted(
            backend.query(sid, 0, 1 << 62)[1][0] for sid in sids
        )
        assert values == [1, 2]
