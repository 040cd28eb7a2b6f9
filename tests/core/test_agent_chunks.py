"""One Collect Agent call per socket read ≡ one call per message.

The broker hands the agent every PUBLISH a socket read decoded; the
agent decodes them with one call and stages them with one
``writer.put``.  Generated streams of 1-reading, 100-reading,
trace-headered, metadata, wrong-length and first-seen-topic messages
are delivered twice — as one chunk and one message at a time — and
must leave the same store, counters, caches and trace hops, also when
a small staging queue fills and blocks.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.core.collectagent import CollectAgent, WriterConfig
from repro.core.payload import encode_readings
from repro.core.sensor import SensorReading
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.packets import Publish
from repro.observability.spans import SpanRecorder
from repro.storage import StorageNode

T0 = 1_700_000_000 * 10**9
KINDS = ("one", "burst", "traced", "metadata", "bad_length", "new_topic")


def build(stream: list[tuple[str, int]]) -> list[Publish]:
    """The PUBLISHes of a generated stream; every message gets fresh
    timestamps, so last-write-wins never has to break a tie."""
    packets = []
    for i, (kind, pick) in enumerate(stream):
        topic = f"/r{pick % 2}/n{pick}/power"
        readings = [SensorReading(T0 + i * 10**9 + k, pick * 1000 + k) for k in range(100)]
        if kind == "one":
            payload = encode_readings(readings[:1])
        elif kind == "burst":
            payload = encode_readings(readings)
        elif kind == "traced":
            payload = encode_readings(readings[: 1 + pick], trace_id=0x5EED_0000 + i)
        elif kind == "metadata":
            payload = json.dumps({"topic": topic, "unit": "W", "scale": 10.0}).encode()
            topic = CollectAgent.METADATA_PREFIX + topic
        elif kind == "bad_length":
            payload = encode_readings(readings[:2])[:-3]
        else:  # new_topic
            topic = f"/r9/fresh{i}/temp"
            payload = encode_readings(readings[:3])
        packets.append(Publish(topic=topic, payload=payload))
    return packets


def make_agent(writer_config: WriterConfig | None = None) -> CollectAgent:
    return CollectAgent(
        StorageNode("chunks"),
        broker=MQTTBroker(port=None),
        trace_sample_every=3,
        spans=SpanRecorder(capacity=4096, stripes=1, max_spans_per_trace=16),
        writer_config=writer_config,
    )


def decoded(stream: list[tuple[str, int]]) -> int:
    """Readings in the stream's well-formed reading messages."""
    sizes = {"one": 1, "burst": 100, "new_topic": 3}
    return sum(1 + pick if kind == "traced" else sizes.get(kind, 0) for kind, pick in stream)


def deliver(agent: CollectAgent, packets: list[Publish], chunked: bool) -> None:
    if chunked:
        agent._on_publish("pusher", packets)
    else:
        for packet in packets:
            agent._on_publish("pusher", [packet])


def hops(agent: CollectAgent) -> Counter:
    """Each trace's (insert, commit) hop tally and each insert hop's
    (topic, readings) — sampled trace IDs differ between agents, so
    traces are compared by what they recorded, not by ID."""
    tally: Counter = Counter()
    for doc in agent.spans.traces(limit=10**6):
        names = Counter(span["name"] for span in doc["spans"])
        tally[("per-trace", names["insert"], names["commit"])] += 1
        for span in doc["spans"]:
            if span["name"] == "insert":
                tally[("insert", span["attributes"]["topic"], span["attributes"]["readings"])] += 1
    return tally


def outcome(agent: CollectAgent) -> tuple:
    return (
        agent.backend.state_fingerprint(),
        agent.metrics.value("dcdb_agent_readings_stored_total"),
        agent.metrics.value("dcdb_agent_decode_errors_total"),
        agent.metrics.value("dcdb_agent_metadata_announcements_total"),
        {topic: agent.recent(topic) for topic in agent.topics()},
        hops(agent),
    )


streams = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 5)), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(streams)
def test_one_chunk_equals_one_message_at_a_time(stream):
    packets = build(stream)
    outcomes = []
    for chunked in (True, False):
        agent = make_agent()
        deliver(agent, packets, chunked)
        agent.writer.drain()
        outcomes.append(outcome(agent))
    assert outcomes[0] == outcomes[1]
    # Every traced message: exactly one insert hop and one commit hop.
    per_trace = {key: n for key, n in outcomes[0][-1].items() if key[0] == "per-trace"}
    assert set(per_trace) <= {("per-trace", 1, 1)}
    wire_traced = sum(1 for kind, _ in stream if kind == "traced")
    assert sum(per_trace.values()) >= wire_traced


@settings(max_examples=40, deadline=None)
@given(streams, st.integers(8, 150))
def test_backpressure_equivalence(stream, capacity):
    """A small queue fills and ``block`` makes room by writing: a chunk
    must store what its messages put one at a time would, and every
    decoded reading is stored."""
    packets = build(stream)
    outcomes = []
    for chunked in (True, False):
        agent = make_agent(WriterConfig(max_batch=8, queue_capacity=capacity))
        deliver(agent, packets, chunked)
        agent.writer.drain()
        outcomes.append(outcome(agent))
        stored = sum(len(agent.backend.query(agent.sid_of(t), 0, 2 * T0)[0]) for t in agent.topics())
        assert stored == agent.writer.flushed == decoded(stream)
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == stored
    assert outcomes[0] == outcomes[1]


class FailingSidmap(StorageNode):
    """Refuses to persist one topic's SID mapping."""

    def put_metadata_many(self, pairs) -> None:
        pairs = list(pairs)
        if any(key == "sidmap/r9/broken/temp" for key, _ in pairs):
            raise StorageError("metadata store down")
        super().put_metadata_many(pairs)


def test_a_raising_message_stages_the_ones_before_it():
    agent = CollectAgent(FailingSidmap("chunks"), broker=MQTTBroker(port=None))

    def message(topic, value):
        return Publish(topic=topic, payload=encode_readings([SensorReading(T0, value)]))

    before = [message(f"/r1/n{i}/power", i) for i in range(3)]
    broken, after = message("/r9/broken/temp", 7), message("/r1/n9/power", 9)
    with pytest.raises(StorageError):
        agent._on_publish("pusher", [*before, broken, after])
    assert agent.metrics.value("dcdb_agent_readings_stored_total") == 3
    assert agent.topics() == [p.topic for p in before]
    assert sum(len(agent.backend.query(agent.sid_of(p.topic), 0, 2 * T0)[0]) for p in before) == 3
