"""The Collect Agent's REST sensor cache is the store.

``/topics``, ``/cache`` and ``/latest`` over generated streams, with
the handlers called as the HTTP server would.  Streams in time order
without duplicate timestamps answer exactly the JSON a
:class:`~repro.core.sensor.SensorCache` of the same window fed the same
messages answers; streams with late and duplicate timestamps answer
the sorted, last-write-wins rows of ``[newest - maxage, newest]``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import payload as payload_mod
from repro.core.collectagent import CollectAgent
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.sensor import SensorCache, SensorReading
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend, StorageNode

TOPICS = ("/r0/n0/power", "/r0/n1/power", "/r1/n0/temp")
BACKENDS = {
    "memory": MemoryBackend,
    # A small memtable seals often, so reads merge runs and memtable.
    "node": lambda: StorageNode("contract", flush_threshold=7, max_segment_files=2),
}


def publish(backend_name: str, maxage_ns: int, messages):
    """An agent on a fresh store fed ``messages``, and its REST API."""
    broker = MQTTBroker(port=None)
    agent = CollectAgent(BACKENDS[backend_name](), broker=broker, cache_maxage_ns=maxage_ns)
    client = MQTTClient("pusher", broker=broker)
    client.connect()
    for topic, readings in messages:
        client.publish(topic, payload_mod.encode_readings([SensorReading(*r) for r in readings]))
    return CollectAgentRestApi(agent)


def answers(api: CollectAgentRestApi) -> dict:
    """Every route's (status, body) for every topic and one stranger."""
    out = {"topics": api._topics({}, {}, b"")}
    for topic in (*TOPICS, "/never/seen"):
        out[topic] = (
            api._cache({}, {"topic": topic}, b""),
            api._latest({}, {"topic": topic}, b""),
        )
    return out


def expected(maxage_ns: int, messages, rows_of) -> dict:
    """The answers for ``rows_of(topic) -> [(timestamp, value), ...]``."""
    seen = {topic for topic, _ in messages}
    out = {"topics": (200, sorted(seen))}
    for topic in (*TOPICS, "/never/seen"):
        if topic not in seen:
            out[topic] = (
                (404, {"error": f"unknown topic {topic!r}"}),
                (404, {"error": f"no cached readings for {topic!r}"}),
            )
            continue
        rows = [{"timestamp": t, "value": v} for t, v in rows_of(topic)]
        out[topic] = ((200, rows), (200, rows[-1]))
    return out


values = st.integers(-(2**40), 2**40)
maxages = st.sampled_from([1, 5, 50, 10**6])


@st.composite
def in_order_streams(draw):
    """Messages of 1..5 readings whose timestamps rise strictly per topic."""
    last = dict.fromkeys(TOPICS, 0)
    messages = []
    for _ in range(draw(st.integers(1, 25))):
        topic = draw(st.sampled_from(TOPICS))
        readings = []
        for gap in draw(st.lists(st.integers(1, 20), min_size=1, max_size=5)):
            last[topic] += gap
            readings.append((last[topic], draw(values)))
        messages.append((topic, readings))
    return messages


late_streams = st.lists(
    st.tuples(
        st.sampled_from(TOPICS),
        st.lists(st.tuples(st.integers(1, 60), values), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BACKENDS)), maxages, in_order_streams())
def test_in_order_stream_answers_like_the_reference_cache(backend_name, maxage_ns, messages):
    references = {topic: SensorCache(maxage_ns=maxage_ns) for topic in TOPICS}
    for topic, readings in messages:
        references[topic].store(tuple(map(list, zip(*readings))))

    def rows_of(topic):
        return [(r.timestamp, r.value) for r in references[topic].snapshot()]

    api = publish(backend_name, maxage_ns, messages)
    assert answers(api) == expected(maxage_ns, messages, rows_of)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BACKENDS)), maxages, late_streams)
def test_late_and_duplicate_timestamps_answer_the_sorted_window(backend_name, maxage_ns, messages):
    written: dict[str, dict[int, int]] = {topic: {} for topic in TOPICS}
    for topic, readings in messages:
        written[topic].update(readings)  # last write wins

    def rows_of(topic):
        rows = written[topic]
        newest = max(rows)
        return [(t, rows[t]) for t in sorted(rows) if t >= newest - maxage_ns]

    api = publish(backend_name, maxage_ns, messages)
    assert answers(api) == expected(maxage_ns, messages, rows_of)


def test_missing_topic_parameter_is_a_bad_request():
    api = publish("memory", 10, [])
    assert api._cache({}, {}, b"")[0] == 400
    assert api._latest({}, {}, b"")[0] == 400
    assert api._topics({}, {}, b"") == (200, [])
