"""The Pusher publishes each group cycle as one ``publish_many`` batch.

A per-message reference model (one message per sensor once its queue
reaches its own group's ``minValues``, the rest at a flush) must give
the same per-sensor ``(topic, payload)`` sequence, counters and trace
hops as the batched Pusher, and failures must be accounted per message.
"""

import time
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.common.timeutil import NS_PER_MS, NS_PER_SEC, SimClock
from repro.core.payload import encode_readings
from repro.core.pusher import Pusher, PusherConfig
from repro.core.pusher.plugin import PluginSensor
from repro.core.sensor import SensorReading
from repro.observability import SpanRecorder


class CapturingClient:
    """The client surface the Pusher uses, keeping every batch; the
    batches listed in ``fail`` (by call number) raise instead."""

    auto_reconnect = False
    connected = True

    def __init__(self, fail=()):
        self.fail = set(fail)
        self.calls = 0
        self.batches = []
        self.disconnected = False

    def connect(self):
        pass

    def close(self):
        pass

    def disconnect(self):
        self.disconnected = True

    def publish_many(self, messages, qos=0):
        self.calls += 1
        if self.calls in self.fail:
            raise OSError("broker gone")
        refused = {i: ValueError("bad topic") for i, (t, _) in enumerate(messages) if "#" in t}
        self.batches.append([m for i, m in enumerate(messages) if i not in refused])
        return refused


groups = st.lists(
    st.fixed_dictionaries(
        {
            "interval": st.sampled_from([250, 500, 1000]),
            "min_values": st.integers(1, 4),
            "sensors": st.integers(0, 3),
            "delta": st.booleans(),
            "generator": st.sampled_from(["counter", "sawtooth"]),
            # Delta raws taken modulo ``wrap``: the counter resets.
            "wrap": st.sampled_from([0, 3, 7]),
            # A ``publish false`` sensor.
            "hidden": st.booleans(),
            # A raw value the wire cannot carry, as the first sensor's
            # every third cycle.
            "poison": st.sampled_from([None, 1 << 63, -(1 << 64), 2.5]),
            # A sensor added after the first step.
            "late": st.booleans(),
        }
    ),
    min_size=1,
    max_size=3,
)


def counts(pusher):
    """(readings collected, messages published, publish failures)."""
    names = ("readings_collected", "messages_published", "publish_failures")
    return tuple(int(pusher.metrics.value(f"dcdb_pusher_{name}_total")) for name in names)


def plugin_config(specs):
    blocks = []
    for i, spec in enumerate(specs):
        sensors = spec["sensors"] or (0 if spec["delta"] else 1)
        extra = f"\n sensor d{i} {{ mqttsuffix /g{i}/d\n delta true }}" if spec["delta"] else ""
        if spec.get("hidden"):
            extra += f"\n sensor h{i} {{ mqttsuffix /g{i}/h\n publish false }}"
        blocks.append(
            f"group g{i} {{ interval {spec['interval']}\n minValues {spec['min_values']}\n"
            f" numSensors {sensors}\n generator {spec['generator']}{extra} }}"
        )
    return "\n".join(blocks)


def out_of_range_first_sensor(group):
    """Give the first sensor of every read of ``group`` a value outside
    int64, which the 16-byte wire record cannot carry."""
    read_raw = group.read_raw

    def poisoned(timestamp):
        return [1 << 63] + read_raw(timestamp)[1:]

    group.read_raw = poisoned


def perturbed(group, spec):
    """Apply a spec's counter wraps and poisoned values to ``group``'s
    raw reads."""
    read_raw, cycles = group.read_raw, iter(range(10**9))

    def read(timestamp):
        raws = read_raw(timestamp)
        if spec.get("wrap"):
            raws = [r % spec["wrap"] if s.metadata.delta else r for s, r in zip(group.sensors, raws)]
        if spec.get("poison") is not None and next(cycles) % 3 == 1:
            raws[0] = spec["poison"]
        return raws

    group.read_raw = read


def instrumented_pusher(specs, client, **config):
    """A started Pusher whose groups' raw reads and trace sampling are
    logged into ``events`` and ``samples``, in call order, for the
    reference model."""
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/b/h0", **config),
        client=client,
        clock=SimClock(0),
        spans=SpanRecorder(),
    )
    plugin = pusher.load_plugin("tester", plugin_config(specs))
    events = []
    for group, spec in zip(plugin.groups, specs):
        perturbed(group, spec)

        def read_raw(timestamp, group=group, read_raw=group.read_raw):
            raws = read_raw(timestamp)
            events.append(("read", group.min_values, timestamp, list(zip(group.sensors, raws))))
            return raws

        group.read_raw = read_raw
    samples = []

    def sample_many(n, sample_many=pusher.tracer.sample_many):
        sampled = sample_many(n)
        samples.extend(sampled.get(i) for i in range(n))
        return sampled

    pusher.tracer.sample_many = sample_many
    pusher.start_plugin("tester")
    return pusher, events, samples


def reference(pusher, events, samples, burst):
    """Per-sensor message payloads the per-reading Pusher would send,
    and the number of messages that would fail to encode.  Readings are
    made from the raw values one at a time, with Python arithmetic."""
    pending, traces, sent, last = defaultdict(list), {}, defaultdict(list), {}
    failed = 0
    sample = iter(samples)

    def emit(sensor):
        nonlocal failed
        readings = pending.pop(sensor)
        trace_id = traces.pop(sensor, None)
        try:
            payload = encode_readings(readings, trace_id=trace_id)
        except (TypeError, ValueError, OverflowError):
            failed += 1
        else:
            sent[pusher.topic_of(sensor)].append(payload)

    for event in events:
        if event[0] == "flush":
            for sensor in list(pending):
                emit(sensor)
            continue
        _, min_values, timestamp, raws = event
        for sensor, raw in raws:
            value = raw
            if sensor.metadata.delta:
                previous, last[sensor] = last.get(sensor), raw
                if previous is None or raw - previous < 0:
                    continue
                value = raw - previous
            if not sensor.metadata.publish:
                continue
            trace_id = next(sample)
            if trace_id is not None:
                traces[sensor] = trace_id
            pending[sensor].append(SensorReading(timestamp, value))
            if not burst and len(pending[sensor]) >= min_values:
                emit(sensor)
    assert next(sample, "end") == "end"
    return sent, failed


def drive(pusher, events, steps, late=()):
    t = 0
    for i, (step_ms, flush) in enumerate(steps):
        t += step_ms * NS_PER_MS
        pusher.advance_to(t)
        if flush:
            events.append(("flush",))
            pusher.flush()
        if i == 0:
            for group in late:
                group.add_sensor(PluginSensor(f"{group.name}_late", f"/{group.name}/late"))
    events.append(("flush",))
    pusher.flush()


steps = st.lists(st.tuples(st.integers(0, 2500), st.booleans()), min_size=1, max_size=4)


class TestBatchedEqualsPerMessage:
    @settings(max_examples=80, deadline=None)
    @given(
        specs=groups,
        steps=steps,
        burst=st.booleans(),
        every=st.sampled_from([0, 1, 3]),
    )
    def test_same_messages_counters_and_hops(self, specs, steps, burst, every):
        client = CapturingClient()
        pusher, events, samples = instrumented_pusher(
            specs,
            client,
            send_mode="burst" if burst else "continuous",
            trace_sample_every=every,
        )
        late = [g for g, spec in zip(pusher.plugins["tester"].groups, specs) if spec["late"]]
        drive(pusher, events, steps, late)
        expected, failed = reference(pusher, events, samples, burst)
        got = defaultdict(list)
        for batch in client.batches:
            for topic, payload in batch:
                got[topic].append(payload)
        assert got == expected
        messages = sum(len(payloads) for payloads in expected.values())
        assert counts(pusher) == (len(samples), messages, failed)
        assert pusher.status()["pendingReadings"] == 0
        # One batch per group cycle at most, plus one per flush.
        assert client.calls <= len(events)
        # One collect hop per sampled reading; one publish hop per
        # traced message, none for a superseded trace.
        spans = [span for t in samples if t is not None for span in pusher.spans.trace(t)]
        assert sum(span.name == "collect" for span in spans) == len(samples) - samples.count(None)
        traced = [p for payloads in expected.values() for p in payloads if len(p) % 16 == 12]
        assert sum(span.name == "publish" for span in spans) == len(traced)


class TestFailureAccounting:
    def test_dead_client_fails_every_message_attempted(self):
        client = CapturingClient(fail=range(1, 1000))
        specs = [dict(interval=250, min_values=1, sensors=3, delta=False, generator="counter")]
        pusher, events, _ = instrumented_pusher(specs, client)
        drive(pusher, events, [(2000, False)])
        attempted = sum(len(event[3]) for event in events if event[0] == "read")
        assert attempted == 24
        assert counts(pusher) == (attempted, 0, attempted)

    @settings(max_examples=40, deadline=None)
    @given(specs=groups, steps=steps, fail=st.sets(st.integers(1, 40), max_size=20))
    def test_collected_equals_published_plus_failed(self, specs, steps, fail):
        for spec in specs:
            spec["min_values"] = 1  # one reading per message
        client = CapturingClient(fail=fail)
        pusher, events, _ = instrumented_pusher(specs, client)
        drive(pusher, events, steps)
        collected, published, failures = counts(pusher)
        assert collected == published + failures
        # A failure's reconnect re-announces metadata: not a reading.
        readings = [t for batch in client.batches for t, _ in batch if not t.startswith("$DCDB")]
        assert published == len(readings)

    def test_an_invalid_topic_fails_alone(self):
        client = CapturingClient()
        specs = [dict(interval=1000, min_values=1, sensors=2, delta=False, generator="counter")]
        pusher, events, _ = instrumented_pusher(specs, client)
        wild = "group w { interval 1000\n sensor bad { mqttsuffix /w/# } }"
        pusher.load_plugin("tester", wild, plugin_alias="wild")
        pusher.start_plugin("wild")
        pusher.advance_to(3 * 10**9)
        assert counts(pusher)[1:] == (6, 3)
        assert [t for batch in client.batches for t, _ in batch].count("/b/h0/g0/s0") == 3
        assert pusher.status()["reconnects"] == 0

    def test_an_out_of_range_value_fails_alone_every_cycle(self):
        client = CapturingClient()
        specs = [dict(interval=1000, min_values=1, sensors=2, delta=False, generator="counter")]
        pusher, events, _ = instrumented_pusher(specs, client)
        out_of_range_first_sensor(pusher.plugins["tester"].groups[0])
        pusher.advance_to(3 * NS_PER_SEC)
        assert counts(pusher)[1:] == (3, 3)
        assert [t for batch in client.batches for t, _ in batch].count("/b/h0/g0/s1") == 3
        # Not a transport failure: no reconnect.
        assert pusher.status()["reconnects"] == 0

    def test_burst_flush_survives_an_out_of_range_value(self):
        client = CapturingClient()
        specs = [dict(interval=1000, min_values=1, sensors=2, delta=False, generator="counter")]
        pusher, events, _ = instrumented_pusher(specs, client, send_mode="burst")
        out_of_range_first_sensor(pusher.plugins["tester"].groups[0])
        pusher.advance_to(3 * NS_PER_SEC)
        pusher.flush()
        assert counts(pusher)[1:] == (1, 1)
        # One message carrying all three readings (16 bytes each).
        assert [len(p) // 16 for b in client.batches for t, p in b if t == "/b/h0/g0/s1"] == [3]

    def test_threaded_sampling_survives_an_out_of_range_value(self):
        client = CapturingClient()
        pusher = Pusher(PusherConfig(mqtt_prefix="/b/h1", threads=1), client=client)
        plugin = pusher.load_plugin("tester", "group g { interval 20\n numSensors 2 }")
        out_of_range_first_sensor(plugin.groups[0])
        pusher.start_plugin("tester")
        pusher.start()
        try:
            deadline = time.monotonic() + 5.0
            while counts(pusher)[2] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            pusher.stop()
        collected, published, failures = counts(pusher)
        assert failures >= 3
        assert collected == published + failures
        assert client.disconnected
