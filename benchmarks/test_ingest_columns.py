"""Per-layer cost of the write path: tuple adapter against columns.

Each write-path layer — wire decode, cluster routing, WAL framing, the
memtable append and the rollup engine's observe — is timed twice on
the same readings: handed ``InsertItem`` tuples (the edge adapter
converts them, as for CSV import or the dashboard's bulk load) and
handed the :class:`~repro.storage.ReadingBatch` the Collect Agent
builds from the wire.  Two shapes: the paper's burst mode (41 sensors
x 100 readings per flush, section 6.2.1) and the Fig. 8 grid (560
sensors x 1 reading).  µs per row land in ``extra_info``; nothing is
gated, so the numbers are evidence per layer that does not depend on
the end-to-end harness's probes.  A transport row times the hop in
front of them: CPU per message from an ``MQTTClient`` through the TCP
broker into the Collect Agent over a ``MemoryBackend``, 1-reading
(grid) and 100-reading (burst) messages through a real socket.  A
Pusher row times the hop in front of that: the calling thread's CPU
per message of ``Pusher.advance_to`` over the same TCP client, for the
same two shapes.

    PYTHONPATH=src python -m pytest benchmarks/test_ingest_columns.py --benchmark-only -s
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.core import payload as payload_mod
from repro.common.timeutil import SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.core.sensor import SensorReading
from repro.core.sid import SensorId
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend, ReadingBatch, RollupEngine, StorageCluster, StorageNode
from repro.storage.backend import as_batch
from repro.storage.durable.node import _encode_data
from repro.storage.partitioner import HierarchicalPartitioner

from conftest import emit, format_table

NS = 1_000_000_000
#: (sensors, readings per sensor) of one writer flush.
SHAPES = {"burst": (41, 100), "grid": (560, 1)}
#: Consecutive flushes per timing (time advances between them).
FLUSHES = 10


class Flush(NamedTuple):
    """One writer flush: a wire frame per sensor, and the same readings
    as tuples and as one batch."""

    frames: list[tuple[SensorId, bytes]]
    items: list[tuple[SensorId, int, int, int]]
    batch: ReadingBatch


def flushes(sensors: int, per_sensor: int, seed: int = 29) -> list[Flush]:
    """``FLUSHES`` consecutive flushes of one shape."""
    rng = np.random.default_rng(seed)
    sids = [SensorId.from_codes([1 + i % 4, 1 + i // 4, 1]) for i in range(sensors)]
    out = []
    for flush in range(FLUSHES):
        ts = 1_000 * NS + (flush * per_sensor + np.arange(per_sensor, dtype=np.int64)) * NS
        frames, items, batches = [], [], []
        for sid in sids:
            vals = 200_000 + rng.integers(-400, 401, per_sensor, dtype=np.int64)
            readings = list(map(SensorReading, ts.tolist(), vals.tolist()))
            frames.append((sid, payload_mod.encode_readings(readings)))
            items += [(sid, r.timestamp, r.value, 0) for r in readings]
            batches.append(ReadingBatch.of(sid, ts, vals))
        out.append(Flush(frames, items, ReadingBatch.concat(batches)))
    return out


class NullNode(MemoryBackend):
    """A replica that accepts and drops writes: isolates routing."""

    def insert_batch(self, items) -> int:
        return len(items)


# Each layer: make(columnar) -> run(flush), on fresh state.


def _decode(columnar: bool):
    if columnar:
        return lambda flush: [
            ReadingBatch.of(sid, *payload_mod.decode_message(frame)[:2])
            for sid, frame in flush.frames
        ]
    return lambda flush: [
        [(sid, r.timestamp, r.value, 0) for r in payload_mod.decode_readings(frame)]
        for sid, frame in flush.frames
    ]


def _readings(columnar: bool):
    return (lambda flush: flush.batch) if columnar else (lambda flush: flush.items)


def _route(columnar: bool):
    cluster = StorageCluster(
        [NullNode() for _ in range(3)], partitioner=HierarchicalPartitioner(3), replication=2
    )
    readings = _readings(columnar)
    return lambda flush: cluster.insert_batch(readings(flush))


def _wal_encode(columnar: bool):
    readings = _readings(columnar)
    return lambda flush: _encode_data(as_batch(readings(flush)))


def _memtable(columnar: bool):
    node = StorageNode("bench", flush_threshold=1 << 40)
    readings = _readings(columnar)
    return lambda flush: node.insert_batch(readings(flush))


def _rollup_observe(columnar: bool):
    engine = RollupEngine(StorageNode("bench", flush_threshold=1 << 40))
    readings = _readings(columnar)
    return lambda flush: engine.observe(readings(flush))


LAYERS = {
    "decode": _decode,
    "route": _route,
    "wal_encode": _wal_encode,
    "memtable": _memtable,
    "rollup_observe": _rollup_observe,
}


def _us_per_row(make, work: list[Flush], columnar: bool, rows: int, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        run = make(columnar)
        start = time.perf_counter()
        for flush in work:
            run(flush)
        best = min(best, time.perf_counter() - start)
    return best / rows * 1e6


def test_ingest_columns(benchmark):
    """Every layer, both shapes, both forms; µs/row in extra_info."""
    data = {shape: flushes(*dims) for shape, dims in SHAPES.items()}
    # The two forms decode, frame and store the same thing.
    for shape, work in data.items():
        nodes = [StorageNode(f"{shape}{k}") for k in range(2)]
        for flush in work:
            assert [list(b) for b in _decode(True)(flush)] == _decode(False)(flush)
            assert _encode_data(as_batch(flush.items)) == _encode_data(flush.batch)
            nodes[0].insert_batch(flush.items)
            nodes[1].insert_batch(flush.batch)
        assert nodes[0].state_fingerprint() == nodes[1].state_fingerprint()

    def ingest_all():
        for work in data.values():
            run = _memtable(True)
            for flush in work:
                run(flush)

    benchmark(ingest_all)
    if not benchmark.enabled:
        return
    rows = []
    for shape, work in data.items():
        sensors, per_sensor = SHAPES[shape]
        total = FLUSHES * sensors * per_sensor
        for layer, make in LAYERS.items():
            tuples = _us_per_row(make, work, False, total)
            columns = _us_per_row(make, work, True, total)
            benchmark.extra_info[f"{shape}_{layer}_tuples_us_per_row"] = round(tuples, 4)
            benchmark.extra_info[f"{shape}_{layer}_columns_us_per_row"] = round(columns, 4)
            rows.append([shape, layer, f"{tuples:.3f}", f"{columns:.3f}"])
    emit("write path, µs per row", format_table(["shape", "layer", "tuples", "columns"], rows))


#: Messages per transport timing, and the readings each carries.
TRANSPORT_MESSAGES = {"grid": (20_000, 1), "burst": (2_000, 100)}


def transport_us_per_msg(messages: int, per_message: int, topics: int = 500) -> float:
    """Process CPU per message, publish to staged-and-written, for
    ``MQTTClient`` -> TCP ``MQTTBroker`` -> ``CollectAgent``
    (synchronous writer) over a ``MemoryBackend``."""
    agent = CollectAgent(MemoryBackend(), port=0)
    agent.start()
    client = MQTTClient("transport-bench", port=agent.port, keepalive=0)
    client.connect()
    try:
        names = [f"/bench/g{i % 4}/s{i}" for i in range(topics)]
        for name in names:  # SIDs allocated before the clock starts
            client.publish(name, payload_mod.encode_reading(NS, 0))
        payloads = [
            payload_mod.encode_readings(
                SensorReading(NS * (2 + i) + k, k) for k in range(per_message)
            )
            for i in range(messages // topics + 1)
        ]
        _wait_stored(agent, topics)
        start = time.process_time()
        for i in range(messages):
            client.publish(names[i % topics], payloads[i // topics])
        _wait_stored(agent, topics + messages * per_message)
        return (time.process_time() - start) / messages * 1e6
    finally:
        client.disconnect()
        agent.stop()


def _wait_stored(agent: CollectAgent, readings: int, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while agent.metrics.value("dcdb_agent_readings_stored_total") < readings:
        assert time.monotonic() < deadline, f"{int(agent.metrics.value('dcdb_agent_readings_stored_total'))}/{readings} stored"
        time.sleep(0.001)


#: (groups, sensors per group, interval ms, minValues, measured cycles)
#: of a Pusher timing: one group of a host's sensors, and the e2e
#: harness's ingest shapes (five groups per host).
PUSHER_SHAPES = {
    "grid": (1, 500, 1000, 1, 40),
    "burst": (1, 100, 100, 100, 1000),
    "e2e_grid": (5, 100, 1000, 1, 40),
    "e2e_burst": (5, 20, 100, 100, 1000),
}


def pusher_us_per_msg(
    groups: int, sensors: int, interval_ms: int, min_values: int, cycles: int
) -> tuple[float, float]:
    """CPU of the calling thread per message and per reading published
    by ``Pusher.advance_to`` — sampling, encoding and framing a tester
    plugin's readings into a TCP ``MQTTClient`` — with a ``CollectAgent``
    on the far side of the socket."""
    agent = CollectAgent(MemoryBackend(), port=0)
    agent.start()
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/bench", trace_sample_every=100),
        client=MQTTClient("pusher-bench", port=agent.port, keepalive=0),
        clock=SimClock(0),
    )
    pusher.load_plugin(
        "tester",
        "\n".join(
            f"group g{g} {{ interval {interval_ms}\n minValues {min_values}\n"
            f" numSensors {sensors} }}"
            for g in range(groups)
        ),
    )
    pusher.client.connect()
    try:
        pusher.start_plugin("tester")
        step = interval_ms * 1_000_000
        pusher.advance_to(min_values * step)  # SIDs allocated before the clock starts
        published = pusher.metrics.get("dcdb_pusher_messages_published_total")
        sent0 = published.value
        start = time.thread_time()
        pusher.advance_to((min_values + cycles) * step)
        cpu = time.thread_time() - start
        messages = published.value - sent0
        _wait_stored(agent, published.value * min_values)
        return cpu / messages * 1e6, cpu / (messages * min_values) * 1e6
    finally:
        pusher.client.disconnect()
        agent.stop()


def test_transport_per_message(benchmark):
    """TCP client -> broker -> agent, and the Pusher in front of the
    client, CPU µs per message in extra_info."""
    benchmark.pedantic(transport_us_per_msg, args=(500, 1), rounds=1, iterations=1)
    if not benchmark.enabled:
        return
    rows = []
    for shape, (messages, per_message) in TRANSPORT_MESSAGES.items():
        us = min(transport_us_per_msg(messages, per_message) for _ in range(3))
        benchmark.extra_info[f"{shape}_transport_cpu_us_per_msg"] = round(us, 2)
        rows.append([shape, per_message, f"{us:.2f}"])
    emit(
        "TCP client -> broker -> agent, CPU µs per message",
        format_table(["shape", "readings/msg", "cpu_us_per_msg"], rows),
    )
    rows = []
    for shape, spec in PUSHER_SHAPES.items():
        per_msg, per_reading = min(pusher_us_per_msg(*spec) for _ in range(3))
        benchmark.extra_info[f"{shape}_pusher_cpu_us_per_msg"] = round(per_msg, 2)
        benchmark.extra_info[f"{shape}_pusher_cpu_us_per_reading"] = round(per_reading, 3)
        rows.append(
            [shape, f"{spec[0]} x {spec[1]}", spec[3], f"{per_msg:.2f}", f"{per_reading:.3f}"]
        )
    emit(
        "Pusher.advance_to over a TCP MQTTClient, calling-thread CPU µs",
        format_table(
            ["shape", "groups x sensors", "readings/msg", "cpu_us_per_msg", "cpu_us_per_reading"],
            rows,
        ),
    )
