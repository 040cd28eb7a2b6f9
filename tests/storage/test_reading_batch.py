"""The columnar write path: :class:`ReadingBatch` against the tuple edge.

Every store accepts a batch of readings in two forms — ``InsertItem``
tuples (the edge adapter, converted once per call) and a
:class:`ReadingBatch` built directly from columns, as the Collect Agent
does.  These tests write the same rows both ways and require the same
state everywhere the batch travels: the engine, the durable node across
a reopen, a replicated cluster with a replica killed mid-stream, the
rollup tiers and the agent's cache.
They also pin the WAL's DATA frame to the bytes the tuple encoder wrote
and the int64 contract the adapter enforces.
"""

from __future__ import annotations

import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.core import payload as payload_mod
from repro.core.collectagent import CollectAgent
from repro.core.sensor import SensorReading
from repro.core.sid import SensorId
from repro.faults import FaultyBackend
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage import (
    DurableNode,
    MemoryBackend,
    ReadingBatch,
    RollupEngine,
    StorageCluster,
    StorageNode,
)
from repro.storage.durable.node import _decode_data, _encode_data
from repro.storage.partitioner import HierarchicalPartitioner
from repro.storage.rollup import ROLLUP_TIERS

NS = 1_000_000_000
_M64 = (1 << 64) - 1
SIDS = [SensorId.from_codes([rack, node, 1]) for rack in (1, 2, 3) for node in (1, 2)]


def reference_encode_data(items) -> bytes:
    """The DATA payload as the tuple encoder wrote it (its code, kept
    as the reference): one row per ``InsertItem``."""
    n = len(items)
    sids, ts, vals, ttls = zip(*items)
    cols = np.empty((5, n), dtype=np.uint64)
    pair = np.frombuffer(b"".join(s.packed for s in sids), dtype=">u8").reshape(n, 2)
    cols[0] = pair[:, 0]
    cols[1] = pair[:, 1]
    try:
        cols[2] = np.fromiter(ts, dtype=np.int64, count=n).view(np.uint64)
        cols[3] = np.fromiter(vals, dtype=np.int64, count=n).view(np.uint64)
        cols[4] = np.fromiter(ttls, dtype=np.int64, count=n).view(np.uint64)
    except OverflowError:
        cols[2] = np.fromiter((t & _M64 for t in ts), dtype=np.uint64, count=n)
        cols[3] = np.fromiter((v & _M64 for v in vals), dtype=np.uint64, count=n)
        cols[4] = np.fromiter((t & _M64 for t in ttls), dtype=np.uint64, count=n)
    return struct.pack("<I", n) + cols.tobytes()


def columnar(items) -> ReadingBatch:
    """``items`` as a batch built from columns, one run per stretch of
    one sensor and TTL — independently of the tuple adapter."""
    runs: list[list] = []
    for sid, ts, value, ttl in items:
        if not runs or runs[-1][0] != (sid, ttl):
            runs.append([(sid, ttl), [], []])
        runs[-1][1].append(ts)
        runs[-1][2].append(value)
    return ReadingBatch.concat(
        [
            ReadingBatch.of(sid, np.array(ts, dtype=np.int64), np.array(vals, dtype=np.int64), ttl)
            for (sid, ttl), ts, vals in runs
        ]
    )


# Rows of a few sensors with clustered timestamps (duplicates and late
# arrivals are common) and a mix of TTLs, some long enough to matter.
rows = st.lists(
    st.tuples(
        st.sampled_from(SIDS),
        st.integers(0, 40).map(lambda k: 1_000 * NS + k * NS // 4),
        st.integers(-(1 << 63), (1 << 63) - 1),
        st.sampled_from([0, 0, 0, -5, 3, 3600]),
    ),
    min_size=1,
    max_size=60,
)
# The same rows cut into consecutive insert calls.
calls = st.lists(rows, min_size=1, max_size=4)


class TestDataFrame:
    @settings(max_examples=150, deadline=None)
    @given(rows)
    def test_bytes_equal_the_tuple_encoder(self, items):
        assert _encode_data(columnar(items)) == reference_encode_data(items)
        assert _encode_data(ReadingBatch.from_items(items)) == reference_encode_data(items)

    @settings(max_examples=100, deadline=None)
    @given(rows)
    def test_replay_decodes_every_row(self, items):
        decoded = _decode_data(_encode_data(columnar(items)))
        assert list(decoded) == items
        # One SensorId per distinct sensor, shared by all its runs.
        assert len({id(sid) for sid in decoded.sids}) == len(set(decoded.sids))

    def test_parent_datadir_reopens_identically(self, tmp_path):
        from tests.storage.test_durable_codecs import FIXTURES, PINNED_FINGERPRINT

        data_dir = tmp_path / "node"
        shutil.copytree(FIXTURES / "parent_datadir", data_dir)
        node = DurableNode("fixture", data_dir=data_dir, clock=lambda: 0)
        try:
            assert node.recovery_info["wal_records_replayed"] > 0
            assert node.state_fingerprint() == PINNED_FINGERPRINT
        finally:
            node.close()


class TestInt64Contract:
    def test_out_of_range_value_loses_no_other_rows(self):
        a, b = SIDS[0], SIDS[1]
        node = StorageNode("n0")
        node.insert_batch([(a, 1, 10, 0), (a, 2, 20, 0)])
        with pytest.raises(StorageError, match="int64"):
            node.insert_batch([(b, 3, 1 << 63, 0)])
        node.flush()
        assert node.query(a, 0, 10)[1].tolist() == [10, 20]
        assert node.query(b, 0, 10)[0].size == 0

    def test_csv_sized_value_rejected_before_the_wal(self, tmp_path):
        node = DurableNode("d0", data_dir=tmp_path / "d0")
        try:
            appends = node.wal.appends
            with pytest.raises(StorageError):
                node.insert_batch([(SIDS[0], 1, int(round(float("1e19"))), 0)])
            with pytest.raises(StorageError):
                node.insert(SIDS[0], -(1 << 63) - 1, 0)
            assert node.wal.appends == appends
            node.flush()
        finally:
            node.close()

    @pytest.mark.parametrize("backend", [MemoryBackend, lambda: StorageCluster([StorageNode()])])
    def test_every_store_enforces_it(self, backend):
        with pytest.raises(StorageError):
            backend().insert_batch([(SIDS[0], 1, 0, 1 << 64)])


def _write(store, chunks, as_batch: bool) -> None:
    for items in chunks:
        store.insert_batch(columnar(items) if as_batch else list(items))


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(calls)
    def test_storage_node(self, chunks):
        prints = []
        for as_batch in (False, True):
            node = StorageNode("n0", flush_threshold=50, max_segment_files=2, clock=lambda: 1_010 * NS)
            _write(node, chunks, as_batch)
            prints.append(node.state_fingerprint())
        assert prints[0] == prints[1]

    @settings(max_examples=15, deadline=None)
    @given(calls)
    def test_durable_node_across_reopen(self, tmp_path_factory, chunks):
        prints = []
        for as_batch in (False, True):
            data_dir = tmp_path_factory.mktemp("durable")
            node = DurableNode("d0", data_dir=data_dir, flush_threshold=50, clock=lambda: 0)
            _write(node, chunks, as_batch)
            before = node.state_fingerprint()
            node.close()
            node = DurableNode("d0", data_dir=data_dir, flush_threshold=50, clock=lambda: 0)
            prints.append((before, node.state_fingerprint()))
            node.close()
        assert prints[0] == prints[1]
        assert prints[0][0] == prints[0][1]

    @settings(max_examples=30, deadline=None)
    @given(calls, st.integers(0, 3))
    def test_replicated_cluster_with_hints(self, chunks, kill_at):
        prints = []
        for as_batch in (False, True):
            nodes = [FaultyBackend(StorageNode(f"node{i}", clock=lambda: 0)) for i in range(3)]
            cluster = StorageCluster(
                nodes,
                partitioner=HierarchicalPartitioner(3, levels=1),
                replication=2,
                sleep=lambda _s: None,
            )
            for index, items in enumerate(chunks):
                if index == kill_at:
                    nodes[1].kill()
                _write(cluster, [items], as_batch)
            nodes[1].restart()
            cluster.replay_hints()
            assert cluster.hints_pending == 0
            prints.append([node.backend.state_fingerprint() for node in nodes])
        assert prints[0] == prints[1]

    @settings(max_examples=40, deadline=None)
    @given(calls)
    def test_rollup_tier_rows_and_coverage(self, chunks):
        outcomes = []
        for as_batch in (False, True):
            backend = StorageNode("r0")
            engine = RollupEngine(backend)
            for items in chunks:
                backend.insert_batch(items)
                engine.observe(columnar(items) if as_batch else list(items))
            coverage = [engine.coverage(sid, k) for sid in SIDS for k in range(len(ROLLUP_TIERS))]
            outcomes.append((backend.state_fingerprint(), coverage))
        assert outcomes[0] == outcomes[1]


class TestAgentCache:
    def test_burst_message_answers_like_one_reading_at_a_time(self):
        agents, clients = [], []
        for name in ("burst", "single"):
            broker = MQTTBroker(port=None)
            agents.append(CollectAgent(StorageNode(name), broker=broker, cache_maxage_ns=30 * NS))
            clients.append(MQTTClient(name, broker=broker))
            clients[-1].connect()
        rng = np.random.default_rng(29)
        written: dict[int, int] = {}
        for message in range(3):
            # 100 readings, 1 s apart, a few of them late.
            ts = (1_000 + message * 100 + np.arange(100)) * NS
            ts[rng.integers(0, 100, 5)] -= 50 * NS
            readings = [SensorReading(int(t), int(v)) for t, v in zip(ts, rng.integers(-999, 999, 100))]
            clients[0].publish("/rack/node/power", payload_mod.encode_readings(readings))
            for reading in readings:
                clients[1].publish("/rack/node/power", payload_mod.encode_readings([reading]))
                written[reading.timestamp] = reading.value
        newest = max(written)
        window = [SensorReading(t, written[t]) for t in sorted(written) if t >= newest - 30 * NS]
        for agent in agents:
            assert agent.latest("/rack/node/power") == window[-1]
            assert agent.recent("/rack/node/power") == window
