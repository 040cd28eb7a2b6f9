"""Tests for the storage engine: memtable, sealed runs, compaction —
and a model test running both stores against the MemoryBackend oracle."""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.sid import SensorId
from repro.storage.durable import DurableNode
from repro.storage.memory import MemoryBackend
from repro.storage.node import StorageNode

SID_A = SensorId.from_codes([1, 1])
SID_B = SensorId.from_codes([1, 2])


def _flushes(node) -> int:
    return int(node.metrics.value("dcdb_storage_flushes_total", {"node": node.name}))


def _inserts(node) -> int:
    return int(node.metrics.value("dcdb_storage_inserts_total", {"node": node.name}))


class TestBasicOperations:
    def test_insert_and_query(self):
        node = StorageNode()
        node.insert(SID_A, 100, 1)
        node.insert(SID_A, 200, 2)
        ts, vals = node.query(SID_A, 0, 1000)
        assert ts.tolist() == [100, 200]
        assert vals.tolist() == [1, 2]

    def test_range_bounds_inclusive(self):
        node = StorageNode()
        for t in (1, 2, 3, 4, 5):
            node.insert(SID_A, t, t)
        ts, _ = node.query(SID_A, 2, 4)
        assert ts.tolist() == [2, 3, 4]

    def test_unknown_sid_empty(self):
        node = StorageNode()
        ts, vals = node.query(SID_A, 0, 100)
        assert ts.size == 0 and vals.size == 0

    def test_sensors_isolated(self):
        node = StorageNode()
        node.insert(SID_A, 1, 10)
        node.insert(SID_B, 1, 20)
        assert node.query(SID_A, 0, 10)[1].tolist() == [10]
        assert node.query(SID_B, 0, 10)[1].tolist() == [20]

    def test_out_of_order_inserts_sorted_on_read(self):
        node = StorageNode()
        for t in (5, 1, 3, 2, 4):
            node.insert(SID_A, t, t * 10)
        ts, vals = node.query(SID_A, 0, 10)
        assert ts.tolist() == [1, 2, 3, 4, 5]
        assert vals.tolist() == [10, 20, 30, 40, 50]

    def test_last_write_wins_in_memtable(self):
        node = StorageNode()
        node.insert(SID_A, 1, 10)
        node.insert(SID_A, 1, 99)
        _, vals = node.query(SID_A, 0, 10)
        assert vals.tolist() == [99]

    def test_sids_listing(self):
        node = StorageNode()
        node.insert(SID_B, 1, 1)
        node.insert(SID_A, 1, 1)
        assert node.sids() == [SID_A, SID_B]

    def test_insert_batch(self):
        node = StorageNode()
        count = node.insert_batch([(SID_A, t, t, 0) for t in range(100)])
        assert count == 100
        assert node.query(SID_A, 0, 1000)[0].size == 100


class TestFlushAndSegments:
    def test_automatic_flush_at_threshold(self):
        node = StorageNode(flush_threshold=10)
        for t in range(25):
            node.insert(SID_A, t, t)
        assert _flushes(node) >= 2
        assert node.query(SID_A, 0, 100)[0].size == 25

    def test_query_merges_memtable_and_segments(self):
        node = StorageNode()
        node.insert(SID_A, 1, 1)
        node.flush()
        node.insert(SID_A, 2, 2)
        ts, _ = node.query(SID_A, 0, 10)
        assert ts.tolist() == [1, 2]

    def test_last_write_wins_across_flush(self):
        node = StorageNode()
        node.insert(SID_A, 1, 10)
        node.flush()
        node.insert(SID_A, 1, 99)
        _, vals = node.query(SID_A, 0, 10)
        assert vals.tolist() == [99]

    def test_segment_count_tracked(self):
        node = StorageNode()
        node.insert(SID_A, 1, 1)
        node.flush()
        node.insert(SID_A, 2, 2)
        node.flush()
        assert node.segment_count == 2


class TestCompaction:
    def test_compaction_merges_segments(self):
        node = StorageNode()
        for i in range(5):
            node.insert(SID_A, i, i)
            node.flush()
        node.compact()
        assert node.segment_count == 1
        assert node.query(SID_A, 0, 100)[0].size == 5

    def test_auto_compaction_bounds_segments(self):
        node = StorageNode(max_segment_files=3)
        for i in range(10):
            node.insert(SID_A, i, i)
            node.flush()
        assert node.segment_count <= 4
        assert node.query(SID_A, 0, 100)[0].size == 10

    def test_compaction_deduplicates(self):
        node = StorageNode()
        node.insert(SID_A, 1, 10)
        node.flush()
        node.insert(SID_A, 1, 99)
        node.flush()
        node.compact()
        _, vals = node.query(SID_A, 0, 10)
        assert vals.tolist() == [99]
        assert node.row_count == 1

    def test_compaction_drops_expired(self):
        clock = SimClock(0)
        node = StorageNode(clock=clock)
        node.insert(SID_A, 0, 1, ttl_s=1)
        node.insert(SID_A, 1, 2, ttl_s=0)
        node.flush()
        clock.set(5 * NS_PER_SEC)
        node.compact()
        assert node.row_count == 1


class TestTtl:
    def test_expired_rows_invisible(self):
        clock = SimClock(0)
        node = StorageNode(clock=clock)
        node.insert(SID_A, 0, 1, ttl_s=10)
        assert node.query(SID_A, 0, NS_PER_SEC)[0].size == 1
        clock.set(11 * NS_PER_SEC)
        assert node.query(SID_A, 0, NS_PER_SEC)[0].size == 0

    def test_ttl_zero_is_forever(self):
        clock = SimClock(0)
        node = StorageNode(clock=clock)
        node.insert(SID_A, 0, 1, ttl_s=0)
        clock.set(10**15)
        assert node.query(SID_A, 0, NS_PER_SEC)[0].size == 1

    def test_ttl_in_segments(self):
        clock = SimClock(0)
        node = StorageNode(clock=clock)
        node.insert(SID_A, 0, 1, ttl_s=5)
        node.flush()
        clock.set(6 * NS_PER_SEC)
        assert node.query(SID_A, 0, NS_PER_SEC)[0].size == 0


class TestDeleteBefore:
    def test_deletes_from_memtable_and_segments(self):
        node = StorageNode()
        for t in range(10):
            node.insert(SID_A, t, t)
        node.flush()
        for t in range(10, 20):
            node.insert(SID_A, t, t)
        removed = node.delete_before(SID_A, 15)
        assert removed == 15
        ts, _ = node.query(SID_A, 0, 100)
        assert ts.tolist() == list(range(15, 20))

    def test_delete_unknown_sid(self):
        node = StorageNode()
        assert node.delete_before(SID_A, 100) == 0


class TestQueryPath:
    def _pruned(self, node):
        family = node.metrics.counter(
            "dcdb_storage_segments_pruned_total", labelnames=("node",)
        )
        return family.value

    def test_non_overlapping_segments_pruned(self):
        node = StorageNode()
        for base in (0, 1000, 2000):
            for t in range(base, base + 10):
                node.insert(SID_A, t, t)
            node.flush()
        assert node.segment_count == 3
        before = self._pruned(node)
        ts, _ = node.query(SID_A, 1000, 1009)
        assert ts.tolist() == list(range(1000, 1010))
        assert self._pruned(node) - before == 2  # first and last segment skipped

    def test_single_segment_query_returns_views(self):
        node = StorageNode()
        for t in range(100):
            node.insert(SID_A, t, t)
        node.flush()
        ts, vals = node.query(SID_A, 10, 20)
        assert ts.tolist() == list(range(10, 21))
        # The fast path must not copy: both arrays are views into the
        # frozen segment.
        assert ts.base is not None and vals.base is not None

    def test_views_cannot_write_into_the_store(self):
        node = StorageNode()
        for t in range(10):
            node.insert(SID_A, t, t)
        node.flush()
        ts, vals = node.query(SID_A, 0, 100)
        with pytest.raises(ValueError):
            vals[0] = 99
        with pytest.raises(ValueError):
            ts[0] = 99
        assert node.query(SID_A, 0, 100)[1].tolist() == list(range(10))

    def test_fast_path_skipped_when_memtable_has_rows(self):
        node = StorageNode()
        for t in range(10):
            node.insert(SID_A, t, t)
        node.flush()
        node.insert(SID_A, 5, 99)  # memtable overwrite of a segment row
        ts, vals = node.query(SID_A, 0, 100)
        assert ts.tolist() == list(range(10))
        assert vals.tolist()[5] == 99  # LWW across segment + memtable

    def test_query_many_matches_per_sid_query(self):
        node = StorageNode()
        for t in (5, 1, 3, 1, 9):
            node.insert(SID_A, t, t * 10)
            node.insert(SID_B, t, -t)
        node.flush()
        node.insert(SID_A, 2, 22)  # memtable rows on top of a segment
        result = node.query_many([SID_A, SID_B], 0, 100)
        assert set(result) == {SID_A, SID_B}
        for sid in (SID_A, SID_B):
            ts, vals = node.query(sid, 0, 100)
            assert result[sid][0].tolist() == ts.tolist()
            assert result[sid][1].tolist() == vals.tolist()

    def test_query_many_unknown_sid_gets_empty_entry(self):
        node = StorageNode()
        node.insert(SID_A, 1, 1)
        result = node.query_many([SID_A, SID_B], 0, 10)
        assert result[SID_B][0].size == 0 and result[SID_B][1].size == 0

    def test_sids_cache_invalidated_by_new_sensor(self):
        node = StorageNode()
        node.insert(SID_B, 1, 1)
        assert node.sids() == [SID_B]
        node.insert(SID_B, 2, 2)  # same sensor: cached list still valid
        assert node.sids() == [SID_B]
        node.insert(SID_A, 1, 1)  # new sensor: cache must be rebuilt
        assert node.sids() == [SID_A, SID_B]

    def test_sids_cache_invalidated_by_batch(self):
        node = StorageNode()
        node.insert(SID_A, 1, 1)
        assert node.sids() == [SID_A]
        node.insert_batch([(SID_B, t, t, 0) for t in range(5)])
        assert node.sids() == [SID_A, SID_B]

    def test_flush_deduplicates_segment_timestamps(self):
        node = StorageNode()
        node.insert(SID_A, 1, 10)
        node.insert(SID_A, 1, 99)
        node.flush()
        assert node.row_count == 1  # LWW applied at freeze time
        _, vals = node.query(SID_A, 0, 10)
        assert vals.tolist() == [99]


#: The model test's fixed "now" and per-timestamp TTLs: with a clock
#: 20 s in, rows with a 1 s TTL below t=19 s are expired on arrival.
#: A TTL is a function of the timestamp, so duplicates of one
#: timestamp always share an expiry (different expiries for one
#: timestamp would let "newest live write wins" and "newest write wins,
#: then expires" disagree, which no single-version store can follow).
_NOW = 20 * NS_PER_SEC
_TTLS = (0, 0, 1, 30)
_SIDS = (SID_A, SID_B)
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_SIDS),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-1000, max_value=1000),
    ),
    min_size=1,
    max_size=12,
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _ROWS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
        st.tuples(
            st.just("delete_before"),
            st.sampled_from(_SIDS),
            st.integers(min_value=0, max_value=40),
        ),
        st.tuples(st.just("reopen")),
    ),
    max_size=25,
)


class TestPropertyBased:
    @settings(max_examples=150, deadline=None)
    @given(_OPS, st.integers(min_value=1, max_value=20))
    def test_node_matches_dict_oracle(self, ops, flush_threshold):
        """Both engines — in memory, and durable across close + reopen —
        read exactly like the MemoryBackend oracle after every step of
        a generated history of batches with late and duplicate
        timestamps and TTLs, seals, merges and retention cutoffs."""
        clock = lambda: _NOW  # noqa: E731
        with tempfile.TemporaryDirectory(prefix="dcdb-model-") as tmp:

            def durable() -> DurableNode:
                return DurableNode(
                    "model", data_dir=tmp, fsync="off", flush_threshold=flush_threshold, clock=clock
                )

            oracle = MemoryBackend(clock=clock)
            engines = {"node": StorageNode(flush_threshold=flush_threshold, clock=clock), "durable": durable()}
            try:
                for step, op in enumerate(ops):
                    if op[0] == "insert":
                        items = [(sid, t * NS_PER_SEC, v, _TTLS[t % 4]) for sid, t, v in op[1]]
                        for store in (oracle, *engines.values()):
                            store.insert_batch(items)
                    elif op[0] == "delete_before":
                        for store in (oracle, *engines.values()):
                            store.delete_before(op[1], op[2] * NS_PER_SEC)
                    elif op[0] == "reopen":
                        engines["durable"].close()
                        engines["durable"] = durable()
                    else:
                        for store in engines.values():
                            getattr(store, op[0])()
                    expected = oracle.query_many(_SIDS, 0, 100 * NS_PER_SEC)
                    for name, store in engines.items():
                        got = store.query_many(_SIDS, 0, 100 * NS_PER_SEC)
                        for sid in _SIDS:
                            assert [a.tolist() for a in got[sid]] == [
                                a.tolist() for a in expected[sid]
                            ], f"{name} diverged at step {step}: {op}"
            finally:
                engines["durable"].close()

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_range_query_property(self, timestamps, lo, hi):
        node = StorageNode(flush_threshold=7)
        for t in timestamps:
            node.insert(SID_A, t, t)
        ts, _ = node.query(SID_A, min(lo, hi), max(lo, hi))
        expected = sorted({t for t in timestamps if min(lo, hi) <= t <= max(lo, hi)})
        assert ts.tolist() == expected


class TestFlushAccounting:
    def test_empty_flush_not_counted(self):
        node = StorageNode()
        node.flush()
        assert _flushes(node) == 0
        node.insert(SID_A, 1, 1)
        node.flush()
        assert _flushes(node) == 1
        node.flush()  # memtable empty again: no segment frozen
        assert _flushes(node) == 1


class TestVectorizedBatch:
    def test_single_sensor_batch_with_uniform_ttl(self):
        node = StorageNode()
        node.insert_batch([(SID_A, t, t * 2, 0) for t in range(500)])
        ts, vals = node.query(SID_A, 0, 1000)
        assert ts.tolist() == list(range(500))
        assert vals.tolist() == [t * 2 for t in range(500)]

    def test_single_sensor_batch_with_mixed_ttl(self):
        clock = SimClock(0)
        node = StorageNode(clock=clock)
        node.insert_batch(
            [(SID_A, 1 * NS_PER_SEC, 1, 5), (SID_A, 2 * NS_PER_SEC, 2, 0)]
        )
        clock.set(60 * NS_PER_SEC)
        ts, _ = node.query(SID_A, 0, 100 * NS_PER_SEC)
        assert ts.tolist() == [2 * NS_PER_SEC]  # 5 s TTL row expired

    def test_mixed_sensor_batch_groups_per_sid(self):
        node = StorageNode()
        items = []
        for t in range(100):
            items.append((SID_A, t, t, 0))
            items.append((SID_B, t, -t, 0))
        assert node.insert_batch(items) == 200
        assert node.query(SID_A, 0, 1000)[1].tolist() == list(range(100))
        assert node.query(SID_B, 0, 1000)[1].tolist() == [-t for t in range(100)]

    def test_mixed_sensor_batch_with_ttl(self):
        clock = SimClock(0)
        node = StorageNode(clock=clock)
        node.insert_batch(
            [
                (SID_A, 1 * NS_PER_SEC, 1, 2),
                (SID_B, 1 * NS_PER_SEC, 2, 0),
                (SID_A, 2 * NS_PER_SEC, 3, 0),
            ]
        )
        clock.set(30 * NS_PER_SEC)
        assert node.query(SID_A, 0, 100 * NS_PER_SEC)[0].size == 1
        assert node.query(SID_B, 0, 100 * NS_PER_SEC)[0].size == 1

    def test_generator_input_accepted(self):
        node = StorageNode()
        count = node.insert_batch((SID_A, t, t, 0) for t in range(10))
        assert count == 10
        assert node.query(SID_A, 0, 100)[0].size == 10

    def test_empty_batch(self):
        node = StorageNode()
        assert node.insert_batch([]) == 0
        assert _inserts(node) == 0

    def test_batch_triggers_threshold_flush(self):
        node = StorageNode(flush_threshold=50)
        node.insert_batch([(SID_A, t, t, 0) for t in range(60)])
        assert _flushes(node) == 1
        assert node.query(SID_A, 0, 100)[0].size == 60
