"""Contract tests: every StorageBackend implementation behaves alike.

This is the executable form of the paper's section 5.1 claim — the
storage API is backend-independent, so Cassandra (here: the
wide-column cluster) can be swapped for another database "without any
changes in the upstream components".  Each test runs against the
cluster, the in-memory store, the SQLite store, a bare storage node (a
node *is* a backend), a quiescent :class:`~repro.faults.FaultyBackend`
over the memory store and over a node (proving the fault-injection
proxy is fully transparent when no faults fire) — and the durable
WAL+segment node, both live and through a reopen-between-write-and-
read proxy that forces every read to come off the on-disk files.
"""

import numpy as np
import pytest

from repro.core.sid import SensorId
from repro.faults import FaultyBackend
from repro.storage.cluster import StorageCluster
from repro.storage.durable import DurableNode
from repro.storage.memory import MemoryBackend
from repro.storage.node import StorageNode
from repro.storage.sqlite import SqliteBackend

SID = SensorId.from_codes([1, 2, 3])
SID_SIBLING = SensorId.from_codes([1, 2, 4])
SID_OTHER = SensorId.from_codes([2, 1, 1])


class ReopeningDurable:
    """Durable node that cold-starts before every read.

    Each read-side call seals the memtable (``flush``), closes the
    backend and reopens the data directory, so the answer can only
    come from the manifest + segment files + WAL on disk — never from
    process state the write left behind.
    """

    _READS = frozenset(
        {
            "query",
            "query_many",
            "query_prefix",
            "sids",
            "latest",
            "oldest",
            "count",
            "get_metadata",
            "metadata_keys",
        }
    )

    def __init__(self, path):
        self._path = path
        self._backend = DurableNode("contract-reopen", data_dir=path)

    def _reopen(self):
        self._backend.flush()
        self._backend.close()
        self._backend = DurableNode("contract-reopen", data_dir=self._path)

    def __getattr__(self, name):
        if name in self._READS:
            self._reopen()
        return getattr(self._backend, name)

    def close(self):
        self._backend.close()


@pytest.fixture(
    params=[
        "cluster",
        "memory",
        "sqlite",
        "node",
        "faulty",
        "faulty_node",
        "durable",
        "durable_reopen",
    ]
)
def backend(request):
    if request.param == "cluster":
        b = StorageCluster([StorageNode("a"), StorageNode("b")], replication=2)
    elif request.param == "memory":
        b = MemoryBackend()
    elif request.param == "node":
        b = StorageNode("contract-node")
    elif request.param == "faulty":
        b = FaultyBackend(MemoryBackend(), fault_rate=0.0)
    elif request.param == "faulty_node":
        b = FaultyBackend(StorageNode("contract-node"), fault_rate=0.0)
    elif request.param == "durable":
        tmp_path = request.getfixturevalue("tmp_path")
        b = DurableNode("contract-durable", data_dir=tmp_path / "durable")
    elif request.param == "durable_reopen":
        tmp_path = request.getfixturevalue("tmp_path")
        b = ReopeningDurable(tmp_path / "durable")
    else:
        b = SqliteBackend(":memory:")
    yield b
    b.close()


class TestDataContract:
    def test_insert_query_round_trip(self, backend):
        backend.insert(SID, 100, 42)
        ts, vals = backend.query(SID, 0, 1000)
        assert ts.tolist() == [100] and vals.tolist() == [42]

    def test_results_time_ordered(self, backend):
        for t in (30, 10, 20):
            backend.insert(SID, t, t)
        ts, _ = backend.query(SID, 0, 100)
        assert ts.tolist() == [10, 20, 30]

    def test_range_inclusive(self, backend):
        for t in range(10):
            backend.insert(SID, t, t)
        ts, _ = backend.query(SID, 3, 7)
        assert ts.tolist() == [3, 4, 5, 6, 7]

    def test_last_write_wins(self, backend):
        backend.insert(SID, 5, 1)
        backend.insert(SID, 5, 2)
        ts, vals = backend.query(SID, 0, 10)
        assert ts.tolist() == [5] and vals.tolist() == [2]

    def test_empty_query(self, backend):
        ts, vals = backend.query(SID, 0, 10)
        assert ts.size == 0 and vals.size == 0
        assert ts.dtype == np.int64

    def test_insert_batch(self, backend):
        count = backend.insert_batch([(SID, t, t * 2, 0) for t in range(50)])
        assert count == 50
        assert backend.count(SID, 0, 100) == 50

    def test_sids(self, backend):
        backend.insert(SID, 1, 1)
        backend.insert(SID_OTHER, 1, 1)
        assert backend.sids() == sorted([SID, SID_OTHER])

    def test_latest(self, backend):
        assert backend.latest(SID) is None
        backend.insert(SID, 1, 10)
        backend.insert(SID, 9, 90)
        assert backend.latest(SID) == (9, 90)
        assert backend.oldest(SID) == (1, 10)

    def test_latest_after_a_late_row(self, backend):
        backend.insert(SID, 9, 90)
        backend.flush()
        backend.insert(SID, 5, 50)
        assert backend.latest(SID) == (9, 90)

    def test_latest_skips_an_expired_newest_row(self, backend):
        backend.insert(SID, 1, 10)
        backend.flush()
        backend.insert(SID, 9, 90, ttl_s=1)  # expired long before now
        assert backend.latest(SID) == (1, 10)
        backend.flush()
        assert backend.latest(SID) == (1, 10)

    def test_latest_of_a_rewritten_newest_timestamp(self, backend):
        backend.insert(SID, 1, 10)
        backend.insert(SID, 9, 90)
        backend.flush()
        backend.insert(SID, 9, 91)
        assert backend.latest(SID) == (9, 91)
        backend.flush()
        assert backend.latest(SID) == (9, 91)

    def test_latest_after_retention_covers_the_newest_rows(self, backend):
        for t in range(1, 10):
            backend.insert(SID, t, t * 10)
        backend.flush()
        backend.delete_before(SID, 10)
        assert backend.latest(SID) is None
        backend.insert(SID, 3, 30)  # arrives after the cutoff: stays
        assert backend.latest(SID) == (3, 30)

    def test_delete_before(self, backend):
        for t in range(10):
            backend.insert(SID, t, t)
        removed = backend.delete_before(SID, 5)
        assert removed == 5
        ts, _ = backend.query(SID, 0, 100)
        assert ts.tolist() == [5, 6, 7, 8, 9]

    def test_cutoff_spares_rows_that_arrive_later(self, backend):
        # A cutoff removes the rows stored when it is issued; a reading
        # below it that arrives afterwards is new data and stays.
        for t in range(10):
            backend.insert(SID, t, t)
        assert backend.delete_before(SID, 5) == 5
        backend.insert(SID, 2, 22)
        ts, vals = backend.query(SID, 0, 100)
        assert ts.tolist() == [2, 5, 6, 7, 8, 9]
        assert vals.tolist() == [22, 5, 6, 7, 8, 9]

    def test_query_prefix_selects_subtree(self, backend):
        backend.insert(SID, 1, 1)
        backend.insert(SID_SIBLING, 1, 2)
        backend.insert(SID_OTHER, 1, 3)
        prefix = SID.prefix(2)
        results = list(backend.query_prefix(prefix, 2, 0, 10))
        found = {s for s, _, _ in results}
        assert found == {SID, SID_SIBLING}

    def test_query_many_matches_looped_query(self, backend):
        for i, sid in enumerate((SID, SID_SIBLING, SID_OTHER)):
            for t in range(10):
                backend.insert(sid, t * 10, t + i * 100)
        result = backend.query_many([SID, SID_SIBLING, SID_OTHER], 15, 75)
        assert set(result) == {SID, SID_SIBLING, SID_OTHER}
        for sid in (SID, SID_SIBLING, SID_OTHER):
            ts, vals = backend.query(sid, 15, 75)
            assert result[sid][0].tolist() == ts.tolist()
            assert result[sid][1].tolist() == vals.tolist()

    def test_query_many_last_write_wins(self, backend):
        backend.insert(SID, 5, 1)
        backend.insert(SID, 5, 2)
        backend.insert(SID_OTHER, 5, 7)
        result = backend.query_many([SID, SID_OTHER], 0, 10)
        assert result[SID][0].tolist() == [5] and result[SID][1].tolist() == [2]
        assert result[SID_OTHER][1].tolist() == [7]

    def test_query_many_empty_range_and_unknown_sid(self, backend):
        backend.insert(SID, 100, 1)
        # SID has no rows in [0, 10]; SID_OTHER was never written.
        result = backend.query_many([SID, SID_OTHER], 0, 10)
        for sid in (SID, SID_OTHER):
            ts, vals = result[sid]
            assert ts.size == 0 and vals.size == 0
            assert ts.dtype == np.int64

    def test_negative_values(self, backend):
        backend.insert(SID, 1, -(2**40))
        _, vals = backend.query(SID, 0, 10)
        assert vals.tolist() == [-(2**40)]

    def test_flush_and_compact_preserve_data(self, backend):
        for t in range(20):
            backend.insert(SID, t, t)
        backend.flush()
        backend.compact()
        assert backend.count(SID, 0, 100) == 20


class TestMetadataContract:
    def test_put_get(self, backend):
        backend.put_metadata("k", "v")
        assert backend.get_metadata("k") == "v"

    def test_get_missing(self, backend):
        assert backend.get_metadata("nope") is None

    def test_overwrite(self, backend):
        backend.put_metadata("k", "1")
        backend.put_metadata("k", "2")
        assert backend.get_metadata("k") == "2"

    def test_keys_prefix_filtered(self, backend):
        backend.put_metadata("a/1", "x")
        backend.put_metadata("a/2", "x")
        backend.put_metadata("b/1", "x")
        assert backend.metadata_keys("a/") == ["a/1", "a/2"]

    def test_delete(self, backend):
        backend.put_metadata("k", "v")
        backend.delete_metadata("k")
        assert backend.get_metadata("k") is None

    def test_put_many_equals_the_loop(self, backend):
        # Applied in order: a later pair of the same batch wins, ""
        # deletes, and what was stored before is overwritten.
        backend.put_metadata("m/old", "0")
        backend.put_metadata("m/gone", "0")
        pairs = [("m/a", "1"), ("m/old", "2"), ("m/a", "3"), ("m/gone", ""), ("m/b", "4")]
        backend.put_metadata_many(pairs)
        expected: dict[str, str] = {"m/old": "0", "m/gone": "0"}
        for key, value in pairs:
            if value == "":
                expected.pop(key, None)
            else:
                expected[key] = value
        assert backend.metadata_keys("m/") == sorted(expected)
        assert {k: backend.get_metadata(k) for k in expected} == expected
        assert backend.get_metadata("m/gone") is None

    def test_put_many_accepts_any_iterable_and_nothing(self, backend):
        backend.put_metadata_many([])
        backend.put_metadata_many((f"g/{i}", str(i)) for i in range(3))
        assert backend.metadata_keys("g/") == ["g/0", "g/1", "g/2"]


class TestSqliteSpecific:
    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        backend = SqliteBackend(path)
        backend.insert(SID, 1, 42)
        backend.put_metadata("k", "v")
        backend.close()
        reopened = SqliteBackend(path)
        assert reopened.query(SID, 0, 10)[1].tolist() == [42]
        assert reopened.get_metadata("k") == "v"
        reopened.close()

    def test_compact_purges_expired(self):
        now = [0]
        backend = SqliteBackend(":memory:", clock=lambda: now[0])
        backend.insert(SID, 0, 1, ttl_s=1)
        now[0] = 5_000_000_000
        backend.compact()
        now[0] = 0  # even rewinding, the row is physically gone
        assert backend.query(SID, 0, 10)[0].size == 0
        backend.close()
