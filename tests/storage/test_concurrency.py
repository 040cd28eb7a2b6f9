"""Concurrency tests: storage under parallel writers and readers."""

import sys
import threading

import numpy as np

from repro.core.sid import SensorId
from repro.faults import FaultyBackend
from repro.storage.cluster import StorageCluster
from repro.storage.node import StorageNode
from repro.storage.sqlite import SqliteBackend

SIDS = [SensorId.from_codes([1, i]) for i in range(1, 9)]


class TestStorageNodeConcurrency:
    def test_parallel_writers_lose_nothing(self):
        node = StorageNode(flush_threshold=500)
        per_thread = 2000

        def writer(idx: int) -> None:
            sid = SIDS[idx]
            for t in range(per_thread):
                node.insert(sid, t, t * idx)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for idx, sid in enumerate(SIDS):
            ts, vals = node.query(sid, 0, per_thread)
            assert ts.size == per_thread
            assert (vals == np.arange(per_thread) * idx).all()

    def test_reads_during_writes_consistent(self):
        node = StorageNode(flush_threshold=100)
        sid = SIDS[0]
        stop = threading.Event()
        errors: list[Exception] = []

        def writer() -> None:
            t = 0
            while not stop.is_set():
                t += 1
                node.insert(sid, t, t)

        def reader() -> None:
            try:
                while not stop.is_set():
                    ts, vals = node.query(sid, 0, 1 << 60)
                    # Monotonic timestamps, values equal timestamps.
                    if ts.size:
                        assert (np.diff(ts) > 0).all()
                        assert (ts == vals).all()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        w.start()
        for r in readers:
            r.start()
        import time

        time.sleep(0.5)
        stop.set()
        w.join()
        for r in readers:
            r.join()
        assert errors == []

    def test_concurrent_compaction_and_writes(self):
        node = StorageNode(flush_threshold=200, max_segment_files=2)
        sid = SIDS[0]
        stop = threading.Event()

        def writer() -> None:
            t = 0
            while not stop.is_set():
                t += 1
                node.insert(sid, t, t)

        def compactor() -> None:
            while not stop.is_set():
                node.compact()

        threads = [threading.Thread(target=writer), threading.Thread(target=compactor)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join()
        ts, vals = node.query(sid, 0, 1 << 60)
        assert ts.size > 0
        assert (np.diff(ts) > 0).all()


class TestClusterConcurrency:
    def test_parallel_writers_through_cluster(self):
        cluster = StorageCluster(
            [StorageNode(f"n{i}", flush_threshold=500) for i in range(3)],
            replication=2,
        )

        def writer(idx: int) -> None:
            sid = SIDS[idx]
            cluster.insert_batch([(sid, t, t, 0) for t in range(1000)])

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for sid in SIDS[:6]:
            assert cluster.count(sid, 0, 2000) == 1000


    def test_writers_racing_a_hint_replay_keep_last_write_wins(self):
        # node1 restarts owing ten hints per sensor; six writers then
        # overwrite the same timestamps with newer values while another
        # thread replays hints.  However the threads interleave, an
        # older hint must never land on node1 after a newer write.
        nodes = [FaultyBackend(StorageNode(f"n{i}")) for i in range(2)]
        cluster = StorageCluster(nodes, replication=2, sleep=lambda _s: None)
        nodes[1].kill()
        for sid in SIDS[:6]:
            for t in range(0, 200, 20):
                cluster.insert_batch([(sid, ts, -1, 0) for ts in range(t, t + 20)])
        nodes[1].restart()

        def writer(idx: int) -> None:
            for t in range(0, 200, 20):
                cluster.insert_batch([(SIDS[idx], ts, ts, 0) for ts in range(t, t + 20)])

        def replayer() -> None:
            while cluster.hints_pending:
                cluster.replay_hints()

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        threads.append(threading.Thread(target=replayer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        nodes[0].kill()
        for sid in SIDS[:6]:
            assert cluster.query(sid, 0, 1000)[1].tolist() == list(range(200))


class TestSqliteConcurrency:
    def test_parallel_writers(self):
        backend = SqliteBackend(":memory:")

        def writer(idx: int) -> None:
            sid = SIDS[idx]
            backend.insert_batch([(sid, t, t, 0) for t in range(500)])

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for sid in SIDS[:4]:
            assert backend.count(sid, 0, 1000) == 500
        backend.close()
