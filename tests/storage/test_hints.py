"""The hint queue on its own: FIFO order across hint kinds, eviction,
re-homing a moved partition's data, and the reading accounting that
the ``dcdb_storage_hints_*`` families export."""

import numpy as np

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.storage.backend import ReadingBatch
from repro.storage.hints import HintQueue
from repro.storage.node import StorageNode

A = SensorId.from_codes([1, 1, 1])
B = SensorId.from_codes([1, 2, 1])


def data(*runs):
    """A batch with one run per (sid, first_ts, count)."""
    sids, lengths, ts = [], [], []
    for sid, first, count in runs:
        sids.append(sid)
        lengths.append(count)
        ts.extend(range(first, first + count))
    column = np.array(ts, dtype=np.int64)
    return ("data", ReadingBatch(sids, lengths, column, column.copy(), [0] * len(sids)))


def make(capacity=1_000_000):
    metrics = MetricsRegistry()
    return HintQueue(metrics, capacity), metrics


def kinds(queue, node_idx=0):
    return [entry[0] for entry in queue.entries(node_idx)]


class TestHintQueue:
    def test_eviction_skips_metadata_and_cutoffs_and_keeps_order(self):
        queue, metrics = make(capacity=4)
        queue.push(0, data((A, 0, 2)))
        queue.push(0, ("meta", "k", "v"))
        queue.push(0, data((A, 2, 2)))
        queue.push(0, ("cutoff", A, 1))
        queue.push(0, data((A, 4, 2)))
        assert kinds(queue) == ["meta", "data", "cutoff", "data"]
        assert metrics.value("dcdb_storage_hints_dropped_total") == 2
        assert queue.pending == 4 and queue.high_watermark == 6
        # The newest entry stays even when it alone exceeds the bound.
        queue.push(0, data((A, 6, 9)))
        assert kinds(queue) == ["meta", "cutoff", "data"]
        assert queue.pending == 9

    def test_replay_applies_in_order_and_keeps_what_failed(self):
        queue, metrics = make()
        queue.push(0, data((A, 0, 5)))
        queue.push(0, ("cutoff", A, 3))
        queue.push(0, ("meta", "k", "v"))
        node = StorageNode("n")
        assert queue.replay(0, node) == (3, 5)
        assert node.query(A, 0, 10)[0].tolist() == [3, 4]
        assert node.get_metadata("k") == "v"
        assert not queue and queue.pending == 0

        class Down(StorageNode):
            def insert_batch(self, items):
                raise StorageError("down")

        queue.push(1, data((A, 0, 1)))
        assert queue.replay(1, Down("d")) == (0, 0)
        assert queue.nodes() == [1] and queue.pending == 1
        assert metrics.value("dcdb_storage_hints_replayed_total") == 5

    def test_take_splits_runs_and_leaves_other_hints_in_place(self):
        queue, metrics = make()
        queue.push(0, data((A, 0, 2), (B, 0, 3)))
        queue.push(0, ("cutoff", A, 1))
        queue.push(0, data((B, 3, 1)))
        taken = queue.take(0, lambda sid: sid == B)
        assert [batch.sids for batch in taken] == [[B], [B]]
        assert sum(map(len, taken)) == 4
        assert kinds(queue) == ["data", "cutoff"]
        assert queue.entries(0)[0][1].sids == [A]
        assert queue.pending == 2
        assert metrics.value("dcdb_storage_hints_replayed_total") == 4
        assert queue.take(0, lambda sid: sid == B) == []

    def test_drop_counts_the_readings_it_discards(self):
        queue, metrics = make()
        queue.push(3, data((A, 0, 7)))
        queue.push(3, ("meta", "k", "v"))
        queue.drop(3)
        assert not queue and queue.pending == 0
        assert metrics.value("dcdb_storage_hints_dropped_total") == 7
        assert metrics.value("dcdb_storage_hints_queued_total") == 7
