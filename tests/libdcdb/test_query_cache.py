"""libDCDB reads always reflect the store, and travel batched.

libDCDB keeps no copy of the store's rows: a row stored, or deleted,
through any path shows on the next read.  Covers the batched
``query_raw_many``/``prefetch_raw`` paths, virtual-sensor evaluation
that reads its concrete operands in one batched read and is
bit-identical to reading them one by one, and concurrent evaluation
of nested virtual sensors.
"""

import threading

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.core.sid import SidMapper
from repro.libdcdb.api import DCDBClient
from repro.libdcdb.virtualsensors import VirtualSensorDef
from repro.storage.memory import MemoryBackend

TOPICS = [
    "/hpc/rack0/node0/power",
    "/hpc/rack0/node1/power",
    "/hpc/rack1/node0/power",
]


def make_env():
    backend = MemoryBackend()
    mapper = SidMapper()
    for topic in TOPICS:
        sid = mapper.sid_for_topic(topic)
        backend.put_metadata(f"sidmap{topic}", sid.hex())
        for t in range(1, 11):
            backend.insert(sid, t * NS_PER_SEC, t * 100)
    return DCDBClient(backend), backend, mapper


def count_reads(backend):
    """Count the backend's ``query``/``query_many`` calls."""
    calls = {"query": 0, "query_many": 0}
    for name in calls:
        original = getattr(backend, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        setattr(backend, name, counting)
    return calls


SPAN = (0, 20 * NS_PER_SEC)


class TestStoreReads:
    def test_row_stored_inside_a_read_window_shows_on_repeat(self):
        client, backend, _ = make_env()
        client.query_raw(TOPICS[0], *SPAN)
        backend.insert(client.sid_of(TOPICS[0]), 15 * NS_PER_SEC, 7)
        ts, _ = client.query_raw(TOPICS[0], *SPAN)
        assert 15 * NS_PER_SEC in ts.tolist()
        _, values = client.query(TOPICS[0], *SPAN)
        assert values[-1] == 7.0

    def test_backend_delete_before_shows_at_once(self):
        client, backend, _ = make_env()
        before, _ = client.query_raw(TOPICS[0], *SPAN)
        assert before.size == 10
        assert backend.delete_before(client.sid_of(TOPICS[0]), 6 * NS_PER_SEC) == 5
        ts, _ = client.query_raw(TOPICS[0], *SPAN)
        assert ts.tolist() == [t * NS_PER_SEC for t in range(6, 11)]
        assert client.query_raw_many(TOPICS[:1], *SPAN)[TOPICS[0]][0].size == 5


class TestBatchedReads:
    def test_query_raw_many_matches_per_topic(self):
        client, _, _ = make_env()
        bulk = client.query_raw_many(TOPICS, *SPAN)
        assert list(bulk) == TOPICS
        for topic in TOPICS:
            ts, vals = client.query_raw(topic, *SPAN)
            assert bulk[topic][0].tolist() == ts.tolist()
            assert bulk[topic][1].tolist() == vals.tolist()

    def test_query_raw_many_unknown_topic_raises(self):
        client, _, _ = make_env()
        with pytest.raises(QueryError, match="unknown sensor topic"):
            client.query_raw_many([TOPICS[0], "/nope"], *SPAN)

    def test_prefetch_skips_unknown_and_virtual(self):
        client, backend, _ = make_env()
        client.define_virtual_sensor(
            VirtualSensorDef(name="v", expression=f"<{TOPICS[0]}> * 2")
        )
        calls = count_reads(backend)
        fetched = client.prefetch_raw(
            [TOPICS[0], "/nope", "/virtual/v", TOPICS[1]], *SPAN
        )
        assert list(fetched) == [TOPICS[0], TOPICS[1]]
        assert calls == {"query": 0, "query_many": 1}
        for topic in fetched:
            assert fetched[topic][0].tolist() == client.query_raw(topic, *SPAN)[0].tolist()


class TestVirtualSensorCoherence:
    EXPR = (
        f"(sum(<{'/'.join(TOPICS[0].split('/')[:2])}>) + <{TOPICS[2]}>) / 1000"
    )

    def _eval(self, prefetch=True):
        client, _, _ = make_env()
        client.define_virtual_sensor(
            VirtualSensorDef(name="total", expression=self.EXPR)
        )
        if not prefetch:
            client.prefetch_raw = lambda topics, start, end: {}
        return client.evaluate_virtual("total", 0, 20 * NS_PER_SEC)

    def test_bit_identical_with_and_without_the_prefetch(self):
        ts_batched, vals_batched = self._eval()
        ts_single, vals_single = self._eval(prefetch=False)
        assert np.array_equal(ts_batched, ts_single)
        assert np.array_equal(vals_batched, vals_single)  # exact, not approximate

    def test_evaluation_uses_batched_reads(self):
        client, backend, _ = make_env()
        calls = count_reads(backend)
        client.define_virtual_sensor(
            VirtualSensorDef(name="total", expression="sum(</hpc>)")
        )
        client.evaluate_virtual("total", 0, 20 * NS_PER_SEC)
        assert calls["query_many"] == 1  # whole subtree in one bulk read
        assert calls["query"] == 0

    def test_write_back_invalidates_result_topic(self):
        client, backend, _ = make_env()
        client.define_virtual_sensor(
            VirtualSensorDef(name="total", expression="sum(</hpc>)")
        )
        client.query("/virtual/total", 0, 20 * NS_PER_SEC)  # evaluate + write back
        first = client.query_raw("/virtual/total", 0, 40 * NS_PER_SEC)
        for topic in TOPICS:
            backend.insert(client.sid_of(topic), 30 * NS_PER_SEC, 1000)
        # A wider query re-evaluates and writes back more rows, which
        # the next read of the result topic shows.
        client.query("/virtual/total", 0, 40 * NS_PER_SEC)
        second = client.query_raw("/virtual/total", 0, 40 * NS_PER_SEC)
        assert second[0].size > first[0].size


class TestConcurrentEvaluation:
    def test_nested_virtual_sensors_evaluate_concurrently(self):
        # Two evaluations of outer are inside inner at the same time;
        # each has its own cycle check, so neither sees the other's.
        client, backend, _ = make_env()
        client.define_virtual_sensor(
            VirtualSensorDef(name="inner", expression=f"<{TOPICS[0]}> * 2")
        )
        client.define_virtual_sensor(
            VirtualSensorDef(name="outer", expression="</virtual/inner> + 1")
        )
        both_inside = threading.Barrier(2, timeout=5)
        original = backend.query_many

        def query_many(*args):
            try:
                both_inside.wait()
            except threading.BrokenBarrierError:
                pass
            return original(*args)

        backend.query_many = query_many
        results, errors = [], []

        def evaluate():
            try:
                results.append(client.evaluate_virtual("outer", *SPAN))
            except QueryError as exc:
                both_inside.abort()
                errors.append(exc)

        threads = [threading.Thread(target=evaluate) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        assert len(results) == 2
        for ts, values in results:
            assert values.tolist() == [t * 200 + 1.0 for t in range(1, 11)]
