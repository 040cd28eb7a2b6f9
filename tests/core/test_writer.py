"""Edge cases of the asynchronous batching writer (ingest staging)."""

import sys
import threading
import time

import pytest

from repro.common.errors import BackpressureError, ConfigError, StorageError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core import payload as payload_mod
from repro.core.collectagent import BatchingWriter, CollectAgent, WriterConfig
from repro.core.sid import SensorId
from repro.faults import FaultPlan, FaultyBackend
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend, ReadingBatch

SID = SensorId.from_codes([1, 2, 3])
FOREVER_NS = 3600 * NS_PER_SEC


def items(*values, base_ts=0):
    return ReadingBatch.from_items([(SID, base_ts + i, v, 0) for i, v in enumerate(values)])


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class BlockingBackend(MemoryBackend):
    """A backend whose insert_batch parks until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def insert_batch(self, batch):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test never released the backend"
        return super().insert_batch(batch)


class TestFlushTriggers:
    def test_flush_by_size(self):
        backend = MemoryBackend()
        writer = BatchingWriter(
            backend, WriterConfig(max_batch=10, max_delay_ns=FOREVER_NS)
        )
        writer.put(items(*range(10)))
        assert wait_for(lambda: backend.count(SID, 0, 100) == 10)
        writer.stop()

    def test_no_flush_below_size_and_age(self):
        backend = MemoryBackend()
        clock = SimClock(0)
        writer = BatchingWriter(
            backend,
            WriterConfig(max_batch=100, max_delay_ns=NS_PER_SEC, poll_interval_s=0.001),
            clock=clock,
        )
        writer.put(items(1, 2, 3))
        time.sleep(0.05)  # many poll cycles; sim clock never advanced
        assert backend.count(SID, 0, 100) == 0
        assert writer.depth == 3
        writer.stop()

    def test_flush_by_age_with_simclock(self):
        backend = MemoryBackend()
        clock = SimClock(0)
        writer = BatchingWriter(
            backend,
            WriterConfig(max_batch=100, max_delay_ns=NS_PER_SEC, poll_interval_s=0.001),
            clock=clock,
        )
        writer.put(items(1, 2, 3))
        clock.advance(2 * NS_PER_SEC)  # oldest entry is now over-age
        assert wait_for(lambda: backend.count(SID, 0, 100) == 3)
        writer.stop()

    def test_drain_on_stop_persists_everything(self):
        backend = MemoryBackend()
        writer = BatchingWriter(
            backend, WriterConfig(max_batch=1_000, max_delay_ns=FOREVER_NS)
        )
        for i in range(50):
            writer.put(items(i, base_ts=i * 10))
        writer.stop()
        assert backend.count(SID, 0, 10_000) == 50
        assert writer.flushed == 50

    def test_put_after_stop_raises(self):
        writer = BatchingWriter(MemoryBackend(), WriterConfig())
        writer.stop()
        with pytest.raises(BackpressureError):
            writer.put(items(1))

    def test_drain_forces_partial_batch(self):
        backend = MemoryBackend()
        writer = BatchingWriter(
            backend, WriterConfig(max_batch=1_000, max_delay_ns=FOREVER_NS)
        )
        writer.put(items(1, 2))
        assert writer.drain()
        assert backend.count(SID, 0, 100) == 2
        writer.stop()


POLL_NS = 1_000_000  # poll_interval_s=0.001 on the writer's clock


class TestIdleFlush:
    """The idle trigger on a :class:`SimClock`: a flush waits for one
    poll interval without a new put, or for the size or age cap.  The
    writer sees time only through the clock the test advances, so every
    outcome below is fixed however the writer thread is scheduled."""

    def make(self, max_batch=1_000, max_delay_ns=NS_PER_SEC, writers=1):
        backend, clock = MemoryBackend(), SimClock(0)
        config = WriterConfig(
            max_batch=max_batch, max_delay_ns=max_delay_ns, writers=writers, poll_interval_s=0.001
        )
        return BatchingWriter(backend, config, clock=clock), backend, clock

    def flushes(self, writer):
        return writer.metrics.value("dcdb_writer_flushes_total")

    def test_lone_put_flushes_after_one_quiet_poll_interval(self):
        writer, backend, clock = self.make()
        writer.put(items(1, 2, 3))
        clock.advance(POLL_NS - 1)
        assert writer.depth == 3
        clock.advance(1)  # 1 ms quiet, 999 ms before the age cap
        assert wait_for(lambda: writer.flushed == 3)
        assert self.flushes(writer) == 1 and backend.count(SID, 0, 100) == 3
        writer.stop()

    def test_puts_closer_than_the_interval_coalesce_up_to_max_batch(self):
        writer, _backend, clock = self.make(max_batch=100)
        for i in range(10):
            writer.put(items(*range(10), base_ts=10 * i))
            if i < 9:
                assert writer.depth == 10 * (i + 1)
            clock.advance(POLL_NS // 2)
        assert wait_for(lambda: writer.flushed == 100)
        assert self.flushes(writer) == 1
        writer.stop()

    def test_age_cap_fires_under_continuous_arrivals(self):
        writer, _backend, clock = self.make(max_delay_ns=5 * POLL_NS)
        for i in range(10):
            writer.put(items(i, base_ts=i))
            clock.advance(POLL_NS // 2)
        # The queue was never quiet for a whole interval; the oldest
        # put has now waited max_delay_ns, so all ten flush together.
        assert wait_for(lambda: writer.flushed == 10)
        assert self.flushes(writer) == 1
        writer.put(items(99, base_ts=99))
        assert writer.depth == 1
        writer.stop()

    def test_synchronous_writer_ignores_the_clock(self):
        writer, backend, _clock = self.make(writers=0)
        for i in range(3):
            writer.put(items(i, i, base_ts=2 * i))
            assert writer.flushed == 2 * (i + 1) and writer.depth == 0
        assert self.flushes(writer) == 3 and backend.count(SID, 0, 100) == 6
        writer.stop()

    def test_wait_idle_times_out_while_a_flush_is_stuck(self):
        backend = BlockingBackend()
        writer = BatchingWriter(backend, WriterConfig(max_delay_ns=0))
        writer.put(items(1))
        assert backend.entered.wait(timeout=5.0)
        assert not writer.wait_idle(timeout=0.05)
        threading.Timer(0.05, backend.release.set).start()
        assert writer.wait_idle(timeout=5.0)
        writer.stop()


class TestBackpressure:
    def make_blocked_writer(self, policy, capacity=10):
        backend = BlockingBackend()
        writer = BatchingWriter(
            backend,
            WriterConfig(
                max_batch=5,
                max_delay_ns=0,
                queue_capacity=capacity,
                policy=policy,
                poll_interval_s=0.001,
            ),
        )
        # Occupy the writer thread inside a flush, then fill the queue.
        writer.put(items(0))
        assert backend.entered.wait(timeout=5.0)
        return writer, backend

    def test_block_policy_waits_for_capacity(self):
        writer, backend = self.make_blocked_writer("block")
        writer.put(items(*range(10), base_ts=100))  # exactly at capacity
        unblocked = threading.Event()

        def producer():
            writer.put(items(99, base_ts=900))
            unblocked.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not unblocked.is_set(), "put returned despite a full queue"
        backend.release.set()
        assert unblocked.wait(timeout=5.0)
        writer.stop()
        thread.join(timeout=5.0)
        assert backend.count(SID, 0, 10_000) == 12
        assert writer.dropped == 0

    def test_drop_oldest_evicts_and_counts(self):
        writer, backend = self.make_blocked_writer("drop-oldest")
        writer.put(items(*range(10), base_ts=100))
        writer.put(items(7, 8, base_ts=900))  # evicts the 10-reading entry
        assert writer.dropped == 10
        backend.release.set()
        writer.stop()
        ts, _ = backend.query(SID, 0, 10_000)
        assert ts.tolist() == [0, 900, 901]  # in-flight + freshest survive

    def test_error_policy_raises_and_keeps_queue(self):
        writer, backend = self.make_blocked_writer("error")
        writer.put(items(*range(10), base_ts=100))
        with pytest.raises(BackpressureError):
            writer.put(items(5, base_ts=900))
        assert writer.dropped == 0
        backend.release.set()
        writer.stop()
        assert backend.count(SID, 0, 10_000) == 11

    def test_oversized_message_keeps_freshest_tail(self):
        backend = BlockingBackend()
        writer = BatchingWriter(
            backend,
            WriterConfig(
                max_batch=4, max_delay_ns=0, queue_capacity=4,
                policy="drop-oldest", poll_interval_s=0.001,
            ),
        )
        writer.put(items(0))
        assert backend.entered.wait(timeout=5.0)
        writer.put(items(*range(10), base_ts=100))
        assert writer.dropped == 6
        backend.release.set()
        writer.stop()
        ts, _ = backend.query(SID, 0, 10_000)
        assert ts.tolist() == [0, 106, 107, 108, 109]


class FailOnceRecordingBackend(MemoryBackend):
    """Fails the first insert_batch, then records every flushed batch."""

    def __init__(self):
        super().__init__()
        self.fail_first = True
        self.batches = []

    def insert_batch(self, batch):
        batch = list(batch)
        if self.fail_first:
            self.fail_first = False
            raise StorageError("injected flush failure")
        self.batches.append([item[1] for item in batch])
        return super().insert_batch(batch)


class TestFlushFailure:
    """A failed flush re-queues its batch instead of dropping it."""

    def make_writer(self, backend, policy="block", retries=4):
        return BatchingWriter(
            backend,
            WriterConfig(
                max_batch=5,
                max_delay_ns=0,
                queue_capacity=100,
                policy=policy,
                poll_interval_s=0.001,
                flush_retries=retries,
                retry_backoff_s=0.0,
            ),
        )

    @pytest.mark.parametrize("policy", ["block", "drop-oldest", "error"])
    def test_failed_flush_requeued_under_every_policy(self, policy):
        inner = MemoryBackend()
        backend = FaultyBackend(inner)
        backend.fail_next(1)
        writer = self.make_writer(backend, policy=policy)
        writer.put(items(*range(10)))
        assert wait_for(lambda: inner.count(SID, 0, 100) == 10)
        writer.stop()
        assert writer.requeued > 0
        assert writer.lost == 0
        assert writer.dropped == 0
        assert writer.status()["flushErrors"] == 1

    def test_requeue_preserves_reading_order(self):
        backend = FailOnceRecordingBackend()
        writer = self.make_writer(backend)
        writer.put(items(*range(5)))  # this flush fails and re-queues
        writer.put(items(*range(5), base_ts=100))
        assert wait_for(lambda: backend.count(SID, 0, 1000) == 10)
        writer.stop()
        flat = [t for batch in backend.batches for t in batch]
        # The re-queued batch goes back to the queue head: its readings
        # reach the backend before anything staged after the failure.
        assert flat[:5] == [0, 1, 2, 3, 4]

    def test_retries_exhausted_counts_lost(self):
        inner = MemoryBackend()
        backend = FaultyBackend(inner)
        backend.kill()
        writer = self.make_writer(backend, retries=2)
        writer.put(items(*range(5)))
        assert wait_for(lambda: writer.lost == 5)
        backend.restart()
        writer.stop()
        assert inner.count(SID, 0, 100) == 0  # abandoned after the cap
        assert writer.requeued == 2 * 5  # each retry re-stages the batch
        status = writer.status()
        assert status["lost"] == 5
        assert status["requeued"] == 10
        assert status["flushRetries"] == 2

    def test_drain_on_stop_survives_transient_failure(self):
        inner = MemoryBackend()
        backend = FaultyBackend(inner)
        writer = BatchingWriter(
            backend,
            WriterConfig(
                max_batch=1_000,
                max_delay_ns=FOREVER_NS,
                poll_interval_s=0.001,
                retry_backoff_s=0.0,
            ),
        )
        for i in range(50):
            writer.put(items(i, base_ts=i * 10))
        backend.fail_next(1)  # the shutdown flush itself fails once
        writer.stop()
        assert inner.count(SID, 0, 10_000) == 50
        assert writer.lost == 0


class TestWriterMetrics:
    def test_instrument_families_registered(self):
        writer = BatchingWriter(MemoryBackend(), WriterConfig())
        names = {
            "dcdb_writer_queue_depth",
            "dcdb_writer_queue_capacity",
            "dcdb_writer_batch_size",
            "dcdb_writer_flush_duration_seconds",
            "dcdb_writer_readings_dropped_total",
            "dcdb_writer_readings_enqueued_total",
            "dcdb_writer_readings_flushed_total",
            "dcdb_writer_flushes_total",
        }
        collected = {family.name for family in writer.metrics.collect()}
        assert names <= collected
        writer.stop()

    def test_batch_size_histogram_observes_coalesced_batches(self):
        backend = MemoryBackend()
        writer = BatchingWriter(
            backend, WriterConfig(max_batch=1_000, max_delay_ns=FOREVER_NS)
        )
        for i in range(20):
            writer.put(items(i, base_ts=i))
        writer.stop()
        # Drain coalesced all 20 staged messages into few flushes.
        flushes = writer.metrics.value("dcdb_writer_flushes_total")
        assert 1 <= flushes < 20
        hist = writer.metrics.get("dcdb_writer_batch_size")
        assert hist.percentile(0.99) > 1

    def test_status_document(self):
        writer = BatchingWriter(MemoryBackend(), WriterConfig(policy="drop-oldest"))
        writer.put(items(1, 2, 3))
        writer.drain()
        status = writer.status()
        assert status["policy"] == "drop-oldest"
        assert status["enqueued"] == 3
        assert status["flushed"] == 3
        assert status["queueDepth"] == 0
        writer.stop()


class TestConfigValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            WriterConfig(policy="panic")

    def test_capacity_below_batch_rejected(self):
        with pytest.raises(ConfigError):
            WriterConfig(max_batch=100, queue_capacity=10)

    def test_second_writer_thread_rejected(self):
        """Two flush threads break last-write-wins: while the first
        holds a flush of ``(sid, ts=5, value=1)`` inside
        ``insert_batch``, the second takes a later put of ``(sid, 5, 2)``
        and commits it first, so the older value lands last and the
        store keeps 1."""
        with pytest.raises(ConfigError, match="0 or 1"):
            WriterConfig(writers=2)


class TestAgentIntegration:
    def make_agent(self, **writer_kwargs):
        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(
            backend, broker=broker, writer_config=WriterConfig(**writer_kwargs)
        )
        client = MQTTClient("p", broker=broker)
        client.connect()
        return agent, backend, client

    def test_stop_drains_every_enqueued_reading(self):
        agent, backend, client = self.make_agent(
            max_batch=10_000, max_delay_ns=FOREVER_NS
        )
        for i in range(500):
            client.publish(f"/d/s{i % 20}", payload_mod.encode_reading(i * 1000, i))
        assert agent.readings_stored == 500
        agent.stop()
        stored = sum(backend.count(s, 0, 1 << 62) for s in backend.sids())
        assert stored == 500

    def test_cache_shows_a_reading_once_committed(self):
        agent, backend, client = self.make_agent(
            max_batch=10_000, max_delay_ns=FOREVER_NS
        )
        client.publish("/d/a", payload_mod.encode_reading(123, 7))
        # Staged, not yet written: the sensor cache is the store.
        assert agent.latest("/d/a") is None
        agent.stop()
        assert agent.latest("/d/a").value == 7
        sid = agent.sid_of("/d/a")
        assert backend.count(sid, 0, 1000) == 1

    def test_commit_hop_stamped_at_flush_completion(self):
        agent, backend, client = self.make_agent(
            max_batch=10_000, max_delay_ns=FOREVER_NS
        )
        client.publish("/d/a", payload_mod.encode_reading(1, 1))
        assert agent.metrics.value(
            "dcdb_pipeline_latency_seconds", {"hop": "insert"}
        ) == 1
        # commit only lands once the batch is flushed.
        assert agent.metrics.value(
            "dcdb_pipeline_latency_seconds", {"hop": "commit"}
        ) == 0
        agent.writer.drain()
        assert agent.metrics.value(
            "dcdb_pipeline_latency_seconds", {"hop": "commit"}
        ) == 1
        agent.stop()

    def test_status_includes_writer_block(self):
        agent, backend, client = self.make_agent()
        client.publish("/d/a", payload_mod.encode_reading(1, 1))
        agent.stop()
        status = agent.status()
        assert status["writer"]["enqueued"] == 1
        assert status["writer"]["flushed"] == 1
        assert status["writer"]["dropped"] == 0

    def test_synchronous_agent_status_has_zero_thread_writer(self):
        broker = MQTTBroker(port=None)
        agent = CollectAgent(MemoryBackend(), broker=broker)
        client = MQTTClient("p", broker=broker)
        client.connect()
        client.publish("/d/a", payload_mod.encode_reading(1, 1))
        writer = agent.status()["writer"]
        assert writer["writers"] == 0
        assert writer["running"] is True
        # Written before the publish returned: nothing staged or in flight.
        assert (writer["enqueued"], writer["flushed"], writer["flushes"]) == (1, 1, 1)
        assert (writer["queueDepth"], writer["inFlight"]) == (0, 0)
        agent.stop()
        assert agent.status()["writer"]["running"] is False


class TestZeroThreadWriter:
    """``writers=0``: the synchronous agent writes through the writer's
    own flush routine, so a failed write is kept and retried, not lost."""

    def make_agent(self):
        broker = MQTTBroker(port=None)
        inner = MemoryBackend()
        backend = FaultyBackend(inner)
        agent = CollectAgent(backend, broker=broker)
        client = MQTTClient("p", broker=broker)
        client.connect()
        # Map the topic up front, so the armed failure hits the write
        # rather than the topic's first metadata put.
        sid = agent.sid_mapper.sid_for_topic("/d/a")
        return agent, inner, backend, client, sid

    def test_failed_write_is_retried_by_the_next_publish(self):
        agent, inner, backend, client, sid = self.make_agent()
        backend.fail_next(1)
        client.publish("/d/a", payload_mod.encode_reading(100, 1))  # A: fails
        assert inner.count(sid, 0, 1000) == 0
        client.publish("/d/a", payload_mod.encode_reading(200, 2))  # B
        ts, values = inner.query(sid, 0, 1000)
        assert ts.tolist() == [100, 200]
        assert values.tolist() == [1, 2]
        assert agent.writer.lost == 0
        assert agent.metrics.value("dcdb_writer_flush_errors_total") == 1
        agent.stop()

    def test_failed_last_write_is_recovered_by_stop(self):
        agent, inner, backend, client, sid = self.make_agent()
        client.publish("/d/a", payload_mod.encode_reading(100, 1))
        backend.fail_next(1)
        client.publish("/d/a", payload_mod.encode_reading(200, 2))  # fails
        assert inner.count(sid, 0, 1000) == 1
        # A failed write waiting for its retry leaves the agent healthy.
        healthy, detail = agent.health()["writer"]
        assert healthy and detail["queueDepth"] == 1
        agent.stop()
        assert inner.query(sid, 0, 1000)[0].tolist() == [100, 200]
        assert agent.writer.lost == 0
        assert agent.metrics.value("dcdb_writer_flush_errors_total") == 1

    def test_health_route_reports_zero_thread_writer_healthy(self):
        from repro.common.httpjson import http_json
        from repro.core.collectagent.restapi import CollectAgentRestApi

        agent, inner, backend, client, sid = self.make_agent()
        client.publish("/d/a", payload_mod.encode_reading(100, 1))
        with CollectAgentRestApi(agent) as api:
            status, doc = http_json("GET", f"http://127.0.0.1:{api.port}/health")
        agent.stop()
        assert status == 200
        assert doc["components"]["writer"]["healthy"] is True

    def test_retries_exhausted_counts_lost(self):
        backend = FaultyBackend(MemoryBackend())
        writer = BatchingWriter(backend, WriterConfig(writers=0, flush_retries=2))
        backend.kill()
        writer.put(items(1))
        assert writer.depth == 1 and writer.lost == 0
        writer.drain()
        assert writer.lost == 1
        assert writer.requeued == 2
        assert writer.depth == 0

    def test_concurrent_publishers_through_flaky_backend_lose_nothing(self):
        inner = MemoryBackend()
        backend = FaultyBackend(inner, plan=FaultPlan(3), fault_rate=0.2)
        writer = BatchingWriter(backend, WriterConfig(writers=0, flush_retries=1000))
        producers, per_producer = 8, 150

        def produce(k):
            for i in range(per_producer):
                writer.put(ReadingBatch.from_items([(SID, k * per_producer + i, i, 0)]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce, args=(k,)) for k in range(producers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert writer.drain()
        total = producers * per_producer
        status = writer.status()
        assert backend.faults_injected > 0
        assert status["enqueued"] == status["flushed"] == total
        assert (status["queueDepth"], status["inFlight"], status["lost"]) == (0, 0, 0)
        assert inner.count(SID, 0, total) == total

    def test_full_queue_raises_instead_of_blocking(self):
        backend = FaultyBackend(MemoryBackend())
        writer = BatchingWriter(
            backend, WriterConfig(writers=0, max_batch=2, queue_capacity=2, policy="block")
        )
        backend.kill()
        writer.put(items(1, 2))  # fails and stays staged: the queue is full
        with pytest.raises(BackpressureError):
            writer.put(items(3))
