"""Edge cases of the batching writer (ingest staging).

The writer has no thread of its own: a put on its event loop leaves the
flush to a loop timer, any other put flushes before it returns.  These
tests drive the loop path with :class:`SteppedLoop` and a
:class:`SimClock`, so every outcome is fixed by the test's own steps.
"""

import threading

import pytest

from repro.common.errors import ConfigError, StorageError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core import payload as payload_mod
from repro.core.collectagent import BatchingWriter, CollectAgent, WriterConfig
from repro.core.collectagent.writer import Acks
from repro.core.sensor import SensorReading
from repro.core.sid import SensorId
from repro.faults import FaultPlan, FaultyBackend
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.packets import Publish
from repro.storage import MemoryBackend, ReadingBatch

SID = SensorId.from_codes([1, 2, 3])
FOREVER_NS = 3600 * NS_PER_SEC
POLL_NS = 1_000_000  # poll_interval_s=0.001 on the writer's clock


def items(*values, base_ts=0):
    return ReadingBatch.from_items([(SID, base_ts + i, v, 0) for i, v in enumerate(values)])


class SteppedTimer:
    def __init__(self, timers, delay_s, callback):
        self.timers, self.delay_s, self.callback = timers, delay_s, callback

    def cancel(self):
        self.timers.remove(self)


class SteppedLoop:
    """The writer's event loop, stepped by the test: every caller is on
    the loop thread, and ``call_later`` only records the timer, which
    :meth:`fire` runs (the writer arms at most one)."""

    def __init__(self):
        self.timers = []

    def on_loop_thread(self):
        return True

    def call_later(self, delay_s, callback):
        self.timers.append(SteppedTimer(self.timers, delay_s, callback))
        return self.timers[-1]

    @property
    def delay_ns(self):
        """The armed timer's delay on the writer's clock."""
        (timer,) = self.timers
        return round(timer.delay_s * 1e9)

    def fire(self):
        self.timers.pop(0).callback()


def loop_writer(backend=None, clock=None, **config):
    """A writer on a :class:`SteppedLoop` and a SimClock at 0."""
    config.setdefault("poll_interval_s", 0.001)
    clock = clock if clock is not None else SimClock(0)
    loop = SteppedLoop()
    writer = BatchingWriter(
        backend if backend is not None else MemoryBackend(),
        WriterConfig(**config),
        clock=clock,
        loop=loop,
    )
    return writer, loop, clock


def flushes(writer):
    return writer.metrics.value("dcdb_writer_flushes_total")


class BlockingBackend(MemoryBackend):
    """A backend whose first insert_batch parks until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def insert_batch(self, batch):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0), "test never released the backend"
        return super().insert_batch(batch)


class TestFlushTriggers:
    def test_flush_by_size(self):
        writer, loop, _ = loop_writer(max_batch=10, max_delay_ns=FOREVER_NS)
        writer.put(items(*range(9)))
        assert writer.flushed == 0
        writer.put(items(9, base_ts=9))  # the size trigger flushes inside put
        assert writer.flushed == 10 and writer.depth == 0
        assert writer.backend.count(SID, 0, 100) == 10

    def test_no_flush_below_size_and_age(self):
        writer, loop, _ = loop_writer(max_batch=100, max_delay_ns=NS_PER_SEC)
        writer.put(items(1, 2, 3))
        for _ in range(50):  # many timer turns; the sim clock never moves
            loop.fire()
        assert writer.backend.count(SID, 0, 100) == 0
        assert writer.depth == 3
        writer.stop()
        assert writer.flushed == 3

    def test_flush_by_age_with_simclock(self):
        writer, loop, clock = loop_writer(max_batch=100, max_delay_ns=NS_PER_SEC, poll_interval_s=10.0)
        writer.put(items(1, 2, 3))
        assert loop.delay_ns == NS_PER_SEC  # armed at the age deadline
        clock.advance(2 * NS_PER_SEC)  # oldest entry is now over-age
        loop.fire()
        assert writer.backend.count(SID, 0, 100) == 3
        assert not loop.timers  # nothing staged, nothing armed

    def test_drain_on_stop_persists_everything(self):
        writer, _, _ = loop_writer(max_batch=1_000, max_delay_ns=FOREVER_NS)
        for i in range(50):
            writer.put(items(i, base_ts=i * 10))
        assert writer.flushed == 0
        writer.stop()
        assert writer.backend.count(SID, 0, 10_000) == 50
        assert writer.flushed == 50

    def test_put_after_stop_raises(self):
        writer = BatchingWriter(MemoryBackend(), WriterConfig())
        writer.stop()
        acks = Acks(writer)
        with pytest.raises(StorageError):
            writer.put(items(1), acks=acks)
        sent = []
        acks(lambda: sent.append("puback"))
        assert writer.status()["enqueued"] == 0 and not sent  # refused: never acked

    def test_drain_forces_partial_batch(self):
        writer, _, _ = loop_writer(max_batch=1_000, max_delay_ns=FOREVER_NS)
        writer.put(items(1, 2))
        assert writer.drain()
        assert writer.backend.count(SID, 0, 100) == 2


class TestIdleFlush:
    """The idle trigger on a :class:`SimClock`: a flush waits for one
    poll interval without a new put, or for the size or age cap."""

    def test_lone_put_flushes_after_one_quiet_poll_interval(self):
        writer, loop, clock = loop_writer(max_delay_ns=NS_PER_SEC)
        writer.put(items(1, 2, 3))
        assert loop.delay_ns == POLL_NS  # armed at the idle deadline
        clock.advance(POLL_NS - 1)
        loop.fire()
        assert writer.depth == 3
        clock.advance(1)  # 1 ms quiet, 999 ms before the age cap
        loop.fire()
        assert writer.flushed == 3
        assert flushes(writer) == 1 and writer.backend.count(SID, 0, 100) == 3

    def test_puts_closer_than_the_interval_coalesce_up_to_max_batch(self):
        writer, loop, clock = loop_writer(max_batch=100, max_delay_ns=NS_PER_SEC)
        for i in range(10):
            writer.put(items(*range(10), base_ts=10 * i))
            if i < 9:
                assert writer.depth == 10 * (i + 1)
                clock.advance(POLL_NS // 2)
                loop.fire()
        assert writer.flushed == 100
        assert flushes(writer) == 1

    def test_age_cap_fires_under_continuous_arrivals(self):
        writer, loop, clock = loop_writer(max_delay_ns=5 * POLL_NS)
        for i in range(10):
            writer.put(items(i, base_ts=i))
            clock.advance(POLL_NS // 2)
            loop.fire()
        # The queue was never quiet for a whole interval; the oldest
        # put has now waited max_delay_ns, so all ten flush together.
        assert writer.flushed == 10
        assert flushes(writer) == 1
        writer.put(items(99, base_ts=99))
        assert writer.depth == 1

    def test_synchronous_writer_ignores_the_clock(self):
        """Without a loop (or off its thread) every put writes before
        it returns."""
        clock = SimClock(0)
        writer = BatchingWriter(MemoryBackend(), WriterConfig(poll_interval_s=0.001), clock=clock)
        for i in range(3):
            writer.put(items(i, i, base_ts=2 * i))
            assert writer.flushed == 2 * (i + 1) and writer.depth == 0
        assert flushes(writer) == 3 and writer.backend.count(SID, 0, 100) == 6

    def test_failed_flush_rearms_after_the_backoff(self):
        backend = FaultyBackend(MemoryBackend())
        writer, loop, clock = loop_writer(backend, retry_backoff_s=0.004)
        writer.put(items(1))
        backend.fail_next(1)
        clock.advance(POLL_NS)
        loop.fire()
        assert writer.depth == 1 and writer.requeued == 1
        assert loop.delay_ns == 4_000_000  # re-armed after the pause, not the poll
        loop.fire()
        assert writer.flushed == 1 and not loop.timers

    def test_a_put_holding_acks_flushes_at_the_end_of_the_turn(self):
        """A put with acks (a QoS 1 read) re-arms the timer at 0,
        replacing the idle timer of the put before it; the flush needs
        no trigger to be due."""
        writer, loop, _ = loop_writer(max_delay_ns=NS_PER_SEC)
        writer.put(items(1))
        assert loop.delay_ns == POLL_NS
        acks, sent = Acks(writer), []
        writer.put(items(2, base_ts=1), acks=acks)
        acks(lambda: sent.append("puback"))
        assert loop.delay_ns == 0 and not sent
        writer.put(items(3, base_ts=2), acks=Acks(writer))
        assert loop.delay_ns == 0  # still the one timer
        loop.fire()  # the sim clock never moved
        assert writer.flushed == 3 and sent == ["puback"] and not loop.timers

    def test_held_acks_wait_for_the_retry_pause(self):
        """Against a failing backend a put with acks does not pre-empt
        the retry pause: the paced retry flushes it, and each pause
        costs the head entry one attempt."""
        backend = FaultyBackend(MemoryBackend())
        writer, loop, _ = loop_writer(backend, retry_backoff_s=0.004, max_delay_ns=NS_PER_SEC)
        backend.kill()
        writer.put(items(1), acks=Acks(writer))
        assert loop.delay_ns == 0
        loop.fire()  # the flush fails
        assert writer.requeued == 1 and loop.delay_ns == 4_000_000
        acks, sent = Acks(writer), []
        writer.put(items(2, base_ts=1), acks=acks)
        acks(lambda: sent.append("puback"))
        assert loop.delay_ns == 4_000_000  # still the retry pause
        assert [entry[2] for entry in writer._entries] == [1, 0]
        backend.restart()
        loop.fire()  # the sim clock never moved: the retry flushes anyway
        assert writer.flushed == 2 and sent == ["puback"] and not loop.timers

    def test_held_acks_after_a_failed_size_flush_wait_for_the_pause(self):
        backend = FaultyBackend(MemoryBackend())
        writer, loop, _ = loop_writer(backend, max_batch=1, retry_backoff_s=0.004)
        backend.kill()
        writer.put(items(1), acks=Acks(writer))  # the size trigger's flush fails
        assert writer.requeued == 1 and loop.delay_ns == 4_000_000

    def test_wait_idle_times_out_while_a_flush_is_stuck(self):
        backend = BlockingBackend()
        writer = BatchingWriter(backend, WriterConfig())
        producer = threading.Thread(target=writer.put, args=(items(1),))
        producer.start()
        assert backend.entered.wait(timeout=5.0)
        assert not writer.wait_idle(timeout=0.05)
        threading.Timer(0.05, backend.release.set).start()
        assert writer.wait_idle(timeout=5.0)
        producer.join(timeout=5.0)


class TestFlushOrder:
    def test_flushes_keep_staging_order_across_publishing_threads(self):
        """Two Pushers publish ``(sid, 10)``: 1, then 2.  While the
        flush of 1 is held inside ``insert_batch``, the flush of 2 must
        wait for it, or the older value lands last and last-write-wins
        keeps 1."""
        backend = BlockingBackend()
        broker = MQTTBroker(port=None)
        agent = CollectAgent(backend, broker=broker)
        sid = agent.sid_mapper.sid_for_topic("/d/a")
        first, second = MQTTClient("a", broker=broker), MQTTClient("b", broker=broker)
        first.connect()
        second.connect()
        older = threading.Thread(
            target=first.publish, args=("/d/a", payload_mod.encode_reading(10, 1))
        )
        older.start()
        assert backend.entered.wait(timeout=5.0)
        threading.Timer(0.1, backend.release.set).start()
        second.publish("/d/a", payload_mod.encode_reading(10, 2))
        older.join(timeout=5.0)
        assert backend.query(sid, 0, 100)[1].tolist() == [2]
        agent.stop()


class TestBackpressure:
    def test_block_policy_waits_for_capacity(self):
        """``block`` makes room by flushing on the putting thread."""
        writer, loop, _ = loop_writer(max_batch=5, max_delay_ns=FOREVER_NS, queue_capacity=10)
        writer.put(items(*range(4)))  # staged: below max_batch
        writer.put(items(*range(8), base_ts=100))  # 4 + 8 > 10: flush, then stage
        assert writer.lost == 0
        assert writer.backend.count(SID, 0, 10_000) == 12  # and 8 >= max_batch flushed
        assert flushes(writer) == 2

    def test_block_loses_only_past_flush_retries(self):
        backend = FaultyBackend(MemoryBackend())
        backend.kill()
        writer, loop, _ = loop_writer(
            backend, max_batch=5, max_delay_ns=FOREVER_NS, queue_capacity=10,
            flush_retries=1, retry_backoff_s=0.0,
        )
        writer.put(items(*range(4)))
        writer.put(items(*range(8), base_ts=100))
        # The first entry failed twice and was abandoned to make room.
        assert writer.lost == 4 and writer.depth == 8

    def test_oversized_message_is_stored_whole(self):
        """A message larger than the whole queue waits for it to empty,
        then is staged whole and written within the same put."""
        writer, _, _ = loop_writer(max_batch=4, queue_capacity=4, max_delay_ns=FOREVER_NS)
        writer.put(items(0))
        writer.put(items(*range(10), base_ts=100))
        assert writer.depth == 0 and writer.lost == 0
        assert writer.status()["queueHighWatermark"] == 10
        ts, _ = writer.backend.query(SID, 0, 10_000)
        assert ts.tolist() == [0, *range(100, 110)]


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

    def make_writer(self, backend, retries=4):
        return BatchingWriter(
            backend,
            WriterConfig(
                max_batch=5,
                max_delay_ns=0,
                queue_capacity=100,
                flush_retries=retries,
                retry_backoff_s=0.0,
            ),
        )

    def test_failed_flush_is_requeued(self):
        inner = MemoryBackend()
        backend = FaultyBackend(inner)
        backend.fail_next(1)
        writer = self.make_writer(backend)
        writer.put(items(*range(10)))  # fails: stays staged for the next flush
        assert inner.count(SID, 0, 100) == 0 and writer.depth == 10
        writer.stop()
        assert inner.count(SID, 0, 100) == 10
        assert writer.requeued > 0
        assert writer.lost == 0
        assert writer.status()["flushErrors"] == 1

    def test_requeue_preserves_reading_order(self):
        backend = FailOnceRecordingBackend()
        writer = self.make_writer(backend)
        writer.put(items(*range(5)))  # this flush fails and re-queues
        writer.put(items(*range(5), base_ts=100))
        assert backend.count(SID, 0, 1000) == 10
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
        writer.drain()
        assert writer.lost == 5
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
        writer, _, _ = loop_writer(backend, max_batch=1_000, max_delay_ns=FOREVER_NS, retry_backoff_s=0.0)
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
            "dcdb_writer_readings_enqueued_total",
            "dcdb_writer_readings_flushed_total",
            "dcdb_writer_flushes_total",
        }
        collected = {family.name for family in writer.metrics.collect()}
        assert names <= collected

    def test_batch_size_histogram_observes_coalesced_batches(self):
        writer, _, _ = loop_writer(max_batch=1_000, max_delay_ns=FOREVER_NS)
        for i in range(20):
            writer.put(items(i, base_ts=i))
        writer.stop()
        # Drain coalesced all 20 staged messages into one flush.
        assert writer.metrics.value("dcdb_writer_flushes_total") == 1
        hist = writer.metrics.get("dcdb_writer_batch_size")
        assert hist.percentile(0.99) > 1

    def test_status_document(self):
        writer = BatchingWriter(MemoryBackend(), WriterConfig())
        writer.put(items(1, 2, 3))
        writer.drain()
        status = writer.status()
        assert status["slowFlushSeconds"] == 1.0
        assert status["enqueued"] == 3
        assert status["flushed"] == 3
        assert status["queueDepth"] == 0
        assert not {"writers", "policy", "dropped"} & set(status)


class TestConfigValidation:
    def test_capacity_below_batch_rejected(self):
        with pytest.raises(ConfigError):
            WriterConfig(max_batch=100, queue_capacity=10)


class TestAgentIntegration:
    def make_agent(self, backend=None, **writer_kwargs):
        """An agent on a memory broker whose writer runs on a stepped
        loop, as if the publishes arrived on the broker's loop."""
        broker = MQTTBroker(port=None)
        backend = backend if backend is not None else MemoryBackend()
        agent = CollectAgent(
            backend, broker=broker, writer_config=WriterConfig(**writer_kwargs)
        )
        agent.writer.loop = SteppedLoop()
        client = MQTTClient("p", broker=broker)
        client.connect()
        return agent, backend, client

    def test_stop_drains_every_enqueued_reading(self):
        agent, backend, client = self.make_agent(
            max_batch=10_000, max_delay_ns=FOREVER_NS
        )
        for i in range(500):
            client.publish(f"/d/s{i % 20}", payload_mod.encode_reading(i * 1000, i))
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 500
        assert agent.writer.flushed == 0
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

    def test_qos1_puback_waits_for_the_commit(self):
        agent, backend, client = self.make_agent(max_batch=10_000, max_delay_ns=FOREVER_NS)
        client.publish("/d/a", payload_mod.encode_reading(1, 1), qos=1)
        client.publish("/d/b", payload_mod.encode_reading(1, 2), qos=1)
        assert len(client._inflight) == 2  # staged, not committed: no PUBACK
        agent.writer.drain()
        assert len(client._inflight) == 0

    def test_qos1_read_flushes_at_the_end_of_the_loop_turn(self):
        """Only a read with a QoS 1 message holds acks, and it flushes
        when the loop turn ends instead of at the idle deadline."""
        agent, backend, client = self.make_agent(
            max_batch=10_000, max_delay_ns=FOREVER_NS, poll_interval_s=3600.0
        )
        loop = agent.writer.loop
        assert agent._on_publish("p", [Publish("/d/a", payload_mod.encode_reading(1, 1))]) is None
        (timer,) = loop.timers
        assert timer.delay_s > 3000  # a QoS 0 read waits for the idle deadline
        client.publish("/d/b", payload_mod.encode_reading(1, 2), qos=1)
        assert loop.delay_ns == 0 and len(client._inflight) == 1
        loop.fire()
        assert agent.writer.flushed == 2 and not client._inflight
        agent.stop()

    def test_oversized_qos1_message_is_stored_whole_then_acked(self):
        """A message larger than the queue is staged whole; its PUBACK
        waits for the flush that commits all of it."""
        agent, backend, client = self.make_agent(
            FaultyBackend(MemoryBackend()),
            max_batch=8, queue_capacity=8, max_delay_ns=FOREVER_NS, retry_backoff_s=0.0,
        )
        sid = agent.sid_mapper.sid_for_topic("/d/a")
        backend.kill()
        readings = [SensorReading(t, t) for t in range(10)]
        client.publish("/d/a", payload_mod.encode_readings(readings), qos=1)
        assert len(client._inflight) == 1  # its flush failed: no PUBACK
        backend.restart()
        agent.writer.loop.fire()
        assert backend.count(sid, 0, 100) == 10 and not client._inflight
        agent.stop()

    def test_qos1_puback_of_a_lost_read_is_never_sent(self):
        broker = MQTTBroker(port=None)
        backend = FaultyBackend(MemoryBackend())
        agent = CollectAgent(
            backend, broker=broker, writer_config=WriterConfig(flush_retries=0, retry_backoff_s=0.0)
        )
        client = MQTTClient("p", broker=broker)
        client.connect()
        agent.sid_mapper.sid_for_topic("/d/a")
        backend.fail_next(1)
        client.publish("/d/a", payload_mod.encode_reading(1, 1), qos=1)  # fails once: lost
        assert agent.writer.lost == 1
        client.publish("/d/a", payload_mod.encode_reading(2, 2), qos=1)  # committed
        assert list(client._inflight) == [1]  # only the lost message waits
        agent.stop()

    def test_qos1_read_after_the_writer_stopped_is_refused_not_acked(self, caplog):
        agent, backend, client = self.make_agent()
        agent.writer.stop()
        client.publish("/d/a", payload_mod.encode_reading(1, 1), qos=1)
        assert len(client._inflight) == 1 and agent.writer.status()["enqueued"] == 0
        assert "refused" in caplog.text
        agent.stop()

    def test_metadata_only_read_is_acked_at_once(self):
        agent, backend, client = self.make_agent(max_batch=10_000, max_delay_ns=FOREVER_NS)
        client.publish("/d/a", payload_mod.encode_reading(1, 1), qos=1)
        doc = '{"topic": "/d/a", "unit": "W"}'
        client.publish(CollectAgent.METADATA_PREFIX + "/d/a", doc.encode(), qos=1)
        assert len(client._inflight) == 1  # the reading still waits for its flush
        agent.stop()

    def test_status_includes_writer_block(self):
        agent, backend, client = self.make_agent()
        client.publish("/d/a", payload_mod.encode_reading(1, 1))
        agent.stop()
        status = agent.status()
        assert status["writer"]["enqueued"] == 1
        assert status["writer"]["flushed"] == 1

    def test_synchronous_agent_status_has_zero_thread_writer(self):
        """A broker without a loop thread: the agent writes each read
        before the publish returns."""
        broker = MQTTBroker(port=None)
        agent = CollectAgent(MemoryBackend(), broker=broker)
        client = MQTTClient("p", broker=broker)
        client.connect()
        client.publish("/d/a", payload_mod.encode_reading(1, 1))
        writer = agent.status()["writer"]
        assert writer["running"] is True
        # Written before the publish returned: nothing staged or in flight.
        assert (writer["enqueued"], writer["flushed"], writer["flushes"]) == (1, 1, 1)
        assert (writer["queueDepth"], writer["inFlight"]) == (0, 0)
        agent.stop()
        assert agent.status()["writer"]["running"] is False


class RecordingThreads(MemoryBackend):
    """Records the thread of every insert_batch."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def insert_batch(self, batch):
        self.threads.append(threading.current_thread().name)
        return super().insert_batch(batch)


def test_tcp_agent_flushes_on_the_broker_loop():
    """Over TCP the flush runs on the broker's event loop thread, and
    the QoS 1 PUBACK follows it; no writer thread is started."""
    backend = RecordingThreads()
    agent = CollectAgent(backend, port=0)
    agent.start()
    try:
        client = MQTTClient("p", port=agent.port)
        client.connect()
        client.publish("/d/a", payload_mod.encode_reading(1, 1), qos=1, wait_ack=True)
        client.disconnect()
        assert backend.threads == [f"mqtt-broker-{agent.port}"]
        assert not any(t.name.startswith("dcdb-writer") for t in threading.enumerate())
    finally:
        agent.stop()


class TestZeroThreadWriter:
    """A broker without a loop thread: the agent writes through the
    writer's own flush routine, so a failed write is kept and retried,
    not lost."""

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
        writer = BatchingWriter(backend, WriterConfig(flush_retries=2))
        backend.kill()
        writer.put(items(1))
        assert writer.depth == 1 and writer.lost == 0
        writer.drain()
        assert writer.lost == 1
        assert writer.requeued == 2
        assert writer.depth == 0

    def test_concurrent_publishers_through_flaky_backend_lose_nothing(self):
        import sys

        inner = MemoryBackend()
        backend = FaultyBackend(inner, plan=FaultPlan(3), fault_rate=0.2)
        writer = BatchingWriter(backend, WriterConfig(flush_retries=1000))
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

    def test_full_queue_blocks_by_flushing_on_the_caller(self):
        backend = FaultyBackend(MemoryBackend())
        writer = BatchingWriter(
            backend,
            WriterConfig(
                max_batch=2, queue_capacity=2,
                flush_retries=1, retry_backoff_s=0.0,
            ),
        )
        backend.kill()
        writer.put(items(1, 2))  # fails and stays staged: the queue is full
        writer.put(items(3, base_ts=2))  # flushes until it fits: 1, 2 lost
        assert (writer.lost, writer.depth) == (2, 1)
        backend.restart()
        writer.drain()
        assert backend.query(SID, 0, 100)[0].tolist() == [2]
