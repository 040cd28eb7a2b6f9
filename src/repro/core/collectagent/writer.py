"""The Collect Agent's one ingest path: staged, batched writes.

The paper's Collect Agent sustains millions of inserts per second
because readings are staged and written to Cassandra in large
asynchronous batches (section 5.3, Figure 8) instead of one storage
round-trip per MQTT message.  :class:`BatchingWriter` reproduces that
for any :class:`~repro.storage.backend.StorageBackend` with no thread
of its own: one flush routine runs on whichever thread delivered the
data.  A put on the writer's event loop (the agent's broker loop)
flushes at once only on the **size** trigger and otherwise leaves the
flush to one loop timer, armed at the **idle** or **age** deadline (see
:class:`WriterConfig`); any other put flushes before it returns, and
:meth:`~BatchingWriter.drain` and :meth:`~BatchingWriter.stop` flush
on the caller, so a clean shutdown loses no accepted reading.

One flush runs at a time (the flush lock is held from taking entries
to ``commit_durable``), so flushes leave in staging order and
last-write-wins keeps the newer of two values of a
``(sensor, timestamp)``.  A failed flush re-queues its entries at the
head of the queue, retried up to ``flush_retries`` times after a
capped-exponential pause, so transient storage faults cost latency,
not data.  A put may carry :class:`Acks` (the agent's QoS 1 PUBACKs),
sent once everything the put staged has committed; on the loop such a
put flushes at the end of the loop turn rather than at the idle
deadline.

When the queue is full, ``put()`` blocks: it flushes on its own thread
until the message fits (on the broker loop that stops socket reads:
TCP flow control back to the Pushers).  A message larger than the
whole queue is admitted whole once the queue is empty and flushed
within the same put.  So an accepted reading is lost only past
``flush_retries``, and a PUBACK never covers an unstored reading.

A traced message's ``commit`` hop is recorded at flush completion,
when the batch is durable in the backend, not when it was enqueued.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigError, StorageError
from repro.observability import MetricsRegistry
from repro.observability.spans import trace_context
from repro.storage.backend import ReadingBatch, StorageBackend

logger = logging.getLogger(__name__)

__all__ = ["Acks", "BATCH_SIZE_BUCKETS", "BatchingWriter", "WriterConfig"]

#: Flushes slower than this (wall seconds) are logged at WARNING with
#: their trace ID and batch size.
SLOW_FLUSH_S = 1.0

#: Readings-per-flush histogram buckets (1 .. 50k readings).
BATCH_SIZE_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0,
)


@dataclass(frozen=True, slots=True)
class WriterConfig:
    """Tuning knobs of the batched ingest path.

    ``max_batch``
        size trigger: flush once this many readings are staged.
    ``max_delay_ns``
        age trigger: flush once the oldest staged reading is this old
        on the writer's clock (caps visibility lag under a stream).
    ``queue_capacity``
        bound on staged readings; beyond it ``put()`` blocks until a
        flush makes room.
    ``poll_interval_s``
        idle trigger: flush once nothing new was staged for this long
        on the writer's clock.  The loop timer waits at most this long,
        so an injected :class:`~repro.common.timeutil.SimClock` drives
        both timed triggers.
    ``flush_retries``
        retries of a failed batch before its readings are abandoned
        (``dcdb_writer_readings_lost_total``), so
        :meth:`BatchingWriter.stop` ends against a dead backend.
    ``retry_backoff_s``
        base of the capped exponential pause after a failed flush.
    """

    max_batch: int = 4096
    max_delay_ns: int = 50_000_000  # 50 ms
    queue_capacity: int = 65_536
    poll_interval_s: float = 0.005
    flush_retries: int = 4
    retry_backoff_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ns < 0:
            raise ConfigError(f"max_delay_ns must be >= 0, got {self.max_delay_ns}")
        if self.queue_capacity < self.max_batch:
            raise ConfigError(
                f"queue_capacity ({self.queue_capacity}) must be >= "
                f"max_batch ({self.max_batch})"
            )
        if self.poll_interval_s <= 0:
            raise ConfigError("poll_interval_s must be positive")
        if self.flush_retries < 0:
            raise ConfigError(f"flush_retries must be >= 0, got {self.flush_retries}")
        if self.retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")


class Acks:
    """Sends one put holds back (the agent's QoS 1 PUBACKs): called
    with a send, it runs it once every entry the put staged has
    committed (at once if none is left), never if one was lost."""

    __slots__ = ("_lock", "pending", "sends")

    def __init__(self, writer: "BatchingWriter") -> None:
        self._lock = writer._lock
        self.pending: int | None = 0  # entries not yet committed; None once one is lost
        self.sends: list = []

    def __call__(self, send) -> None:
        with self._lock:
            if self.pending != 0:
                if self.pending:
                    self.sends.append(send)
                return
        send()


class BatchingWriter:
    """Bounded staging queue in front of a backend, flushed on the
    thread that delivered the data.

    ``loop`` is where flushes are left to: any object with
    ``call_later(delay_s, callback)`` and ``on_loop_thread()`` (the
    agent passes its broker, which answers for the loop it runs now).
    Without one every put flushes before it returns.  Queue entries are
    the agent's :class:`ReadingBatch` es, one run per message; a flush
    concatenates them only when it spans several.
    """

    def __init__(
        self,
        backend: StorageBackend,
        config: WriterConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock=None,
        tracer=None,
        rollup=None,
        loop=None,
    ) -> None:
        from repro.common.timeutil import now_ns

        self.backend = backend
        # Continuous-aggregation hook (a RollupEngine): observes every
        # batch AFTER insert_batch succeeded, so rollups are derived
        # only from readings that are durably in the backend.
        self.rollup = rollup
        self.config = config if config is not None else WriterConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.loop = loop
        self._clock = clock if clock is not None else now_ns
        self._idle_ns = int(self.config.poll_interval_s * 1e9)
        # Entries are (batch, enqueued_ns, flush_attempts, traces, acks),
        # with traces a list of (run, trace_id, origin_ns) for the
        # entry's traced messages and acks the put's Acks or None.
        # attempts > 0 marks a batch re-queued after a failed flush; it
        # keeps its place at the queue head so the original arrival
        # order is preserved across retries.
        self._entries: deque[tuple[ReadingBatch, int, int, list, Acks | None]] = deque()
        self._depth = 0  # readings staged (not yet taken by a flush)
        self._inflight = 0  # readings taken but not yet durable
        self._stopping = False
        self._timer = None  # the loop timer, armed while anything is staged
        self._flush_now = False  # the timer was armed for held acks
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        # Held from taking entries to commit_durable: one flush at a
        # time, so flushes leave in staging order.
        self._flush_lock = threading.Lock()

        self.metrics.gauge(
            "dcdb_writer_queue_depth", "Readings staged in the batching writer"
        ).set_function(lambda: self._depth)
        self.metrics.gauge(
            "dcdb_writer_queue_capacity", "Staging queue bound (readings)"
        ).set(self.config.queue_capacity)
        self._queue_hwm = 0  # guarded by _lock
        self.metrics.gauge(
            "dcdb_writer_queue_high_watermark",
            "Deepest the staging queue has been (readings)",
        ).set_function(lambda: self._queue_hwm)
        self._enqueued = self.metrics.counter(
            "dcdb_writer_readings_enqueued_total", "Readings accepted into the staging queue"
        )
        self._flushed = self.metrics.counter(
            "dcdb_writer_readings_flushed_total", "Readings durably written by flushes"
        )
        self._flushes = self.metrics.counter(
            "dcdb_writer_flushes_total", "Batches handed to the storage backend"
        )
        self._flush_errors = self.metrics.counter(
            "dcdb_writer_flush_errors_total", "Batches the backend failed to accept"
        )
        self._requeued = self.metrics.counter(
            "dcdb_writer_readings_requeued_total",
            "Readings re-staged after a failed flush",
        )
        self._lost = self.metrics.counter(
            "dcdb_writer_readings_lost_total",
            "Readings abandoned after exhausting flush_retries",
        )
        self._consecutive_failures = 0  # guarded by _lock
        self._batch_size = self.metrics.histogram(
            "dcdb_writer_batch_size", "Readings per flushed batch", buckets=BATCH_SIZE_BUCKETS
        )
        self._flush_duration = self.metrics.histogram(
            "dcdb_writer_flush_duration_seconds", "Wall time of one backend flush"
        )

    def stop(self) -> None:
        """Refuse further puts, then flush every staged reading on the
        caller before returning."""
        with self._lock:
            self._stopping = True
        self.drain()

    def put(self, batch: ReadingBatch, traces: list | tuple = (), acks: Acks | None = None) -> None:
        """Stage a batch with one run per message, each admitted as if
        put alone.  A full queue blocks: the put flushes on its own
        thread until the message fits.  ``traces``: ``(run, trace_id,
        origin_ns)`` per traced message, whose ``commit`` hop its flush
        records; ``acks`` wait for the entries this put stages, and on
        the loop thread flush them at the end of the loop turn.  Off the
        loop thread the write happens before this returns.  Once
        stopped, raises :class:`StorageError`: no further run is staged
        and ``acks`` are never sent."""
        if not len(batch):
            return
        run = 0
        while run < len(batch.lengths):
            with self._lock:
                staged = self._stage_locked(batch, traces, run, acks)
            if staged == run:  # full: make room on this thread
                if not self._flush():
                    time.sleep(self._backoff_s())
            run = staged
        if self.loop is not None and self.loop.on_loop_thread():
            while self._depth >= self.config.max_batch and self._flush():
                pass
            self._arm(now=acks is not None)
        else:
            while self._entries and self._flush():
                pass

    def _stage_locked(self, batch: ReadingBatch, traces, run: int, acks) -> int:
        """Stage the runs from ``run`` on that fit; returns the next run
        (``run`` itself while the put must make room).  A run larger
        than the whole queue is staged alone, whole, once it is empty."""
        if self._stopping:
            if acks is not None:
                acks.pending = None  # a run is refused: never ack the read
            raise StorageError("batching writer stopped: put refused")
        lengths = batch.lengths
        room = self.config.queue_capacity - self._depth
        end, count = run, 0
        while end < len(lengths) and count + lengths[end] <= room:
            count += lengths[end]
            end += 1
        if end == run:
            if self._entries:
                return run
            count, end = lengths[run], run + 1
        if acks is not None and acks.pending is not None:
            acks.pending += 1
        traces = [(r - run, t, o) for r, t, o in traces if run <= r < end]
        self._entries.append((batch.select(list(range(run, end))), self._clock(), 0, traces, acks))
        self._depth += count
        if self._depth > self._queue_hwm:
            self._queue_hwm = self._depth
        self._enqueued.inc(count)
        return end

    # -- the loop timer -----------------------------------------------------

    def _arm(self, delay_s: float | None = None, now: bool = False) -> None:
        """Arm the loop timer while anything is staged (loop thread):
        at the idle or age deadline, after ``delay_s``, or with ``now``
        at the end of this loop turn, replacing a later timer.  After a
        failed flush ``now`` keeps the retry pause: held acks wait for
        the paced retry, which then flushes whether or not it is due."""
        with self._lock:
            if not self._entries or self._timer is not None and not now:
                return
            if now:
                paused = self._consecutive_failures > 0
                if self._timer is not None:
                    if self._flush_now or paused:
                        self._flush_now = True
                        return
                    self._timer.cancel()
                delay_s = self._backoff_s() if paused else 0.0
            elif delay_s is None:
                # At most one poll interval, so an injected SimClock
                # still drives both triggers.
                delay_s = min(max(self._due_in_ns_locked(), 0) / 1e9, self.config.poll_interval_s)
            self._flush_now = now
            self._timer = self.loop.call_later(delay_s, self._tick)

    def _tick(self) -> None:
        """Flush once a trigger is due (or held acks wait); re-arm while
        anything is staged, after the retry pause if the flush failed."""
        self._timer = None
        with self._lock:
            due = bool(self._entries) and (self._flush_now or self._due_in_ns_locked() <= 0)
        self._arm(self._backoff_s() if due and not self._flush() else None)

    def _due_in_ns_locked(self) -> int:
        """Nanoseconds until the idle or age trigger (<= 0: due)."""
        newest, oldest = self._entries[-1][1], self._entries[0][1]
        return min(newest + self._idle_ns, oldest + self.config.max_delay_ns) - self._clock()

    def _backoff_s(self) -> float:
        """Capped-exponential pause after consecutive failed flushes, so
        a dead backend is probed rather than busy-looped on."""
        failures = self._consecutive_failures
        return min(0.1, self.config.retry_backoff_s * (2.0 ** min(failures - 1, 6)))

    # -- the flush ----------------------------------------------------------

    def _flush(self) -> bool:
        """Write up to ``max_batch`` staged readings, oldest first, under
        the flush lock; False if the write failed.  The sends it releases
        run after the lock (a memory-pipe PUBACK runs the client here)."""
        sends: list = []
        taken, count = [], 0
        with self._flush_lock:
            with self._lock:
                while self._entries and count < self.config.max_batch:
                    taken.append(self._entries.popleft())
                    count += len(taken[-1][0])
                self._depth -= count
                self._inflight += count
            written = False
            try:
                written = not taken or self._write(taken, count)
            finally:
                with self._lock:
                    self._inflight -= count
                    if written:
                        self._consecutive_failures = 0
                        for *_, acks in taken:
                            if acks is not None and acks.pending:
                                acks.pending -= 1
                                if not acks.pending:
                                    sends += acks.sends
                    if not self._entries and not self._inflight:
                        self._idle.notify_all()
        for send in sends:
            send()
        return written

    def _write(self, taken, count: int) -> bool:
        """Flush ``taken`` entries as one batch; False if it failed (the
        entries are then re-staged or, past ``flush_retries``, lost)."""
        # One staged message passes through as-is; several concatenate.
        batch = ReadingBatch.concat([entry[0] for entry in taken])
        first_trace = next((trace for entry in taken for _, trace, _ in entry[3]), None)
        started = time.perf_counter()
        start_ns = self._clock()
        try:
            # One ambient trace covers the whole coalesced flush; the
            # storage layer picks it up for replica/retry spans.
            with trace_context(first_trace):
                self.backend.insert_batch(batch)
                # Group-commit barrier: a durable backend must make the
                # WAL records of this batch safe (per its fsync policy)
                # before the batch is acknowledged as flushed.  One
                # fsync covers the whole coalesced batch; a failed sync
                # re-queues the batch like any storage error.
                self.backend.commit_durable()
        except Exception:
            self._flush_errors.inc()
            logger.exception("batch flush of %d readings failed", count)
            self._requeue(taken)
            return False
        duration = time.perf_counter() - started
        self._flush_duration.observe(duration)
        self._batch_size.observe(count)
        self._flushes.inc()
        self._flushed.inc(count)
        if self.rollup is not None:
            # After the durability accounting: rollups are derived only
            # from readings the backend accepted, and the engine never
            # raises (a rollup failure costs freshness, not raw data).
            self.rollup.observe(batch)
        if first_trace is not None and self.tracer is not None:
            for _, _, attempts, traces, _ in taken:
                for _, trace_id, origin_ns in traces:
                    self.tracer.hop(
                        "commit",
                        "writer",
                        trace_id,
                        origin_ns,
                        start_ns,
                        batch=count,
                        attempts=attempts,
                        flushSeconds=round(duration, 6),
                    )
        if duration >= SLOW_FLUSH_S:
            logger.warning(
                "slow flush: %d readings took %.3fs",
                count,
                duration,
                extra={
                    "trace_id": first_trace,
                    "duration_s": round(duration, 6),
                    "batch": count,
                },
            )
        return True

    def _requeue(self, taken) -> None:
        """Re-stage a failed batch at the queue head, oldest first.

        Entries keep their enqueue timestamps, trace IDs and held acks
        (the age trigger sees the true staleness; a traced reading gets
        its ``commit`` hop once the retry lands).  Entries past
        ``flush_retries`` are abandoned with their acks: the only point
        where accepted readings can be lost.
        """
        retries = self.config.flush_retries
        with self._lock:
            requeued = 0
            for batch, enqueued_ns, attempts, traces, acks in reversed(taken):
                if attempts >= retries:
                    self._lost.inc(len(batch))
                    if acks is not None:
                        acks.pending = None
                    logger.error(
                        "abandoning %d readings after %d failed flushes",
                        len(batch),
                        attempts + 1,
                        extra={"trace_id": traces[0][1] if traces else None},
                    )
                    continue
                self._entries.appendleft((batch, enqueued_ns, attempts + 1, traces, acks))
                requeued += len(batch)
            self._depth += requeued
            if requeued:
                self._requeued.inc(requeued)
            self._consecutive_failures += 1

    # -- synchronization helpers -------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Flush everything staged on the caller, then wait until no
        flush is in flight."""
        while self._entries:
            if not self._flush():
                time.sleep(self._backoff_s())
        return self.wait_idle(timeout)

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until the queue is empty and no flush is in flight."""
        with self._lock:
            return self._idle.wait_for(lambda: not self._entries and not self._inflight, timeout)

    # -- introspection ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Readings currently staged (excludes in-flight flushes)."""
        with self._lock:
            return self._depth

    @property
    def flushed(self) -> int:
        return int(self._flushed.value)

    @property
    def requeued(self) -> int:
        return int(self._requeued.value)

    @property
    def lost(self) -> int:
        return int(self._lost.value)

    def status(self) -> dict:
        """JSON-friendly snapshot for the REST ``/status`` document."""
        with self._lock:
            depth, inflight, running = self._depth, self._inflight, not self._stopping
        return {
            "running": running,
            "queueDepth": depth,
            "inFlight": inflight,
            "queueHighWatermark": self._queue_hwm,
            "slowFlushSeconds": SLOW_FLUSH_S,
            "queueCapacity": self.config.queue_capacity,
            "maxBatch": self.config.max_batch,
            "maxDelayMs": self.config.max_delay_ns / 1e6,
            "enqueued": int(self._enqueued.value),
            "flushed": int(self._flushed.value),
            "flushes": int(self._flushes.value),
            "flushErrors": int(self._flush_errors.value),
            "requeued": int(self._requeued.value),
            "lost": int(self._lost.value),
            "flushRetries": self.config.flush_retries,
        }
