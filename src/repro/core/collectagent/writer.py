"""The Collect Agent's one ingest path: staged, batched writes.

The paper's Collect Agent sustains millions of inserts per second
because readings are staged and written to Cassandra in large
asynchronous batches (section 5.3, Figure 8) instead of one storage
round-trip per MQTT message.  :class:`BatchingWriter` reproduces that
decoupling for any :class:`~repro.storage.backend.StorageBackend`:

* ``put()`` stages messages (one run each) in a bounded queue and
  returns immediately — the broker's dispatch thread never waits on
  storage;
* one writer thread coalesces staged messages *across* MQTT
  publishes into batches of up to ``max_batch`` readings and hand them
  to ``backend.insert_batch`` in one call;
* a flush is triggered by batch **size** (``max_batch`` readings
  staged), **idle** (nothing new staged for ``poll_interval_s`` on the
  injected clock, so a burst commits once it ends), batch **age** (the
  oldest staged reading exceeds ``max_delay_ns``: the cap a continuous
  stream coalesces up to), or **shutdown** — :meth:`stop` drains every
  accepted reading before returning, so enabling batching never loses
  data on a clean shutdown.

``writers=0`` is the synchronous agent: no thread, and ``put()`` runs
the same flush routine on the calling thread, one message per write
(no coalescing, no sleep, no wait for capacity).  There is never more
than one writer thread: flushes leave in staging order, so a newer
reading of a ``(sensor, timestamp)`` always lands after an older one
and last-write-wins keeps the newer value.  A write that fails
stays staged and is retried first by the next ``put()``, ``drain()``
or ``stop()``.

Backpressure when the queue is full is explicit policy, not an
accident of buffer growth, and applies to each message as if it had
been put alone:

``block``
    ``put()`` waits until the writer thread frees capacity (lossless,
    propagates storage slowness to producers); with ``writers=0`` it
    raises like ``error``, as no thread would free capacity.
``drop-oldest``
    evict the oldest staged messages to make room, counting them in
    ``dcdb_writer_readings_dropped_total`` (freshest-data-wins, the
    right default for monitoring feeds).
``error``
    raise :class:`~repro.common.errors.BackpressureError` and leave
    the queue untouched (producer decides).

A failed flush does **not** drop its batch: the entries are re-queued
at the head of the staging queue (order preserved) and retried up to
``flush_retries`` times (the writer thread pauses, capped-exponentially,
between attempts), so transient storage faults — a replica
restarting, a flaky disk — cost latency, not data.  Storage backends
deduplicate re-applied timestamps (last-write-wins), making a retry
that races a partial success safe.

Observability: queue depth gauge, batch-size and flush-latency
histograms, dropped/requeued/lost/flushed counters, and — when a
:class:`~repro.observability.PipelineTracer` is attached — the
``commit`` hop of every traced message, recorded at *flush
completion*, i.e. when the batch is really durable in the backend, not
when it was enqueued.
"""

from __future__ import annotations

import logging
import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

from repro.common.errors import BackpressureError, ConfigError
from repro.observability import MetricsRegistry
from repro.observability.spans import trace_context
from repro.storage.backend import ReadingBatch, StorageBackend

logger = logging.getLogger(__name__)

__all__ = ["BACKPRESSURE_POLICIES", "BATCH_SIZE_BUCKETS", "BatchingWriter", "WriterConfig"]

#: Valid ``WriterConfig.policy`` values.
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "error")

#: Readings-per-flush histogram buckets (1 .. 50k readings).
BATCH_SIZE_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0,
)


@dataclass(frozen=True, slots=True)
class WriterConfig:
    """Tuning knobs of the batched ingest path.

    ``max_batch``
        flush once this many readings are staged (size trigger).
    ``max_delay_ns``
        flush once the oldest staged reading is this old on the
        writer's clock (age trigger; caps visibility lag under a
        continuous stream).
    ``queue_capacity``
        bound on staged readings; beyond it the backpressure
        ``policy`` applies.
    ``policy``
        one of :data:`BACKPRESSURE_POLICIES`.
    ``writers``
        1 for one writer thread; 0 runs every flush on the thread that
        calls ``put()`` (the synchronous agent).  A second thread could
        finish a newer flush before an older one and so let an older
        value of a ``(sensor, timestamp)`` win; it is refused.
    ``poll_interval_s``
        idle window: flush once nothing new has been staged for this
        long on the writer's clock.  It is also the real-time period at
        which the writer thread with readings staged re-checks the idle
        and age triggers, so an injected
        :class:`~repro.common.timeutil.SimClock` drives both
        deterministically; with nothing staged the thread sleeps until
        a put.
    ``flush_retries``
        how many times a batch whose flush failed is re-queued and
        retried before its readings are abandoned (counted in
        ``dcdb_writer_readings_lost_total``).  The cap keeps
        :meth:`BatchingWriter.stop` from spinning forever against a
        permanently dead backend.
    ``retry_backoff_s``
        base of the capped exponential pause the writer thread takes
        after a failed flush, so a down backend is probed rather than
        hammered.
    ``slow_flush_s``
        flushes slower than this (wall seconds) are logged at WARNING
        with their trace ID and batch size; 0 disables the slow-op log.
    """

    max_batch: int = 4096
    max_delay_ns: int = 50_000_000  # 50 ms
    queue_capacity: int = 65_536
    policy: str = "block"
    writers: int = 1
    poll_interval_s: float = 0.005
    flush_retries: int = 4
    retry_backoff_s: float = 0.002
    slow_flush_s: float = 1.0

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
        if self.policy not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"unknown backpressure policy {self.policy!r}; "
                f"choose one of {BACKPRESSURE_POLICIES}"
            )
        if self.writers not in (0, 1):
            raise ConfigError(f"writers must be 0 or 1, got {self.writers}")
        if self.poll_interval_s <= 0:
            raise ConfigError("poll_interval_s must be positive")
        if self.flush_retries < 0:
            raise ConfigError(f"flush_retries must be >= 0, got {self.flush_retries}")
        if self.retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")
        if self.slow_flush_s < 0:
            raise ConfigError("slow_flush_s must be >= 0 (0 disables the slow-op log)")


class BatchingWriter:
    """Bounded staging queue + at most one writer thread in front of a
    backend.

    Queue entries are the :class:`ReadingBatch` es exactly as the agent
    decoded them, one run per message (no per-reading copies);
    coalescing concatenates their columns only when a flush spans
    several entries, and a flush covering a single entry passes that
    batch through untouched.
    """

    def __init__(
        self,
        backend: StorageBackend,
        config: WriterConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock=None,
        tracer=None,
        rollup=None,
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
        self._clock = clock if clock is not None else now_ns
        self._idle_ns = int(self.config.poll_interval_s * 1e9)
        # Entries are (batch, enqueued_ns, flush_attempts, traces), with
        # traces a list of (run, trace_id, origin_ns) for the entry's
        # traced messages.  attempts > 0 marks a batch re-queued after a
        # failed flush; it keeps its place at the queue head so the
        # original arrival order is preserved across retries.
        self._entries: deque[tuple[ReadingBatch, int, int, list]] = deque()
        self._depth = 0  # readings staged (not yet taken by a writer)
        self._inflight = 0  # readings taken but not yet durable
        self._stopping = False
        self._force_flush = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None

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
        self._dropped = self.metrics.counter(
            "dcdb_writer_readings_dropped_total",
            "Readings evicted by the drop-oldest backpressure policy",
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
        self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """(Re)start the writer thread; idempotent while running."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stopping = False
            if self.config.writers:
                self._thread = threading.Thread(
                    target=self._run, name="dcdb-writer", daemon=True
                )
                self._thread.start()

    def stop(self) -> None:
        """Drain every accepted reading, then stop the writer thread.

        Readings staged before ``stop()`` is called are flushed to the
        backend before this method returns; producers blocked in
        ``put()`` are woken with :class:`BackpressureError`.
        """
        with self._lock:
            self._stopping = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join()
        self._thread = None
        # The writer thread exits only once the queue is empty, so this
        # retries what is left only when there is none.
        self._drain_inline()

    # -- producer side ------------------------------------------------------

    def put(self, batch: ReadingBatch, traces: list | tuple = ()) -> int:
        """Stage a batch with one run per message, each admitted as if
        put alone; returns the readings accepted.  Refused runs raise
        :class:`BackpressureError` naming them, once the rest are
        staged.  ``traces``: ``(run, trace_id, origin_ns)`` per traced
        message, whose ``commit`` hop its flush records.  With
        ``writers=0`` the write happens before this returns."""
        if not len(batch):
            return 0
        refused: list[int] = []
        accepted = run = 0
        while run < len(batch.lengths):
            with self._lock:
                run, staged = self._stage_locked(batch, traces, run, refused)
            accepted += staged
            if not self.config.writers:
                self._flush_inline()
        if refused:
            raise BackpressureError(
                f"staging queue refused {len(refused)} of {len(batch.lengths)} messages "
                f"({self._depth}/{self.config.queue_capacity} readings staged)",
                refused,
            )
        return accepted

    def _stage_locked(self, batch: ReadingBatch, traces, run: int, refused: list[int]) -> tuple:
        """Stage runs from ``run`` on: every run that fits, or else the
        policy's outcome for the first one.  Returns ``(next run,
        readings staged)``."""
        lengths, capacity = batch.lengths, self.config.queue_capacity
        if self._stopping:
            refused.extend(range(run, len(lengths)))
            return len(lengths), 0
        end, count = run, 0
        while end < len(lengths) and self._depth + count + lengths[end] <= capacity:
            count += lengths[end]
            end += 1
        if end == run:
            count, end = lengths[run], run + 1
            policy = self.config.policy
            if policy == "error" or (policy == "block" and not self.config.writers):
                refused.append(run)
                return end, 0
            if policy == "block":
                while self._depth + count > capacity and not self._stopping:
                    self._not_full.wait()
                return self._stage_locked(batch, traces, run, refused)
            # drop-oldest: evict whole staged messages, oldest first.
            need = self._depth + count - capacity
            while need > 0 and self._entries:
                old, enqueued_ns, attempts, old_traces = self._entries.popleft()
                runs = bisect_left(list(accumulate(old.lengths)), need) + 1
                drop = sum(old.lengths[:runs])
                if runs < len(old.lengths):
                    kept = [(r - runs, t, o) for r, t, o in old_traces if r >= runs]
                    old = old.tail(len(old) - drop)
                    self._entries.appendleft((old, enqueued_ns, attempts, kept))
                self._depth -= drop
                self._dropped.inc(drop)
                need -= drop
        piece = batch.select(list(range(run, end)))
        if count > capacity:
            # A single message larger than the whole queue: keep its
            # freshest tail, consistent with drop-oldest.
            self._dropped.inc(count - capacity)
            piece, count = piece.tail(capacity), capacity
        traces = [(r - run, t, o) for r, t, o in traces if run <= r < end]
        self._entries.append((piece, self._clock(), 0, traces))
        self._depth += count
        if self._depth > self._queue_hwm:
            self._queue_hwm = self._depth
        self._enqueued.inc(count)
        self._not_empty.notify()
        return end, count

    # -- consumer side ------------------------------------------------------

    def _run(self) -> None:
        poll = self.config.poll_interval_s
        backoff = self.config.retry_backoff_s
        while True:
            with self._lock:
                while not self._flush_due_locked():
                    if self._entries:
                        # Timed wait so the idle and age triggers are
                        # re-evaluated on the injected clock even when
                        # no new puts arrive.
                        self._not_empty.wait(timeout=poll)
                    elif self._stopping:
                        return
                    else:
                        self._not_empty.wait()
                taken, count = self._take_locked()
                self._inflight += count
                self._not_full.notify_all()
            if not self._write(taken, count) and backoff > 0:
                # Capped-exponential pause after consecutive failures,
                # so the writer thread probes a dead backend rather than
                # busy-looping on it.
                failures = self._consecutive_failures
                time.sleep(min(0.1, backoff * (2.0 ** min(failures - 1, 6))))
            self._settle(count)

    def _flush_inline(self) -> None:
        """Write staged entries on the calling thread (``writers=0``).

        One entry per write, oldest first, so a write that failed
        earlier is retried before anything staged after it.  The first
        failure ends the pass; its entry stays staged for the next
        ``put()``, ``drain()`` or ``stop()``.
        """
        while True:
            with self._lock:
                if not self._entries:
                    return
                entry = self._entries.popleft()
                count = len(entry[0])
                self._depth -= count
                self._inflight += count
            written = self._write([entry], count)
            self._settle(count)
            if not written:
                return

    def _drain_inline(self) -> None:
        """Flush inline until nothing is staged; each failed entry is
        retried up to ``flush_retries`` times, then counted lost."""
        while self._entries:
            self._flush_inline()

    def _settle(self, count: int) -> None:
        with self._lock:
            self._inflight -= count
            if not self._entries and self._inflight == 0:
                self._idle.notify_all()

    def _flush_due_locked(self) -> bool:
        if not self._entries:
            return False
        if self._stopping or self._force_flush:
            return True
        if self._depth >= self.config.max_batch:
            return True
        now = self._clock()
        return (
            now - self._entries[-1][1] >= self._idle_ns
            or now - self._entries[0][1] >= self.config.max_delay_ns
        )

    def _take_locked(self) -> tuple[list[tuple[ReadingBatch, int, int, list]], int]:
        taken: list[tuple[ReadingBatch, int, int, list]] = []
        count = 0
        max_batch = self.config.max_batch
        while self._entries and count < max_batch:
            entry = self._entries.popleft()
            taken.append(entry)
            count += len(entry[0])
        self._depth -= count
        if not self._entries:
            self._force_flush = False
        return taken, count

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
        with self._lock:
            self._consecutive_failures = 0
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
            for _, _, attempts, traces in taken:
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
        slow = self.config.slow_flush_s
        if slow > 0 and duration >= slow:
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

        Entries keep their enqueue timestamps and trace IDs, so the age
        trigger still sees the true staleness and a traced reading
        still gets its ``commit`` hop once the retry lands.  Entries
        that have exhausted ``flush_retries`` are abandoned (the only
        point in the writer where accepted readings can be lost, and
        only after the backend refused them flush_retries + 1 times).
        """
        retries = self.config.flush_retries
        with self._lock:
            requeued = 0
            for batch, enqueued_ns, attempts, traces in reversed(taken):
                if attempts >= retries:
                    self._lost.inc(len(batch))
                    logger.error(
                        "abandoning %d readings after %d failed flushes",
                        len(batch),
                        attempts + 1,
                        extra={"trace_id": traces[0][1] if traces else None},
                    )
                    continue
                self._entries.appendleft((batch, enqueued_ns, attempts + 1, traces))
                requeued += len(batch)
            self._depth += requeued
            if requeued:
                self._requeued.inc(requeued)
                self._not_empty.notify()
            self._consecutive_failures += 1

    # -- synchronization helpers -------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Force-flush everything staged and wait until it is durable.

        Without a writer thread the flush runs here, on the caller.
        """
        if self.config.writers:
            with self._lock:
                self._force_flush = True
                self._not_empty.notify_all()
        else:
            self._drain_inline()
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
    def dropped(self) -> int:
        return int(self._dropped.value)

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
            depth = self._depth
            inflight = self._inflight
            # A zero-thread writer runs until stopped.
            thread = self._thread
            running = thread.is_alive() if thread is not None else not self._stopping
        return {
            "running": running,
            "policy": self.config.policy,
            "queueDepth": depth,
            "inFlight": inflight,
            "queueHighWatermark": self._queue_hwm,
            "slowFlushSeconds": self.config.slow_flush_s,
            "queueCapacity": self.config.queue_capacity,
            "maxBatch": self.config.max_batch,
            "maxDelayMs": self.config.max_delay_ns / 1e6,
            "writers": self.config.writers,
            "enqueued": int(self._enqueued.value),
            "flushed": int(self._flushed.value),
            "dropped": int(self._dropped.value),
            "flushes": int(self._flushes.value),
            "flushErrors": int(self._flush_errors.value),
            "requeued": int(self._requeued.value),
            "lost": int(self._lost.value),
            "flushRetries": self.config.flush_retries,
        }
