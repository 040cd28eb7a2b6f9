"""Microbenchmarks: cost and payoff of the durable storage engine.

Committed gates:

* **Ingest overhead** — the WAL write path under ``fsync=interval``
  must stay within 1.6x of the in-memory backend on the standard 5k
  interleaved-batch ingest shape (the price of durability, bounded;
  batched WAL appends and the vectorized payload framing brought the
  original 3x budget down).
* **Compression ratio** — delta-of-delta + XOR on synthetic facility
  data (slowly drifting temperatures, step-holding power caps on a
  fixed 1 Hz interval) must reach at least :data:`MIN_RATIO` raw to
  encoded bytes; the measured ratio is recorded in the committed
  ``BENCH_durability.json`` via ``make bench-baseline``.
* **Cold-window query** — a narrow windowed read over a many-file
  store must beat a decode-everything baseline by at least 3x: the
  payoff of footer ``[min_ts, max_ts]`` block pruning.
* **Bounded-memory scan** — sweeping a store larger than the block
  cache budget must hold decoded residency at or under the budget
  (assertion, not timing; runs in every mode).

Not gated: :func:`test_decode_regimes` decodes one block per value
regime the XOR decoder meets (bit-identity asserted in every mode) and
records µs per row; EXPERIMENTS.md "Read path: block decode" holds the
table.
"""

import itertools
import random
import time

import numpy as np
import pytest

from repro.core.sid import SensorId
from repro.storage.durable import DurableNode, decode_values, encode_values
from repro.storage.memory import MemoryBackend

SIDS = [SensorId.from_codes([1, i]) for i in range(1, 51)]
BATCH = [
    (SIDS[i % 50], 1_000_000 * (i // 50), i, 0) for i in range(5_000)
]  # 100 readings per sensor, interleaved like agent traffic

#: Committed floor for the facility-data compression ratio (measured
#: ~19.7x on the reference workload; the gate leaves drift headroom).
MIN_RATIO = 12.0

NS_PER_SEC = 1_000_000_000


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def facility_batch(seed=4242, sensors_temp=64, sensors_power=16, rows=1000):
    """Synthetic facility telemetry: the compression target workload.

    Temperatures drift a few milli-degrees per 1 Hz sample; power caps
    hold a setpoint and step occasionally — the two dominant shapes in
    the paper's infrastructure monitoring data.
    """
    rng = random.Random(seed)
    items = []
    for s in range(sensors_temp):
        sid = SensorId.from_codes([3, 1, s + 1])
        v = rng.randint(40_000, 60_000)
        for t in range(rows):
            v += rng.randint(-3, 3)
            items.append((sid, t * NS_PER_SEC, v, 0))
    for s in range(sensors_power):
        sid = SensorId.from_codes([3, 2, s + 1])
        v = rng.choice([100_000, 150_000, 200_000])
        for t in range(rows):
            if rng.random() < 0.01:
                v = rng.choice([100_000, 150_000, 200_000])
            items.append((sid, t * NS_PER_SEC, v, 0))
    return items


class TestDurableIngest:
    def test_insert_batch_5k_durable(self, benchmark, tmp_path):
        """Durable ingest (WAL framing + group commit, fsync=interval)
        vs the in-memory baseline.  Gate: <= 1.6x when timing is armed."""
        fresh = itertools.count()

        def run_durable():
            backend = DurableNode(
                data_dir=tmp_path / f"run{next(fresh)}", fsync="interval"
            )
            count = backend.insert_batch(BATCH)
            backend.commit_durable()
            backend.close()
            return count

        assert benchmark(run_durable) == 5_000
        if benchmark.enabled:

            def run_memory():
                backend = MemoryBackend()
                backend.insert_batch(BATCH)
                backend.close()

            memory_seconds = _best_of(5, run_memory)
            durable_seconds = benchmark.stats.stats.min
            overhead = durable_seconds / memory_seconds
            print(
                f"\ndurable ingest 5k: {durable_seconds * 1e3:.2f} ms vs "
                f"memory {memory_seconds * 1e3:.2f} ms ({overhead:.2f}x)"
            )
            assert overhead <= 1.6, (
                f"durable ingest {overhead:.2f}x over memory (gate: 1.6x)"
            )
            benchmark.extra_info["ingest_overhead_x"] = round(overhead, 2)


class TestCompressionRatio:
    def test_facility_data_ratio_floor(self, benchmark, tmp_path):
        """Seal the facility workload into a segment file and gate the
        measured raw-to-encoded ratio (asserted in every mode — the
        ratio is deterministic, only the timing needs --benchmark-only)."""
        items = facility_batch()
        fresh = itertools.count()

        def seal():
            backend = DurableNode(
                "ratio",
                data_dir=tmp_path / f"ratio{next(fresh)}",
                fsync="off",
                flush_threshold=10**9,
            )
            backend.insert_batch(items)
            backend.flush()
            ratio = backend.metrics.value(
                "dcdb_segment_compression_ratio", {"node": "ratio"}
            )
            backend.close()
            return ratio

        ratio = benchmark(seal)
        assert ratio >= MIN_RATIO, (
            f"compression ratio {ratio:.2f}x under the committed "
            f"{MIN_RATIO}x floor"
        )
        benchmark.extra_info["compression_ratio"] = round(ratio, 2)
        benchmark.extra_info["min_ratio_gate"] = MIN_RATIO
        benchmark.extra_info["rows"] = len(items)


COLD_SID = SensorId.from_codes([5, 1])
COLD_ROWS = 5_000  # rows per segment file
COLD_FILES = 16


def _build_cold_store(data_dir):
    """A reopened store whose rows live only in segment files — every
    read goes through the disk block path."""
    backend = DurableNode(data_dir=data_dir, fsync="off", max_segment_files=1_000)
    for b in range(COLD_FILES):
        backend.insert_batch(
            [
                (COLD_SID, (b * COLD_ROWS + i) * NS_PER_SEC, b * COLD_ROWS + i, 0)
                for i in range(COLD_ROWS)
            ]
        )
        backend.flush()
    backend.close()


class TestColdWindowQuery:
    def test_windowed_read_beats_full_materialize(self, benchmark, tmp_path):
        """Narrow window over a 16-file store: footer pruning decodes 1
        block where the old read path decoded all 16.  Gate: >= 3x over
        a decode-everything baseline when timing is armed.  The cache
        is disabled so every round is a true cold read."""
        data_dir = tmp_path / "cold"
        _build_cold_store(data_dir)
        node = DurableNode(
            "cold",
            data_dir=data_dir,
            fsync="off",
            max_segment_files=1_000,
            block_cache_bytes=0,
        )
        start = (3 * COLD_ROWS + 100) * NS_PER_SEC
        end = (3 * COLD_ROWS + 600) * NS_PER_SEC

        def windowed():
            ts, _ = node.query(COLD_SID, start, end)
            return int(ts.size)

        assert benchmark(windowed) == 501
        if benchmark.enabled:
            refs = [table for table in node._tables if COLD_SID in table]

            def materialize_all():
                parts = [sf.read(COLD_SID) for sf in refs]
                ts = np.concatenate([p[0] for p in parts])
                vals = np.concatenate([p[1] for p in parts])
                lo = int(np.searchsorted(ts, start, side="left"))
                hi = int(np.searchsorted(ts, end, side="right"))
                return int(ts[lo:hi].size), vals

            assert materialize_all()[0] == 501
            baseline_seconds = _best_of(5, materialize_all)
            cold_seconds = benchmark.stats.stats.min
            speedup = baseline_seconds / cold_seconds
            print(
                f"\ncold window: pruned {cold_seconds * 1e3:.2f} ms vs "
                f"materialize-all {baseline_seconds * 1e3:.2f} ms "
                f"({speedup:.1f}x)"
            )
            assert speedup >= 3.0, (
                f"pruned cold read only {speedup:.1f}x over full "
                "materialization (gate: 3x)"
            )
            benchmark.extra_info["cold_window_speedup_x"] = round(speedup, 2)
        node.close()


class TestBoundedMemoryScan:
    def test_scan_larger_than_budget_stays_bounded(self, tmp_path):
        """Sweep every window of a store whose decoded size (~1.9 MB)
        dwarfs the cache budget (256 KB): residency must never exceed
        the budget and old blocks must actually get evicted."""
        data_dir = tmp_path / "scan"
        _build_cold_store(data_dir)
        budget = 256 * 1024
        node = DurableNode(
            "scan",
            data_dir=data_dir,
            fsync="off",
            max_segment_files=1_000,
            block_cache_bytes=budget,
        )
        total = 0
        for b in range(COLD_FILES):
            w0 = b * COLD_ROWS * NS_PER_SEC
            w1 = ((b + 1) * COLD_ROWS - 1) * NS_PER_SEC
            ts, vals = node.query(COLD_SID, w0, w1)
            total += int(ts.size)
            assert vals[0] == b * COLD_ROWS
            resident = node.metrics.value(
                "dcdb_segment_block_cache_bytes", {"node": "scan"}
            )
            assert resident <= budget, (
                f"cache grew to {resident} bytes over the {budget} budget"
            )
        assert total == COLD_FILES * COLD_ROWS
        assert (
            node.metrics.value(
                "dcdb_segment_block_cache_evictions_total", {"node": "scan"}
            )
            > 0
        ), "scan never evicted — store fit in the budget, test is vacuous"
        node.close()


DECODE_ROWS = 3_600  # an hour of a 1 Hz sensor: one dashboard block


def decode_regimes(rows=DECODE_ROWS, seed=27):
    """One value column per regime the XOR decoder meets: the dashboard's
    power walk, counters and tier sums (long runs of equal-length
    tokens), float sensors and full-range values (few, wide windows),
    and the sparse shapes where zero tokens break every run."""
    rng = np.random.default_rng(seed)
    walk = 200_000 + np.cumsum(rng.integers(-400, 401, rows * 10))
    flips = np.where(np.arange(rows) % 2, 1 << 60, 1)
    return {
        "walk_400": walk[:rows],
        "counter": (1 << 40) + np.cumsum(rng.integers(900, 1_101, rows)),
        "tier_sum": walk.reshape(rows, 10).sum(axis=1),
        "float_bits": rng.uniform(-1e6, 1e6, rows).view(np.int64),
        "full_range": rng.integers(-(1 << 63), (1 << 63) - 1, rows, endpoint=True),
        "slow_walk_1": 50_000 + np.cumsum(rng.integers(-1, 2, rows)),
        "steps_every_10": np.repeat(rng.integers(100_000, 200_001, rows // 10), 10),
        "alternating_zero": np.repeat(rng.integers(0, 1 << 20, rows // 2), 2),
        "renegotiate_every_row": np.bitwise_xor.accumulate(flips),
        "constant": np.full(rows, 123_456),
    }


def test_decode_regimes(benchmark):
    """Decode one block per regime; µs/row per regime in extra_info."""
    blocks = {
        name: (column.astype(np.int64), encode_values(column.astype(np.int64)))
        for name, column in decode_regimes().items()
    }

    def decode_all():
        return {name: decode_values(block, column.size) for name, (column, block) in blocks.items()}

    decoded = benchmark(decode_all)
    for name, (column, _block) in blocks.items():
        assert np.array_equal(decoded[name], column), name
    if benchmark.enabled:
        for name, (column, block) in blocks.items():
            seconds = _best_of(5, lambda: decode_values(block, column.size))
            benchmark.extra_info[f"{name}_us_per_row"] = round(seconds / column.size * 1e6, 4)
