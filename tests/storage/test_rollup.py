"""Tests for rollup tiers and the tier-aware query planner.

Covers the rollup SID encoding, the shared aggregation kernel, the
continuous-aggregation engine (sealing, coverage persistence, restart
resume, late-arrival recompute, write-failure retry), the retention
lifecycle's never-drop-unabsorbed-data clamp, and — across every
storage backend — the contract that tier-served aggregates are
bit-identical to aggregating the raw rows at query time.
"""

import json

import numpy as np
import pytest

from repro.common.timeutil import NS_PER_SEC
from repro.core.sid import SensorId
from repro.libdcdb.api import AGGREGATIONS, DCDBClient
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryBackend
from repro.storage.node import StorageNode
from repro.storage.rollup import (
    FIELDS,
    ROLLUP_TIERS,
    RetentionPolicy,
    RollupConfig,
    RollupEngine,
    RollupTier,
    aggregate_buckets,
    coverage_key,
    is_rollup_sid,
    rollup_sid,
)
from repro.storage.sqlite import SqliteBackend

SID = SensorId.from_codes([1, 2, 3])
TOPIC = "/hpc/rack0/node0/power"


def make_backend(kind):
    if kind == "cluster":
        return StorageCluster(
            [StorageNode("a"), StorageNode("b")], replication=2
        )
    if kind == "sqlite":
        return SqliteBackend(":memory:")
    return MemoryBackend()


def make_env(backend, topic=TOPIC, sid=SID, **engine_kwargs):
    backend.put_metadata(f"sidmap{topic}", sid.hex())
    engine = RollupEngine(backend, **engine_kwargs)
    client = DCDBClient(backend)
    return engine, client


def ingest(backend, engine, sid, timestamps, values, batch=500):
    for i in range(0, len(timestamps), batch):
        items = [
            (sid, int(t), int(v), 0)
            for t, v in zip(timestamps[i : i + batch], values[i : i + batch])
        ]
        backend.insert_batch(items)
        engine.observe(items)


def raw_reference(backend, sid, start, end, bucket_ns, aggregation):
    ts, vals = backend.query(sid, start, end)
    starts, mins, maxs, sums, counts = aggregate_buckets(ts, vals, bucket_ns)
    if aggregation == "count":
        return starts, counts.astype(np.float64)
    values = {
        "avg": sums.astype(np.float64) / counts.astype(np.float64),
        "min": mins.astype(np.float64),
        "max": maxs.astype(np.float64),
        "sum": sums.astype(np.float64),
    }[aggregation]
    return starts, values


class TestSidEncoding:
    def test_rollup_sid_preserves_prefix(self):
        fsid = rollup_sid(SID, 1, 2)
        assert fsid is not None
        assert fsid.prefix(3) == SID.prefix(3)
        assert is_rollup_sid(fsid)
        assert not is_rollup_sid(SID)

    def test_all_tier_field_sids_distinct(self):
        sids = {
            rollup_sid(SID, t, f)
            for t in range(len(ROLLUP_TIERS))
            for f in range(len(FIELDS))
        }
        assert len(sids) == len(ROLLUP_TIERS) * len(FIELDS)

    def test_full_depth_sensor_has_no_rollup(self):
        full = SensorId.from_codes([1, 2, 3, 4, 5, 6, 7, 8])
        assert rollup_sid(full, 0, 0) is None


class TestAggregateBuckets:
    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        for col in aggregate_buckets(empty, empty, 10):
            assert col.size == 0

    def test_single_bucket(self):
        ts = np.array([0, 3, 7], dtype=np.int64)
        vals = np.array([5, -1, 9], dtype=np.int64)
        starts, mins, maxs, sums, counts = aggregate_buckets(ts, vals, 10)
        assert starts.tolist() == [0]
        assert mins.tolist() == [-1] and maxs.tolist() == [9]
        assert sums.tolist() == [13] and counts.tolist() == [3]

    def test_empty_buckets_omitted(self):
        ts = np.array([0, 35], dtype=np.int64)
        vals = np.array([1, 2], dtype=np.int64)
        starts, *_ = aggregate_buckets(ts, vals, 10)
        assert starts.tolist() == [0, 30]


class TestEngineSealing:
    def test_open_bucket_not_sealed(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ingest(backend, engine, SID, [0, 3 * NS_PER_SEC], [1, 2])
        # Newest reading at 3s: the 10s bucket [0,10s) is still open.
        fsid = rollup_sid(SID, 0, 0)
        assert backend.query(fsid, 0, 1 << 62)[0].size == 0
        assert engine.coverage(SID, 0) == (0, 0)

    def test_later_reading_seals_bucket(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ingest(backend, engine, SID, [0, 3 * NS_PER_SEC, 11 * NS_PER_SEC], [5, 2, 9])
        lo, hi = engine.coverage(SID, 0)
        assert (lo, hi) == (0, 10 * NS_PER_SEC)
        for field_index, expect in enumerate((2, 5, 7, 2)):
            fsid = rollup_sid(SID, 0, field_index)
            ts, vals = backend.query(fsid, 0, 1 << 62)
            assert ts.tolist() == [0] and vals.tolist() == [expect]

    def test_coarser_tiers_cascade(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ts = [i * NS_PER_SEC for i in range(0, 3700, 5)]
        ingest(backend, engine, SID, ts, [1] * len(ts))
        assert engine.coverage(SID, 1) == (0, 3660 * NS_PER_SEC)
        assert engine.coverage(SID, 2) == (0, 3600 * NS_PER_SEC)
        fsid = rollup_sid(SID, 2, 3)  # 1h count series
        ts1h, counts = backend.query(fsid, 0, 1 << 62)
        assert ts1h.tolist() == [0] and counts.tolist() == [720]

    def test_coverage_persisted_and_restart_resumes(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ingest(backend, engine, SID, [0, 12 * NS_PER_SEC], [1, 2])
        doc = backend.get_metadata(coverage_key(SID, "10s"))
        assert doc is not None
        # A fresh engine (restarted agent) resumes from the persisted
        # watermark without rewriting the already-sealed bucket.
        engine2 = RollupEngine(backend)
        items = [(SID, 25 * NS_PER_SEC, 3, 0)]
        backend.insert_batch(items)
        engine2.observe(items)
        assert engine2.coverage(SID, 0) == (0, 20 * NS_PER_SEC)
        fsid = rollup_sid(SID, 0, 3)
        ts, counts = backend.query(fsid, 0, 1 << 62)
        assert ts.tolist() == [0, 10 * NS_PER_SEC]
        assert counts.tolist() == [1, 1]

    def test_late_reading_recomputes_sealed_bucket(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ingest(backend, engine, SID, [0, 12 * NS_PER_SEC], [10, 1])
        # Late arrival inside the sealed [0,10s) bucket.
        ingest(backend, engine, SID, [4 * NS_PER_SEC], [100])
        fsid_max = rollup_sid(SID, 0, 1)
        _, maxs = backend.query(fsid_max, 0, 9 * NS_PER_SEC)
        assert maxs.tolist() == [100]
        fsid_count = rollup_sid(SID, 0, 3)
        _, counts = backend.query(fsid_count, 0, 9 * NS_PER_SEC)
        assert counts.tolist() == [2]
        assert engine.metrics.counter("dcdb_rollup_late_readings_total").value == 1

    def test_duplicate_timestamp_last_write_wins(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ingest(backend, engine, SID, [0, 0, 12 * NS_PER_SEC], [5, 7, 1])
        fsid_sum = rollup_sid(SID, 0, 2)
        _, sums = backend.query(fsid_sum, 0, 9 * NS_PER_SEC)
        # The engine recomputes from the stored rows, so the rollup
        # sees the deduplicated value (7), not both writes.
        assert sums.tolist() == [7]
        fsid_count = rollup_sid(SID, 0, 3)
        _, counts = backend.query(fsid_count, 0, 9 * NS_PER_SEC)
        assert counts.tolist() == [1]

    def test_full_depth_sensor_stays_raw_only(self):
        backend = MemoryBackend()
        full = SensorId.from_codes([1, 2, 3, 4, 5, 6, 7, 8])
        engine, _ = make_env(backend, topic="/deep", sid=full)
        ingest(backend, engine, full, [0, 12 * NS_PER_SEC], [1, 2])
        assert backend.get_metadata(coverage_key(full, "10s")) is None

    def test_rollup_rows_are_not_rolled_up_again(self):
        backend = MemoryBackend()
        engine, _ = make_env(backend)
        ingest(backend, engine, SID, [0, 12 * NS_PER_SEC], [1, 2])
        fsid = rollup_sid(SID, 0, 0)
        # Feed the engine its own output: it must ignore it.
        items = [(fsid, 0, 1, 0)]
        engine.observe(items)
        assert backend.get_metadata(coverage_key(fsid, "10s")) is None


class _FailingInserts:
    """Backend wrapper failing insert_batch for rollup rows on demand."""

    def __init__(self, inner):
        self.inner = inner
        self.fail = False

    def insert_batch(self, items):
        items = list(items)
        if self.fail and any(is_rollup_sid(sid) for sid, *_ in items):
            raise OSError("injected rollup write failure")
        return self.inner.insert_batch(items)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestEngineFailureRetry:
    def test_failed_rollup_write_retried_without_gap(self):
        inner = MemoryBackend()
        backend = _FailingInserts(inner)
        inner.put_metadata(f"sidmap{TOPIC}", SID.hex())
        engine = RollupEngine(backend)
        items = [(SID, 0, 5, 0), (SID, 12 * NS_PER_SEC, 1, 0)]
        inner.insert_batch(items)
        backend.fail = True
        engine.observe(items)  # rollup write fails; must not raise
        assert engine.coverage(SID, 0) == (0, 0)
        assert engine.metrics.counter("dcdb_rollup_write_errors_total").value >= 1
        backend.fail = False
        more = [(SID, 25 * NS_PER_SEC, 3, 0)]
        inner.insert_batch(more)
        engine.observe(more)
        # Retry covered the whole failed region: both sealed buckets exist.
        fsid = rollup_sid(SID, 0, 3)
        ts, counts = inner.query(fsid, 0, 1 << 62)
        assert ts.tolist() == [0, 10 * NS_PER_SEC]
        assert counts.tolist() == [1, 1]
        assert engine.coverage(SID, 0) == (0, 20 * NS_PER_SEC)


class TestRetention:
    def test_raw_cutoff_clamped_to_coarsest_watermark(self):
        backend = MemoryBackend()
        clock = [0]
        engine, _ = make_env(backend, clock=lambda: clock[0])
        # 30 minutes of data: the 1h tier has sealed nothing.
        ts = [i * NS_PER_SEC for i in range(0, 1800, 10)]
        ingest(backend, engine, SID, ts, [1] * len(ts))
        clock[0] = 10**18
        policy = RetentionPolicy(raw_horizon_s=60)
        removed = engine.apply_retention(policy)
        # 1h watermark is 0 -> nothing may be dropped despite the age.
        assert removed["raw"] == 0
        assert backend.count(SID, 0, 1 << 62) == len(ts)

    def test_raw_demoted_up_to_coarsest_watermark(self):
        backend = MemoryBackend()
        clock = [0]
        engine, _ = make_env(backend, clock=lambda: clock[0])
        ts = [i * NS_PER_SEC for i in range(0, 7300, 10)]
        ingest(backend, engine, SID, ts, [1] * len(ts))
        assert engine.coverage(SID, 2) == (0, 7200 * NS_PER_SEC)
        clock[0] = 7300 * NS_PER_SEC
        policy = RetentionPolicy(raw_horizon_s=1800)
        removed = engine.apply_retention(policy)
        cutoff = min(clock[0] - 1800 * NS_PER_SEC, 7200 * NS_PER_SEC)
        assert removed["raw"] == sum(1 for t in ts if t < cutoff)
        remaining, _ = backend.query(SID, 0, 1 << 62)
        assert remaining.min() >= cutoff
        # Rollups still answer for the demoted span.
        fsid = rollup_sid(SID, 2, 3)
        ts1h, counts = backend.query(fsid, 0, 1 << 62)
        assert ts1h.size == 2 and counts.sum() == 360 * 2  # 10s cadence

    def test_pre_engine_history_backfilled_before_demotion(self):
        # Two hours of raw data ingested before any engine existed: a
        # cold engine that only ever observes the newest reading must
        # fold the whole raw history into the tiers before deleting it
        # (the historical bug dropped it silently — coverage anchored
        # at the newest bucket reads as caught-up to the guard).
        backend = MemoryBackend()
        clock = [0]
        backend.put_metadata(f"sidmap{TOPIC}", SID.hex())
        ts = [i * NS_PER_SEC for i in range(0, 7300, 10)]
        backend.insert_batch([(SID, int(t), i, 0) for i, t in enumerate(ts)])
        engine = RollupEngine(backend, clock=lambda: clock[0])
        client = DCDBClient(backend)
        newest = backend.latest(SID)
        engine.observe([(SID, newest[0], newest[1], 0)])
        clock[0] = 10**18
        removed = engine.apply_retention(RetentionPolicy(raw_horizon_s=60))
        assert removed["raw"] > 0  # demotion really ran
        assert backend.count(SID, 0, 7199 * NS_PER_SEC) == 0
        # No reading was lost: totals served through the planner are
        # exactly those of the original raw series.
        _, counts = client.query_aggregate(TOPIC, 0, ts[-1], "count", 200)
        assert counts.sum() == len(ts)
        _, sums = client.query_aggregate(TOPIC, 0, ts[-1], "sum", 200)
        assert sums.sum() == sum(range(len(ts)))

    def test_raw_demotion_skipped_when_backfill_fails(self):
        inner = MemoryBackend()
        backend = _FailingInserts(inner)
        clock = [0]
        inner.put_metadata(f"sidmap{TOPIC}", SID.hex())
        ts = [i * NS_PER_SEC for i in range(0, 7300, 10)]
        inner.insert_batch([(SID, int(t), 1, 0) for t in ts])
        engine = RollupEngine(backend, clock=lambda: clock[0])
        newest = inner.latest(SID)
        engine.observe([(SID, newest[0], newest[1], 0)])
        backend.fail = True  # backfill's rollup writes fail
        clock[0] = 10**18
        removed = engine.apply_retention(RetentionPolicy(raw_horizon_s=60))
        # Unabsorbed history must survive a failed backfill untouched.
        assert removed["raw"] == 0
        assert inner.count(SID, 0, 1 << 62) == len(ts)

    def test_finer_tier_clamped_to_coarser_watermark(self):
        backend = MemoryBackend()
        clock = [0]
        engine, _ = make_env(backend, clock=lambda: clock[0])
        ts = [i * NS_PER_SEC for i in range(0, 7300, 10)]
        ingest(backend, engine, SID, ts, [1] * len(ts))
        clock[0] = 7300 * NS_PER_SEC
        policy = RetentionPolicy(raw_horizon_s=0, tier_horizons_s=(1800, 0, 0))
        removed = engine.apply_retention(policy)
        assert removed["10s"] > 0
        fsid = rollup_sid(SID, 0, 0)
        remaining, _ = backend.query(fsid, 0, 1 << 62)
        cutoff = min(clock[0] - 1800 * NS_PER_SEC, 7200 * NS_PER_SEC)
        assert remaining.min() >= cutoff
        # The coarsest tier itself is never trimmed by finer horizons.
        fsid1h = rollup_sid(SID, 2, 0)
        assert backend.query(fsid1h, 0, 1 << 62)[0].size == 2


@pytest.mark.parametrize("kind", ["memory", "sqlite", "cluster"])
class TestTierRawIdentity:
    """Tier-served aggregates must be bit-identical to raw-computed."""

    def _populate(self, kind, seconds=7300, step=5, seed=11):
        backend = make_backend(kind)
        engine, client = make_env(backend)
        rng = np.random.default_rng(seed)
        ts = np.arange(0, seconds, step, dtype=np.int64) * NS_PER_SEC
        vals = rng.integers(-(10**6), 10**6, size=ts.size)
        # Interleave some duplicate timestamps: LWW must hold in both
        # the raw and the tier-served path.
        dup_idx = rng.choice(ts.size, size=25, replace=False)
        ingest(backend, engine, SID, ts.tolist(), vals.tolist())
        dup_items = [
            (SID, int(ts[i]), int(vals[i]) + 7, 0) for i in sorted(dup_idx)
        ]
        backend.insert_batch(dup_items)
        engine.observe(dup_items)
        return backend, engine, client

    def test_all_aggregations_bit_identical(self, kind):
        backend, _, client = self._populate(kind)
        start, end = 0, 7295 * NS_PER_SEC
        plan = client.plan_aggregate(TOPIC, start, end, 200)
        assert plan.tier_index is not None  # must actually use a tier
        for aggregation in AGGREGATIONS:
            got_ts, got_vals = client.query_aggregate(
                TOPIC, start, end, aggregation, 200
            )
            ref_ts, ref_vals = raw_reference(
                backend, SID, start, end, plan.bucket_ns, aggregation
            )
            assert np.array_equal(got_ts, ref_ts)
            assert np.array_equal(got_vals, ref_vals), aggregation
        backend.close()

    def test_window_edges_split_buckets(self, kind):
        backend, _, client = self._populate(kind)
        # Start/end deliberately misaligned with every tier boundary.
        start = 137 * NS_PER_SEC + 1
        end = 7211 * NS_PER_SEC - 3
        plan = client.plan_aggregate(TOPIC, start, end, 300)
        assert plan.tier_index is not None
        assert start < plan.head_end  # partial head bucket exists
        got_ts, got_vals = client.query_aggregate(TOPIC, start, end, "avg", 300)
        ref_ts, ref_vals = raw_reference(
            backend, SID, start, end, plan.bucket_ns, "avg"
        )
        assert np.array_equal(got_ts, ref_ts)
        assert np.array_equal(got_vals, ref_vals)
        backend.close()

    def test_unsealed_tail_served_from_raw(self, kind):
        backend, engine, client = self._populate(kind)
        lo, hi = engine.coverage(SID, 0)
        start, end = 0, hi + 3600 * NS_PER_SEC  # far past the watermark
        got_ts, got_vals = client.query_aggregate(TOPIC, start, end, "sum", 200)
        plan = client.plan_aggregate(TOPIC, start, end, 200)
        ref_ts, ref_vals = raw_reference(
            backend, SID, start, end, plan.bucket_ns, "sum"
        )
        assert np.array_equal(got_ts, ref_ts)
        assert np.array_equal(got_vals, ref_vals)
        backend.close()

    def test_query_aggregate_many_matches_single(self, kind):
        backend, _, client = self._populate(kind)
        start, end = 100 * NS_PER_SEC, 7000 * NS_PER_SEC
        many = client.query_aggregate_many([TOPIC], start, end, "max", 250)
        single = client.query_aggregate(TOPIC, start, end, "max", 250)
        assert np.array_equal(many[TOPIC][0], single[0])
        assert np.array_equal(many[TOPIC][1], single[1])
        backend.close()


class TestPlannerFallbacks:
    def test_no_rollups_means_raw_plan(self):
        backend = MemoryBackend()
        backend.put_metadata(f"sidmap{TOPIC}", SID.hex())
        client = DCDBClient(backend)
        backend.insert(SID, 0, 1)
        plan = client.plan_aggregate(TOPIC, 0, 3600 * NS_PER_SEC, 10)
        assert plan.tier_index is None and plan.tier_label == "raw"

    def test_fine_resolution_needs_raw(self):
        backend = MemoryBackend()
        engine, client = make_env(backend)
        ts = [i * NS_PER_SEC for i in range(0, 100)]
        ingest(backend, engine, SID, ts, [1] * len(ts))
        # 99s window / 1000 points -> sub-second buckets: no tier fits.
        plan = client.plan_aggregate(TOPIC, 0, 99 * NS_PER_SEC, 1000)
        assert plan.tier_index is None
        got_ts, got_vals = client.query_aggregate(TOPIC, 0, 99 * NS_PER_SEC, "avg", 1000)
        assert got_ts.size == len(ts) and np.all(got_vals == 1.0)

    def test_output_buckets_bounded_by_max_points(self):
        backend = MemoryBackend()
        backend.put_metadata(f"sidmap{TOPIC}", SID.hex())
        client = DCDBClient(backend)
        for t in range(10):
            backend.insert(SID, t, 1)
        # Inclusive 10-tick window over 5 points: the exclusive-window
        # arithmetic used to pick bucket_ns=1 and emit 10 buckets.
        plan = client.plan_aggregate(TOPIC, 0, 9, 5)
        assert plan.bucket_ns == 2
        got_ts, _ = client.query_aggregate(TOPIC, 0, 9, "count", 5)
        assert got_ts.size <= 5

    def test_tier_metric_counts_selection(self):
        backend = MemoryBackend()
        engine, client = make_env(backend)
        ts = [i * NS_PER_SEC for i in range(0, 7300, 5)]
        ingest(backend, engine, SID, ts, [1] * len(ts))
        client.query_aggregate(TOPIC, 0, 7200 * NS_PER_SEC, "avg", 100)
        client.query_aggregate(TOPIC, 0, 50 * NS_PER_SEC, "avg", 1000)
        samples = {}
        for family in client.metrics.collect():
            if family.name == "dcdb_rollup_tier_selected_total":
                for sample in family.samples:
                    samples[dict(sample.labels)["tier"]] = sample.value
        assert samples.get("raw") == 1
        assert sum(samples.values()) == 2

    def test_custom_tier_config_validation(self):
        with pytest.raises(ValueError):
            RollupConfig(tiers=(RollupTier("7s", 7), RollupTier("10s", 10)))
        with pytest.raises(ValueError):
            RetentionPolicy(raw_horizon_s=-1)


# -- running aggregates == raw, under every fallback ------------------------

#: A ladder in plain ticks keeps a property run to a few thousand rows
#: while still crossing hundreds of boundaries of every tier.
SMALL_TIERS = (RollupTier("t10", 10), RollupTier("t60", 60), RollupTier("t360", 360))
SENSORS = [SensorId.from_codes([9, 1, i + 1]) for i in range(5)]


class _Flaky(_FailingInserts):
    """Also fails metadata batches on demand and counts series reads."""

    def __init__(self, inner):
        super().__init__(inner)
        self.fail_meta = False
        self.reads = 0

    def put_metadata_many(self, pairs):
        if self.fail_meta:
            raise OSError("injected coverage write failure")
        return self.inner.put_metadata_many(pairs)

    def query(self, sid, start, end):
        self.reads += 1
        return self.inner.query(sid, start, end)

    def query_many(self, sids, start, end):
        self.reads += 1
        return self.inner.query_many(sids, start, end)


def assert_tiers_equal_raw(inner, engine, sids=SENSORS, tiers=SMALL_TIERS):
    """Inside every persisted coverage window the stored tier rows are
    exactly ``aggregate_buckets`` of the stored raw series, and the
    persisted window is the engine's."""
    for sid in sids:
        raw_ts, raw_vals = inner.query(sid, 0, 1 << 62)
        for tier_index, tier in enumerate(tiers):
            text = inner.get_metadata(coverage_key(sid, tier.label))
            span = engine.coverage(sid, tier_index)
            if text is None:
                assert span is None or span[0] == span[1], (sid, tier.label)
                continue
            doc = json.loads(text)
            lo, hi = doc["lo"], doc["hi"]
            # (A restarted engine has no window before the sensor's next reading.)
            assert span in (None, (lo, hi)), (sid, tier.label)
            left, right = np.searchsorted(raw_ts, (lo, hi))
            expect = aggregate_buckets(raw_ts[left:right], raw_vals[left:right], tier.bucket_ns)
            for field_index, column in enumerate(expect[1:]):
                ts, vals = inner.query(rollup_sid(sid, tier_index, field_index), lo, hi - 1)
                assert ts.tolist() == expect[0].tolist(), (sid, tier.label, FIELDS[field_index])
                assert vals.tolist() == column.tolist(), (sid, tier.label, FIELDS[field_index])


class TestRunningAggregatesProperty:
    @pytest.mark.parametrize("seed", range(12))
    def test_tiers_equal_raw_after_every_step(self, seed):
        rng = np.random.default_rng(seed)
        inner = MemoryBackend()
        backend = _Flaky(inner)
        config = RollupConfig(tiers=SMALL_TIERS)
        # History from before the engine, reaching into the bucket the
        # first observed reading of two sensors will land in.
        clocks = {sid: int(rng.integers(0, 40)) for sid in SENSORS}
        for sid in SENSORS[:2]:
            times = np.unique(rng.integers(max(0, clocks[sid] - 30), clocks[sid] + 1, 12))
            inner.insert_batch([(sid, int(t), int(rng.integers(-99, 99)), 0) for t in times])
        engine = RollupEngine(backend, config)

        def fresh(sid, count):
            """``count`` in-order readings, newer than everything stored."""
            out = []
            for _ in range(count):
                clocks[sid] += int(rng.integers(1, 9))
                out.append((sid, clocks[sid], int(rng.integers(-(10**6), 10**6)), 0))
            return out

        def stored(sid):
            ts, _ = inner.query(sid, 0, 1 << 62)
            return ts

        for _step in range(80):
            kind = rng.choice(
                ["grid", "burst", "late", "duplicate", "fail", "fail_meta", "restart"],
                p=[0.3, 0.25, 0.12, 0.12, 0.07, 0.07, 0.07],
            )
            sid = SENSORS[int(rng.integers(len(SENSORS)))]
            if kind == "grid":  # one reading each, many sensors
                items = [item for s in SENSORS if rng.random() < 0.8 for item in fresh(s, 1)]
            elif kind == "burst":  # many readings, one sensor
                items = fresh(sid, int(rng.integers(5, 120)))
            elif kind == "late" and stored(sid).size:  # below (or inside) what is sealed
                old = int(rng.integers(0, int(stored(sid)[-1]) + 1))
                items = [(sid, old, int(rng.integers(-99, 99)), 0)] + fresh(sid, int(rng.integers(0, 3)))
            elif kind == "duplicate" and stored(sid).size:  # same timestamp, other value
                ts = stored(sid)
                # Of any stored reading, or of the very newest — first
                # across batches, then within one.
                again = int(ts[-1] if rng.random() < 0.5 else ts[int(rng.integers(ts.size))])
                items = [(sid, again, 12345, 0)] + fresh(sid, 2)
                items.append((sid, clocks[sid], -54321, 0))
            elif kind == "restart":
                engine = RollupEngine(backend, config)
                continue
            else:
                items = fresh(sid, int(rng.integers(1, 40)))
            failing = kind in ("fail", "fail_meta")
            backend.fail = kind == "fail"
            backend.fail_meta = kind == "fail_meta"
            if items:
                inner.insert_batch(items)
                engine.observe(items)
            if failing:
                # What failed is retried, in full, once writes work again.
                backend.fail = backend.fail_meta = False
                engine.flush()
                assert engine.status()["pendingSensors"] == 0
            assert_tiers_equal_raw(inner, engine)
        # The run got as far as sealing the coarsest tier.
        docs = [inner.get_metadata(coverage_key(sid, "t360")) for sid in SENSORS]
        assert any(doc and json.loads(doc)["hi"] > json.loads(doc)["lo"] for doc in docs), seed

    @pytest.mark.parametrize("shape", ["grid", "burst"])
    def test_in_order_ingest_never_reads_back(self, shape):
        rng = np.random.default_rng(5)
        inner = MemoryBackend()
        backend = _Flaky(inner)
        engine = RollupEngine(backend, RollupConfig(tiers=SMALL_TIERS))
        clock = 0

        def step():
            nonlocal clock
            if shape == "grid":
                clock += int(rng.integers(1, 9))
                return [(sid, clock, int(rng.integers(-999, 999)), 0) for sid in SENSORS]
            sid = SENSORS[int(rng.integers(len(SENSORS)))]
            ts, _ = inner.query(sid, 0, 1 << 62)
            base = int(ts[-1]) if ts.size else 0
            return [(sid, base + 1 + 3 * i, int(rng.integers(-999, 999)), 0) for i in range(150)]

        def run(steps):
            for _ in range(steps):
                items = step()
                inner.insert_batch(items)
                engine.observe(items)

        # Until every tier of every sensor has sealed once the engine
        # cannot know what was stored before it: those seals read back.
        run(400 if shape == "grid" else 30)
        assert all(engine.coverage(sid, 2)[1] > engine.coverage(sid, 2)[0] for sid in SENSORS)
        backend.reads = 0
        sealed = engine.metrics.counter("dcdb_rollup_flushes_total").value
        run(400 if shape == "grid" else 30)
        assert backend.reads == 0
        assert engine.metrics.counter("dcdb_rollup_flushes_total").value > sealed
        assert engine.metrics.counter("dcdb_rollup_write_errors_total").value == 0
        assert_tiers_equal_raw(inner, engine)

    def test_one_write_per_pass_and_exact_counters(self):
        inner = MemoryBackend()
        calls = {"insert_batch": 0, "put_metadata_many": 0}

        class Counting(_FailingInserts):
            def insert_batch(self, items):
                calls["insert_batch"] += 1
                return super().insert_batch(items)

            def put_metadata_many(self, pairs):
                calls["put_metadata_many"] += 1
                return self.inner.put_metadata_many(pairs)

        engine = RollupEngine(Counting(inner), RollupConfig(tiers=SMALL_TIERS))
        for now in (1, 4, 12, 15, 23, 61, 64):
            items = [(sid, now, now, 0) for sid in SENSORS]
            inner.insert_batch(items)
            before = dict(calls)
            engine.observe(items)
            # However many sensors sealed: at most one write of each kind.
            assert calls["insert_batch"] - before["insert_batch"] <= 1
            assert calls["put_metadata_many"] - before["put_metadata_many"] <= 1
        value = engine.metrics.value
        # Buckets [0,10) [10,20) [20,30) [60,70)-open: 3 sealed t10 buckets
        # and one t60 bucket per sensor; seals at 12, 23 and 61.
        assert value("dcdb_rollup_buckets_written_total", {"tier": "t10"}) == 3 * len(SENSORS)
        assert value("dcdb_rollup_buckets_written_total", {"tier": "t60"}) == len(SENSORS)
        assert value("dcdb_rollup_flushes_total") == 3 * len(SENSORS)
        assert engine.status()["pendingSensors"] == 0
        assert_tiers_equal_raw(inner, engine)
