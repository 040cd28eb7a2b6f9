"""Block cache battery: budget/eviction mechanics and the node-level
invalidation + concurrency contracts of the durable read path.

The cache itself is a dumb byte-budgeted LRU (unit tests below); what
actually matters is how :class:`~repro.storage.durable.DurableNode`
drives it — stale entries must vanish when a compaction swaps files or
a retention cutoff moves, cached blocks must be safely shareable
between concurrent readers, and a disabled cache (budget 0) must give
bit-identical query results.
"""

import threading

import numpy as np

from repro.core.sid import SensorId
from repro.storage.durable import DurableNode
from repro.storage.durable.blockcache import BlockCache
from repro.storage.node import _Segment

SID = SensorId.from_codes([1, 2, 3])
SID_B = SensorId.from_codes([1, 2, 4])


def _block(rows: int) -> _Segment:
    ts = np.arange(rows, dtype=np.int64)
    return _Segment(ts, ts.copy(), np.full(rows, (1 << 63) - 1, dtype=np.int64))


def _nbytes(segment: _Segment) -> int:
    return segment.timestamps.nbytes + segment.values.nbytes + segment.expiries.nbytes


class TestBlockCacheUnit:
    def test_hit_miss_and_byte_accounting(self):
        cache = BlockCache(1 << 20)
        assert cache.get("f1", SID) is None
        block = _block(10)
        cache.put("f1", SID, block)
        assert cache.get("f1", SID) is block
        assert cache.bytes == _nbytes(block)
        assert len(cache) == 1

    def test_evicts_least_recently_used_first(self):
        one = _nbytes(_block(100))
        cache = BlockCache(3 * one)
        sids = [SensorId.from_codes([1, 2, i]) for i in range(4)]
        for i in range(3):
            cache.put("f", sids[i], _block(100))
        # Touch block 0 so block 1 becomes the LRU victim.
        assert cache.get("f", sids[0]) is not None
        cache.put("f", sids[3], _block(100))
        assert cache.bytes <= 3 * one
        assert cache.get("f", sids[1]) is None, "LRU entry survived eviction"
        assert cache.get("f", sids[0]) is not None
        assert cache.get("f", sids[2]) is not None
        assert cache.get("f", sids[3]) is not None

    def test_replacement_of_same_key_does_not_leak_bytes(self):
        cache = BlockCache(1 << 20)
        cache.put("f", SID, _block(100))
        cache.put("f", SID, _block(50))
        assert cache.bytes == _nbytes(_block(50))
        assert len(cache) == 1

    def test_oversized_single_block_stays_until_displaced(self):
        small = _nbytes(_block(10))
        cache = BlockCache(small)
        cache.put("f", SID, _block(1000))  # alone: bigger than the budget
        assert len(cache) == 1
        cache.put("f", SID_B, _block(10))  # anything else displaces it
        assert cache.get("f", SID) is None
        assert cache.get("f", SID_B) is not None

    def test_budget_zero_disables_caching(self):
        cache = BlockCache(0)
        cache.put("f", SID, _block(10))
        assert len(cache) == 0
        assert cache.bytes == 0
        assert cache.get("f", SID) is None

    def test_invalidate_file(self):
        cache = BlockCache(1 << 20)
        cache.put("f1", SID, _block(10))
        cache.put("f1", SID_B, _block(10))
        cache.put("f2", SID, _block(10))
        assert cache.invalidate_file("f1") == 2
        assert cache.get("f1", SID) is None
        assert cache.get("f2", SID) is not None
        assert cache.invalidate_file("f2") == 1
        assert cache.bytes == 0
        assert len(cache) == 0


def make_node(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "always")
    return DurableNode("n0", data_dir=tmp_path / "n0", **kwargs)


def _reopened_with_files(tmp_path, batches=4, rows=100, **kwargs):
    """A node whose data sits in on-disk segment files (reopen drops
    the memory copies), so reads exercise the disk/cache path."""
    node = make_node(tmp_path, max_segment_files=100)
    for b in range(batches):
        node.insert_batch(
            [(SID, b * rows + i, b * 1000 + i, 0) for i in range(rows)]
        )
        node.flush()
    node.close()
    return make_node(tmp_path, max_segment_files=100, **kwargs)


class TestNodeCacheIntegration:
    def test_repeat_window_read_hits_cache(self, tmp_path):
        node = _reopened_with_files(tmp_path)
        node.query(SID, 0, 50)
        misses0 = node.metrics.value(
            "dcdb_segment_block_cache_misses_total", {"node": "n0"}
        )
        node.query(SID, 0, 50)
        assert (
            node.metrics.value("dcdb_segment_block_cache_hits_total", {"node": "n0"})
            >= 1
        )
        assert (
            node.metrics.value("dcdb_segment_block_cache_misses_total", {"node": "n0"})
            == misses0
        )
        node.close()

    def test_delete_before_invalidates_and_refilters(self, tmp_path):
        node = _reopened_with_files(tmp_path)
        assert node.query(SID, 0, 1 << 62)[0].size == 400  # blocks now cached
        removed = node.delete_before(SID, 150)
        assert removed == 150
        assert node.query(SID, 0, 1 << 62)[0].tolist() == list(range(150, 400))
        node.close()

    def test_compaction_swap_invalidates_victim_entries(self, tmp_path):
        node = _reopened_with_files(tmp_path)
        assert node.query(SID, 0, 1 << 62)[0].size == 400
        assert len(node._block_cache) == 4
        node.max_segment_files = 1
        assert node.wait_for_compaction(timeout_s=30.0)
        assert node.segment_file_count == 1
        assert len(node._block_cache) == 0, "swap left stale victim blocks cached"
        assert node.query(SID, 0, 1 << 62)[0].size == 400
        node.close()

    def test_full_compact_clears_cache(self, tmp_path):
        node = _reopened_with_files(tmp_path)
        node.query(SID, 0, 1 << 62)
        assert len(node._block_cache) > 0
        node.compact()
        assert len(node._block_cache) == 0
        assert node.query(SID, 0, 1 << 62)[0].size == 400
        node.close()

    def test_cached_blocks_are_read_only(self, tmp_path):
        node = _reopened_with_files(tmp_path)
        node.query(SID, 0, 1 << 62)
        ((_, block),) = [
            (key, seg) for key, seg in node._block_cache._entries.items()
        ][:1]
        assert not block.timestamps.flags.writeable
        assert not block.values.flags.writeable
        assert not block.expiries.flags.writeable
        node.close()

    def test_budget_zero_gives_identical_results(self, tmp_path):
        cached = _reopened_with_files(tmp_path / "a")
        uncached = _reopened_with_files(tmp_path / "b", block_cache_bytes=0)
        for window in [(0, 1 << 62), (50, 250), (399, 399), (1000, 2000)]:
            ct, cv = cached.query(SID, *window)
            ut, uv = uncached.query(SID, *window)
            assert ct.tolist() == ut.tolist()
            assert cv.tolist() == uv.tolist()
        assert len(uncached._block_cache) == 0
        assert cached.state_fingerprint() == uncached.state_fingerprint()
        cached.close()
        uncached.close()

    def test_concurrent_readers_and_background_compaction(self, tmp_path):
        """Readers racing evictions and a background merge swap must
        only ever see complete, correct series."""
        node = make_node(tmp_path, max_segment_files=100)
        for b in range(8):
            node.insert_batch(
                [(SID, b * 100 + i, b * 1000 + i, 0) for i in range(100)]
            )
            node.flush()
        node.close()
        # Tiny budget forces constant decode/evict churn underneath the
        # readers while the backlog compacts in the background.
        node = make_node(
            tmp_path,
            max_segment_files=2,
            block_cache_bytes=4096,
        )
        expected = [b * 1000 + i for b in range(8) for i in range(100)]
        errors: list[str] = []

        def reader() -> None:
            for _ in range(30):
                ts, vals = node.query(SID, 0, 1 << 62)
                if ts.size != 800 or vals.tolist() != expected:
                    errors.append(f"bad read: {ts.size} rows")
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        node._compact_wake.set()
        for t in threads:
            t.join()
        assert not errors
        assert node.wait_for_compaction(timeout_s=30.0)
        assert node.query(SID, 0, 1 << 62)[0].size == 800
        node.close()
