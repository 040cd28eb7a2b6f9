"""Unit battery for the durable storage engine: WAL, segments, recovery.

Covers the crash/corruption matrix at the component level — torn
tails, flipped CRC bytes, injected torn writes / fsync failures /
short reads via :class:`~repro.faults.DiskFaultInjector` — plus the
tiered-compaction and checkpoint invariants.  The process-kill
acceptance scenarios live in ``tests/integration/test_chaos_durability.py``.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.sid import SensorId
from repro.faults import DiskFaultInjector
from repro.storage.durable import DurableNode, scan_wal_file
from repro.storage.durable.segment import SegmentFile, segment_path, write_segment
from repro.storage.durable.wal import DATA, META, WriteAheadLog, wal_path

SID = SensorId.from_codes([1, 2, 3])
SID_B = SensorId.from_codes([1, 2, 4])
FAR_FUTURE = (1 << 63) - 1


def make_node(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "always")
    return DurableNode("n0", data_dir=tmp_path / "n0", **kwargs)


# -- write-ahead log ------------------------------------------------------


class TestWalFraming:
    def test_append_scan_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 1, fsync="always")
        payloads = [bytes([i]) * (i + 1) for i in range(20)]
        for p in payloads:
            wal.append(DATA, p)
        wal.append(META, b"k=v")
        wal.commit()
        wal.close()
        scan = scan_wal_file(wal_path(tmp_path, 1), 1)
        assert scan.truncated_reason is None
        assert [r.payload for r in scan.records[:-1]] == payloads
        assert scan.records[-1].rtype == META
        assert all(r.seq == 1 for r in scan.records)

    def test_torn_tail_recovers_to_last_valid_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 1, fsync="always")
        for i in range(10):
            wal.append(DATA, bytes([i]) * 32)
        wal.close()
        path = wal_path(tmp_path, 1)
        full = path.read_bytes()
        # Chop mid-way through the last frame: the power-loss artefact.
        path.write_bytes(full[:-17])
        scan = scan_wal_file(path, 1)
        assert len(scan.records) == 9
        assert "torn" in scan.truncated_reason
        assert scan.valid_bytes < len(full)

    def test_corrupt_crc_stops_scan_with_diagnostic(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 1, fsync="always")
        frame_len = wal.append(DATA, b"A" * 32)
        wal.append(DATA, b"B" * 32)
        wal.append(DATA, b"C" * 32)
        wal.close()
        path = wal_path(tmp_path, 1)
        raw = bytearray(path.read_bytes())
        raw[frame_len + 25] ^= 0xFF  # flip a payload byte of frame 2
        path.write_bytes(bytes(raw))
        scan = scan_wal_file(path, 1)
        assert len(scan.records) == 1
        assert "CRC mismatch" in scan.truncated_reason

    def test_wrong_seq_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 5, fsync="always")
        wal.append(DATA, b"x")
        wal.close()
        renamed = wal_path(tmp_path, 9)
        os.rename(wal_path(tmp_path, 5), renamed)
        scan = scan_wal_file(renamed, 9)
        assert scan.records == []
        assert "wrong file seq" in scan.truncated_reason

    def test_rotate_and_delete_below(self, tmp_path):
        wal = WriteAheadLog(tmp_path, 1, fsync="off")
        wal.append(DATA, b"old")
        assert wal.rotate() == 2
        wal.append(DATA, b"new")
        assert wal.delete_below(2) == 1
        assert not wal_path(tmp_path, 1).exists()
        assert wal_path(tmp_path, 2).exists()
        wal.close()

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path, 1, fsync="sometimes")

    def test_policy_always_syncs_per_commit_off_never(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "o").mkdir()
        always = WriteAheadLog(tmp_path / "a", 1, fsync="always")
        off = WriteAheadLog(tmp_path / "o", 1, fsync="off")
        for wal, expect_syncs in ((always, 3), (off, 0)):
            for _ in range(3):
                wal.append(DATA, b"p")
                wal.commit()
            assert wal.syncs == expect_syncs
            wal.close()


# -- segment files --------------------------------------------------------


def _arrays(ts, vals):
    ts = np.array(ts, dtype=np.int64)
    vals = np.array(vals, dtype=np.int64)
    exp = np.full(ts.size, FAR_FUTURE, dtype=np.int64)
    return ts, vals, exp


class TestSegmentFile:
    def test_write_read_round_trip(self, tmp_path):
        path = segment_path(tmp_path, 1)
        a = _arrays([10, 20, 30], [1, 2, 3])
        b = _arrays([5, 15], [-7, 7])
        stats = write_segment(path, [(SID, *a), (SID_B, *b)])
        assert stats.rows == 5 and stats.sensors == 2
        assert stats.raw_bytes == 5 * 24
        seg = SegmentFile(path)
        assert seg.sids() == sorted([SID, SID_B])
        for sid, (ts, vals, exp) in ((SID, a), (SID_B, b)):
            rts, rvals, rexp = seg.read(sid)
            assert rts.tolist() == ts.tolist()
            assert rvals.tolist() == vals.tolist()
            assert rexp.tolist() == exp.tolist()
        assert SensorId.from_codes([9]) not in seg
        seg.close()

    def test_empty_input_writes_nothing(self, tmp_path):
        path = segment_path(tmp_path, 1)
        assert write_segment(path, []) is None
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_tmp_left_behind(self, tmp_path):
        path = segment_path(tmp_path, 1)
        write_segment(path, [(SID, *_arrays([1], [1]))])
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_block_crc_raises_on_read(self, tmp_path):
        path = segment_path(tmp_path, 1)
        write_segment(path, [(SID, *_arrays(range(100), range(100)))])
        raw = bytearray(path.read_bytes())
        raw[12] ^= 0xFF  # inside the first sensor block
        path.write_bytes(bytes(raw))
        seg = SegmentFile(path)  # framing (footer) still intact
        with pytest.raises(StorageError, match="block CRC"):
            seg.read(SID)
        seg.close()

    def test_corrupt_footer_raises_at_open(self, tmp_path):
        path = segment_path(tmp_path, 1)
        write_segment(path, [(SID, *_arrays([1, 2], [1, 2]))])
        raw = bytearray(path.read_bytes())
        raw[-24] ^= 0xFF  # a footer-entry byte
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="footer CRC"):
            SegmentFile(path)

    def test_truncated_file_raises_at_open(self, tmp_path):
        path = segment_path(tmp_path, 1)
        write_segment(path, [(SID, *_arrays([1, 2], [1, 2]))])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StorageError):
            SegmentFile(path)


# -- node recovery --------------------------------------------------------


class TestDurableNodeRecovery:
    def test_second_open_of_a_directory_is_refused(self, tmp_path):
        """Two nodes on one directory checkpoint over each other's
        WAL and manifest: with three acknowledged 100-row batches
        (fsync always) written by the first, the second and the first
        again, a reopen after both closed found 100 rows.  The second
        opener is refused until the first closes."""
        node = make_node(tmp_path)
        with pytest.raises(StorageError, match="n0 is already open"):
            make_node(tmp_path)
        node.insert(SID, 1, 1)
        node.close()
        reopened = make_node(tmp_path)
        assert reopened.query(SID, 0, 10)[1].tolist() == [1]
        reopened.close()

    def test_unflushed_writes_survive_reopen(self, tmp_path):
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t * 2, 0) for t in range(100)])
        node.put_metadata("sidmap/x", "y")
        before = node.state_fingerprint()
        node.close()  # no flush: everything lives in the WAL

        recovered = make_node(tmp_path)
        assert recovered.recovery_info["wal_records_replayed"] == 2
        assert recovered.query(SID, 0, 1000)[1].tolist() == [t * 2 for t in range(100)]
        assert recovered.get_metadata("sidmap/x") == "y"
        assert recovered.state_fingerprint() == before
        recovered.close()

    def test_recovery_converges_to_clean_log(self, tmp_path):
        node = make_node(tmp_path)
        node.insert(SID, 1, 1)
        node.close()
        first = make_node(tmp_path)
        assert first.recovery_info["wal_records_replayed"] == 1
        first.close()
        # Recovery sealed + checkpointed, so a second reopen replays nothing.
        second = make_node(tmp_path)
        assert second.recovery_info["wal_records_replayed"] == 0
        assert second.recovery_info["segments_loaded"] == 1
        assert second.query(SID, 0, 10)[1].tolist() == [1]
        second.close()

    def test_flushed_data_reads_from_disk_segments(self, tmp_path):
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t, 0) for t in range(500)])
        node.flush()
        fp = node.state_fingerprint()
        node.close()
        recovered = make_node(tmp_path)
        assert recovered.recovery_info["segments_loaded"] >= 1
        assert recovered.recovery_info["wal_records_replayed"] == 0
        assert recovered.state_fingerprint() == fp
        ts, vals = recovered.query(SID, 100, 199)
        assert ts.tolist() == list(range(100, 200))
        recovered.close()

    def test_lww_across_crash_overlap(self, tmp_path):
        """A crash between seal and checkpoint double-applies the WAL
        over sealed rows; last-write-wins keeps the overwrite."""
        node = make_node(tmp_path)
        node.insert(SID, 5, 1)
        node.flush()
        node.insert(SID, 5, 2)  # overwrite, still WAL-only
        node.close()
        recovered = make_node(tmp_path)
        ts, vals = recovered.query(SID, 0, 10)
        assert ts.tolist() == [5] and vals.tolist() == [2]
        recovered.close()

    def test_delete_before_survives_reopen(self, tmp_path):
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t, 0) for t in range(10)])
        node.flush()
        assert node.delete_before(SID, 5) == 5
        node.close()
        recovered = make_node(tmp_path)
        assert recovered.query(SID, 0, 100)[0].tolist() == [5, 6, 7, 8, 9]
        recovered.close()

    def test_ttl_expiry_respected_after_reopen(self, tmp_path):
        clock = SimClock(0)
        node = DurableNode("n0", data_dir=tmp_path / "n0", fsync="always", clock=clock)
        node.insert(SID, 0, 1, ttl_s=1)
        node.insert(SID, 1, 2, ttl_s=0)
        node.close()
        late = SimClock(20 * NS_PER_SEC)
        recovered = DurableNode("n0", data_dir=tmp_path / "n0", fsync="always", clock=late)
        assert recovered.query(SID, 0, 10)[1].tolist() == [2]
        recovered.close()

    def test_replay_exceeding_flush_threshold_survives_second_reopen(self, tmp_path):
        """Mid-replay memtable flushes must not lose the frozen rows.

        When the replayed WAL holds more rows than ``flush_threshold``
        (threshold change across restart, WAL accumulation after a
        swallowed seal failure), replay seals the memtable mid-stream;
        those frozen segments must still reach a segment file before
        the recovery-ending checkpoint truncates the WAL — their only
        durable copy.  Regression: they were dropped, so the *second*
        reopen silently lost acknowledged writes."""
        node = make_node(tmp_path)  # default threshold: nothing seals
        node.insert_batch([(SID, t, t * 2, 0) for t in range(207)])
        before = node.state_fingerprint()
        node.close()

        first = make_node(tmp_path, flush_threshold=50)
        assert first.recovery_info["wal_records_replayed"] == 1
        assert first.row_count == 207
        assert first.state_fingerprint() == before
        first.close()

        second = make_node(tmp_path, flush_threshold=50)
        assert second.row_count == 207, "acknowledged writes lost on second reopen"
        assert second.state_fingerprint() == before
        # Recovery converged to a clean log: nothing left to replay.
        assert second.recovery_info["wal_records_replayed"] == 0
        second.close()

    def test_replay_exact_threshold_multiple_still_checkpoints(self, tmp_path):
        """Replay count == k * flush_threshold: the memtable empties on
        the final mid-replay seal, so the recovery-ending flush freezes
        nothing — the frozen segments must be persisted regardless."""
        node = make_node(tmp_path)
        for t in range(100):
            node.insert(SID, t, t)
        before = node.state_fingerprint()
        node.close()

        first = make_node(tmp_path, flush_threshold=50)
        assert first.state_fingerprint() == before
        first.close()
        second = make_node(tmp_path, flush_threshold=50)
        assert second.row_count == 100
        assert second.state_fingerprint() == before
        second.close()

    def test_stray_nonconforming_files_do_not_abort_recovery(self, tmp_path):
        """A hand-named copy or editor backup matching seg-*.seg /
        wal-*.log must be skipped and reported, never refuse startup."""
        node = make_node(tmp_path)
        node.insert(SID, 1, 1)
        node.flush()
        node.close()
        data_dir = tmp_path / "n0"
        (data_dir / "seg-backup.seg").write_bytes(b"not a segment")
        (data_dir / "wal-copy.log").write_bytes(b"not a wal")

        recovered = make_node(tmp_path)
        assert sorted(recovered.recovery_info["unrecognized_files"]) == [
            "seg-backup.seg",
            "wal-copy.log",
        ]
        assert recovered.query(SID, 0, 10)[1].tolist() == [1]
        # Skipped, not swept: recovery never deletes what it cannot parse.
        assert (data_dir / "seg-backup.seg").exists()
        assert (data_dir / "wal-copy.log").exists()
        recovered.close()

    def test_introspection_counts_do_not_decode_disk_blocks(self, tmp_path):
        """row_count / segment_count (exported as gauges on every
        /metrics scrape) must come from the segment footer index, not
        from decoding every on-disk block."""
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t, 0) for t in range(300)])
        node.insert_batch([(SID_B, t, t, 0) for t in range(200)])
        node.flush()
        node.close()

        recovered = make_node(tmp_path)
        assert recovered.row_count == 500
        assert recovered.segment_count == 2
        assert len(recovered._block_cache) == 0, "scrape decoded disk blocks"
        # Reads decode on demand through the block cache and agree with
        # the footer counts; the runs stay file-backed — a read never
        # converts a disk block into permanent residency.
        assert recovered.query(SID, 0, 1 << 62)[0].size == 300
        assert len(recovered._block_cache) == 1
        assert recovered.segment_count == 2 and recovered.segment_file_count == 1
        assert recovered.row_count == 500
        recovered.close()

    def test_orphan_tmp_and_unlisted_segment_swept(self, tmp_path):
        node = make_node(tmp_path)
        node.insert(SID, 1, 1)
        node.flush()
        node.close()
        data_dir = tmp_path / "n0"
        (data_dir / "junk.tmp").write_bytes(b"half-written")
        # A seal that crashed before checkpoint: file exists, manifest
        # does not list it — its rows are still in the WAL.
        write_segment(segment_path(data_dir, 99), [(SID_B, *_arrays([1], [1]))])
        recovered = make_node(tmp_path)
        assert recovered.recovery_info["orphans_removed"] == 2
        assert not (data_dir / "junk.tmp").exists()
        assert not segment_path(data_dir, 99).exists()
        assert recovered.query(SID_B, 0, 10)[0].size == 0
        recovered.close()

    def test_unsupported_manifest_format_refuses(self, tmp_path):
        node = make_node(tmp_path)
        node.insert(SID, 1, 1)
        node.flush()
        node.close()
        manifest = tmp_path / "n0" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["format"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="manifest format"):
            make_node(tmp_path)

    def test_wal_trimmed_after_seal(self, tmp_path):
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t, 0) for t in range(100)])
        node.flush()
        data_dir = tmp_path / "n0"
        logs = sorted(data_dir.glob("wal-*.log"))
        # Only the fresh post-rotation file remains, and it is empty.
        assert len(logs) == 1
        assert logs[0].stat().st_size == 0
        assert node.wal.rotations >= 1
        node.close()


class TestTornAndCorruptRecovery:
    def _populated_then_closed(self, tmp_path, batches=10):
        node = make_node(tmp_path)
        for b in range(batches):
            node.insert_batch([(SID, b * 100 + i, b, 0) for i in range(100)])
        node.close()
        logs = sorted((tmp_path / "n0").glob("wal-*.log"))
        assert len(logs) == 1
        return logs[0]

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        log = self._populated_then_closed(tmp_path)
        raw = log.read_bytes()
        log.write_bytes(raw[:-41])  # tear into the last frame
        recovered = make_node(tmp_path)
        info = recovered.recovery_info
        assert info["wal_records_replayed"] == 9
        assert info["wal_truncations"] and "torn" in info["wal_truncations"][0]
        ts, vals = recovered.query(SID, 0, 10**9)
        assert ts.size == 900  # batches 0..8 intact, batch 9 lost pre-ack
        assert sorted(set(vals.tolist())) == list(range(9))
        recovered.close()

    def test_corrupt_crc_mid_log_recovers_to_last_valid(self, tmp_path):
        log = self._populated_then_closed(tmp_path)
        raw = bytearray(log.read_bytes())
        # Flip one payload bit mid-file (offset chosen inside frame 5's
        # payload, clear of any frame header).
        raw[len(raw) // 2 + 100] ^= 0x01
        log.write_bytes(bytes(raw))
        recovered = make_node(tmp_path)
        info = recovered.recovery_info
        assert 0 < info["wal_records_replayed"] < 10
        assert any("CRC mismatch" in t for t in info["wal_truncations"])
        # Everything before the flipped bit is intact and queryable.
        ts, _ = recovered.query(SID, 0, 10**9)
        assert ts.size == info["wal_records_replayed"] * 100
        recovered.close()

    def test_fresh_file_after_torn_tail_never_appends_past_it(self, tmp_path):
        log = self._populated_then_closed(tmp_path)
        raw = log.read_bytes()
        log.write_bytes(raw[:-13])
        recovered = make_node(tmp_path)
        recovered.insert(SID_B, 1, 1)
        # The torn file was sealed away by recovery's checkpoint; the
        # new write landed in a strictly newer WAL file.
        assert recovered.wal.seq > int(log.stem.split("-", 1)[1])
        recovered.close()
        again = make_node(tmp_path)
        assert again.query(SID_B, 0, 10)[1].tolist() == [1]
        again.close()

    def test_corrupt_segment_dropped_not_fatal(self, tmp_path):
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t, 0) for t in range(100)])
        node.flush()
        node.close()
        seg = next((tmp_path / "n0").glob("seg-*.seg"))
        raw = bytearray(seg.read_bytes())
        raw[-4] ^= 0xFF  # break the tail magic
        seg.write_bytes(bytes(raw))
        recovered = make_node(tmp_path)
        assert recovered.recovery_info["segments_dropped"]
        assert recovered.query(SID, 0, 10**9)[0].size == 0  # dropped, not garbage
        recovered.close()


class TestDiskFaultInjection:
    def test_fsync_failure_surfaces_as_storage_error(self, tmp_path):
        disk = DiskFaultInjector(fsync_fail_at=1)
        node = make_node(tmp_path, disk=disk)
        with pytest.raises(StorageError, match="WAL fsync failed"):
            node.insert(SID, 1, 1)
        assert disk.faults_injected == 1
        node.close()

    def test_torn_segment_write_keeps_data_wal_covered(self, tmp_path):
        node = make_node(tmp_path)
        # Arm the tear for the *segment* write: WAL appends also go
        # through the seam, so count them first.
        disk = DiskFaultInjector()
        node._disk = disk
        node._wal._disk = disk
        node.insert_batch([(SID, t, t, 0) for t in range(10)])
        disk.torn_write_at = disk.writes + 1
        node.flush()  # seal fails mid-write; swallowed, counted
        assert disk.faults_injected == 1
        assert node.metrics.value("dcdb_segment_write_errors_total", {"node": "n0"}) == 1
        assert node.segment_file_count == 0
        # Data still fully readable (memtable) and fully WAL-covered:
        assert node.query(SID, 0, 100)[0].size == 10
        node.close()
        recovered = make_node(tmp_path)
        assert recovered.query(SID, 0, 100)[0].size == 10
        assert recovered.recovery_info["wal_records_replayed"] >= 1
        recovered.close()

    def test_seal_retries_after_torn_write(self, tmp_path):
        node = make_node(tmp_path)
        disk = DiskFaultInjector()
        node._disk = disk
        node._wal._disk = disk
        node.insert_batch([(SID, t, t, 0) for t in range(10)])
        disk.torn_write_at = disk.writes + 1
        node.flush()
        assert node.segment_file_count == 0
        node.insert_batch([(SID_B, t, t, 0) for t in range(10)])
        node.flush()  # retry succeeds, both sensors sealed together
        assert node.segment_file_count == 1
        node.close()
        recovered = make_node(tmp_path)
        assert recovered.query(SID, 0, 100)[0].size == 10
        assert recovered.query(SID_B, 0, 100)[0].size == 10
        recovered.close()

    def test_short_read_drops_segment_and_recovery_continues(self, tmp_path):
        node = make_node(tmp_path)
        node.insert_batch([(SID, t, t, 0) for t in range(50)])
        node.flush()
        node.insert(SID_B, 1, 7)  # WAL-only at close
        node.close()
        disk = DiskFaultInjector(short_read_at=1)
        recovered = DurableNode(
            "n0", data_dir=tmp_path / "n0", fsync="always", disk=disk
        )
        info = recovered.recovery_info
        assert info["segments_dropped"]  # the shortened segment
        # The WAL-covered write still recovered.
        assert recovered.query(SID_B, 0, 10)[1].tolist() == [7]
        recovered.close()


# -- tiered compaction ----------------------------------------------------


class TestTieredCompaction:
    def test_file_count_bounded_and_data_intact(self, tmp_path):
        node = make_node(tmp_path, max_segment_files=4)
        for b in range(12):
            node.insert_batch([(SID, b * 100 + i, b * 1000 + i, 0) for i in range(100)])
            node.flush()
        assert node.wait_for_compaction(timeout_s=30.0)
        assert node.segment_file_count <= 4
        assert node.metrics.value("dcdb_compaction_runs_total", {"node": "n0"}) > 0
        ts, vals = node.query(SID, 0, 10**9)
        assert ts.size == 1200
        assert vals.tolist() == [b * 1000 + i for b in range(12) for i in range(100)]
        # On-disk files match the manifest exactly.
        manifest = json.loads((tmp_path / "n0" / "manifest.json").read_text())
        on_disk = sorted(
            int(p.stem.split("-", 1)[1]) for p in (tmp_path / "n0").glob("seg-*.seg")
        )
        assert sorted(manifest["segments"]) == on_disk
        node.close()

    def test_lww_preserved_across_merges(self, tmp_path):
        node = make_node(tmp_path, max_segment_files=2)
        for round_no in range(8):
            node.insert_batch([(SID, t, round_no, 0) for t in range(100)])
            node.flush()
        ts, vals = node.query(SID, 0, 1000)
        assert ts.size == 100
        assert set(vals.tolist()) == {7}  # newest round wins everywhere
        node.close()
        recovered = make_node(tmp_path)
        _, rvals = recovered.query(SID, 0, 1000)
        assert set(rvals.tolist()) == {7}
        recovered.close()

    def test_delete_before_filtered_during_merge(self, tmp_path):
        node = make_node(tmp_path, max_segment_files=2)
        for b in range(4):
            node.insert_batch([(SID, b * 10 + i, 1, 0) for i in range(10)])
            node.flush()
        node.delete_before(SID, 20)
        for b in range(4, 8):
            node.insert_batch([(SID, b * 10 + i, 1, 0) for i in range(10)])
            node.flush()
        node.close()
        recovered = make_node(tmp_path)
        ts, _ = recovered.query(SID, 0, 1000)
        assert ts.tolist() == list(range(20, 80))
        recovered.close()

    def test_seals_racing_background_merges_lose_nothing(self, tmp_path):
        """Writers sealing every few batches while the worker merges and
        readers read: every row stays visible, in order, exactly once."""
        node = make_node(tmp_path, fsync="off", flush_threshold=50, max_segment_files=2)
        writers, batches = 4, 40
        errors: list[str] = []

        def writer(w: int) -> None:
            for b in range(batches):
                base = (w * batches + b) * 10
                node.insert_batch([(SID, base + i, base + i, 0) for i in range(10)])

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]

        def reader() -> None:
            while any(t.is_alive() for t in threads):
                ts, vals = node.query(SID, 0, 1 << 62)
                if (np.diff(ts) <= 0).any() or (ts != vals).any():
                    errors.append(f"bad read of {ts.size} rows")
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads + readers:
                t.start()
            for t in threads + readers:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads + readers)
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        assert node.wait_for_compaction(timeout_s=30.0)
        assert node.metrics.value("dcdb_compaction_runs_total", {"node": "n0"}) > 0
        expected = list(range(writers * batches * 10))
        assert node.query(SID, 0, 1 << 62)[0].tolist() == expected
        node.close()
        reopened = make_node(tmp_path, fsync="off")
        assert reopened.query(SID, 0, 1 << 62)[0].tolist() == expected
        reopened.close()

    def test_sealed_rows_are_read_from_files_not_memory(self, tmp_path):
        """Rows sealed in this process lifetime live in their segment
        files only: none stay resident, and the first read of them is a
        block-cache miss (a decode), the repeat a hit."""
        node = make_node(tmp_path, fsync="off", flush_threshold=100, max_segment_files=100)
        for b in range(10):
            node.insert_batch([(SID, b * 100 + i, i, 0) for i in range(100)])
        labels = {"node": "n0"}
        ts, _ = node.query(SID, 250, 349)
        assert ts.tolist() == list(range(250, 350))
        assert node.metrics.value("dcdb_segment_block_cache_misses_total", labels) == 2
        node.query(SID, 250, 349)
        assert node.metrics.value("dcdb_segment_block_cache_hits_total", labels) == 2
        assert node.segment_file_count == 10
        assert node.metrics.value("dcdb_storage_memtable_rows", labels) == 0
        assert sum(t.rows_for(SID) for t in node._tables if t.resident) == 0
        assert node.row_count == 1000
        node.close()

    def test_full_compact_collapses_to_one_file(self, tmp_path):
        node = make_node(tmp_path, max_segment_files=100)
        for b in range(5):
            node.insert_batch([(SID, b * 10 + i, i, 0) for i in range(10)])
            node.flush()
        assert node.segment_file_count == 5
        node.compact()
        assert node.segment_file_count == 1
        assert node.query(SID, 0, 1000)[0].size == 50
        node.close()


# -- the node as a backend / metrics --------------------------------------


class TestNodeAsBackend:
    def test_fingerprint_stable_across_reopen_chain(self, tmp_path):
        b = DurableNode(data_dir=tmp_path / "d", fsync="always")
        b.insert_batch([(SID, t, t, 0) for t in range(250)])
        b.put_metadata("k", "v")
        fp = b.state_fingerprint()
        b.close()
        for _ in range(3):
            b = DurableNode(data_dir=tmp_path / "d", fsync="always")
            assert b.state_fingerprint() == fp
            b.close()

    def test_commit_durable_is_group_commit(self, tmp_path):
        b = DurableNode(data_dir=tmp_path / "d", fsync="interval", fsync_interval_s=3600.0)
        b.insert_batch([(SID, t, t, 0) for t in range(10)])
        assert b.wal.syncs == 0  # interval far away: nothing synced
        b.wal._last_sync = -(10**9)  # make the interval due
        assert b.commit_durable() is True
        assert b.wal.syncs == 1
        b.close()

    def test_wal_and_segment_metrics_advance(self, tmp_path):
        b = DurableNode("m0", data_dir=tmp_path / "d", fsync="always")
        b.insert_batch([(SID, t, t, 0) for t in range(100)])
        b.flush()
        m = b.metrics
        labels = {"node": "m0"}
        assert m.value("dcdb_wal_appends_total", labels) == 1
        assert m.value("dcdb_wal_bytes_total", labels) > 0
        assert m.value("dcdb_wal_syncs_total", labels) >= 1
        assert m.value("dcdb_wal_rotations_total", labels) == 1
        assert m.value("dcdb_segment_files_written_total", labels) == 1
        assert m.value("dcdb_segment_files", labels) == 1
        assert m.value("dcdb_segment_disk_bytes", labels) > 0
        assert m.value("dcdb_segment_compression_ratio", labels) > 1.0
        b.close()

    def test_rejects_bad_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            DurableNode(data_dir=tmp_path / "d", fsync="never")
