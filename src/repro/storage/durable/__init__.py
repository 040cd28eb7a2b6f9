"""Durable log-structured storage: WAL, compressed segments, recovery.

The persistence layer the paper delegates to Cassandra (section 4.3),
reproduced in the LSM shape the COMPASS CDB paper describes: a
per-node write-ahead log with group commit (:mod:`.wal`), immutable
columnar segment files compressed with delta-of-delta timestamps and
Gorilla XOR values (:mod:`.codec`, :mod:`.segment`), and crash
recovery that replays the log into the memtable (:mod:`.node`).

See ``docs/durability.md`` for formats, fsync policies, compaction
triggers and recovery semantics.
"""

from repro.storage.durable.codec import (
    BitReader,
    BitWriter,
    decode_timestamps,
    decode_values,
    encode_timestamps,
    encode_values,
)
from repro.storage.durable.node import DurableNode
from repro.storage.durable.segment import SegmentFile, write_segment
from repro.storage.durable.wal import (
    FSYNC_POLICIES,
    WriteAheadLog,
    scan_wal_file,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "DurableNode",
    "FSYNC_POLICIES",
    "SegmentFile",
    "WriteAheadLog",
    "decode_timestamps",
    "decode_values",
    "encode_timestamps",
    "encode_values",
    "scan_wal_file",
    "write_segment",
]
