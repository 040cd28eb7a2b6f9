"""Byte-budgeted LRU cache of decoded segment blocks.

The durable read path decodes a sensor's on-disk block only when a
query window overlaps it (footer ``[min_ts, max_ts]`` pruning) and
parks the decoded columns here instead of keeping sealed data
resident: a dashboard sweep over a store larger than RAM re-reads
cold blocks through a fixed byte budget instead of growing the process
without bound.  Blocks are cached as written; retention cutoffs are
applied by the engine as a slice on every read.

Entries are keyed ``(segment file name, sid)`` — segment file numbers
are monotonic and never reused, so a key can never alias a different
file's data.  Values are :class:`~repro.storage.node._Segment` objects
whose arrays are marked read-only; the query path hands out views of
them, so a cached block must never be written through.

The cache itself does no locking: every access happens under the
owning node's lock (queries stage under it, merges invalidate
under it).  A budget of 0 disables caching — every lookup misses and
``put`` is a no-op — which keeps the decode-per-query behaviour
available for parity testing and memory-austere deployments.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["BlockCache"]


class _Nop:
    def inc(self, n: int = 1) -> None:
        pass


_NOP = _Nop()


class BlockCache:
    """LRU over decoded blocks, bounded by total array bytes."""

    def __init__(self, budget_bytes: int, *, hits=None, misses=None, evictions=None):
        self.budget_bytes = max(0, int(budget_bytes))
        self._entries: OrderedDict[tuple[str, object], object] = OrderedDict()
        self._sizes: dict[tuple[str, object], int] = {}
        self.bytes = 0
        self._hits = hits if hits is not None else _NOP
        self._misses = misses if misses is not None else _NOP
        self._evictions = evictions if evictions is not None else _NOP

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, file_key: str, sid):
        segment = self._entries.get((file_key, sid))
        if segment is None:
            self._misses.inc()
            return None
        self._entries.move_to_end((file_key, sid))
        self._hits.inc()
        return segment

    def put(self, file_key: str, sid, segment) -> None:
        if self.budget_bytes == 0:
            return
        key = (file_key, sid)
        nbytes = int(
            segment.timestamps.nbytes + segment.values.nbytes + segment.expiries.nbytes
        )
        old = self._sizes.pop(key, None)
        if old is not None:
            self.bytes -= old
            del self._entries[key]
        self._entries[key] = segment
        self._sizes[key] = nbytes
        self.bytes += nbytes
        while self.bytes > self.budget_bytes and len(self._entries) > 1:
            evicted_key, _ = self._entries.popitem(last=False)
            self.bytes -= self._sizes.pop(evicted_key)
            self._evictions.inc()
        # A single block larger than the whole budget may stay resident
        # while in use (evicting it would just thrash); it goes first
        # the moment anything else lands.

    def invalidate_file(self, file_key: str) -> int:
        """Drop every block decoded from one segment file."""
        doomed = [key for key in self._entries if key[0] == file_key]
        for key in doomed:
            del self._entries[key]
            self.bytes -= self._sizes.pop(key)
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.bytes = 0
