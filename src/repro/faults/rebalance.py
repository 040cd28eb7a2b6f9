"""Deterministic fault injection for live rebalances.

The rebalance streamer (:meth:`StorageCluster._stream_sid`) exposes a
hook called before every chunk it ships.  ``RebalanceFaultInjector``
plugs into that hook and fires scripted faults at exact points in the
stream — kill the source after N chunks, kill the target, or raise an
injected error — so chaos tests can reproduce "a node died mid-
transfer" byte-for-byte from a seed instead of hoping a random kill
lands inside the streaming window.

Usage::

    injector = RebalanceFaultInjector(cluster)
    injector.kill_source_after(chunks=2, proxies=flaky_nodes)
    cluster.add_node(new_node, wait=False)
    ...

The injector disarms itself after firing (one-shot) so the retried
stream from the next replica proceeds cleanly.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import FaultInjectedError

__all__ = ["RebalanceFaultInjector"]


class RebalanceFaultInjector:
    """Scripted one-shot faults at chunk boundaries of a rebalance."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._armed: Callable[[int, int, int, int], None] | None = None
        self.fired: list[dict[str, int | str]] = []
        cluster.rebalance_fault_hook = self._on_chunk

    def _on_chunk(self, partition: int, source: int, target: int, chunk_no: int) -> None:
        armed = self._armed
        if armed is not None:
            armed(partition, source, target, chunk_no)

    def _record(self, kind: str, partition: int, source: int, target: int, chunk_no: int) -> None:
        self.fired.append(
            {
                "kind": kind,
                "partition": partition,
                "source": source,
                "target": target,
                "chunk": chunk_no,
            }
        )

    def disarm(self) -> None:
        self._armed = None

    def kill_source_after(self, chunks: int, proxies) -> None:
        """Kill the streaming *source* once it has shipped ``chunks``.

        ``proxies`` maps node index -> kill()-able proxy (the sim's
        ``flaky_nodes`` list).  The stream then aborts with NodeDownError and
        the cluster re-streams from the next live old replica.
        """

        def fire(partition: int, source: int, target: int, chunk_no: int) -> None:
            if chunk_no < chunks:
                return
            self._armed = None
            self._record("kill-source", partition, source, target, chunk_no)
            proxies[source].kill()

        self._armed = fire

    def kill_target_after(self, chunks: int, proxies) -> None:
        """Kill the *gaining* node mid-stream; chunks become hints."""

        def fire(partition: int, source: int, target: int, chunk_no: int) -> None:
            if chunk_no < chunks:
                return
            self._armed = None
            self._record("kill-target", partition, source, target, chunk_no)
            proxies[target].kill()

        self._armed = fire

    def fail_chunk(self, chunk_no: int) -> None:
        """Raise an injected error on one exact chunk (stream retries)."""

        def fire(partition: int, source: int, target: int, no: int) -> None:
            if no != chunk_no:
                return
            self._armed = None
            self._record("fail-chunk", partition, source, target, no)
            raise FaultInjectedError(
                f"injected rebalance fault at chunk {no} of partition {partition:#x}"
            )

        self._armed = fire
