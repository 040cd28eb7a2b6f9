"""Deterministic fault injection for live rebalances.

The rebalance streamer
(:meth:`repro.storage.rebalance.Rebalancer._stream_sid`) calls the
cluster's ``rebalance_fault_hook`` before every chunk it ships.
``RebalanceFaultInjector`` plugs into that hook and fires scripted
faults at exact points in the stream — kill the source after N chunks
or raise an injected error — so chaos tests can reproduce "a node died mid-
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

    def _arm(
        self, kind: str, hits: Callable[[int], bool], act: Callable[[int, int, int], None]
    ) -> None:
        """Fire ``act(partition, source, chunk_no)`` once, on the
        first chunk ``hits`` accepts."""

        def fire(partition: int, source: int, target: int, chunk_no: int) -> None:
            if not hits(chunk_no):
                return
            self._armed = None
            self.fired.append(
                dict(kind=kind, partition=partition, source=source, target=target, chunk=chunk_no)
            )
            act(partition, source, chunk_no)

        self._armed = fire

    def kill_source_after(self, chunks: int, proxies) -> None:
        """Kill the streaming *source* once it has shipped ``chunks``.

        ``proxies`` maps node index -> kill()-able proxy (the sim's
        ``flaky_nodes`` list).  The stream then aborts with NodeDownError and
        the cluster re-streams from the next live old replica.
        """
        self._arm("kill-source", lambda no: no >= chunks, lambda _p, src, _no: proxies[src].kill())

    def fail_chunk(self, chunk_no: int) -> None:
        """Raise an injected error on one exact chunk (stream retries)."""

        def fail(partition: int, _source: int, no: int) -> None:
            raise FaultInjectedError(
                f"injected rebalance fault at chunk {no} of partition {partition:#x}"
            )

        self._arm("fail-chunk", lambda no: no == chunk_no, fail)
