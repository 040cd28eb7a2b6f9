"""The TCP wire as a factory pair, for harnesses that assemble a stack.

:class:`TCPTransport` builds the production layout: the selector
event-loop broker (:mod:`repro.mqtt.broker`) and reconnecting
:class:`~repro.mqtt.client.MQTTClient` endpoints that default to the
broker it built.  In-process runs need no factory: they build a broker
with ``port=None`` and connect ``MQTTClient(client_id, broker=...)``
to it over a memory pipe.

``get_transport("tcp")`` returns a fresh :class:`TCPTransport` and
raises :class:`ConfigError` on any other name.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.observability import MetricsRegistry

__all__ = ["TCPTransport", "get_transport"]


class TCPTransport:
    """Real sockets: event-loop broker + reconnecting client."""

    def __init__(self) -> None:
        self._last_broker = None

    def make_broker(
        self,
        *,
        publish_only: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: MetricsRegistry | None = None,
        trace_sample_every: int = 1,
    ):
        """Build the broker; ``publish_only=False`` is refused, since
        the broker is publish-only."""
        from repro.mqtt.broker import MQTTBroker

        if not publish_only:
            raise ConfigError("the broker is publish-only")
        broker = MQTTBroker(
            host, port, metrics=metrics, trace_sample_every=trace_sample_every
        )
        self._last_broker = broker
        return broker

    def make_client(
        self,
        client_id: str,
        *,
        host: str | None = None,
        port: int | None = None,
        metrics: MetricsRegistry | None = None,
        **kwargs,
    ):
        from repro.mqtt.client import MQTTClient

        if port is None and self._last_broker is not None:
            # Convenience for co-located setups (tests, simulations):
            # default to the broker this transport built, once started.
            port = self._last_broker.port
        if host is None:
            host = (
                self._last_broker.host if self._last_broker is not None else "127.0.0.1"
            )
        if port is None:
            raise ConfigError(
                "TCP transport needs a port (none given and no broker built yet)"
            )
        return MQTTClient(client_id, host=host, port=port, metrics=metrics, **kwargs)


def get_transport(spec: str = "tcp") -> TCPTransport:
    """The transport named ``spec``; ``"tcp"`` is the only one."""
    if spec != "tcp":
        raise ConfigError(f"unknown transport {spec!r} (expected 'tcp')")
    return TCPTransport()
