"""From-scratch MQTT 3.1.1 implementation.

DCDB transports every sensor reading over MQTT (paper section 3.1):
Pushers act as MQTT clients publishing one topic per sensor, and each
Collect Agent embeds a purpose-built broker that only implements the
publish path.  This package reproduces that stack in pure Python:

* :mod:`repro.mqtt.packets` -- wire-format codec for the MQTT 3.1.1
  control packets (CONNECT .. DISCONNECT), including the streaming
  decoder used on socket reads.
* :mod:`repro.mqtt.topics` -- topic-name and filter validation and
  ``+``/``#`` wildcard matching.
* :mod:`repro.mqtt.eventloop` -- the single-threaded selector event
  loop and non-blocking connection state machine shared by broker and
  client (O(1) transport threads, bounded write buffers), and the
  socketless memory pipe in-process runs use.
* :mod:`repro.mqtt.broker` -- the Collect Agent's publish-only
  event-loop TCP broker (paper section 4.2) with server-side
  keepalive enforcement; SUBSCRIBE is refused filter by filter.
* :mod:`repro.mqtt.client` -- a blocking-API publishing client on the
  event loop: QoS 0/1 publishing, keepalive timers, and
  automatic reconnection with session re-establishment; given a
  ``broker`` it connects over a memory pipe instead.
* :mod:`repro.mqtt.transport` -- :class:`TCPTransport`, the
  broker/client factory pair stack harnesses assemble from.

Simulations, tests and examples run in one process on the same broker
and client: ``MQTTBroker(port=None)`` and
``MQTTClient(client_id, broker=...)``.

See docs/transport.md for the event-loop architecture, keepalive and
backpressure semantics, and tuning knobs.
"""

from repro.mqtt.packets import (
    Connect,
    ConnAck,
    Publish,
    PubAck,
    Subscribe,
    SubAck,
    PingReq,
    PingResp,
    Disconnect,
    encode_packet,
    decode_packet,
    StreamDecoder,
)
from repro.mqtt.topics import (
    validate_topic,
    validate_filter,
    topic_matches,
)
from repro.mqtt.eventloop import Connection, EventLoop, MemoryConnection
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.transport import TCPTransport, get_transport

__all__ = [
    "Connect",
    "ConnAck",
    "Publish",
    "PubAck",
    "Subscribe",
    "SubAck",
    "PingReq",
    "PingResp",
    "Disconnect",
    "encode_packet",
    "decode_packet",
    "StreamDecoder",
    "validate_topic",
    "validate_filter",
    "topic_matches",
    "EventLoop",
    "Connection",
    "MemoryConnection",
    "MQTTBroker",
    "MQTTClient",
    "TCPTransport",
    "get_transport",
]
