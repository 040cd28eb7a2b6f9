"""The analytics manager: operator hosting and daemon integration.

Runs a set of :class:`~repro.analytics.operator.StreamOperator`
instances against live readings, "at the Collect Agent or Pusher
level" (paper section 9):

* :meth:`AnalyticsManager.attach_to_agent` hooks the Collect Agent's
  broker, seeing every reading the moment it is ingested.  Operator
  outputs are stored in the same backend under
  ``/analytics/<operator>/<suffix>`` topics (resolvable via libDCDB
  like any sensor).
* :meth:`AnalyticsManager.attach_to_pusher` hooks the Pusher's collect
  path, seeing readings before they are sent; outputs are published as
  additional sensors through the Pusher's own MQTT client — the
  in-situ preprocessing mode.

Alarm-flagged outputs are additionally recorded in a bounded alarm
log, queryable by management tooling.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass

from repro.core import payload as payload_mod
from repro.core.sensor import SensorReading
from repro.analytics.operator import OutputReading, StreamOperator

logger = logging.getLogger(__name__)

ANALYTICS_PREFIX = "/analytics"


@dataclass(frozen=True, slots=True)
class AlarmEvent:
    """One recorded alarm transition/anomaly."""

    timestamp: int
    operator: str
    topic: str
    value: int
    message: str


class AnalyticsManager:
    """Hosts operators and routes live readings through them."""

    def __init__(self, max_alarms: int = 1000) -> None:
        self._operators: list[StreamOperator] = []
        self._lock = threading.Lock()
        self.alarms: deque[AlarmEvent] = deque(maxlen=max_alarms)
        self.readings_processed = 0
        self.outputs_emitted = 0
        # Set by the attach_* methods.
        self._sink = None

    # -- operator management ----------------------------------------------

    def add_operator(self, operator: StreamOperator) -> StreamOperator:
        with self._lock:
            if any(op.name == operator.name for op in self._operators):
                raise ValueError(f"operator {operator.name!r} already registered")
            self._operators.append(operator)
        return operator

    def remove_operator(self, name: str) -> bool:
        with self._lock:
            before = len(self._operators)
            self._operators = [op for op in self._operators if op.name != name]
            return len(self._operators) != before

    def operators(self) -> list[StreamOperator]:
        with self._lock:
            return list(self._operators)

    def reset(self) -> None:
        with self._lock:
            for operator in self._operators:
                operator.reset()
        self.alarms.clear()

    # -- event routing ------------------------------------------------------

    def feed(self, topic: str, reading: SensorReading) -> list[tuple[str, OutputReading]]:
        """Route one live reading; returns (full output topic, output).

        Operator outputs never re-enter the operators (topics under
        the analytics prefix are skipped), so chains of operators must
        be composed explicitly rather than via accidental feedback.
        """
        if topic.startswith(ANALYTICS_PREFIX):
            return []
        self.readings_processed += 1
        emitted: list[tuple[str, OutputReading]] = []
        with self._lock:
            operators = list(self._operators)
        for operator in operators:
            if not operator.matches(topic):
                continue
            try:
                outputs = operator.process(topic, reading)
            except Exception as exc:  # noqa: BLE001 - analytics must not kill ingest
                logger.warning("operator %s failed on %s: %s", operator.name, topic, exc)
                continue
            for output in outputs:
                full_topic = f"{ANALYTICS_PREFIX}/{operator.name}/{output.suffix}"
                emitted.append((full_topic, output))
                if output.alarm:
                    self.alarms.append(
                        AlarmEvent(
                            timestamp=output.reading.timestamp,
                            operator=operator.name,
                            topic=topic,
                            value=output.reading.value,
                            message=output.message,
                        )
                    )
        self.outputs_emitted += len(emitted)
        if self._sink is not None:
            for full_topic, output in emitted:
                self._sink(full_topic, output.reading)
        return emitted

    # -- daemon integration ----------------------------------------------------

    def attach_to_agent(self, agent) -> None:
        """Run at the Collect Agent: see every ingested reading, store
        derived readings in the agent's backend."""

        def sink(topic: str, reading: SensorReading) -> None:
            sid = agent.sid_mapper.sid_for_topic(topic)
            agent.backend.insert(sid, reading.timestamp, reading.value)

        self._sink = sink

        def hook(client_id: str, packets) -> None:
            for packet in packets:
                if packet.topic.startswith("$"):
                    continue  # system topics (metadata announcements etc.)
                try:
                    readings = payload_mod.decode_readings(packet.payload)
                except Exception:  # noqa: BLE001 - agent logs the decode error itself
                    continue
                for reading in readings:
                    self.feed(packet.topic, reading)

        agent.broker.add_publish_hook(hook)

    def attach_to_pusher(self, pusher) -> None:
        """Run at the Pusher: preprocess readings in-situ, publish
        derived sensors through the Pusher's MQTT client."""

        def sink(topic: str, reading: SensorReading) -> None:
            try:
                pusher.client.publish(
                    topic, payload_mod.encode_readings([reading]), qos=pusher.config.qos
                )
            except Exception as exc:  # noqa: BLE001
                logger.warning("analytics publish of %s failed: %s", topic, exc)

        self._sink = sink
        original_collect = pusher._collect

        def wrapped_collect(group, timestamp):
            original_collect(group, timestamp)
            for sensor in group.sensors:
                latest = sensor.cache.latest()
                if latest is not None and latest.timestamp == timestamp:
                    self.feed(pusher.topic_of(sensor), latest)

        pusher._collect = wrapped_collect

    # -- introspection -------------------------------------------------------------

    def status(self) -> dict:
        return {
            "operators": [
                {
                    "name": op.name,
                    "type": type(op).__name__,
                    "inputs": op.inputs,
                    "eventsIn": op.events_in,
                    "eventsOut": op.events_out,
                }
                for op in self.operators()
            ],
            "readingsProcessed": self.readings_processed,
            "outputsEmitted": self.outputs_emitted,
            "alarms": len(self.alarms),
        }
