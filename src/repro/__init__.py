"""DCDB reproduction: modular, continuous, holistic HPC monitoring.

A pure-Python reproduction of *"From Facility to Application Sensor
Data: Modular, Continuous and Holistic Monitoring with DCDB"* (Netti
et al., SC 2019), including every substrate the system depends on:
an MQTT 3.1.1 stack, a distributed wide-column store, ten acquisition
plugins with simulated out-of-band devices, the libDCDB query layer
with virtual sensors, command-line tools, a Grafana data source, and
the calibrated simulation substrate regenerating the paper's
evaluation.

Quickstart::

    from repro import (
        CollectAgent, Pusher, PusherConfig, DCDBClient,
        MQTTBroker, MQTTClient, MemoryBackend, SimClock, NS_PER_SEC,
    )

    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(PusherConfig(mqtt_prefix="/hpc/rack0/node0"),
                    client=MQTTClient("p0", broker=broker), clock=SimClock(0))
    pusher.load_plugin("tester", "group g0 { interval 1000\\n numSensors 8 }")
    pusher.client.connect()
    pusher.start_plugin("tester")
    pusher.advance_to(60 * NS_PER_SEC)

    client = DCDBClient(backend)
    ts, values = client.query("/hpc/rack0/node0/g0/s0", 0, 120 * NS_PER_SEC)

See README.md for the architecture overview and examples/ for
runnable scenarios.
"""

from repro.common.errors import (
    ConfigError,
    DCDBError,
    PluginError,
    QueryError,
    StorageError,
    TransportError,
    UnitError,
)
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC, SimClock, Timestamp
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.core.sensor import SensorCache, SensorMetadata, SensorReading
from repro.core.sid import SensorId, SidMapper
from repro.libdcdb import DCDBClient, SensorConfig, VirtualSensorDef
from repro.mqtt import MQTTBroker, MQTTClient
from repro.storage import (
    HashPartitioner,
    HierarchicalPartitioner,
    MemoryBackend,
    SqliteBackend,
    StorageCluster,
    StorageNode,
)

__version__ = "1.0.0"

__all__ = [
    "DCDBError",
    "ConfigError",
    "TransportError",
    "StorageError",
    "QueryError",
    "PluginError",
    "UnitError",
    "NS_PER_SEC",
    "NS_PER_MS",
    "SimClock",
    "Timestamp",
    "SensorReading",
    "SensorMetadata",
    "SensorCache",
    "SensorId",
    "SidMapper",
    "Pusher",
    "PusherConfig",
    "CollectAgent",
    "DCDBClient",
    "SensorConfig",
    "VirtualSensorDef",
    "MQTTBroker",
    "MQTTClient",
    "StorageNode",
    "StorageCluster",
    "MemoryBackend",
    "SqliteBackend",
    "HierarchicalPartitioner",
    "HashPartitioner",
    "__version__",
]
