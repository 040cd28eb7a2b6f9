"""Tests for backend-coordinated SID mapping across Collect Agents."""

import pytest

from repro.common.errors import StorageError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.payload import encode_reading
from repro.core.pusher import Pusher, PusherConfig
from repro.core.sid import (
    SID_LEVELS,
    SID_RESERVED_DEEPEST_BASE,
    PersistentSidMapper,
    SensorId,
    SidMapper,
)
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage.memory import MemoryBackend


class TestPersistentSidMapper:
    def test_round_trip(self):
        backend = MemoryBackend()
        mapper = PersistentSidMapper(backend)
        sid = mapper.sid_for_topic("/a/b/c")
        assert mapper.topic_for_sid(sid) == "/a/b/c"

    def test_two_mappers_agree(self):
        backend = MemoryBackend()
        first = PersistentSidMapper(backend)
        second = PersistentSidMapper(backend)
        # Different topics, interleaved registration from two mappers.
        sid_a = first.sid_for_topic("/cluster0/node0/power")
        sid_b = second.sid_for_topic("/cluster1/node0/power")
        # No collision: distinct topics get distinct SIDs.
        assert sid_a != sid_b
        # And the same topic resolves identically from either.
        assert second.sid_for_topic("/cluster0/node0/power") == sid_a
        assert first.sid_for_topic("/cluster1/node0/power") == sid_b

    def test_survives_restart(self):
        backend = MemoryBackend()
        sid = PersistentSidMapper(backend).sid_for_topic("/x/y/z")
        fresh = PersistentSidMapper(backend)
        assert fresh.sid_for_topic("/x/y/z") == sid

    def test_new_topic_is_one_metadata_write(self):
        class Counting(MemoryBackend):
            def __init__(self):
                super().__init__()
                self.batches = []
                self.fail = False

            def put_metadata_many(self, pairs):
                pairs = list(pairs)
                if self.fail:
                    raise StorageError("injected metadata failure")
                self.batches.append([key for key, _ in pairs])
                super().put_metadata_many(pairs)

        backend = Counting()
        mapper = PersistentSidMapper(backend)
        mapper.sid_for_topic("/rack0/node0/cpu0/temp")
        # next + comp for four levels, and the topic's sidmap key
        assert [len(batch) for batch in backend.batches] == [9]
        assert backend.batches[0][-1] == "sidmap/rack0/node0/cpu0/temp"
        mapper.sid_for_topic("/rack0/node0/cpu1/temp")  # one new component
        assert backend.batches[1] == ["sidnext/2", "sidcomp/2/cpu1", "sidmap/rack0/node0/cpu1/temp"]
        mapper.sid_for_topic("/rack0/node0/cpu1/temp")  # known: no write at all
        assert len(backend.batches) == 2
        # A failed write installs nothing: the retry allocates the very
        # codes the failed attempt picked, and a second mapper agrees.
        backend.fail = True
        with pytest.raises(StorageError):
            mapper.sid_for_topic("/rack1/node0/cpu0/temp")
        assert mapper.lookup_topic("/rack1/node0/cpu0/temp") is None
        backend.fail = False
        sid = mapper.sid_for_topic("/rack1/node0/cpu0/temp")
        assert sid.level_code(0) == 2 and sid.level_code(1) == 1
        assert PersistentSidMapper(backend).sid_for_topic("/rack1/node0/cpu0/temp") == sid

    def test_deepest_level_allocation_capped_below_rollup_range(self):
        backend = MemoryBackend()
        mapper = PersistentSidMapper(backend)
        deep = SID_LEVELS - 1
        # Next free code at the deepest level sits on the reserved
        # rollup base: allocation must refuse, not mint a SID that
        # collides with another sensor's rollup series.
        backend.put_metadata(f"sidnext/{deep}", str(SID_RESERVED_DEEPEST_BASE))
        with pytest.raises(StorageError, match="exhausted"):
            mapper.sid_for_topic("/a/b/c/d/e/f/g/h")

    def test_component_codes_shared_across_levels_independently(self):
        backend = MemoryBackend()
        mapper = PersistentSidMapper(backend)
        a = mapper.sid_for_topic("/p/q")
        b = mapper.sid_for_topic("/q/p")
        # "q" appears at level 0 and level 1 with independent codes.
        assert a != b


class TestSidRestore:
    def test_restore_then_consistent_lookup(self):
        mapper = SidMapper()
        sid = SensorId.from_codes([5, 9])
        mapper.restore("/room/rack", sid)
        assert mapper.lookup_topic("/room/rack") == sid
        assert mapper.topic_for_sid(sid) == "/room/rack"

    def test_restore_conflicting_code_rejected(self):
        mapper = SidMapper()
        mapper.restore("/a/b", SensorId.from_codes([1, 1]))
        with pytest.raises(StorageError):
            mapper.restore("/a/c", SensorId.from_codes([2, 2]))  # 'a' already code 1

    def test_restore_code_held_by_other_component_rejected(self):
        mapper = SidMapper()
        mapper.restore("/a/b", SensorId.from_codes([1, 1]))
        with pytest.raises(StorageError):
            mapper.restore("/z/b", SensorId.from_codes([1, 1]))  # code 1 is 'a'


class TestMultiAgentDeployment:
    def test_two_agents_one_backend_no_collisions(self):
        """The paper's Figure 1 layout: several Collect Agents, one
        distributed Storage Backend."""
        backend = MemoryBackend()
        clock = SimClock(0)
        brokers = [MQTTBroker(port=None) for _ in range(2)]
        agents = [CollectAgent(backend, broker=broker) for broker in brokers]
        for idx, broker in enumerate(brokers):
            pusher = Pusher(
                PusherConfig(mqtt_prefix=f"/cluster{idx}/n0"),
                client=MQTTClient(f"p{idx}", broker=broker),
                clock=clock,
            )
            pusher.load_plugin("tester", "group g { interval 1000\n numSensors 5 }")
            pusher.client.connect()
            pusher.start_plugin("tester")
            pusher.advance_to(10 * NS_PER_SEC)
        # 2 clusters x 5 sensors x 10 cycles, all distinct SIDs.
        assert sum(a.metrics.value("dcdb_agent_readings_stored_total") for a in agents) == 100
        assert len(backend.sids()) == 10
        # Cross-agent resolution: agent 0 resolves agent 1's topics.
        sid_via_0 = agents[0].sid_mapper.sid_for_topic("/cluster1/n0/g/s0")
        sid_via_1 = agents[1].sid_mapper.sid_for_topic("/cluster1/n0/g/s0")
        assert sid_via_0 == sid_via_1

    def test_agent_restart_preserves_mapping(self):
        backend = MemoryBackend()
        broker = MQTTBroker(port=None)
        agent = CollectAgent(backend, broker=broker)
        client = MQTTClient("p", broker=broker)
        client.connect()
        client.publish("/r/n0/s", encode_reading(1, 42))
        sid_before = agent.sid_mapper.sid_for_topic("/r/n0/s")
        # "Restart": a new agent over the same backend.
        broker2 = MQTTBroker(port=None)
        agent2 = CollectAgent(backend, broker=broker2)
        client2 = MQTTClient("p", broker=broker2)
        client2.connect()
        client2.publish("/r/n0/s", encode_reading(2, 43))
        assert agent2.sid_mapper.sid_for_topic("/r/n0/s") == sid_before
        ts, vals = backend.query(sid_before, 0, 10)
        assert vals.tolist() == [42, 43]
