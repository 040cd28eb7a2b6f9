"""End-to-end distributed tracing through the simulated cluster.

Steps a :class:`~repro.simulation.simcluster.SimulatedCluster` with
tracing enabled and asserts the observable contract of the tentpole:

* a reading's trace carries the full span chain
  collect -> publish -> dispatch -> insert -> commit (plus the storage
  replica span when a cluster backend is in play),
* faults leave hinted-handoff spans with fault attributes in the same
  trace,
* ``/traces``, ``/health`` and the exemplar linkage on
  ``dcdb_pipeline_latency_seconds`` are all reachable over HTTP.
"""

from __future__ import annotations

from collections import Counter

from repro.common.httpjson import http_json
from repro.core.collectagent import WriterConfig
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.payload import encode_reading
from repro.core.pusher.restapi import PusherRestApi
from repro.faults import FaultPlan
from repro.grafana import GrafanaDataSource
from repro.libdcdb import DCDBClient
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.observability import HOPS, PIPELINE_METRIC
from repro.simulation.simcluster import SimClusterConfig, SimulatedCluster

FULL_CHAIN = {"collect", "publish", "dispatch", "insert", "commit"}


def _small_sim(**overrides) -> SimulatedCluster:
    params: dict = dict(
        hosts=2, sensors_per_host=4, interval_ms=1000, trace_sample_every=1
    )
    params.update(overrides)
    return SimulatedCluster(SimClusterConfig(**params))


def _full_traces(sim: SimulatedCluster) -> list[dict]:
    docs = sim.spans.traces(limit=50)
    return [
        d for d in docs if FULL_CHAIN <= {s["name"] for s in d["spans"]}
    ]


class TestTraceChain:
    def test_synchronous_path_records_full_chain(self):
        sim = _small_sim()
        try:
            sim.run(3)
            full = _full_traces(sim)
            assert full, "no trace collected the full pipeline chain"
            # Each group cycle is one write: the storage layer records its
            # replica span under the flush's first traced message only.
            stored = [d for d in full if "replica-write" in {s["name"] for s in d["spans"]}]
            flushes = sim.agent.metrics.value("dcdb_writer_flushes_total")
            assert len(stored) == flushes == 2 * 3
            doc = stored[0]
            assert doc["spanCount"] >= 6
            assert doc["durationNs"] == doc["endNs"] - doc["startNs"]
            for span in doc["spans"]:
                assert span["component"]
                assert span["durationNs"] >= 0
        finally:
            sim.stop()

    def test_batching_writer_path_records_full_chain(self):
        sim = _small_sim(writer_config=WriterConfig(max_batch=16))
        try:
            sim.run(3)
            full = _full_traces(sim)
            assert full, "no full trace through the batching writer"
            commit = next(
                s for s in full[0]["spans"] if s["name"] == "commit"
            )
            assert commit["component"] == "writer"
        finally:
            sim.stop()

    def test_sampling_zero_records_nothing(self):
        sim = _small_sim(trace_sample_every=0)
        try:
            assert sim.run(3) > 0
            assert sim.spans.traces() == []
        finally:
            sim.stop()

    def test_concurrent_sims_keep_traces_isolated(self):
        sim_a = _small_sim(topic_prefix="/iso/a")
        sim_b = _small_sim(topic_prefix="/iso/b")
        try:
            sim_a.run(2)
            sim_b.run(2)
            topics_a = {
                s["attributes"].get("topic", "")
                for d in sim_a.spans.traces()
                for s in d["spans"]
            }
            assert not any("/iso/b" in t for t in topics_a)
        finally:
            sim_a.stop()
            sim_b.stop()


class TestOneTraceModel:
    def test_every_hop_observation_is_one_span(self):
        """Each ``dcdb_pipeline_latency_seconds{hop}`` observation is
        one span of that name, and every exemplar resolves to a trace —
        for messages the pusher sampled and for headerless ones that
        the broker or the agent sampled on arrival."""
        sim = _small_sim(trace_sample_every=3)
        raw = MQTTClient("raw", broker=sim.broker)
        raw.connect()
        try:
            for step in range(3):
                for i in range(6):
                    raw.publish(f"/raw/s{i}", encode_reading(sim.clock() + i, step))
                sim.run(1)
            docs = sim.spans.traces(limit=10**6)
            spans = Counter(s["name"] for d in docs for s in d["spans"])
            known = {d["traceId"] for d in docs}
            registries = {id(r): r for r in [sim.agent.metrics] + [p.metrics for p in sim.pushers]}
            observed = Counter()
            for registry in registries.values():
                for sample in registry.get(PIPELINE_METRIC).snapshot().samples:
                    observed[dict(sample.labels)["hop"]] += sample.count
                    for _bound, trace_id, _value in sample.exemplars:
                        assert trace_id in known, f"exemplar {trace_id} has no trace"
            assert all(observed[hop] > 0 for hop in HOPS)
            assert {hop: observed[hop] for hop in HOPS} == {hop: spans[hop] for hop in HOPS}
        finally:
            raw.disconnect()
            sim.stop()


class TestFaultSpans:
    def test_hinted_handoff_span_carries_fault_attributes(self):
        sim = _small_sim(
            storage_nodes=2, replication=2, fault_plan=FaultPlan(seed=7)
        )
        try:
            sim.run(1)  # healthy: replica-writes to both nodes
            sim.kill_node(1)
            sim.run(3)  # node1 down: writes to it become hints
            degraded = [
                d
                for d in sim.spans.traces(limit=50)
                if any(s["name"] == "hinted-handoff" for s in d["spans"])
            ]
            assert degraded, "no hinted-handoff span despite a dead replica"
            doc = degraded[0]
            span = next(s for s in doc["spans"] if s["name"] == "hinted-handoff")
            assert span["attributes"]["replica"] == "node1"
            assert span["attributes"]["faultInjected"] is True
            # A node that reports itself down is hinted immediately,
            # without burning the retry budget.
            assert span["attributes"]["attempts"] == 0
            assert "error" in span["attributes"]
            # The same trace still committed on the surviving replica.
            names = {s["name"] for s in doc["spans"]}
            assert "replica-write" in names
            assert "commit" in names
        finally:
            sim.stop()

    def test_healthy_replica_write_records_attempts(self):
        sim = _small_sim(storage_nodes=2, replication=2)
        try:
            sim.run(2)
            writes = [
                s
                for d in sim.spans.traces(limit=20)
                for s in d["spans"]
                if s["name"] == "replica-write"
            ]
            assert writes
            assert all(s["attributes"]["retries"] == 0 for s in writes)
            replicas = {s["attributes"]["replica"] for s in writes}
            assert replicas == {"node0", "node1"}
        finally:
            sim.stop()


class TestIntrospectionHttp:
    def test_traces_endpoint_with_filters(self):
        sim = _small_sim()
        try:
            sim.run(3)
            with CollectAgentRestApi(sim.agent) as api:
                base = f"http://127.0.0.1:{api.port}"
                status, docs = http_json("GET", f"{base}/traces?limit=5")
                assert status == 200
                assert 0 < len(docs) <= 5
                assert all("traceId" in d and d["spans"] for d in docs)
                # sid= narrows to one host's topics.
                status, docs = http_json(
                    "GET", f"{base}/traces?sid=host1"
                )
                assert status == 200
                assert docs
                for doc in docs:
                    topics = {
                        s["attributes"].get("topic", "")
                        for s in doc["spans"]
                        if "topic" in s["attributes"]
                    }
                    assert any("host1" in t for t in topics)
                # An absurd latency floor filters everything out.
                status, docs = http_json(
                    "GET", f"{base}/traces?minLatencyMs=1e18"
                )
                assert status == 200
                assert docs == []
        finally:
            sim.stop()

    def test_agent_health_degrades_when_replicas_die(self):
        plan = FaultPlan(seed=1)
        sim = _small_sim(storage_nodes=2, replication=2, fault_plan=plan)
        try:
            sim.run(1)
            with CollectAgentRestApi(sim.agent) as api:
                base = f"http://127.0.0.1:{api.port}"
                status, doc = http_json("GET", f"{base}/health")
                assert status == 200
                assert doc["status"] == "ok"
                assert doc["components"]["storage"]["liveReplicas"] == 2
                sim.kill_node(0)
                sim.kill_node(1)
                status, doc = http_json("GET", f"{base}/health")
                assert status == 503
                assert doc["status"] == "degraded"
                assert doc["components"]["storage"]["healthy"] is False
                assert doc["components"]["storage"]["liveReplicas"] == 0
        finally:
            sim.stop()

    def test_pusher_health_reflects_transport_and_run_state(self):
        from repro.core.pusher import Pusher, PusherConfig
        from repro.mqtt.broker import MQTTBroker
        from repro.mqtt.client import MQTTClient

        broker = MQTTBroker(port=None)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/health/h0"),
            client=MQTTClient("p0", broker=broker),
        )
        pusher.load_plugin("tester", "group g0 { interval 1000\n numSensors 2 }")
        pusher.start_plugin("tester")
        with PusherRestApi(pusher) as api:
            base = f"http://127.0.0.1:{api.port}"
            # Never started: the pusher component is down.
            status, doc = http_json("GET", f"{base}/health")
            assert status == 503
            assert doc["status"] == "degraded"
            assert doc["components"]["pusher"]["healthy"] is False
            pusher.start()
            try:
                status, doc = http_json("GET", f"{base}/health")
                assert status == 200
                assert doc["components"]["transport"]["connected"] is True
                assert doc["components"]["plugins"]["healthy"] is True
            finally:
                pusher.stop()
            status, doc = http_json("GET", f"{base}/health")
            assert status == 503

    def test_exemplar_links_histogram_bucket_to_trace(self):
        sim = _small_sim()
        try:
            sim.run(3)
            with CollectAgentRestApi(sim.agent) as api:
                base = f"http://127.0.0.1:{api.port}"
                status, metrics = http_json(
                    "GET", f"{base}/metrics?format=json"
                )
                assert status == 200
                exemplars = [
                    e
                    for sample in metrics[PIPELINE_METRIC]["samples"]
                    for e in sample.get("exemplars", [])
                ]
                assert exemplars, "latency histogram carries no exemplars"
                status, docs = http_json("GET", f"{base}/traces?limit=50")
                assert status == 200
                known = {d["traceId"] for d in docs}
                linked = [e for e in exemplars if e["traceId"] in known]
                assert linked, "no exemplar points at a retrievable trace"
        finally:
            sim.stop()


class TestGrafanaHealth:
    def test_healthy_cluster_reports_ok_with_liveness(self):
        sim = _small_sim(storage_nodes=2, replication=2,
                         fault_plan=FaultPlan(seed=2))
        try:
            sim.run(1)
            with GrafanaDataSource(DCDBClient(sim.backend)) as ds:
                status, doc = http_json(
                    "GET", f"http://127.0.0.1:{ds.port}/"
                )
                assert status == 200
                assert doc["status"] == "ok"
                assert doc["replicasLive"] == 2
                assert doc["replicasTotal"] == 2
                sim.kill_node(0)
                sim.kill_node(1)
                status, doc = http_json(
                    "GET", f"http://127.0.0.1:{ds.port}/"
                )
                assert status == 503
                assert doc["status"] == "unavailable"
                assert doc["replicasLive"] == 0
        finally:
            sim.stop()

    def test_memory_backend_reports_plain_ok(self):
        sim = _small_sim(use_memory_backend=True)
        try:
            sim.run(1)
            with GrafanaDataSource(DCDBClient(sim.backend)) as ds:
                status, doc = http_json(
                    "GET", f"http://127.0.0.1:{ds.port}/"
                )
                assert status == 200
                assert doc == {"status": "ok", "datasource": "dcdb"}
        finally:
            sim.stop()
