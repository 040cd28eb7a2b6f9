"""``dcdb-collectagent``: the Collect Agent daemon.

Runs a Collect Agent from a configuration file, mirroring DCDB's
``collectagent <config>``.  Configuration::

    global {
        mqttHost   127.0.0.1
        mqttPort   1883
        restPort   8080          ; 0 disables the REST API
        db         sqlite:/var/lib/dcdb/monitor.db
                                 ; or durable:/var/lib/dcdb?fsync=interval
                                 ; (WAL + segments, docs/durability.md)
        ttl        0             ; seconds, 0 = keep forever
        cacheInterval 120000     ; ms
        batchSize     4096       ; readings per coalesced flush
        batchDelayMs  50         ; max staging age (a quiet queue flushes sooner)
        queueCapacity 65536      ; staging queue bound (readings)
        traceSampleEvery 1       ; trace 1-in-N headerless messages (0 = off)
        logFormat     plain      ; plain | json (structured one-line JSON)
        rollups       false      ; continuous aggregation tiers
        rollupTtl     0          ; seconds, TTL on rollup rows
        rawHorizon    0          ; seconds before raw rows demote to rollups
        tierHorizons  0,0,0      ; per-tier horizons, finest first
    }

The writer flushes on the broker's event loop, and a QoS 1 PUBACK
leaves once its reading is committed.  A full staging queue blocks
the broker loop until a flush makes room.  Old ``batching`` and
``backpressure`` keys are ignored: there is one ingest path and one
answer to a full queue.

Runs until interrupted; drains the staging queue and flushes storage
on shutdown.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.common.errors import DCDBError
from repro.common.proptree import PropertyTree, parse_info
from repro.common.timeutil import NS_PER_MS
from repro.core.collectagent.agent import CollectAgent
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.collectagent.writer import WriterConfig
from repro.storage.rollup import RetentionPolicy, RollupConfig
from repro.tools.common import open_backend
from repro.tools.pusherd import configure_logging


def agent_from_config(tree: PropertyTree) -> tuple[CollectAgent, CollectAgentRestApi | None]:
    """Build a Collect Agent (and optional REST API) from a config.

    An ``analytics`` block (or ``analyticsConfig <file>`` in
    ``global``) attaches a configured streaming-analytics manager; the
    manager is exposed as ``agent.analytics``.
    """
    global_cfg = tree.child("global")
    if global_cfg is None:
        global_cfg = PropertyTree()
    configure_logging(global_cfg, "collectagent")
    backend = open_backend(global_cfg.get("db", "memory:"))
    writer_config = WriterConfig(
        max_batch=global_cfg.get_int("batchSize", 4096),
        max_delay_ns=global_cfg.get_int("batchDelayMs", 50) * NS_PER_MS,
        queue_capacity=global_cfg.get_int("queueCapacity", 65_536),
    )
    rollup_config = None
    if global_cfg.get_bool("rollups", False):
        horizons = tuple(
            int(h) for h in global_cfg.get("tierHorizons", "0,0,0").split(",")
        )
        retention = RetentionPolicy(
            raw_horizon_s=global_cfg.get_int("rawHorizon", 0),
            tier_horizons_s=horizons,
        )
        if retention.raw_horizon_s == 0 and not any(horizons):
            retention = None
        rollup_config = RollupConfig(
            ttl_s=global_cfg.get_int("rollupTtl", 0), retention=retention
        )
    agent = CollectAgent(
        backend,
        host=global_cfg.get("mqttHost", "127.0.0.1"),
        port=global_cfg.get_int("mqttPort", 1883),
        cache_maxage_ns=global_cfg.get_int("cacheInterval", 120_000) * NS_PER_MS,
        default_ttl_s=global_cfg.get_int("ttl", 0),
        writer_config=writer_config,
        rollup_config=rollup_config,
        trace_sample_every=global_cfg.get_int("traceSampleEvery", 1),
    )
    analytics_tree = tree.child("analytics")
    analytics_file = global_cfg.get("analyticsConfig")
    if analytics_tree is not None or analytics_file:
        from repro.analytics.config import manager_from_config

        if analytics_tree is not None:
            manager = manager_from_config(analytics_tree)
        else:
            with open(analytics_file, "r", encoding="utf-8") as handle:
                manager = manager_from_config(handle.read())
        manager.attach_to_agent(agent)
        agent.analytics = manager
    rest_port = global_cfg.get_int("restPort", 0)
    rest = CollectAgentRestApi(agent, port=rest_port) if rest_port else None
    return agent, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcdb-collectagent", description="Run a DCDB Collect Agent."
    )
    parser.add_argument("config", help="configuration file")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            tree = parse_info(handle.read())
        agent, rest = agent_from_config(tree)
        agent.start()
        if rest is not None:
            rest.start()
            print(f"REST API on port {rest.port}", file=sys.stderr)
        print(f"collect agent listening on MQTT port {agent.port}", file=sys.stderr)
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        stop.wait()
        if rest is not None:
            rest.stop()
        agent.stop()
        agent.backend.close()
        return 0
    except (DCDBError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
