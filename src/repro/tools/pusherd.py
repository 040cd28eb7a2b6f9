"""``dcdb-pusher``: the Pusher daemon.

Runs a Pusher from a global configuration file, mirroring DCDB's
``dcdbpusher <config>``.  Configuration::

    global {
        mqttPrefix   /lrz/sys/rack0/node0
        brokerHost   127.0.0.1
        brokerPort   1883
        threads      2
        sendMode     continuous     ; or burst
        qos          0
        restPort     8000           ; 0 disables the REST API
        cacheInterval 120000        ; ms
        traceSampleEvery 1          ; trace 1-in-N readings (0 = off)
        logFormat    plain          ; plain | json (structured one-line JSON)
    }
    plugin tester {
        config {
            group g0 { interval 1000
                       numSensors 100 }
        }
    }
    plugin procfs {
        configFile /etc/dcdb/procfs.conf
    }

Each ``plugin`` block either inlines its configuration under
``config`` or points at a separate file via ``configFile`` (DCDB's
layout).  Runs until interrupted.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.common.errors import DCDBError
from repro.common.proptree import PropertyTree, dump_info, parse_info
from repro.core.pusher.pusher import Pusher, PusherConfig
from repro.core.pusher.restapi import PusherRestApi
from repro.observability import configure_json_logging


def configure_logging(global_cfg: PropertyTree, component: str) -> None:
    """Honor the ``logFormat`` config key (shared by both daemons)."""
    if global_cfg.get("logFormat", "plain").lower() == "json":
        configure_json_logging(component)


def pusher_from_config(tree: PropertyTree) -> tuple[Pusher, PusherRestApi | None]:
    """Build a Pusher (and optional REST API) from a parsed config."""
    global_cfg = tree.child("global")
    if global_cfg is None:
        global_cfg = PropertyTree()
    configure_logging(global_cfg, "pusher")
    config = PusherConfig(
        mqtt_prefix=global_cfg.get("mqttPrefix", "/test/host0"),
        broker_host=global_cfg.get("brokerHost", "127.0.0.1"),
        broker_port=global_cfg.get_int("brokerPort", 1883),
        qos=global_cfg.get_int("qos", 0),
        threads=global_cfg.get_int("threads", 2),
        send_mode=global_cfg.get("sendMode", "continuous"),
        cache_interval_ms=global_cfg.get_int("cacheInterval", 120_000),
        trace_sample_every=global_cfg.get_int("traceSampleEvery", 1),
    )
    pusher = Pusher(config)
    for _key, node in tree.children("plugin"):
        name = node.value
        inline = node.child("config")
        config_file = node.get("configFile")
        if inline is not None:
            pusher.load_plugin(name, inline, plugin_alias=node.get("alias", name))
        elif config_file is not None:
            with open(config_file, "r", encoding="utf-8") as handle:
                pusher.load_plugin(
                    name, handle.read(), plugin_alias=node.get("alias", name)
                )
        else:
            raise DCDBError(f"plugin {name!r} has neither config nor configFile")
    rest_port = global_cfg.get_int("restPort", 0)
    rest = PusherRestApi(pusher, port=rest_port) if rest_port else None
    return pusher, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dcdb-pusher", description="Run a DCDB Pusher.")
    parser.add_argument("config", help="global configuration file")
    parser.add_argument(
        "--dump", action="store_true", help="print the parsed configuration and exit"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            tree = parse_info(handle.read())
        if args.dump:
            print(dump_info(tree))
            return 0
        pusher, rest = pusher_from_config(tree)
        for alias in list(pusher.plugins):
            pusher.start_plugin(alias)
        pusher.start()
        if rest is not None:
            rest.start()
            print(f"REST API on port {rest.port}", file=sys.stderr)
        print(
            f"pusher running: {pusher.sensor_count} sensors, prefix "
            f"{pusher.config.mqtt_prefix}",
            file=sys.stderr,
        )
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        stop.wait()
        if rest is not None:
            rest.stop()
        pusher.stop()
        return 0
    except (DCDBError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
