"""Durability chaos battery: process death mid-ingest, torn logs.

The acceptance claims for the durable storage engine, exercised the
hard way and seeded like the rest of the chaos suite
(``CHAOS_SEEDS=...`` overrides; see docs/durability.md):

* ``kill -9`` mid-ingest under ``fsync=always`` loses **zero
  acknowledged writes**: recovery reproduces a state whose
  fingerprint is bit-identical to replaying the same accepted batches
  into a fresh node.
* A torn WAL tail or a flipped CRC byte — the artefacts of power loss
  and bit rot — recover to the last valid record, never to a refusal
  to start and never to garbage.
* The full simulated pipeline (Pushers -> Collect Agent -> durable
  node) persists everything it acknowledged across an abandon-and-
  reopen of the data directory.
"""

import gc
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import payload as payload_mod
from repro.core.collectagent import WriterConfig
from repro.mqtt import packets as pkt
from repro.core.sid import SensorId
from repro.simulation.simcluster import SimClusterConfig, SimulatedCluster
from repro.storage.durable import DurableNode

CHAOS_SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")
]

SIDS = [SensorId.from_codes([7, i]) for i in range(1, 9)]
BATCH_ROWS = 20


def workload_batches(seed, count):
    """The deterministic ingest stream for one seed.

    Parent and killed child both derive batches from the same
    ``random.Random(seed)``, so "replay the accepted prefix" is exact.
    """
    rng = random.Random(seed)
    batches = []
    for b in range(count):
        batches.append(
            [
                (
                    SIDS[rng.randrange(len(SIDS))],
                    b * 1000 + i,
                    rng.randint(-(1 << 40), 1 << 40),
                    0,
                )
                for i in range(BATCH_ROWS)
            ]
        )
    return batches


def recovered_batch_count(node):
    """Distinct batch indices present (batches are atomic WAL records,
    so presence is always a prefix)."""
    high = -1
    for sid in node.sids():
        ts, _ = node.query(sid, 0, (1 << 63) - 1)
        if ts.size:
            high = max(high, int(ts[-1]) // 1000)
    return high + 1


def reference_fingerprint(tmp_path, seed, n_batches):
    ref = DurableNode("ref", data_dir=tmp_path / f"ref-{seed}", fsync="off")
    for batch in workload_batches(seed, n_batches):
        ref.insert_batch(batch)
    fp = ref.state_fingerprint()
    ref.close()
    return fp


class TestCrashRecoveryInProcess:
    """Abandon the node object mid-ingest (no close, no flush): the
    moral equivalent of a crash for everything already fsynced."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_recovery_fingerprint_bit_identical(self, tmp_path, seed):
        node = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        batches = workload_batches(seed, 30)
        for batch in batches:
            node.insert_batch(batch)  # fsync=always: acked == durable
        del node  # crash: no close, no flush, memtable gone
        gc.collect()  # a dead process drops its directory lock

        recovered = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        assert recovered.recovery_info["wal_records_replayed"] == 30
        assert recovered_batch_count(recovered) == 30
        fp = recovered.state_fingerprint()
        recovered.close()
        assert fp == reference_fingerprint(tmp_path, seed, 30)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_replay_spilling_memtable_survives_reopen_chain(self, tmp_path, seed):
        """Recovery whose WAL replay overflows the memtable (flush
        threshold smaller than the replayed row count, e.g. after a
        config change across restart) seals mid-replay; those frozen
        rows must survive a second and third reopen bit-identically —
        the WAL the checkpoint truncates was their only durable copy."""
        node = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        batches = workload_batches(seed, 30)
        for batch in batches:
            node.insert_batch(batch)
        del node  # crash: 600 rows live only in the WAL
        gc.collect()

        # 600 replayed rows against a 128-row memtable: several seals
        # fire mid-replay before the recovery-ending checkpoint.
        fp = None
        for reopen in range(3):
            recovered = DurableNode(
                "c0", data_dir=tmp_path / "c0", fsync="always", flush_threshold=128
            )
            assert recovered_batch_count(recovered) == 30, f"loss at reopen {reopen}"
            if fp is None:
                fp = recovered.state_fingerprint()
            else:
                assert recovered.state_fingerprint() == fp, f"drift at reopen {reopen}"
            recovered.close()
        assert fp == reference_fingerprint(tmp_path, seed, 30)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_torn_tail_recovers_to_last_valid_record(self, tmp_path, seed):
        node = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        for batch in workload_batches(seed, 30):
            node.insert_batch(batch)
        del node
        gc.collect()
        # Power loss tears the last frame: chop a seeded number of
        # bytes off the tail (at most one record's worth).
        log = max((tmp_path / "c0").glob("wal-*.log"))
        raw = log.read_bytes()
        chop = random.Random(seed).randrange(1, 500)
        log.write_bytes(raw[: len(raw) - chop])

        recovered = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        info = recovered.recovery_info
        assert info["wal_truncations"], "tear must be diagnosed"
        n = recovered_batch_count(recovered)
        assert n == 29  # exactly the last record lost, nothing else
        fp = recovered.state_fingerprint()
        recovered.close()
        assert fp == reference_fingerprint(tmp_path, seed, n)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_corrupt_crc_recovers_prefix(self, tmp_path, seed):
        node = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        for batch in workload_batches(seed, 30):
            node.insert_batch(batch)
        del node
        gc.collect()
        log = max((tmp_path / "c0").glob("wal-*.log"))
        raw = bytearray(log.read_bytes())
        # Flip a payload bit of frame 15 (frame = 20-byte header +
        # 4-byte count + 20 rows x 40 bytes; offset seeded within the
        # payload so the CRC check — not header parsing — catches it).
        frame = 24 + BATCH_ROWS * 40
        raw[15 * frame + 20 + random.Random(seed).randrange(frame - 24)] ^= 0x04
        log.write_bytes(bytes(raw))

        recovered = DurableNode("c0", data_dir=tmp_path / "c0", fsync="always")
        truncations = recovered.recovery_info["wal_truncations"]
        assert truncations and "CRC mismatch" in truncations[0]
        n = recovered_batch_count(recovered)
        assert n == 15
        fp = recovered.state_fingerprint()
        recovered.close()
        assert fp == reference_fingerprint(tmp_path, seed, n)


_CHILD_SCRIPT = """
import os, random, sys
sys.path.insert(0, sys.argv[3])
from repro.core.sid import SensorId
from repro.storage.durable import DurableNode

data_dir, seed = sys.argv[1], int(sys.argv[2])
SIDS = [SensorId.from_codes([7, i]) for i in range(1, 9)]
rng = random.Random(seed)
node = DurableNode("kill0", data_dir=data_dir, fsync="always")
acked = open(os.path.join(os.path.dirname(data_dir), "acked.txt"), "w")
for b in range(100_000):
    items = [
        (SIDS[rng.randrange(len(SIDS))], b * 1000 + i,
         rng.randint(-(1 << 40), 1 << 40), 0)
        for i in range(20)
    ]
    node.insert_batch(items)  # durable before the ack below
    acked.seek(0)
    acked.write(f"{b + 1}\\n")
    acked.flush()
    os.fsync(acked.fileno())
"""


class TestKillNineMidIngest:
    """A real process, a real SIGKILL, no cleanup handlers: the child
    acknowledges each batch only after ``fsync=always`` made it
    durable, so every acknowledged batch must survive."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_zero_acked_loss_and_identical_fingerprint(self, tmp_path, seed):
        data_dir = tmp_path / "kill0"
        acked_path = tmp_path / "acked.txt"
        src_root = str(Path(repro.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(data_dir), str(seed), src_root],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    if int(acked_path.read_text().split()[0]) >= 10:
                        break
                except (OSError, ValueError, IndexError):
                    pass
                if child.poll() is not None:
                    pytest.fail(
                        f"child exited early: {child.stderr.read().decode()}"
                    )
                time.sleep(0.002)
            else:
                pytest.fail("child never reached 10 acked batches")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait()
            if child.stderr:
                child.stderr.close()
        acked = int(acked_path.read_text().split()[0])
        assert acked >= 10

        recovered = DurableNode("kill0", data_dir=data_dir, fsync="always")
        n = recovered_batch_count(recovered)
        # Zero acknowledged loss; at most in-flight unacked extras.
        assert n >= acked, f"lost acked batches: recovered {n} < acked {acked}"
        fp = recovered.state_fingerprint()
        recovered.close()
        assert fp == reference_fingerprint(tmp_path, seed, n)


def publish_until_acked(port: int, target: int) -> tuple[list, socket.socket]:
    """A raw-socket QoS 1 publisher: keeps 64 PUBLISHes unacknowledged
    until ``target`` PUBACKs have arrived.  Returns the acknowledged
    ``(topic, ts)`` and the socket, with publishes still in flight."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(pkt.Connect(client_id="kill9", keepalive=0).encode())
    decoder = pkt.StreamDecoder()
    while not any(isinstance(p, pkt.ConnAck) for p in decoder.feed(sock.recv(4096))):
        pass
    sent, acked, packet_id = {}, [], 0
    while len(acked) < target:
        while len(sent) < 64:
            packet_id += 1
            topic, ts = f"/kill/n{packet_id % 8}/power", 1_000_000 + packet_id
            sent[packet_id] = (topic, ts)
            payload = payload_mod.encode_reading(ts, packet_id)
            sock.sendall(pkt.Publish(topic, payload, qos=1, packet_id=packet_id).encode())
        for packet in decoder.feed(sock.recv(65536)):
            if isinstance(packet, pkt.PubAck):
                acked.append(sent.pop(packet.packet_id))
    return acked, sock


class TestKillNineAgentMidIngest:
    """A PUBACK means committed, through a real process: ``agentd`` on
    TCP over a ``fsync=always`` durable store with its default writer
    is SIGKILLed while a QoS 1 publisher has messages in flight, and
    every reading it acknowledged is in the reopened store."""

    @pytest.mark.slow
    def test_every_acked_reading_is_stored(self, tmp_path):
        data_dir = tmp_path / "agent"
        conf = tmp_path / "agent.conf"
        conf.write_text(
            f"global {{\n mqttPort 0\n restPort 0\n db durable:{data_dir}?fsync=always\n}}\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        agent = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.agentd", str(conf)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
        )
        sock = None
        try:
            port = None
            for line in agent.stderr:
                match = re.search(rb"MQTT port (\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "agentd never reported its MQTT port"
            acked, sock = publish_until_acked(port, 1000)
            os.kill(agent.pid, signal.SIGKILL)
        finally:
            agent.kill()
            agent.wait()
            agent.stderr.close()
            if sock is not None:
                sock.close()

        node = DurableNode("durable0", data_dir=data_dir, fsync="always")
        missing = []
        for topic, ts in acked:
            stored = node.get_metadata(f"sidmap{topic}")
            if stored is None or not node.query(SensorId.from_hex(stored), ts, ts)[0].size:
                missing.append((topic, ts))
        node.close()
        assert not missing, f"{len(missing)} of {len(acked)} acknowledged readings lost"


class TestPipelineDurability:
    """Figure-8 topology over a durable node: everything the agent
    acknowledged is still there when a fresh node opens the directory."""

    @pytest.mark.slow
    def test_simulated_cluster_state_survives_reopen(self, tmp_path):
        sim = SimulatedCluster(
            SimClusterConfig(
                hosts=2,
                sensors_per_host=20,
                interval_ms=1000,
                storage_nodes=1,
                data_dir=str(tmp_path),
                fsync="interval",
                writer_config=WriterConfig(max_batch=256, poll_interval_s=0.001),
            )
        )
        stored = 0
        for _ in range(10):
            stored += sim.run(1.0)
        assert stored == sim.expected_readings(10)
        sim.stop()

        recovered = DurableNode("node0", data_dir=tmp_path / "node0")
        total = sum(
            recovered.query(sid, 0, (1 << 63) - 1)[0].size
            for sid in recovered.sids()
        )
        assert total == stored
        assert len(recovered.sids()) == sim.total_sensors
        recovered.close()
