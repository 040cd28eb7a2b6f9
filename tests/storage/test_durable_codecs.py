"""Property-based round-trip tests for the segment compression codecs.

The delta-of-delta and Gorilla-XOR codecs must reproduce *any* int64
column bit-exactly — including float sensors stored as raw IEEE-754
bit patterns (NaN, ±inf), constant runs, and adversarial jitter — so
the generators below are seeded :class:`random.Random` streams (no
extra dependency) covering each regime, with the seed in the failure
message so any counterexample reproduces.
"""

import hashlib
import math
import random
import shutil
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.storage.durable import (
    BitReader,
    BitWriter,
    DurableNode,
    SegmentFile,
    decode_timestamps,
    decode_values,
    encode_timestamps,
    encode_values,
)
from repro.storage.durable import segment as segment_mod

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

SEEDS = range(20)


def _round_trip_ts(column):
    arr = np.array(column, dtype=np.int64)
    return decode_timestamps(encode_timestamps(arr), arr.size)


def _round_trip_vals(column):
    arr = np.array(column, dtype=np.int64)
    return decode_values(encode_values(arr), arr.size)


# -- generators (seeded, dependency-free) ---------------------------------


def gen_uniform_int64(rng, n):
    """Adversarial: full-range values, maximal deltas."""
    return [rng.randint(I64_MIN, I64_MAX) for _ in range(n)]


def gen_monitoring_timestamps(rng, n):
    """The intended regime: fixed interval with occasional jitter."""
    interval = rng.choice([1_000_000, 10_000_000, 1_000_000_000])
    t = rng.randint(0, 1 << 40)
    out = []
    for _ in range(n):
        out.append(t)
        t += interval + (rng.randint(-500, 500) if rng.random() < 0.1 else 0)
    return out

def gen_constant_run(rng, n):
    v = rng.randint(I64_MIN, I64_MAX)
    return [v] * n


def gen_slow_walk(rng, n):
    """Temperature-like: small steps around a level."""
    v = rng.randint(0, 100_000)
    out = []
    for _ in range(n):
        out.append(v)
        v += rng.randint(-3, 3)
    return out


def gen_float_bit_patterns(rng, n):
    """Float sensors store raw IEEE-754 words: NaN/±inf/denormals mixed
    with ordinary readings, reinterpreted as int64."""
    specials = [
        math.nan,
        math.inf,
        -math.inf,
        0.0,
        -0.0,
        5e-324,  # smallest denormal
        1.7976931348623157e308,
    ]
    out = []
    for _ in range(n):
        if rng.random() < 0.3:
            f = rng.choice(specials)
        else:
            f = rng.uniform(-1e6, 1e6)
        (word,) = struct.unpack("<q", struct.pack("<d", f))
        out.append(word)
    return out


GENERATORS = [
    gen_uniform_int64,
    gen_monitoring_timestamps,
    gen_constant_run,
    gen_slow_walk,
    gen_float_bit_patterns,
]


# -- bit stream primitives ------------------------------------------------


class TestBitStream:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_writer_reader_round_trip(self, seed):
        rng = random.Random(seed)
        fields = [
            (rng.getrandbits(bits), bits)
            for bits in (rng.randint(1, 68) for _ in range(200))
        ]
        w = BitWriter()
        for value, bits in fields:
            w.write(value, bits)
        r = BitReader(w.finish())
        for value, bits in fields:
            assert r.read(bits) == value, f"seed={seed}"

    def test_reader_raises_past_end(self):
        w = BitWriter()
        w.write(0b101, 3)
        r = BitReader(w.finish())
        r.read(8)  # the padded byte
        with pytest.raises(StorageError, match="truncated"):
            r.read(1)

    def test_finish_pads_to_byte(self):
        w = BitWriter()
        w.write(1, 1)
        data = w.finish()
        assert len(data) == 1 and data == b"\x80"


# -- codec round trips ----------------------------------------------------


class TestTimestampCodec:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
    def test_round_trip(self, gen, seed):
        rng = random.Random(seed)
        column = gen(rng, rng.randint(1, 400))
        out = _round_trip_ts(column)
        assert out.tolist() == column, f"gen={gen.__name__} seed={seed}"
        assert out.dtype == np.int64

    def test_empty(self):
        assert encode_timestamps(np.empty(0, dtype=np.int64)) == b""
        assert decode_timestamps(b"", 0).size == 0

    def test_single(self):
        for v in (0, I64_MIN, I64_MAX, -1):
            assert _round_trip_ts([v]).tolist() == [v]

    def test_extreme_second_difference(self):
        # Worst-case delta-of-delta: int64 extremes back to back.
        column = [I64_MIN, I64_MAX, I64_MIN, 0, I64_MAX]
        assert _round_trip_ts(column).tolist() == column

    def test_regular_interval_is_near_one_bit_per_row(self):
        column = list(range(0, 10_000_000_000, 1_000_000))
        encoded = encode_timestamps(np.array(column, dtype=np.int64))
        # 64-bit head + ~1 bit per subsequent row.
        assert len(encoded) <= 8 + len(column) // 8 + 16

    def test_truncated_block_raises(self):
        encoded = encode_timestamps(np.arange(100, dtype=np.int64) * 7919)
        with pytest.raises(StorageError, match="truncated"):
            decode_timestamps(encoded[: len(encoded) // 2], 100)


class TestValueCodec:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
    def test_round_trip(self, gen, seed):
        rng = random.Random(seed)
        column = gen(rng, rng.randint(1, 400))
        out = _round_trip_vals(column)
        assert out.tolist() == column, f"gen={gen.__name__} seed={seed}"
        assert out.dtype == np.int64

    def test_empty_and_single(self):
        assert encode_values(np.empty(0, dtype=np.int64)) == b""
        assert decode_values(b"", 0).size == 0
        for v in (0, I64_MIN, I64_MAX, -1):
            assert _round_trip_vals([v]).tolist() == [v]

    def test_constant_run_is_one_bit_per_row(self):
        column = [123456789] * 4096
        encoded = encode_values(np.array(column, dtype=np.int64))
        assert len(encoded) <= 8 + 4096 // 8 + 1

    def test_nan_bit_pattern_exact(self):
        # Distinct NaN payloads must survive: the codec may not
        # canonicalize, only difference bits.
        quiet = struct.unpack("<q", struct.pack("<Q", 0x7FF8000000000001))[0]
        signaling = struct.unpack("<q", struct.pack("<Q", 0x7FF0000000000002))[0]
        column = [quiet, signaling, quiet, quiet, signaling]
        assert _round_trip_vals(column).tolist() == column

    def test_window_shrink_and_regrow(self):
        # Force the leading/trailing window to be reused, then broken.
        column = [0, 0xFF00, 0xF000, 0x1, 0x8000000000000000 - 1, 0]
        assert _round_trip_vals(column).tolist() == column

    def test_truncated_block_raises(self):
        rng = random.Random(7)
        column = gen_uniform_int64(rng, 64)
        encoded = encode_values(np.array(column, dtype=np.int64))
        with pytest.raises(StorageError):
            decode_values(encoded[:10], 64)


class TestLwwDedupThenEncode:
    """Out-of-order duplicate input, deduped the flush-time way, then
    round-tripped — the exact data shape a memtable seal hands the
    segment writer."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dedup_then_round_trip(self, seed):
        from repro.storage.node import merge_lww

        rng = random.Random(seed)
        n = rng.randint(10, 300)
        ts = [rng.randint(0, 50) * 1_000_000 for _ in range(n)]
        vals = gen_float_bit_patterns(rng, n)
        exp = [I64_MAX] * n
        parts = [
            (
                np.array(ts, dtype=np.int64),
                np.array(vals, dtype=np.int64),
                np.array(exp, dtype=np.int64),
            )
        ]
        mts, mvals, mexp = merge_lww(parts)
        # Post-merge invariant: strictly increasing timestamps.
        assert np.all(np.diff(mts) > 0), f"seed={seed}"
        assert decode_timestamps(encode_timestamps(mts), mts.size).tolist() == mts.tolist()
        assert decode_values(encode_values(mvals), mvals.size).tolist() == mvals.tolist()
        assert decode_timestamps(encode_timestamps(mexp), mexp.size).tolist() == mexp.tolist()
        # LWW: the kept value at each timestamp is the *last* occurrence.
        last = {}
        for t, v in zip(ts, vals):
            last[t] = v
        assert {int(t): int(v) for t, v in zip(mts, mvals)} == last

# -- golden vectors --------------------------------------------------------
#
# Encoded bytes captured from the PR 8 per-reading loop codec.  The
# vectorized kernels must reproduce them bit-for-bit: round-trip
# consistency alone would let encoder and decoder drift together and
# silently orphan every segment already on disk.

GOLDEN_VECTORS = {
    "fixed_interval_ts": (
        "17979cfe362a0000e773594000000000000000",
        "17979cfe362a0000e1563f765e05b726d7c8b4b977d7e637bb88975b67df2a78"
        "995e775dfffe232eb800bb36960062577f8009fca9600e25deb80078da760022"
        "d3a78019935b6002df6bb807894f9600263eaf8018b5596003e739b8038f3ab6"
        "002655e780188caf6002edf6b80f89d6960025d29f800793f96006232ab8009b"
        "55f600e27fa7800bf4bb60062359b800993a9601e2d36f800f9d6960065defb8"
        "0088ceb600ee55678008b3a76006673ab8008f5b96001e3dbf81f894d960026f"
        "6ab801893676002dd2e780398deb40",
    ),
    "jittered_ts": (
        "16345785d8a00000e77359400600c9c019449f006b600ad48b00ace030e9de01"
        "99300dbe01b860137c027003019160321600fac0543806a00c043b80722acc03"
        "d7807b00",
        "16345785d8a00000de63cc9acb0b7debf81fc4a5c99b931ede8037d7e2d76b87"
        "9ca9785c8f367c3f03f995b94b32233ab006e35fbb75f785e89da9c63c0ee5d3"
        "ed5fc2f7c9d356ddf8388d69e6b1369b6802627ebb0045fabca00de7fc4655f2"
        "61327b2808c5ab36020f39566f84bbfca0271195f8085caaca023167d58084ce"
        "53a03759f8f579e0f8fab61894def85e9bd6996fbebf12776c5ba737c0fe636a"
        "542c8975bed91ef3a5006f31e256fb84f9b5b188cd9e172b4ece2fdab84ca5cb"
        "c0fe237bcb9cf7359c5bb6dff32956c045ef37c0f6e52e587911ed7800",
    ),
    "temp_drift_vals": (
        "000000000000cb20207068288542e090681c0a0480c1e110181c120901416148"
        "3c220b0680c1d048241e150381c0e15018140a16",
        "000000000000cb203e84fff81fe03fa0f3f817fc0f6d86e4314d1cb3a64d0c71"
        "47f42fb070a838e8e82414146c0c0c6c147c143c38",
    ),
    "ieee754_vals": (
        "7ff8000000000000f0000ffffffffffffff0ffeffffffffffffff10020000000"
        "000000f1001ffffffffffffff20000000000000002f08010000000000003f17f"
        "dbfffffffffffdf27fd8000000000000f17ffbfffffffffffff0ffefffffffff"
        "fffff10020000000000000f1001ffffffffffffff20000000000000002f08010"
        "000000000003f17fdbfffffffffffdf27fd8000000000000f17ffbffffffffff"
        "fff0ffeffffffffffffff10020000000000000f1001ffffffffffffff2000000"
        "0000000002f08010000000000003f17fdbfffffffffffdf27fd8000000000000"
        "f17ffbfffffffffffff0ffeffffffffffffff10020000000000000f1001fffff"
        "fffffffff20000000000000002f08010000000000003f17fdbfffffffffffd",
        "7ff8000000000000cc03800700bfffa00303f80000000000000018ffe0000000"
        "000006fffa000000000000affe80000000000020008000000000000a00000000"
        "00000002fff0000000000000a000000000000000280000000000000018ffe000"
        "0000000006fffa000000000000affe80000000000020008000000000000a0000"
        "000000000002fff0000000000000a000000000000000280000000000000018ff"
        "e0000000000006fffa000000000000affe80000000000020008000000000000a"
        "0000000000000002fff0000000000000a0000000000000002800000000000000"
        "18ffe0000000000006fffa000000000000",
    ),
    "power_step_vals": (
        "00000000000249f01c00030d41c00030d3e70000c34fb800061a838000c35038"
        "001869ff8000c3501c00061a81c00061a7ee00030d3fe00030d400e00030d40e"
        "00030d3f38000c34ff8000c350001c00030d41c00030d3e000",
        "00000000000249f01de6512c544bee37cf5545f545f1517c545f02a2f8545f00"
        "179ea000",
    ),
    "extremes": (
        "8000000000000000f1fffffffffffffffef3fffffffffffffffbf2ffffffffff"
        "fffffe80f8fffffffffffffffef8800000000000000278800000000000000280",
        "8000000000000000c0fffffffffffffffffeffffffffffffffffa00000000000"
        "000027fffffffffffffffa0000000000000002fffffffffffffffea000000000"
        "00000040",
    ),
}


def _float_bits(f):
    return struct.unpack("<q", struct.pack("<d", f))[0]


def golden_columns():
    """The exact columns behind :data:`GOLDEN_VECTORS` (regenerable)."""
    cols = {}
    cols["fixed_interval_ts"] = [
        1_700_000_000_000_000_000 + i * 1_000_000_000 for i in range(48)
    ]
    rng = random.Random(4242)
    t = 1_600_000_000_000_000_000
    col = []
    for _ in range(48):
        col.append(t)
        t += 1_000_000_000 + (rng.randint(-500, 500) if rng.random() < 0.25 else 0)
    cols["jittered_ts"] = col
    rng = random.Random(99)
    v = 52_000
    col = []
    for _ in range(48):
        col.append(v)
        v += rng.randint(-3, 3)
    cols["temp_drift_vals"] = col
    specials = [
        float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1.5, -2.25,
    ]
    cols["ieee754_vals"] = [_float_bits(specials[i % 8]) for i in range(32)]
    rng = random.Random(7)
    v = 150_000
    col = []
    for _ in range(48):
        col.append(v)
        if rng.random() < 0.15:
            v = rng.choice([100_000, 150_000, 200_000])
    cols["power_step_vals"] = col
    cols["extremes"] = [I64_MIN, I64_MAX, I64_MIN, 0, I64_MAX, -1, 1, I64_MIN]
    return cols


class TestGoldenVectors:
    """Wire-format lock: encoder output must match the committed PR 8
    bytes exactly, and the committed bytes must decode to the columns."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_VECTORS))
    def test_encode_matches_golden(self, name):
        col = np.array(golden_columns()[name], dtype=np.int64)
        ts_hex, val_hex = GOLDEN_VECTORS[name]
        assert encode_timestamps(col).hex() == ts_hex, name
        assert encode_values(col).hex() == val_hex, name

    @pytest.mark.parametrize("name", sorted(GOLDEN_VECTORS))
    def test_golden_bytes_decode(self, name):
        col = golden_columns()[name]
        ts_hex, val_hex = GOLDEN_VECTORS[name]
        assert decode_timestamps(bytes.fromhex(ts_hex), len(col)).tolist() == col
        assert decode_values(bytes.fromhex(val_hex), len(col)).tolist() == col


# -- batched encoders: byte identity ---------------------------------------
#
# A memtable seal hands the codecs every series at once.  The batched
# call must produce, per series, exactly the block that series gets
# when it is encoded alone — and the segment files built from those
# blocks must not have changed by a byte.

FIXTURES = Path(__file__).parent / "fixtures"


def _random_series(rng, count):
    """``count`` columns of mixed regimes; sizes 0, 1 and 2 always occur."""
    sizes = [0, 1, 2] + [rng.choice([0, 1, 2, 3, rng.randint(4, 40), rng.randint(41, 400)]) for _ in range(count - 3)]
    rng.shuffle(sizes)
    return [np.array(rng.choice(GENERATORS)(rng, n), dtype=np.int64) for n in sizes]


def _batched(encode, columns):
    offsets = np.concatenate(([0], np.cumsum([c.size for c in columns])))
    return encode(np.concatenate(columns), offsets)


class TestBatchedEncoders:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "encode,decode", [(encode_timestamps, decode_timestamps), (encode_values, decode_values)]
    )
    def test_blocks_equal_series_encoded_alone(self, encode, decode, seed):
        rng = random.Random(seed)
        columns = _random_series(rng, rng.randint(3, 24))
        blocks = _batched(encode, columns)
        assert len(blocks) == len(columns)
        for column, block in zip(columns, blocks):
            assert block == encode(column), f"seed={seed} rows={column.size}"
            assert decode(block, column.size).tolist() == column.tolist(), f"seed={seed}"

    @pytest.mark.parametrize("encode", [encode_timestamps, encode_values])
    def test_degenerate_batches(self, encode):
        empty = np.empty(0, dtype=np.int64)
        assert _batched(encode, [empty]) == [b""]
        assert _batched(encode, [empty, empty]) == [b"", b""]
        assert encode(empty, np.array([0])) == []
        one = np.array([-7], dtype=np.int64)
        assert _batched(encode, [empty, one, empty]) == [b"", encode(one), b""]

    def test_golden_vectors_survive_batching(self):
        columns = [np.array(col, dtype=np.int64) for col in golden_columns().values()]
        expected = list(GOLDEN_VECTORS.values())
        assert [b.hex() for b in _batched(encode_timestamps, columns)] == [e[0] for e in expected]
        assert [b.hex() for b in _batched(encode_values, columns)] == [e[1] for e in expected]


def pinned_series():
    """Seeded segment input: sizes 0/1/2 and mixed, every value regime,
    constant and per-row expiries.  Do not change — the digest below
    was computed from it on the commit before the batched encoders."""
    rng = random.Random(20260521)
    sizes = [1, 2, 3, 0, 17, 200, 1, 64, 0, 2, 333, 9]
    series = []
    for i, n in enumerate(sizes):
        ts = np.array(sorted(set(gen_monitoring_timestamps(rng, n))), dtype=np.int64)
        vals = np.array(GENERATORS[i % len(GENERATORS)](rng, ts.size), dtype=np.int64)
        exp = np.full(ts.size, I64_MAX, dtype=np.int64)
        if i % 4 == 1:
            exp = ts + rng.randint(1, 1000) * 1_000_000_000
        series.append((SensorId.from_codes([7, i + 1]), ts, vals, exp))
    return series


PINNED_SEGMENT_SHA256 = "be9edf1a6cbbbd50b444b68b4035504add6a4977cb2a0acecfc3ce32a2a416df"
PINNED_FINGERPRINT = "896df70e90df943184a8e2b7d15db4ba4e38d999a21ad2dc05b558a9f1cbc549"


class TestSegmentBytesUnchanged:
    def test_pinned_segment_digest(self, tmp_path):
        path = tmp_path / "pinned.seg"
        segment_mod.write_segment(path, pinned_series())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SEGMENT_SHA256

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 19, 201, 600])
    def test_chunk_boundaries_never_show(self, tmp_path, monkeypatch, chunk_rows):
        # 1-3: a cut after nearly every series; 19 and 201: the cut
        # would fall inside the 200- and 333-row series, which go whole
        # into a chunk of their own; 600: a cut between two series.
        monkeypatch.setattr(segment_mod, "_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "chunked.seg"
        stats = segment_mod.write_segment(path, pinned_series())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SEGMENT_SHA256
        assert stats.sensors == 10 and stats.rows == sum(s[1].size for s in pinned_series())
        seg = SegmentFile(path)
        for sid, ts, vals, exp in pinned_series():
            if ts.size:
                got = seg.read(sid)
                assert [g.tolist() for g in got] == [ts.tolist(), vals.tolist(), exp.tolist()]
        seg.close()

    def test_data_dir_written_before_the_change_reopens_identically(self, tmp_path):
        # fixtures/parent_datadir: two segment files, a WAL tail with
        # rows and metadata, written by the previous commit's code from
        # pinned_series() (flush_threshold=150, see the digest above).
        data_dir = tmp_path / "node"
        shutil.copytree(FIXTURES / "parent_datadir", data_dir)
        node = DurableNode("fixture", data_dir=data_dir, clock=lambda: 0)
        try:
            assert node.state_fingerprint() == PINNED_FINGERPRINT
            assert node.get_metadata("sidmap/fixture/a") == "0007" and node.get_metadata("gone") is None
            # Rewriting every block with the batched encoders changes nothing.
            node.compact()
            assert node.state_fingerprint() == PINNED_FINGERPRINT
        finally:
            node.close()


# -- decoders against a one-token-at-a-time reference ---------------------
#
# The vectorized decoders step once per run of tokens and gather every
# payload at once.  The references below read the documented token
# grammar one token at a time on top of BitReader; both decoders must
# agree with them on every valid block and on arbitrary bytes.

_U64 = (1 << 64) - 1


def _signed(words):
    return [w - (1 << 64) if w >> 63 else w for w in words]


def reference_decode_values(data, count):
    """'0': same value; '10' + win bits: XOR in the current window;
    '11' + 6-bit leading zeros + 6-bit (win - 1) + win bits: new window."""
    if count == 0:
        return []
    r = BitReader(data)
    prev = r.read(64)
    out = [prev]
    win, trail = 64, 0
    for _ in range(count - 1):
        if r.read(1):
            if r.read(1):
                lead = r.read(6)
                win = r.read(6) + 1
                trail = 64 - lead - win
                if trail < 0:
                    raise StorageError("corrupt XOR window")
            prev ^= r.read(win) << trail
        out.append(prev)
    return _signed(out)


def reference_decode_timestamps(data, count):
    """'0': dod 0; '10' + 7, '110' + 16, '1110' + 32, '1111' + 68 bits
    of zigzagged delta-of-delta."""
    if count == 0:
        return []
    r = BitReader(data)
    prev = r.read(64)
    out = [prev]
    delta = 0
    for _ in range(count - 1):
        zz = 0
        if r.read(1):
            for width in (7, 16, 32, 68):
                if width == 68 or not r.read(1):
                    zz = r.read(width)
                    break
        delta = (delta + ((zz >> 1) ^ -(zz & 1))) & _U64
        prev = (prev + delta) & _U64
        out.append(prev)
    return _signed(out)


def gen_walk_400(rng, n):
    """Node power in mW: the dashboard's random walk."""
    v = rng.randint(80_000, 300_000)
    out = []
    for _ in range(n):
        out.append(v)
        v += rng.randint(-400, 400)
    return out


def gen_counter(rng, n):
    v = rng.randint(0, 1 << 40)
    out = []
    for _ in range(n):
        out.append(v)
        v += rng.randint(900, 1_100)
    return out


def gen_slow_walk_1(rng, n):
    """±1 steps: a zero token between every few non-zero ones."""
    v = rng.randint(0, 100_000)
    out = []
    for _ in range(n):
        out.append(v)
        v += rng.randint(-1, 1)
    return out


def gen_steps(rng, n):
    every = rng.randint(2, 40)
    out = []
    for i in range(n):
        if i % every == 0:
            v = rng.randint(100_000, 200_000)
        out.append(v)
    return out


def gen_alternating_zero(rng, n):
    """Every value twice: zero and non-zero tokens alternate."""
    values = [rng.randint(0, 1 << 20) for _ in range(n // 2 + 1)]
    return [v for v in values for _ in (0, 1)][:n]


def gen_renegotiate_every_row(rng, n):
    """XORs alternate between a high and a low bit: no window is reused."""
    v = rng.randint(I64_MIN, I64_MAX)
    out = []
    for i in range(n):
        out.append(v)
        v = (v ^ (1 << (62 - i % 3) if i % 2 else 1 << (i % 3))) & _U64
        v = v - (1 << 64) if v >> 63 else v
    return out


def gen_extremes(rng, n):
    return [rng.choice([I64_MIN, I64_MAX, 0, -1, 1, I64_MIN + 1]) for _ in range(n)]


REGIMES = GENERATORS + [
    gen_walk_400,
    gen_counter,
    gen_slow_walk_1,
    gen_steps,
    gen_alternating_zero,
    gen_renegotiate_every_row,
    gen_extremes,
]

#: Lengths on and around the edges of the scan: the head alone, the
#: scalar look-ahead of a run, its strided windows.
EDGE_LENGTHS = [0, 1, 2, 3, 4, 5, 15, 16, 17, 18, 19, 33, 272, 273, 274, 785, 786]


def _both(decode, reference, data, count):
    """``(decoder result, reference result)``, a StorageError as None."""
    results = []
    for fn in (decode, reference):
        try:
            results.append(list(fn(data, count)))
        except StorageError:
            results.append(None)
    return results


class TestDecodersAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        regime=st.sampled_from(REGIMES),
        n=st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 700)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_columns_decode_like_the_reference(self, regime, n, seed):
        column = regime(random.Random(seed), n)
        arr = np.array(column, dtype=np.int64)
        for encode, decode, reference in (
            (encode_values, decode_values, reference_decode_values),
            (encode_timestamps, decode_timestamps, reference_decode_timestamps),
        ):
            block = encode(arr)
            got = decode(block, n)
            assert got.dtype == np.int64
            assert got.tolist() == reference(block, n) == column

    @pytest.mark.parametrize("run", list(range(1, 40)) + [271, 272, 273, 783, 784, 785, 1_500])
    @pytest.mark.parametrize("end", ["zero", "renegotiate", "block"])
    def test_run_lengths(self, run, end):
        # A run of `run` tokens XORing bit 0 ('11' then '10's), ended by a
        # repeated value, a wider XOR, or the end of the block; a short
        # run follows so the scan must resume in the right place.
        xors = [1] * run + {"zero": [0], "renegotiate": [6], "block": []}[end] + [1, 0, 1]
        column = np.bitwise_xor.accumulate(np.array([5] + xors, dtype=np.int64))
        block = encode_values(column)
        assert decode_values(block, column.size).tolist() == column.tolist()
        assert reference_decode_values(block, column.size) == column.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_prefix_of_a_block_raises(self, seed):
        rng = random.Random(seed)
        column = np.array(rng.choice(REGIMES)(rng, rng.randint(1, 80)), dtype=np.int64)
        for encode, decode in ((encode_values, decode_values), (encode_timestamps, decode_timestamps)):
            block = encode(column)
            for cut in range(len(block)):
                with pytest.raises(StorageError):
                    decode(block[:cut], column.size)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=96), count=st.one_of(st.integers(0, 800), st.integers(0, 1 << 40)))
    def test_arbitrary_bytes(self, data, count):
        for decode, reference in (
            (decode_values, reference_decode_values),
            (decode_timestamps, reference_decode_timestamps),
        ):
            start = time.perf_counter()
            got, expected = _both(decode, reference, data, count)
            assert time.perf_counter() - start < 1.0
            assert got == expected
            if got is not None:
                assert len(got) == count

    def test_fuzzed_blocks_raise_only_storage_error(self):
        # 3 000 mutated valid blocks (bit flips, cuts, trailing garbage,
        # wrong counts): each decodes like the reference or raises
        # StorageError — never another exception.
        rng = random.Random(3_000)
        for case in range(3_000):
            column = np.array(rng.choice(REGIMES)(rng, rng.randint(0, 60)), dtype=np.int64)
            encode, decode, reference = rng.choice(
                [
                    (encode_values, decode_values, reference_decode_values),
                    (encode_timestamps, decode_timestamps, reference_decode_timestamps),
                ]
            )
            block = bytearray(encode(column))
            for _ in range(rng.randint(0, 3)):
                action = rng.randrange(3)
                if action == 0 and block:
                    block[rng.randrange(len(block))] ^= 1 << rng.randrange(8)
                elif action == 1:
                    del block[rng.randrange(len(block) + 1) :]
                else:
                    block += bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
            count = max(0, column.size + rng.choice([0, 0, 0, -1, 1, rng.randint(-5, 50)]))
            got, expected = _both(decode, reference, bytes(block), count)
            assert got == expected, f"case={case}"
