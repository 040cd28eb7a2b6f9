"""Columnar compression codecs for on-disk segments.

Two bit-level codecs, straight out of Facebook's Gorilla paper (the
scheme the COMPASS CDB work adopts for its compressed columnar event
store, and the natural fit for DCDB's monitoring data):

* **Delta-of-delta** for timestamps (and TTL expiries): monitoring
  readings arrive on a fixed sampling interval, so the second
  difference of consecutive timestamps is almost always zero — one
  bit per reading.  Jitter falls into small variable-width buckets.
* **XOR** for values: consecutive sensor values are equal or close, so
  ``v[i] XOR v[i-1]`` is zero (one bit) or has a short run of
  meaningful bits which is stored with a leading/trailing-zero window
  that is reused while it keeps fitting.

Both codecs operate on int64 columns — the storage layer's native
reading representation (see :mod:`repro.core.sensor` for the scaling
convention).  Float-valued sensors that store raw IEEE-754 bit
patterns (NaN, ±inf included) round-trip bit-identically, because the
codecs never interpret the payload arithmetically beyond differencing.

Encoded blocks carry no row count; callers (the segment writer, the
WAL) store the count in their own framing and pass it to decode.

The kernels are NumPy-vectorized: deltas, delta-of-deltas, zigzag,
bucket classification, XOR leading/trailing-zero windows and the final
bit-packing all run column-at-a-time (MSB-first bit matrix +
``np.packbits``).  Decoding steps through the tokens in Python once
per *run*, not once per row: a run of ``0`` tokens is one
``bytes.find``, a run of ``10`` XOR tokens under one window is one
strided look-up (they all have the same length), and only irregular
delta-of-delta tokens and XOR window renegotiations cost an iteration
each; every payload is then read in one vector gather over the
block's 64-bit words.  The wire format is **bit-identical** to the original
per-reading loop implementation — locked by the golden vectors in
``tests/storage/test_durable_codecs.py``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import StorageError

__all__ = [
    "BitReader",
    "BitWriter",
    "decode_timestamps",
    "decode_values",
    "encode_timestamps",
    "encode_values",
]

_M64 = (1 << 64) - 1
_U0 = np.uint64(0)
_U1 = np.uint64(1)

#: Bits one delta-of-delta token occupies, per bucket (control+payload).
_DOD_TOKEN_BITS = np.array([1, 9, 19, 36, 72], dtype=np.int64)

#: Cap on the rows × width temporary matrices the bit scatter helper
#: materializes at once (keeps peak memory bounded for huge
#: adversarial blocks without touching the common-case fast path).
_CHUNK_ROWS = 1 << 16

#: ``10`` tokens of a run checked one by one before its end is looked
#: up in strides (one NumPy call costs about as much as this many).
_PROBE = 16

#: Bit-plane bytes to ASCII digits: a few plane bytes parse with ``int(.., 2)``.
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


class BitWriter:
    """Append-only MSB-first bit stream over a ``bytearray``."""

    __slots__ = ("_out", "_acc", "_n")

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._n = 0

    def write(self, value: int, bits: int) -> None:
        acc = (self._acc << bits) | (value & ((1 << bits) - 1))
        n = self._n + bits
        out = self._out
        while n >= 8:
            n -= 8
            out.append((acc >> n) & 0xFF)
        self._acc = acc & ((1 << n) - 1)
        self._n = n

    def finish(self) -> bytes:
        """Zero-pad to a byte boundary and return the stream."""
        if self._n:
            self._out.append((self._acc << (8 - self._n)) & 0xFF)
            self._acc = 0
            self._n = 0
        return bytes(self._out)


class BitReader:
    """MSB-first bit reader over ``bytes``/``memoryview`` (mmap-safe)."""

    __slots__ = ("_data", "_i", "_acc", "_n")

    def __init__(self, data) -> None:
        self._data = data
        self._i = 0
        self._acc = 0
        self._n = 0

    def read(self, bits: int) -> int:
        acc = self._acc
        n = self._n
        data = self._data
        i = self._i
        try:
            while n < bits:
                acc = (acc << 8) | data[i]
                i += 1
                n += 8
        except IndexError:
            raise StorageError("truncated compressed block") from None
        self._i = i
        n -= bits
        self._n = n
        self._acc = acc & ((1 << n) - 1)
        return acc >> n


# -- vector helpers -------------------------------------------------------


def _as_i64_column(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return np.ascontiguousarray(values, dtype=np.int64)
    return np.array([int(v) for v in values], dtype=np.int64)


def _scatter_bits(bits: np.ndarray, offsets: np.ndarray, values: np.ndarray, width: int) -> None:
    """Write ``width``-bit MSB-first fields of uint64 ``values`` into the
    0/1 array ``bits`` starting at bit positions ``offsets``."""
    if offsets.size == 0:
        return
    span = np.arange(width, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    for at in range(0, offsets.size, _CHUNK_ROWS):
        off = offsets[at : at + _CHUNK_ROWS]
        val = values[at : at + _CHUNK_ROWS]
        bits[off[:, None] + span[None, :]] = (
            (val[:, None] >> shifts[None, :]) & _U1
        ).astype(np.uint8)


def _planes(data, count: int):
    """``(total, words, plane)`` of a block: its bit count, its bits as
    big-endian 64-bit words and as ``bytes`` of 0/1 (C-speed scalar
    indexing and ``bytes.find`` over the tokens).  Both run on past the
    block with at least 64 zero bits, so a look-ahead needs no bounds
    check (a token it would start cannot fit) and neither does
    :func:`_gather`.

    Every row after the 64-bit head costs at least one bit, so a
    ``count`` the block cannot hold is refused before anything is
    allocated for it.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size < 8 or count - 1 > 8 * raw.size - 64:
        raise StorageError("truncated compressed block")
    padded = np.zeros((raw.size // 8 + 2) * 8, dtype=np.uint8)
    padded[: raw.size] = raw
    words = padded.view(">u8").astype(np.uint64)
    return 8 * raw.size, words, np.unpackbits(padded).tobytes()


def _gather(words: np.ndarray, offsets: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Read MSB-first fields of ``widths`` (1..64) bits at bit ``offsets``:
    a field lies in the word pair from ``offset >> 6``, which shifted
    left by ``offset & 63`` holds it in its high ``width`` bits."""
    at = offsets >> 6
    shift = (offsets & 63).astype(np.uint64)
    # Two shifts for the low word: one by 64 - shift would be by 64 at
    # shift 0, which NumPy (like C) does not define.
    low = (words[at + 1] >> _U1) >> (np.uint64(63) - shift)
    return ((words[at] << shift) | low) >> (64 - widths).astype(np.uint64)


def _strided_run(heads: np.ndarray, at: int, step: int, limit: int) -> int:
    """How many of ``heads[at::step][:limit]`` are set before the first
    unset one, scanned in doubling windows so a short run stays cheap."""
    done = 0
    span = 128
    while done < limit:
        span = min(2 * span, limit - done)
        window = heads[at + done * step : at + (done + span) * step : step]
        first_unset = int(window.argmin())
        if not window[first_unset]:
            return done + first_unset
        done += span
    return done


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` over a uint64 column."""
    v = v.copy()
    out = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        t = v >> np.uint64(s)
        big = t != 0
        out[big] += s
        v[big] = t[big]
    out += v != 0
    return out


# -- batched block layout ---------------------------------------------------
#
# Both encoders take one concatenated column plus the row bounds of the
# series in it and emit every series' byte-aligned block from a single
# vector pass; a lone column is a batch of one.  A block is a 64-bit
# head (the first row verbatim) followed by one variable-width token
# per further row; an empty series is an empty block.


def _split_series(values, offsets):
    """``(column, rows per series, token rows, first-token flags)``.

    Token rows are the global indices of every row but each series'
    first; a token is *first* when the row before it is a head, which
    is where the per-series predictor state (previous delta, XOR
    window) starts from scratch.
    """
    column = _as_i64_column(values)
    if offsets is None:
        bounds = np.array([0, column.size], dtype=np.int64)
    else:
        bounds = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(bounds)
    is_token = np.ones(column.size, dtype=bool)
    is_token[bounds[:-1][sizes > 0]] = False
    tok = np.flatnonzero(is_token)
    return column, sizes, tok, ~is_token[tok - 1]


def _lay_out(column: np.ndarray, sizes: np.ndarray, widths: np.ndarray):
    """Allocate the shared bit plane and place every head in it.

    Returns ``(bits, bit offset of every token, series byte bounds)``: series
    ``i`` owns bytes ``bounds[i]:bounds[i + 1]`` of the packed plane,
    so every block starts byte-aligned and its zero padding is just
    the untouched tail of its last byte.
    """
    tokens = np.maximum(sizes - 1, 0)
    run = np.concatenate(([0], np.cumsum(widths)))
    first = np.concatenate(([0], np.cumsum(tokens)))[:-1]
    series_bits = np.where(sizes > 0, 64 + run[first + tokens] - run[first], 0)
    bounds = np.concatenate(([0], np.cumsum((series_bits + 7) >> 3)))
    starts = bounds[:-1] << 3
    offsets = np.repeat(starts + 64 - run[first], tokens) + run[:-1]
    bits = np.zeros(int(bounds[-1]) << 3, dtype=np.uint8)
    live = sizes > 0
    heads = column.view(np.uint64)[(np.cumsum(sizes) - sizes)[live]]
    _scatter_bits(bits, starts[live], heads, 64)
    return bits, offsets, bounds


def _blocks(bits: np.ndarray, bounds: np.ndarray, batched: bool):
    packed = np.packbits(bits).tobytes()
    if not batched:
        return packed
    cuts = bounds.tolist()
    return [packed[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


# -- delta-of-delta timestamp codec ---------------------------------------


def encode_timestamps(values, offsets=None):
    """Delta-of-delta encode int64 columns (timestamps, expiries).

    ``values`` alone is one series and the result its block;  with
    ``offsets`` (``S + 1`` ascending row bounds) it is the
    concatenation of ``S`` series and the result the list of their
    blocks, each identical to encoding that series alone.

    Bucket codes: ``0`` dod=0; ``10``+7 bits; ``110``+16; ``1110``+32;
    ``1111``+68 (zigzag; 68 bits covers the worst-case second
    difference of two int64 extremes).
    """
    ts, sizes, tok, first = _split_series(values, offsets)
    u = ts.view(np.uint64)
    # True deltas are 65-bit quantities: carry the wrapped int64 value
    # plus a ±2^64 correction term so classification stays exact.
    a, b = ts[tok], ts[tok - 1]
    d = (u[tok] - u[tok - 1]).view(np.int64)
    ovf = ((a < 0) != (b < 0)) & ((d < 0) != (a < 0))
    c = np.where(a >= 0, 1, -1) * ovf
    # The delta (and carry) before each series' first token is zero.
    d_prev = np.zeros_like(d)
    c_prev = np.zeros_like(c)
    d_prev[1:] = d[:-1]
    c_prev[1:] = c[:-1]
    d_prev[first] = 0
    c_prev[first] = 0
    sd = (d.view(np.uint64) - d_prev.view(np.uint64)).view(np.int64)
    ovf2 = ((d < 0) != (d_prev < 0)) & ((sd < 0) != (d < 0))
    k = np.where(d >= 0, 1, -1) * ovf2 + c - c_prev
    # dod_i = sd_i + (k_i << 64); k != 0 always lands in the 68-bit
    # bucket because |dod| >= 2^63 then.
    zz = (sd.view(np.uint64) << _U1) ^ np.right_shift(sd, 63).view(np.uint64)
    bucket = np.where(
        k != 0,
        4,
        np.where(
            sd == 0,
            0,
            np.where(zz < 128, 1, np.where(zz < (1 << 16), 2, np.where(zz < (1 << 32), 3, 4))),
        ),
    )
    bits, at, bounds = _lay_out(ts, sizes, _DOD_TOKEN_BITS[bucket])
    # Bucket 0 is the single '0' bit — already zeroed.
    for cls, ctl, pay in ((1, 0b10, 7), (2, 0b110, 16), (3, 0b1110, 32)):
        idx = np.flatnonzero(bucket == cls)
        if idx.size:
            _scatter_bits(bits, at[idx], np.uint64(ctl << pay) | zz[idx], cls + 1 + pay)
    idx4 = np.flatnonzero(bucket == 4)
    if idx4.size:
        hi = np.empty(idx4.size, dtype=np.uint64)
        lo = np.empty(idx4.size, dtype=np.uint64)
        for i, (s, kk) in enumerate(zip(sd[idx4].tolist(), k[idx4].tolist())):
            dod = s + (kk << 64)
            z = (dod << 1) ^ (dod >> 127)
            hi[i] = (0b1111 << 4) | (z >> 64)
            lo[i] = z & _M64
        _scatter_bits(bits, at[idx4], hi, 8)
        _scatter_bits(bits, at[idx4] + 8, lo, 64)
    return _blocks(bits, bounds, offsets is not None)


def decode_timestamps(data, count: int) -> np.ndarray:
    """Inverse of :func:`encode_timestamps`; ``count`` rows expected."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    total, words, bb = _planes(data, count)
    first = int(words[0])
    out = np.empty(count, dtype=np.uint64)
    out[0] = first
    if count == 1:
        return out.view(np.int64)
    m = count - 1
    # Token scan: runs of '0' bits are dod=0 tokens, skipped in bulk by
    # memchr; only irregular tokens cost a Python iteration.  A 68-bit
    # token is read as its low 64 bits plus the one bit above them.
    rows: list[int] = []
    offs: list[int] = []
    ws: list[int] = []
    find = bb.find
    p = 64
    tok = 0
    while tok < m:
        q = p if bb[p] else find(1, p)
        if q < 0:
            q = total
        tok += q - p
        if tok >= m:
            break
        if not bb[q + 1]:
            off, w = q + 2, 7
        elif not bb[q + 2]:
            off, w = q + 3, 16
        elif not bb[q + 3]:
            off, w = q + 4, 32
        else:
            off, w = q + 8, 64
        p = off + w
        if p > total:
            raise StorageError("truncated compressed block")
        rows.append(tok)
        offs.append(off)
        ws.append(w)
        tok += 1

    out[1:] = first
    if rows:
        at = np.array(offs, dtype=np.int64)
        width = np.array(ws, dtype=np.int64)
        zz = _gather(words, at, width)
        # Zigzag, reduced mod 2^64 (exact: the final timestamps are int64
        # and every step is bitwise/additive); a 68-bit token's bit 64
        # becomes the top bit.
        top = np.frombuffer(bb, dtype=np.uint8)[at - 1] * (width == 64)
        top = top.astype(np.uint64) << np.uint64(63)
        dod = np.zeros(m, dtype=np.uint64)
        dod[rows] = (top | (zz >> _U1)) ^ (_U0 - (zz & _U1))
        out[1:] += np.cumsum(np.cumsum(dod))
    return out.view(np.int64)


# -- Gorilla XOR value codec ----------------------------------------------


def encode_values(values, offsets=None):
    """Gorilla-style XOR encode int64 value columns.

    One series or, with ``offsets``, a batch of them — see
    :func:`encode_timestamps`.  Per value: ``0`` if the XOR with the
    previous value is zero; ``10`` + meaningful bits reusing the
    previous leading/trailing-zero window; ``11`` + 6-bit leading
    count + 6-bit (length-1) + bits for a fresh window.
    """
    vals, sizes, tok, first = _split_series(values, offsets)
    u = vals.view(np.uint64)
    x = u[tok] ^ u[tok - 1]
    nz_idx = np.flatnonzero(x)
    widths = np.ones(tok.size, dtype=np.int64)
    if nz_idx.size:
        xs = x[nz_idx]
        lead_v = 64 - _bit_length_u64(xs)
        tz = _bit_length_u64(xs & (_U0 - xs)) - 1
        series = np.cumsum(first)[nz_idx]
        fresh = np.ones(nz_idx.size, dtype=bool)
        fresh[1:] = series[1:] != series[:-1]
        # The window state machine is inherently sequential, but only
        # over rows whose XOR is non-zero — everything around it
        # (leading/trailing-zero counts, payload shifts, bit packing)
        # is vectorized.  It starts over with every series.
        kind_l: list[bool] = []
        win_l: list[int] = []
        sh_l: list[int] = []
        lead_s = trail_s = win_s = 0
        for l, t, new in zip(lead_v.tolist(), tz.tolist(), fresh.tolist()):
            if not new and l >= lead_s and t >= trail_s:
                kind_l.append(False)
                win_l.append(win_s)
                sh_l.append(trail_s)
            else:
                lead_s = l
                trail_s = t
                win_s = 64 - l - t
                kind_l.append(True)
                win_l.append(win_s)
                sh_l.append(t)
        kind = np.array(kind_l, dtype=bool)
        win = np.array(win_l, dtype=np.int64)
        sh = np.array(sh_l, dtype=np.uint64)
        widths[nz_idx] = np.where(kind, 14 + win, 2 + win)
    bits, at, bounds = _lay_out(vals, sizes, widths)
    if nz_idx.size:
        payload = xs >> sh
        off_nz = at[nz_idx]
        reuse = ~kind
        if reuse.any():
            _scatter_bits(
                bits,
                off_nz[reuse],
                np.full(int(reuse.sum()), 0b10, dtype=np.uint64),
                2,
            )
        if kind.any():
            meta = (
                (np.uint64(0b11) << np.uint64(12))
                | (lead_v[kind].astype(np.uint64) << np.uint64(6))
                | (win[kind].astype(np.uint64) - _U1)
            )
            _scatter_bits(bits, off_nz[kind], meta, 14)
        pay_off = off_nz + np.where(kind, 14, 2)
        for w in np.unique(win):
            sel = win == w
            _scatter_bits(bits, pay_off[sel], payload[sel], int(w))
    return _blocks(bits, bounds, offsets is not None)


def decode_values(data, count: int) -> np.ndarray:
    """Inverse of :func:`encode_values`; ``count`` rows expected.

    Between two ``11`` window renegotiations every ``10`` token is
    ``win + 2`` bits long, so the payloads of consecutive ones lie at a
    fixed stride.  The scan steps once per such run (its end found by a
    strided look-up in the ``10``-header mask) and once per run of
    ``0`` tokens (``bytes.find``); every payload is then read in one
    vector gather, with its window looked up from the renegotiations.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    total, words, bb = _planes(data, count)
    first = int(words[0])
    out = np.empty(count, dtype=np.uint64)
    out[0] = first
    if count == 1:
        return out.view(np.int64)
    m = count - 1
    find = bb.find
    heads = None  # heads[i]: a '10' token starts at bit i
    runs: list[int] = []  # first row, first payload bit, length; per run
    # Windows: the row each one starts at, its width, its trailing zeros.
    win_row = [0]
    win_bits = [64]
    win_trail = [0]
    p = 64
    tok = 0
    win = 64
    while tok < m:
        q = p if bb[p] else find(1, p)
        if q < 0:
            q = total
        tok += q - p
        if tok >= m:
            break
        p = q + 2
        if bb[q + 1]:
            if q + 14 > total:
                raise StorageError("truncated compressed block")
            hdr = int(bb[p : p + 12].translate(_BIT_CHARS), 2)
            win = (hdr & 63) + 1
            trail = 64 - (hdr >> 6) - win
            if trail < 0:
                raise StorageError("corrupt XOR window in compressed block")
            win_row.append(tok)
            win_bits.append(win)
            win_trail.append(trail)
            p += 12
        at = p + win  # where the next token starts
        if at > total:
            raise StorageError("truncated compressed block")
        k = 1
        if bb[at] and not bb[at + 1]:
            step = win + 2
            limit = min(m - tok, (total - at) // step + 1)  # tokens that fit
            while k < limit and bb[at] and not bb[at + 1]:
                k += 1
                at += step
                if k == _PROBE:
                    if heads is None:
                        plane = np.frombuffer(bb, dtype=np.uint8)
                        heads = plane[:-1] > plane[1:]
                    more = _strided_run(heads, at, step, limit - k)
                    k += more
                    at += more * step
                    break
        runs += (tok, p, k)
        tok += k
        p = at

    out[1:] = first
    if runs:
        row, off, lens = np.array(runs, dtype=np.int64).reshape(-1, 3).T
        epoch = np.repeat(np.searchsorted(win_row, row, side="right") - 1, lens)
        width = np.array(win_bits, dtype=np.int64)[epoch]
        trail = np.array(win_trail, dtype=np.uint64)[epoch]
        i = np.arange(width.size) - np.repeat(np.cumsum(lens) - lens, lens)
        at = np.repeat(off, lens) + i * (width + 2)
        xors = np.zeros(m, dtype=np.uint64)
        xors[np.repeat(row, lens) + i] = _gather(words, at, width) << trail
        out[1:] ^= np.bitwise_xor.accumulate(xors)
    return out.view(np.int64)
