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
``np.packbits``/``np.unpackbits``), with Python-level work confined to
the rows that need it (irregular delta-of-delta buckets, XOR window
renegotiations).  The wire format is **bit-identical** to the original
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

#: Cap on the rows × width temporary matrices the bit scatter/gather
#: helpers materialize at once (keeps peak memory bounded for huge
#: adversarial blocks without touching the common-case fast path).
_CHUNK_ROWS = 1 << 16


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


def _gather_bits(bits: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """Read ``width``-bit MSB-first uint64 fields at bit ``offsets``."""
    span = np.arange(width, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    out = np.empty(offsets.size, dtype=np.uint64)
    for at in range(0, offsets.size, _CHUNK_ROWS):
        off = offsets[at : at + _CHUNK_ROWS]
        chunk = bits[off[:, None] + span[None, :]].astype(np.uint64)
        out[at : at + off.size] = (chunk << shifts[None, :]).sum(
            axis=1, dtype=np.uint64
        )
    return out


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


def _small_int(bb: bytes, off: int, width: int) -> int:
    value = 0
    for b in bb[off : off + width]:
        value = (value << 1) | b
    return value


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
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size < 8:
        raise StorageError("truncated compressed block")
    first = int.from_bytes(raw[:8].tobytes(), "big")
    out = np.empty(count, dtype=np.uint64)
    out[0] = first
    if count == 1:
        return out.view(np.int64)
    m = count - 1
    bits = np.unpackbits(raw)
    total = int(bits.size)
    bb = bits.tobytes()  # byte-per-bit copy: C-speed scalar indexing
    # Token scan: runs of '0' bits are dod=0 tokens, skipped in bulk by
    # memchr; only irregular tokens cost a Python iteration.
    pos: tuple[list, list, list, list] = ([], [], [], [])
    find = bb.find
    p = 64
    tok = 0
    while tok < m:
        if p < total and bb[p]:
            q = p
        else:
            q = find(1, p)
            if q < 0:
                q = total
        run = q - p
        if run:
            if run >= m - tok:
                tok = m
                break
            tok += run
        if q + 1 < total and not bb[q + 1]:
            off, w, cls = q + 2, 7, 0
        elif q + 2 < total and not bb[q + 2]:
            off, w, cls = q + 3, 16, 1
        elif q + 3 < total and not bb[q + 3]:
            off, w, cls = q + 4, 32, 2
        else:
            off, w, cls = q + 4, 68, 3
        end = off + w
        if end > total:
            raise StorageError("truncated compressed block")
        pos[cls].append((tok, off))
        tok += 1
        p = end

    dod = np.zeros(m, dtype=np.uint64)
    for cls, w in ((0, 7), (1, 16), (2, 32)):
        rows = pos[cls]
        if not rows:
            continue
        arr = np.array(rows, dtype=np.int64)
        zz = _gather_bits(bits, arr[:, 1], w)
        dod[arr[:, 0]] = (zz >> _U1) ^ (_U0 - (zz & _U1))
    rows = pos[3]
    if rows:
        arr = np.array(rows, dtype=np.int64)
        hi = _gather_bits(bits, arr[:, 1], 4)
        lo = _gather_bits(bits, arr[:, 1] + 4, 64)
        # 68-bit zigzag, reduced mod 2^64: exact because the final
        # timestamps are int64 and every step is bitwise/additive.
        dod[arr[:, 0]] = (((hi & _U1) << np.uint64(63)) | (lo >> _U1)) ^ (
            _U0 - (lo & _U1)
        )
    deltas = np.cumsum(dod)
    out[1:] = np.uint64(first) + np.cumsum(deltas)
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
    """Inverse of :func:`encode_values`; ``count`` rows expected."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size < 8:
        raise StorageError("truncated compressed block")
    first = int.from_bytes(raw[:8].tobytes(), "big")
    out = np.empty(count, dtype=np.uint64)
    out[0] = first
    if count == 1:
        return out.view(np.int64)
    m = count - 1
    bits = np.unpackbits(raw)
    total = int(bits.size)
    bb = bits.tobytes()  # byte-per-bit copy: C-speed scalar indexing
    rows: list[int] = []
    offs: list[int] = []
    ws: list[int] = []
    shs: list[int] = []
    find = bb.find
    rows_append = rows.append
    offs_append = offs.append
    ws_append = ws.append
    shs_append = shs.append
    p = 64
    tok = 0
    win = 64
    trail = 0
    while tok < m:
        if p < total and bb[p]:
            q = p
        else:
            q = find(1, p)
            if q < 0:
                q = total
        run = q - p
        if run:
            if run >= m - tok:
                tok = m
                break
            tok += run
        p = q
        if p + 1 >= total:
            raise StorageError("truncated compressed block")
        if not bb[p + 1]:
            off = p + 2
        else:
            if p + 14 > total:
                raise StorageError("truncated compressed block")
            lead = _small_int(bb, p + 2, 6)
            win = _small_int(bb, p + 8, 6) + 1
            trail = 64 - lead - win
            if trail < 0:
                raise StorageError("corrupt XOR window in compressed block")
            off = p + 14
        end = off + win
        if end > total:
            raise StorageError("truncated compressed block")
        rows_append(tok)
        offs_append(off)
        ws_append(win)
        shs_append(trail)
        tok += 1
        p = end

    xors = np.zeros(m, dtype=np.uint64)
    if rows:
        rows_a = np.array(rows, dtype=np.int64)
        offs_a = np.array(offs, dtype=np.int64)
        ws_a = np.array(ws, dtype=np.int64)
        shs_a = np.array(shs, dtype=np.uint64)
        for w in sorted(set(ws)):
            sel = ws_a == w
            xors[rows_a[sel]] = _gather_bits(bits, offs_a[sel], int(w)) << shs_a[sel]
    acc = np.bitwise_xor.accumulate(xors)
    out[1:] = np.uint64(first) ^ acc
    return out.view(np.int64)
