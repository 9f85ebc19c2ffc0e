"""Vectorized LEB128 varint + delta coding for posting blocks (numpy).

Posting blocks store docID deltas, integral weights, and per-posting position
lists as varint byte blobs (the north-star format: delta-encoded,
varint-compressed posting lists; the reference's codec pickles+zlibs delta
lists instead — same information, different bytes).

Encoding: standard unsigned LEB128 — 7 value bits per byte, high bit set on
all but the last byte of each value.
"""

from __future__ import annotations

import numpy as np


def encode_varints_with_offsets(values: np.ndarray):
    """Encode a 1-D array of unsigned ints as concatenated varints.

    Returns ``(buf: np.uint8 array, offsets: int64 array of len n+1)`` where
    value i occupies ``buf[offsets[i]:offsets[i+1]]`` — the offsets let a
    caller slice per-posting / per-block byte ranges out of ONE vectorized
    encode pass instead of encoding each block separately."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    nbits = np.zeros(v.shape, dtype=np.int64)
    tmp = v.copy()
    nonzero = tmp > 0
    while nonzero.any():
        nbits[nonzero] += 1
        tmp >>= np.uint64(7)
        nonzero = tmp > 0
    nbytes = np.maximum(nbits, 1)
    offsets = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    maxb = int(nbytes.max())
    for b in range(maxb):
        mask = nbytes > b
        idx = offsets[:-1][mask] + b
        chunk = (v[mask] >> np.uint64(7 * b)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > b).astype(np.uint8) << 7
        out[idx] = chunk.astype(np.uint8) | cont
    return out, offsets


def encode_varints(values: np.ndarray) -> bytes:
    """Encode a 1-D array of unsigned ints as concatenated varints."""
    return encode_varints_with_offsets(values)[0].tobytes()


def decode_varints(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode concatenated varints to a uint64 array."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero(raw < 0x80)  # terminal byte of each value
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    n = ends.size
    if count is not None and n != count:
        raise ValueError(f"varint stream has {n} values, expected {count}")
    vals = np.zeros(n, dtype=np.uint64)
    maxb = int(lens.max())
    for b in range(maxb):
        mask = lens > b
        vals[mask] |= (raw[starts[mask] + b].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * b)
    return vals


def delta_encode(sorted_vals: np.ndarray) -> np.ndarray:
    """[5, 9, 12] -> [5, 4, 3] (first value kept absolute)."""
    v = np.asarray(sorted_vals, dtype=np.uint64)
    if v.size == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    d = np.asarray(deltas, dtype=np.uint64)
    return np.cumsum(d, dtype=np.uint64)


def binary_array_from_offsets(data, byte_offsets, large: bool = True):
    """Zero-copy pyarrow binary array over ``data`` (uint8 np array /
    bytes) cut at ``byte_offsets`` (len n+1, starting at 0).  ``large``
    selects 64-bit offsets (block blobs) vs 32-bit (per-posting streams —
    half the offset overhead through the exchange)."""
    import numpy as np
    import pyarrow as pa

    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = np.ascontiguousarray(data).tobytes()
    if large:
        off = np.ascontiguousarray(byte_offsets, dtype=np.int64)
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(off) - 1,
            [None, pa.py_buffer(off.tobytes()), pa.py_buffer(data)],
        )
    off = np.ascontiguousarray(byte_offsets, dtype=np.int32)
    return pa.BinaryArray.from_buffers(
        pa.binary(), len(off) - 1,
        [None, pa.py_buffer(off.tobytes()), pa.py_buffer(data)],
    )
