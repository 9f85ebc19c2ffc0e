"""Vectorized, process-stable uint64 key hashes over Arrow columns.

``composite_key_hash`` hashes a tuple of key columns in one column-wise
pass (``polyhash64`` for strings, ``mix64`` for integers); the write path
uses it for the broadcast semi-join that finds the documents an update
replaces.  The hashes are stable across processes (no Python ``hash``
salting), so Ray workers and the driver agree on them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# splitmix64 finalizer constants — public-domain mixing function
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_POLY_BASE = np.uint64(1099511628211)  # FNV-64 prime as polynomial base

_pow_cache: dict[int, np.ndarray] = {}


def _pows(n: int) -> np.ndarray:
    cached = _pow_cache.get(0)
    if cached is None or len(cached) < n:
        size = max(4096, 1 << int(np.ceil(np.log2(max(n, 2)))))
        with np.errstate(over="ignore"):
            p = np.empty(size, np.uint64)
            p[0] = np.uint64(1)
            for i in range(1, size):
                p[i] = p[i - 1] * _POLY_BASE
        _pow_cache[0] = p
        cached = p
    return cached


def polyhash64(arr) -> np.ndarray:
    """Vectorized, process-stable uint64 polynomial hash of a pyarrow
    string/binary array: ``h(s) = sum(byte_j * BASE^(len-1-j)) mod 2^64``
    computed straight off the Arrow offsets/data buffers (no Python loop
    over values).  Distribution quality is ample for bucketing and
    candidate lookup; callers exact-verify matches, since 64-bit hashes
    can collide."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    # normalize to large_string offsets handling: cast to binary view
    if pa.types.is_string(arr.type):
        arr = arr.cast(pa.binary())
    elif pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.large_binary())
    buffers = arr.buffers()
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offsets = np.frombuffer(buffers[1], dtype=off_dtype, count=n + 1 + arr.offset)[
        arr.offset :
    ].astype(np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)
    start, end = offsets[:-1], offsets[1:]
    lens = end - start
    total = int(end[-1] - start[0])
    if total == 0:
        out = np.full(n, np.uint64(0x9E3779B97F4A7C15))
        with np.errstate(over="ignore"):
            return out + lens.astype(np.uint64) * _MIX2
    pows = _pows(int(lens.max()))
    sums = np.empty(n, np.uint64)
    # string-aligned chunks: ballooned VMs fault fresh pages at ~100x
    # normal cost, so one big repeat/arange/astype over 10^7+ chars costs
    # SECONDS on its first touch in every worker process; per-chunk temps
    # are served from the allocator's freed blocks after the first chunk
    CH = 1 << 20
    i = 0
    while i < n:
        j = i
        while j < n and end[j] - start[i] <= CH:
            j += 1
        if j == i:
            j = i + 1  # single string bigger than the chunk
        lo, hi = int(start[i]), int(end[j - 1])
        cn = hi - lo
        if cn == 0:
            sums[i:j] = 0
        else:
            cstart = start[i:j] - lo
            clens = lens[i:j]
            chars = data[lo:hi].astype(np.uint64)
            pos_in_str = np.arange(cn, dtype=np.int64) - np.repeat(cstart, clens)
            exp = np.repeat(clens, clens) - 1 - pos_in_str
            with np.errstate(over="ignore"):
                contrib = chars * pows[exp]
            # reduceat needs in-bounds starts; empty strings are clipped
            # here and patched after the loop
            sums[i:j] = np.add.reduceat(
                contrib, np.minimum(cstart, cn - 1), dtype=np.uint64
            )
        i = j
    out = np.where(lens > 0, sums, np.uint64(0x9E3779B97F4A7C15))
    # fold in the length so "a"+"" and "a" with trailing empties differ
    with np.errstate(over="ignore"):
        out = out + lens.astype(np.uint64) * _MIX2
    return out


def composite_key_hash(tbl: pa.Table, fields) -> np.ndarray:
    """Vectorized uint64 hash of a composite key tuple: one column-wise
    pass (polyhash64 for strings, splitmix64 for integers), order-dependent
    combine.  Used for broadcast semi-joins on unique-key tuples (e.g.
    ``update_documents``); candidates should be exact-verified by the
    caller since 64-bit hashes can collide."""
    h = np.zeros(tbl.num_rows, np.uint64)
    for f in fields:
        col = tbl[f]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
            hf = polyhash64(col)
        elif pa.types.is_integer(t):
            hf = mix64(col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64))
        else:  # timestamps, bools, floats: hash the canonical string form
            hf = polyhash64(col.cast(pa.string()))
        with np.errstate(over="ignore"):
            h = h * _POLY_BASE + hf
            h = mix64(h)
    return h


def mix64(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: decorrelates low bits of structured int keys
    (sequential doc_ids, small-range hashes)."""
    x = keys.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x
