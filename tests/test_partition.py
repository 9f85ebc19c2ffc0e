"""Vectorized string hashing (whoosh_reloaded_ray/functions/partition.py),
which ``update_documents`` uses through ``composite_key_hash``."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from whoosh_reloaded_ray.functions.partition import mix64, polyhash64


def test_polyhash_identity_and_edges():
    a = pa.array(["hello world", "", "a", "ab", "ba", "hello world", "x" * 5000, ""])
    h = polyhash64(a)
    assert h[0] == h[5] and h[1] == h[7]
    assert len({int(h[2]), int(h[3]), int(h[4])}) == 3
    # sliced and chunked arrays hash identically to the flat array
    assert (polyhash64(a.slice(2, 4)) == h[2:6]).all()
    chunked = pa.chunked_array([a.slice(0, 3), a.slice(3, 5)])
    assert (polyhash64(chunked) == h).all()
    assert polyhash64(pa.array([], pa.string())).shape == (0,)


def test_polyhash_large_string_type():
    a = pa.array(["abc", "", "def"], pa.large_string())
    b = pa.array(["abc", "", "def"], pa.string())
    assert (polyhash64(a) == polyhash64(b)).all()


def test_mix64_decorrelates_low_bits():
    seq = np.arange(64, dtype=np.uint64)
    mixed = mix64(seq)
    assert len(np.unique(mixed % np.uint64(4))) == 4
    assert len(np.unique(mixed)) == 64
