"""Vectorized string hashing (whoosh_reloaded_ray/functions/partition.py)
and the hash-partitioned aggregation pattern (corpus_pipelines/partition.py,
the high-cardinality-groupby replacement — see its module docstring for why
Ray's own groupby(key).aggregate is avoided at n-gram/doc-id cardinality)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from corpus_pipelines.partition import (
    PART_COL,
    arrow_group_aggregate,
    partition_ids,
    partitioned_map_groups,
)
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


def test_partition_ids_balanced():
    # adversarially structured keys (sequential ints) still spread
    p = partition_ids(np.arange(100_000, dtype=np.uint64), 32)
    cnt = np.bincount(p, minlength=32)
    assert cnt.min() > 2500 and cnt.max() < 3800
    assert p.min() >= 0 and p.max() < 32
    # int64-viewed hashes (the _hash64 convention) work unchanged
    h = np.array([-5, -1, 0, 7], dtype=np.int64)
    p2 = partition_ids(h.view(np.uint64), 8)
    assert ((p2 >= 0) & (p2 < 8)).all()


def test_mix64_decorrelates_low_bits():
    seq = np.arange(64, dtype=np.uint64)
    mixed = mix64(seq)
    assert len(np.unique(mixed % np.uint64(4))) == 4
    assert len(np.unique(mixed)) == 64


def test_partitioned_map_groups_exact_sum(ray_session):
    import ray.data

    # 50k (key, n) rows, ~20k distinct string keys, exact global sums
    rng = np.random.default_rng(7)
    keys = [f"k{rng.integers(20000)}" for _ in range(50_000)]
    n = rng.integers(1, 10, size=50_000)
    tbl = pa.table({"key": pa.array(keys), "n": pa.array(n, pa.int64())})

    def addp(batch: pa.Table) -> pa.Table:
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(polyhash64(batch["key"]), 16))
        )

    def combine(part: pa.Table) -> pa.Table:
        return arrow_group_aggregate(part, "key", [("n", "sum")])

    ds = ray.data.from_arrow(tbl).map_batches(addp, batch_format="pyarrow")
    out = pa.concat_tables(
        partitioned_map_groups(ds, combine).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    got = dict(zip(out["key"].to_pylist(), out["n_sum"].to_pylist()))
    exp: dict[str, int] = {}
    for k, v in zip(keys, n):
        exp[k] = exp.get(k, 0) + int(v)
    assert got == exp


def test_partitioned_map_groups_skewed_key(ray_session):
    """One hot key holding 90% of rows lands in ONE partition — the
    combine must still aggregate it exactly (documents the partitioning
    assumption: per-key state must fit one worker)."""
    import ray.data

    keys = ["hot"] * 9000 + [f"c{i}" for i in range(1000)]
    tbl = pa.table({"key": pa.array(keys), "n": pa.array([1] * 10_000, pa.int64())})

    def addp(batch: pa.Table) -> pa.Table:
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(polyhash64(batch["key"]), 8))
        )

    def combine(part: pa.Table) -> pa.Table:
        return arrow_group_aggregate(part, "key", [("n", "sum")])

    ds = ray.data.from_arrow(tbl).map_batches(addp, batch_format="pyarrow")
    out = pa.concat_tables(
        partitioned_map_groups(ds, combine).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    got = dict(zip(out["key"].to_pylist(), out["n_sum"].to_pylist()))
    assert got["hot"] == 9000 and len(got) == 1001
