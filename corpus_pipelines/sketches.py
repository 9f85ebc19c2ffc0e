"""Distributed frequency sketches: count-min heavy hitters.

Complements the HyperLogLog distinct sketch (events_index.py) with the
other workhorse streaming summary: approximate top-k term frequencies
over a corpus too large to count exactly.

``heavy_hitters_cms`` shape:

  1. one pass over documents: each batch emits ONE sketch row (a d x w
     count-min matrix, flattened) plus its local top-C candidate terms
     with exact in-batch counts;
  2. sketch rows merge by vector addition through a TREE reduction
     (map_batches over the sketch dataset, fan-in R per level) — the
     driver only ever sees one d*w vector, never O(#batches) of them;
  3. candidate terms dedup through one groupby; each surviving candidate
     is scored from the MERGED sketch (min over its d cells), which
     upper-bounds the true count by at most e/w * total_tokens with
     probability 1 - e^-d.

Rows-only op (no sane SQL for seeded multi-hash sketches); tests bound
the estimate error and check top-k set equality against exact counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .corpus_ops import _read_documents, _split_lower

CMS_D = 4  # hash rows
CMS_W = 2048  # counters per row
CMS_TOPK = 10
CMS_CANDIDATES = 64  # per-batch candidate terms carried alongside the sketch
_REDUCE_FANIN = 64


def _cms_cols(terms: list, d: int = CMS_D, w: int = CMS_W) -> np.ndarray:
    """(d, n_terms) column indices, one seeded blake2b hash per row."""
    out = np.empty((d, len(terms)), np.int64)
    for j, t in enumerate(terms):
        tb = t.encode()
        for r in range(d):
            h = hashlib.blake2b(tb, digest_size=8, salt=bytes([r])).digest()
            out[r, j] = int.from_bytes(h, "little") % w
    return out


def heavy_hitters_cms(
    sf_dir: str, k: int = CMS_TOPK, d: int = CMS_D, w: int = CMS_W
) -> pa.Table:
    """Approximate top-k most frequent words in ``documents`` via a
    count-min sketch (est_count >= true count, overshoot <= e/w of total
    tokens w.h.p.).  Ties break on the term string."""
    import ray.data

    ds = _read_documents(sf_dir, ["text"])

    def batch_sketch(batch: pa.Table) -> pa.Table:
        flat, _ = _split_lower(batch["text"])
        sk = np.zeros((d, w), np.int64)
        if len(flat):
            vc = pc.value_counts(
                flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
            )
            terms = vc.field("values").to_pylist()
            counts = vc.field("counts").to_numpy(zero_copy_only=False)
            cols = _cms_cols(terms, d, w)
            for r in range(d):
                np.add.at(sk[r], cols[r], counts)
            top = np.argsort(-counts, kind="stable")[:CMS_CANDIDATES]
            cand_t = [terms[i] for i in top]
            cand_n = counts[top]
        else:
            cand_t, cand_n = [], np.empty(0, np.int64)
        return pa.table(
            {
                "sketch": pa.array([sk.ravel()], pa.list_(pa.int64())),
                "cands": pa.array([cand_t], pa.list_(pa.string())),
                "cand_counts": pa.array([cand_n], pa.list_(pa.int64())),
            }
        )

    rows = ds.map_batches(batch_sketch, batch_format="pyarrow", batch_size=4096)

    # tree-reduce the sketches; candidate counts sum as we go and only
    # the strongest 4*C survive each level (a true heavy hitter's
    # partial sums keep it above the cut at every level)
    def merge(batch: pa.Table) -> pa.Table:
        sks = batch["sketch"].to_pylist()
        total = np.sum(np.array(sks, np.int64), axis=0)
        acc: dict = {}
        for lst, cnts in zip(batch["cands"].to_pylist(), batch["cand_counts"].to_pylist()):
            for t, c in zip(lst, cnts):
                acc[t] = acc.get(t, 0) + int(c)
        keep = sorted(acc.items(), key=lambda tc: (-tc[1], tc[0]))[: 4 * CMS_CANDIDATES]
        return pa.table(
            {
                "sketch": pa.array([total], pa.list_(pa.int64())),
                "cands": pa.array([[t for t, _ in keep]], pa.list_(pa.string())),
                "cand_counts": pa.array([[c for _, c in keep]], pa.list_(pa.int64())),
            }
        )

    rows = rows.materialize()
    while rows.count() > 1:
        rows = rows.repartition(
            max(1, rows.count() // _REDUCE_FANIN)
        ).map_batches(merge, batch_format="pyarrow", batch_size=_REDUCE_FANIN).materialize()
    final = pa.concat_tables(rows.iter_batches(batch_format="pyarrow", batch_size=None))
    sk = np.array(final["sketch"][0].as_py(), np.int64).reshape(d, w)
    cands = sorted(set(final["cands"][0].as_py()))
    if not cands:
        return pa.table({"term": pa.array([], pa.string()), "est_count": pa.array([], pa.int64())})
    cols = _cms_cols(cands, d, w)
    est = sk[np.arange(d)[:, None], cols].min(axis=0)
    order = np.lexsort((np.array(cands, object), -est))[:k]
    return pa.table(
        {
            "term": pa.array([cands[i] for i in order], pa.string()),
            "est_count": pa.array(est[order], pa.int64()),
        }
    )


def sketches_approx(sf_dir: str):
    """HLL distinct users per event type and CMS heavy hitters, unioned as
    ``which, key, n``.  Both sketches are deterministic given the input, so
    a naive single-process implementation of each spec reproduces them
    exactly (scripts/gen_gate_fixtures.py, tests/test_gate_fixtures.py)."""
    from . import tagged_union
    from .events_windowed import events_hll_users

    return tagged_union(
        sf_dir,
        [("events_hll_users", events_hll_users), ("heavy_hitters_cms", heavy_hitters_cms)],
        ["key", "n"],
        renames={
            "events_hll_users": {"event_type": "key", "approx_users": "n"},
            "heavy_hitters_cms": {"term": "key", "est_count": "n"},
        },
    )
