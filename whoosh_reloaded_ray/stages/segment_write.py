"""Segment shard writer: the reduce side of the build's term-shard exchange.

Mirrors the reference's FieldWriter/W3PostingsWriter role
(codec/whoosh3.py:675-902 + codec/base.py:169-246): consume a shard's
postings, sort by (field, term, docnum), cut <=128-posting blocks per term
(the reference's block limit, codec/whoosh3.py:85), encode each block as

    docnums:   first absolute + delta, varint
    weights:   varint when all integral (the common no-boost case) else
               raw float32 LE
    lengths:   raw uint8 per posting (quantized field length — the scorer
               needs it per matched doc; min/max per block give the
               block-max-WAND bounds)
    positions: per posting varint(count) + delta-varint positions

and write one parquet ROW PER BLOCK sorted by (field, term) so parquet
row-group statistics prune term lookups. Everything is vectorized: ONE
varint encode pass per shard per stream, sliced per block via offsets (no
per-block Python encode loop).

Per-term stats (TermInfo equivalent: reading.py:62-140) go to a sibling
terminfo parquet; sentinel length rows go to a doclens parquet.

Scale notes: a shard holds ~|vocab|/num_shards terms, and every term lives
in exactly one shard.  The hottest term's postings sit in one shard but
stream through as 128-posting block rows, so nothing needs the whole
posting list in one buffer at query time.  A write task holds one
segment's (``rows_per_segment``) postings for its shard, so the planner
bounds a hot term's load by segment size rather than by splitting the
term; a term too hot for one write task needs smaller segments.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.varint import binary_array_from_offsets, encode_varints_with_offsets
from .tokenize import LEN_SENTINEL

BLOCK_LIMIT = 128  # postings per block (reference codec constant)

WEIGHTS_VARINT = 0
WEIGHTS_FLOAT32 = 1

POSTINGS_FILE = "postings-{shard:04d}.parquet"
TERMINFO_FILE = "terminfo-{shard:04d}.parquet"
DOCLENS_FILE = "doclens-{shard:04d}.parquet"


def _atomic_write(tbl: pa.Table, path: str, row_group_size: int = 8192):
    from ..state import storage

    storage.write_parquet_atomic(tbl, path, row_group_size=row_group_size)


_binary_from_offsets = binary_array_from_offsets


def _storage_join(base, *parts):
    from ..state import storage

    return storage.join(base, *parts)


@dataclass
class ShardWriteResult:
    shard: int
    n_terms: int
    n_postings: int


class ShardSegmentWriter:
    """Build write task body: one call = one shard's full posting set
    (POSTING_SCHEMA rows, any order) -> that shard's files + a summary row."""

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        # fault-injection hook (tests only; see _rayutil.consume_fault_flag):
        # a flag file at the index root crashes exactly one write task's
        # worker mid-build, proving Ray's task retry yields a
        # byte-identical segment (all writes are atomic tmp+rename)
        self._fault_flag = os.path.join(
            os.path.dirname(seg_dir.rstrip("/")), ".fault_crash_writer"
        )

    def __call__(self, group: pa.Table) -> pa.Table:
        from .._rayutil import consume_fault_flag

        consume_fault_flag(self._fault_flag)
        if group.num_rows == 0:
            return _summary_table(-1, None, "{}")
        shard = int(group["shard"][0].as_py())
        group = group.combine_chunks()

        # --- split sentinel doc-length rows from real postings
        is_len = pc.equal(group["term"], LEN_SENTINEL)
        doclens = group.filter(is_len)
        posts = group.filter(pc.invert(is_len))

        # per-field length sums ride back in the summary row so the driver
        # never has to re-scan the doclens parquet for avgfl totals
        fl_json = "{}"
        if doclens.num_rows:
            dl_sort = pc.sort_indices(
                doclens, sort_keys=[("docnum", "ascending"), ("field", "ascending")]
            )
            doclens = doclens.take(dl_sort)
            dl_tbl = pa.table(
                {
                    "docnum": doclens["docnum"],
                    "field": doclens["field"],
                    "length": pc.cast(doclens["weight"], pa.uint32()),
                    "len_byte": doclens["len_byte"],
                }
            )
            _atomic_write(dl_tbl, _storage_join(self.seg_dir, DOCLENS_FILE.format(shard=shard)))
            agg = dl_tbl.group_by("field").aggregate([("length", "sum")])
            fl_json = json.dumps(
                {
                    f: int(s)
                    for f, s in zip(
                        agg["field"].to_pylist(), agg["length_sum"].to_pylist()
                    )
                },
                sort_keys=True,
            )

        result = self._write_postings(shard, posts) if posts.num_rows else None
        return _summary_table(shard, result, fl_json)

    def _write_postings(self, shard: int, posts: pa.Table) -> ShardWriteResult:
        order = pc.sort_indices(
            posts,
            sort_keys=[("field", "ascending"), ("term", "ascending"), ("docnum", "ascending")],
        )
        posts = posts.take(order).combine_chunks()
        n = posts.num_rows

        fields = posts["field"]
        terms = posts["term"]
        docs = posts["docnum"].to_numpy()
        weights = posts["weight"].to_numpy()
        lens = posts["len_byte"].to_numpy()

        # --- term run boundaries via dictionary codes (vectorized)
        fcodes = pc.dictionary_encode(fields.chunk(0)).indices.to_numpy()
        tcodes = pc.dictionary_encode(terms.chunk(0)).indices.to_numpy()
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(tcodes[1:], tcodes[:-1], out=change[1:])
        change[1:] |= fcodes[1:] != fcodes[:-1]
        term_starts = np.flatnonzero(change)
        term_ends = np.append(term_starts[1:], n)
        n_terms = term_starts.size

        # --- block boundaries: cut each term run into <=BLOCK_LIMIT chunks
        run_lens = term_ends - term_starts
        blocks_per_term = (run_lens + BLOCK_LIMIT - 1) // BLOCK_LIMIT
        n_blocks = int(blocks_per_term.sum())
        # block_starts: for each term, term_start + k*BLOCK_LIMIT
        block_term = np.repeat(np.arange(n_terms), blocks_per_term)
        within = np.arange(n_blocks) - np.repeat(
            np.cumsum(np.append(0, blocks_per_term[:-1])), blocks_per_term
        )
        block_starts = term_starts[block_term] + within * BLOCK_LIMIT
        block_ends = np.minimum(block_starts + BLOCK_LIMIT, term_ends[block_term])

        # --- encode docnums: delta with reset at block starts
        d = np.empty(n, dtype=np.uint64)
        d[0] = docs[0]
        np.subtract(docs[1:], docs[:-1], out=d[1:])
        d[block_starts] = docs[block_starts]
        doc_buf, doc_off = encode_varints_with_offsets(d)
        doc_col = _binary_from_offsets(doc_buf, doc_off[np.append(block_starts, n)])

        # --- weights: varint if integral else float32
        iw = weights.astype(np.uint64)
        if np.all(weights == iw):
            wflag = WEIGHTS_VARINT
            w_buf, w_off = encode_varints_with_offsets(iw)
            w_col = _binary_from_offsets(w_buf, w_off[np.append(block_starts, n)])
        else:
            wflag = WEIGHTS_FLOAT32
            w_raw = weights.astype("<f4").view(np.uint8)
            w_col = _binary_from_offsets(w_raw, np.append(block_starts, n) * 4)

        # --- lengths: raw uint8 per posting
        len_col = _binary_from_offsets(lens, np.append(block_starts, n).astype(np.int64))

        # --- positions/chars: already encoded per posting by the tokenizer
        # as varint byte streams; a block's blob is the CONCATENATION of its
        # postings' streams = one buffer slice
        def blockify_blobs(arr):
            if arr.null_count == n:
                return pa.nulls(n_blocks, pa.large_binary())
            # BinaryArray exposes no .offsets: read the int32 offsets buffer
            # directly (respecting the array's slice offset)
            loff = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
                arr.offset : arr.offset + n + 1
            ].astype(np.int64)
            data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
            lo, hi = int(loff[0]), int(loff[-1])
            block_byte_bounds = loff[np.append(block_starts, n)] - lo
            return _binary_from_offsets(data[lo:hi], block_byte_bounds)

        pos_col = blockify_blobs(posts["positions"].chunk(0))
        if "chars" in posts.column_names:
            chars_col = blockify_blobs(posts["chars"].chunk(0))
        else:  # postings produced by a pre-chars tokenizer
            chars_col = pa.nulls(n_blocks, pa.large_binary())
        if "boosts" in posts.column_names:
            boosts_col = blockify_blobs(posts["boosts"].chunk(0))
        else:  # postings produced by a pre-boosts tokenizer
            boosts_col = pa.nulls(n_blocks, pa.large_binary())
        if "payload" in posts.column_names:
            # custom-Format payloads (formats.py plug point): each posting's
            # bytes are varint-length-framed by the tokenizer, so the block
            # concatenation stays reader-splittable
            payload_col = blockify_blobs(posts["payload"].chunk(0))
        else:  # postings produced by a pre-payload tokenizer
            payload_col = pa.nulls(n_blocks, pa.large_binary())

        # --- per-block stats
        blk_max_w = np.maximum.reduceat(weights, block_starts)
        blk_min_len = np.minimum.reduceat(lens, block_starts)
        blk = pa.table(
            {
                "field": fields.take(pa.array(block_starts)),
                "term": terms.take(pa.array(block_starts)),
                "count": pa.array((block_ends - block_starts).astype(np.int32)),
                "doc_min": pa.array(docs[block_starts], type=pa.uint64()),
                "doc_max": pa.array(docs[block_ends - 1], type=pa.uint64()),
                "max_weight": pa.array(blk_max_w, type=pa.float32()),
                "min_len_byte": pa.array(blk_min_len, type=pa.uint8()),
                "wflag": pa.array(np.full(n_blocks, wflag, dtype=np.uint8)),
                "docs": doc_col,
                "weights": w_col,
                "lens": len_col,
                "positions": pos_col,
                "chars": chars_col,
                "boosts": boosts_col,
                "payload": payload_col,
            }
        )
        _atomic_write(blk, _storage_join(self.seg_dir, POSTINGS_FILE.format(shard=shard)))

        # --- terminfo (per-term stats)
        ti = pa.table(
            {
                "field": fields.take(pa.array(term_starts)),
                "term": terms.take(pa.array(term_starts)),
                "doc_freq": pa.array(run_lens.astype(np.int64)),
                "weight_sum": pa.array(np.add.reduceat(weights.astype(np.float64), term_starts)),
                "max_weight": pa.array(
                    np.maximum.reduceat(weights, term_starts), type=pa.float32()
                ),
                "doc_min": pa.array(docs[term_starts], type=pa.uint64()),
                "doc_max": pa.array(docs[term_ends - 1], type=pa.uint64()),
                "min_len_byte": pa.array(np.minimum.reduceat(lens, term_starts), type=pa.uint8()),
                "max_len_byte": pa.array(np.maximum.reduceat(lens, term_starts), type=pa.uint8()),
            }
        )
        _atomic_write(ti, _storage_join(self.seg_dir, TERMINFO_FILE.format(shard=shard)))
        return ShardWriteResult(shard=shard, n_terms=n_terms, n_postings=n)


def _summary_table(
    shard: int, result: ShardWriteResult | None, fl_json: str
) -> pa.Table:
    # one row per non-empty shard (postings and/or doclens); empty groups
    # return a zero-row table with the same schema
    empty = result is None and fl_json == "{}"
    rows = [] if empty else [0]
    return pa.table(
        {
            "shard": pa.array([shard for _ in rows], type=pa.int32()),
            "n_terms": pa.array(
                [result.n_terms if result else 0 for _ in rows], type=pa.int64()
            ),
            "n_postings": pa.array(
                [result.n_postings if result else 0 for _ in rows], type=pa.int64()
            ),
            "field_lengths_json": pa.array(
                [fl_json for _ in rows], type=pa.string()
            ),
        }
    )
