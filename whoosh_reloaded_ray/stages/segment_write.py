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
from ..state import storage
from .tokenize import LEN_SENTINEL

BLOCK_LIMIT = 128  # postings per block (reference codec constant)

WEIGHTS_VARINT = 0
WEIGHTS_FLOAT32 = 1

POSTINGS_FILE = "postings-{shard:04d}.parquet"
TERMINFO_FILE = "terminfo-{shard:04d}.parquet"
DOCLENS_FILE = "doclens-{shard:04d}.parquet"


# LEN_SENTINEL as an Arrow scalar: comparing with a Python str would convert
# it through pyarrow's pandas layer
_SENTINEL = storage.from_strings([LEN_SENTINEL])[0]

# parquet key-value metadata entry of a file sorted by (field, term): per
# row group, its first and last key, as JSON [[field, term, field, term], ...]
ROW_GROUP_KEYS = b"row_group_keys"
ROW_GROUP_ROWS = 8192


def _atomic_write(tbl: pa.Table, path: str) -> int:
    return storage.write_parquet_atomic(tbl, path, row_group_size=ROW_GROUP_ROWS)


def _write_sorted(tbl: pa.Table, path: str) -> int:
    """``_atomic_write`` of a table sorted by (field, term), with each row
    group's first and last (field, term) under ``ROW_GROUP_KEYS``.  The
    reader chooses row groups by these exact keys: column statistics bound
    field and term apart, so a row group holding several fields spans
    nearly every term."""
    n = tbl.num_rows
    starts = np.arange(0, n, ROW_GROUP_ROWS)
    ends = np.minimum(starts + ROW_GROUP_ROWS, n) - 1
    at = storage.from_numpy(np.stack([starts, ends], axis=1).ravel())
    keys = list(zip(
        storage.string_list(tbl["field"].take(at)), storage.string_list(tbl["term"].take(at))
    ))
    rows = [[*keys[i], *keys[i + 1]] for i in range(0, len(keys), 2)]
    tbl = tbl.replace_schema_metadata({ROW_GROUP_KEYS: json.dumps(rows)})
    return _atomic_write(tbl, path)


_binary_from_offsets = binary_array_from_offsets


@dataclass
class ShardWriteResult:
    shard: int
    n_terms: int
    n_postings: int
    bytes: int  # of the postings and terminfo files


class ShardSegmentWriter:
    """The write step's body (a write task, or the caller of a
    one-partition, one-shard append): one call = one shard's full posting set
    (POSTING_SCHEMA rows, any order) -> that shard's files + a summary row
    (its term, posting and file byte counts, per-field length sums and the
    names of the files it wrote)."""

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
            return _summary_table(-1, None, "{}", 0, [])
        shard = int(group["shard"][0].as_py())
        group = group.combine_chunks()

        # --- split sentinel doc-length rows from real postings
        is_len = pc.equal(group["term"], _SENTINEL)
        doclens = group.filter(is_len)
        posts = group.filter(pc.invert(is_len))

        # per-field length sums ride back in the summary row so the driver
        # never has to re-scan the doclens parquet for avgfl totals
        fl_json = "{}"
        dl_bytes = 0
        files = []
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
            dl_bytes = _atomic_write(
                dl_tbl, storage.join(self.seg_dir, DOCLENS_FILE.format(shard=shard))
            )
            files.append(DOCLENS_FILE.format(shard=shard))
            fields = pc.dictionary_encode(dl_tbl["field"].combine_chunks())
            sums = np.bincount(
                storage.as_numpy(fields.indices),
                weights=storage.as_numpy(dl_tbl["length"]),
                minlength=len(fields.dictionary),
            )
            fl_json = json.dumps(
                {f: int(s) for f, s in zip(storage.string_list(fields.dictionary), sums)},
                sort_keys=True,
            )

        result = None
        if posts.num_rows:
            result = self._write_postings(shard, posts)
            files += [POSTINGS_FILE.format(shard=shard), TERMINFO_FILE.format(shard=shard)]
        return _summary_table(shard, result, fl_json, dl_bytes, files)

    def _write_postings(self, shard: int, posts: pa.Table) -> ShardWriteResult:
        order = pc.sort_indices(
            posts,
            sort_keys=[("field", "ascending"), ("term", "ascending"), ("docnum", "ascending")],
        )
        posts = posts.take(order).combine_chunks()
        n = posts.num_rows

        fields = posts["field"]
        terms = posts["term"]
        docs = storage.as_numpy(posts["docnum"])
        weights = storage.as_numpy(posts["weight"])
        lens = storage.as_numpy(posts["len_byte"])

        # --- term run boundaries via dictionary codes (vectorized)
        fcodes = storage.as_numpy(pc.dictionary_encode(fields.chunk(0)).indices)
        tcodes = storage.as_numpy(pc.dictionary_encode(terms.chunk(0)).indices)
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
        at = storage.from_numpy(block_starts)
        blk = pa.table(
            {
                "field": fields.take(at),
                "term": terms.take(at),
                "count": storage.from_numpy((block_ends - block_starts).astype(np.int32)),
                "doc_min": storage.from_numpy(docs[block_starts]),
                "doc_max": storage.from_numpy(docs[block_ends - 1]),
                "max_weight": storage.from_numpy(blk_max_w),
                "min_len_byte": storage.from_numpy(blk_min_len),
                "wflag": storage.from_numpy(np.full(n_blocks, wflag, dtype=np.uint8)),
                "docs": doc_col,
                "weights": w_col,
                "lens": len_col,
                "positions": pos_col,
                "chars": chars_col,
                "boosts": boosts_col,
                "payload": payload_col,
            }
        )
        nbytes = _write_sorted(
            blk, storage.join(self.seg_dir, POSTINGS_FILE.format(shard=shard))
        )

        # --- terminfo (per-term stats)
        at = storage.from_numpy(term_starts)
        ti = pa.table(
            {
                "field": fields.take(at),
                "term": terms.take(at),
                "doc_freq": storage.from_numpy(run_lens.astype(np.int64)),
                "weight_sum": storage.from_numpy(
                    np.add.reduceat(weights.astype(np.float64), term_starts)
                ),
                "max_weight": storage.from_numpy(np.maximum.reduceat(weights, term_starts)),
                "doc_min": storage.from_numpy(docs[term_starts]),
                "doc_max": storage.from_numpy(docs[term_ends - 1]),
                "min_len_byte": storage.from_numpy(np.minimum.reduceat(lens, term_starts)),
                "max_len_byte": storage.from_numpy(np.maximum.reduceat(lens, term_starts)),
            }
        )
        nbytes += _write_sorted(
            ti, storage.join(self.seg_dir, TERMINFO_FILE.format(shard=shard))
        )
        return ShardWriteResult(shard=shard, n_terms=n_terms, n_postings=n, bytes=nbytes)


def _summary_table(
    shard: int, result: ShardWriteResult | None, fl_json: str, dl_bytes: int,
    files: list,
) -> pa.Table:
    # one row per non-empty shard (postings and/or doclens); empty groups
    # return a zero-row table with the same schema
    n = 0 if result is None and fl_json == "{}" else 1

    def column(value, dtype):
        return storage.from_numpy(np.full(n, value, dtype))

    return pa.table(
        {
            "shard": column(shard, np.int32),
            "n_terms": column(result.n_terms if result else 0, np.int64),
            "n_postings": column(result.n_postings if result else 0, np.int64),
            "field_lengths_json": storage.from_strings([fl_json] * n),
            "bytes": column(dl_bytes + (result.bytes if result else 0), np.int64),
            "files": pa.ListArray.from_arrays(
                storage.from_numpy(np.array([0, len(files)][: n + 1], np.int32)),
                storage.from_strings(files if n else []),
            ),
        }
    )
