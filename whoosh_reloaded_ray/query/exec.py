"""Per-segment query evaluation: posting fetch, BM25F, vectorized matchers.

Scoring parity (verified against the reference searcher in tests):
  idf       = log(doc_count_all / (df + 1)) + 1           [scoring.py:51-57]
  bm25      = idf * (tf*(K1+1)) / (tf + K1*((1-B) + B*fl/avgfl))
              with tf = summed posting weight, fl = byte_to_length(stored
              length byte) — the LOSSY quantized length [scoring.py:264-271]
  And/Or/Phrase/AndMaybe sum constituent scores; DisMax takes max;
  Require/AndNot keep the left side's scores; Not/Every/NumericRange score
  a constant 1.0 * boost per doc (non-scorable fields likewise score
  weight*boost).  Ties order by ascending docnum.

Matchers are sorted-uint64-array set algebra (numpy) instead of the
reference's leapfrog matcher trees (matching/binary.py) — same results,
vectorized per segment.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
import re
import threading
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.quant import BYTE_TO_LENGTH
from ..functions.varint import decode_varints
from ..state import storage
from ..sources.corpus import read_partition
from ..stages.segment_write import (
    DOCLENS_FILE,
    POSTINGS_FILE,
    TERMINFO_FILE,
    WEIGHTS_FLOAT32,
    WEIGHTS_VARINT,
)
from ..stages.tokenize import _shard_of
from ..state.manifest import Manifest, SegmentMeta
from . import ast


class PostingList:
    """Decoded postings of one term in one segment."""

    __slots__ = (
        "docs", "weights", "len_bytes", "block_starts", "pos_blobs",
        "block_counts", "_pos_cache", "chars_blobs", "_chars_cache",
        "boosts_blobs", "_boosts_cache", "payload_blobs", "_payload_cache",
        "_score_cache", "_pos_decoded", "_pos_calls",
    )

    def __init__(
        self, docs, weights, len_bytes, block_starts, block_counts,
        pos_blobs=None, chars_blobs=None, boosts_blobs=None,
        payload_blobs=None,
    ):
        self.docs = docs  # uint64 sorted
        self.weights = weights  # float64
        self.len_bytes = len_bytes  # uint8
        self.block_starts = block_starts  # int64, posting index of each block
        self.block_counts = block_counts
        self.pos_blobs = pos_blobs  # list[bytes] per block (when requested)
        self.chars_blobs = chars_blobs  # list[bytes] per block (when requested)
        self.boosts_blobs = boosts_blobs  # list[bytes] per block (when requested)
        self.payload_blobs = payload_blobs  # list[bytes] per block (when requested)
        self._pos_cache: dict = {}
        self._chars_cache: dict = {}
        self._boosts_cache: dict = {}
        self._payload_cache: dict = {}
        self._score_cache: dict = {}  # scoring-input tuple -> float64 scores
        self._pos_decoded = None  # (flat abs positions, offsets, counts)
        self._pos_calls = 0

    def _block_positions(self, b: int):
        """Decode one block's interleaved (count, deltas...) stream ONCE,
        returning (values, per-posting start offsets into values)."""
        cached = self._pos_cache.get(b)
        if cached is not None:
            return cached
        vals = decode_varints(self.pos_blobs[b])
        nb = int(self.block_counts[b])
        starts = np.empty(nb + 1, dtype=np.int64)
        i = 0
        for k in range(nb):
            starts[k] = i
            i += 1 + int(vals[i])
        starts[nb] = i
        self._pos_cache[b] = (vals, starts)
        return vals, starts

    def positions_for(self, posting_idx: int) -> np.ndarray:
        """Position list of one posting (block decoded once, cached)."""
        b = int(np.searchsorted(self.block_starts, posting_idx, side="right") - 1)
        vals, starts = self._block_positions(b)
        k = posting_idx - int(self.block_starts[b])
        i = int(starts[k])
        cnt = int(vals[i])
        return np.cumsum(vals[i + 1 : i + 1 + cnt], dtype=np.uint64)

    def char_spans_for(self, posting_idx: int) -> np.ndarray:
        """(count, 2) array of [startchar, endchar) spans of one posting's
        occurrences (reference Characters payload, formats.py:344-409).
        Stream layout: [count, s1, e1-s1, s2-e1, e2-s2, ...] — a plain
        cumsum of the deltas yields [s1, e1, s2, e2, ...]."""
        b = int(np.searchsorted(self.block_starts, posting_idx, side="right") - 1)
        cached = self._chars_cache.get(b)
        if cached is None:
            vals = decode_varints(self.chars_blobs[b])
            nb = int(self.block_counts[b])
            starts = np.empty(nb + 1, dtype=np.int64)
            i = 0
            for k in range(nb):
                starts[k] = i
                i += 1 + 2 * int(vals[i])
            starts[nb] = i
            cached = (vals, starts)
            self._chars_cache[b] = cached
        vals, starts = cached
        k = posting_idx - int(self.block_starts[b])
        i = int(starts[k])
        cnt = int(vals[i])
        return np.cumsum(vals[i + 1 : i + 1 + 2 * cnt], dtype=np.uint64).reshape(cnt, 2)

    def position_boosts_for(self, posting_idx: int) -> np.ndarray | None:
        """Per-position boosts of one posting (reference PositionBoosts
        payload, formats.py:345-409).  Stream layout: [count,
        f32bits(b1), ...].  None when the payload is absent (then every
        position's boost is 1.0 by convention)."""
        if self.boosts_blobs is None:
            return None
        b = int(np.searchsorted(self.block_starts, posting_idx, side="right") - 1)
        if self.boosts_blobs[b] is None:
            return None
        cached = self._boosts_cache.get(b)
        if cached is None:
            vals = decode_varints(self.boosts_blobs[b])
            nb = int(self.block_counts[b])
            starts = np.empty(nb + 1, dtype=np.int64)
            i = 0
            for k in range(nb):
                starts[k] = i
                i += 1 + int(vals[i])
            starts[nb] = i
            cached = (vals, starts)
            self._boosts_cache[b] = cached
        vals, starts = cached
        k = posting_idx - int(self.block_starts[b])
        i = int(starts[k])
        cnt = int(vals[i])
        return (
            vals[i + 1 : i + 1 + cnt].astype(np.uint32).view(np.float32).astype(np.float64)
        )

    def payload_for(self, posting_idx: int) -> bytes | None:
        """Raw custom-Format payload bytes of one posting (formats.py plug
        point).  Block blobs concatenate varint-length-framed payloads;
        the frame walk is done once per block and cached."""
        if self.payload_blobs is None:
            return None
        b = int(np.searchsorted(self.block_starts, posting_idx, side="right") - 1)
        blob = self.payload_blobs[b]
        if blob is None:
            return None
        cached = self._payload_cache.get(b)
        if cached is None:
            nb = int(self.block_counts[b])
            cached = []  # (start, end) byte bounds per posting
            i = 0
            for _ in range(nb):
                ln = shift = 0
                while True:
                    byte = blob[i]
                    i += 1
                    ln |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                cached.append((i, i + ln))
                i += ln
            self._payload_cache[b] = cached
        k = posting_idx - int(self.block_starts[b])
        lo, hi = cached[k]
        return bytes(blob[lo:hi])

    def positions_bulk(self, posting_idxs: np.ndarray):
        """Positions for MANY postings at once -> (flat uint64 positions,
        counts per posting, in the order given).  Per touched block only
        the cached decode + one start-offset gather run; the segmented
        cumsum is ONE global pass over a concatenated value stream, so
        per-call numpy overhead no longer scales with block count.

        From the SECOND call on (a warm searcher re-running phrase /
        span queries over the same hot term), the WHOLE list's positions
        are decoded once into a flat cache and every later call is a
        pure numpy gather — no per-block walk at all.  Memory is bounded
        by the reader's posting-list LRU (the cache dies with the plist)."""
        pidx = np.asarray(posting_idxs, dtype=np.int64)
        npost = pidx.size
        if npost == 0:
            return np.empty(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
        self._pos_calls += 1
        if self._pos_decoded is None and self._pos_calls >= 2:
            n = self.docs.size
            flat, cnts = self._positions_bulk_cold(np.arange(n, dtype=np.int64))
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(cnts[:-1], out=starts[1:])
            self._pos_decoded = (flat, starts, cnts)
        if self._pos_decoded is not None:
            flat_all, starts_all, cnts_all = self._pos_decoded
            cnts = cnts_all[pidx]
            tot = int(cnts.sum())
            seg0 = np.cumsum(cnts) - cnts
            gidx = np.repeat(starts_all[pidx] - seg0, cnts) + np.arange(tot)
            return flat_all[gidx], cnts
        return self._positions_bulk_cold(pidx)

    def _positions_bulk_cold(self, pidx: np.ndarray):
        npost = pidx.size
        b_of = np.searchsorted(self.block_starts, pidx, side="right") - 1
        order = np.argsort(b_of, kind="stable")
        b_sorted = b_of[order]
        ublocks = np.unique(b_sorted)
        bounds = np.searchsorted(b_sorted, ublocks)

        # concat the touched blocks' decoded streams; record each block's
        # offset into the concatenation
        vals_list = []
        offs = np.empty(ublocks.size, dtype=np.int64)
        total = 0
        for k, b in enumerate(ublocks):
            vals, _ = self._block_positions(int(b))
            offs[k] = total
            vals_list.append(vals)
            total += vals.size
        vals_all = (
            np.concatenate(vals_list) if len(vals_list) > 1 else vals_list[0]
        )

        # global start index (into vals_all) for every requested posting
        s_global = np.empty(npost, dtype=np.int64)
        for k, b in enumerate(ublocks):
            lo = bounds[k]
            hi = bounds[k + 1] if k + 1 < ublocks.size else npost
            oi = order[lo:hi]
            _, starts = self._block_positions(int(b))
            s_global[oi] = (
                starts[pidx[oi] - int(self.block_starts[b])] + offs[k]
            )

        cnts = vals_all[s_global].astype(np.int64)
        tot = int(cnts.sum())
        seg0 = np.cumsum(cnts) - cnts  # per-posting starts in flat output
        gidx = np.repeat(s_global + 1 - seg0, cnts) + np.arange(tot)
        cs = np.cumsum(vals_all[gidx], dtype=np.uint64)
        base = np.zeros(cnts.size, dtype=np.uint64)
        nz = np.flatnonzero(seg0 > 0)
        base[nz] = cs[seg0[nz] - 1]
        flat = cs - np.repeat(base, cnts)
        return flat, cnts


def _decode_posting_columns(t: pa.Table):
    """Decode block rows -> (docs, weights, len_bytes, block_starts, counts).

    Blocks are self-contained (first docnum absolute, per-block wflag), so
    this works on ANY subset of a term's blocks in doc order."""
    counts = storage.as_numpy(t["count"])
    n = int(counts.sum())
    block_starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=block_starts[1:])

    # docnums: concat varint streams decode in one pass, then segmented
    # cumsum with reset at block starts (first value per block absolute)
    deltas = decode_varints(storage.binary_values(t["docs"]), count=n)
    csum = np.cumsum(deltas, dtype=np.uint64)
    base = np.zeros(len(counts), dtype=np.uint64)
    base[1:] = csum[block_starts[1:] - 1]
    docs = csum - np.repeat(base, counts)

    # weights: wflag is per block (merged segments can mix encodings)
    wflags = storage.as_numpy(t["wflag"])
    if (wflags == WEIGHTS_VARINT).all():
        weights = decode_varints(storage.binary_values(t["weights"]), count=n).astype(np.float64)
    elif (wflags == WEIGHTS_FLOAT32).all():
        weights = np.frombuffer(storage.binary_values(t["weights"]), dtype="<f4").astype(np.float64)
    else:
        weights = np.empty(n, dtype=np.float64)
        for b, blob in enumerate(storage.string_list(t["weights"])):
            s, c = int(block_starts[b]), int(counts[b])
            if wflags[b] == WEIGHTS_VARINT:
                weights[s : s + c] = decode_varints(blob, count=c)
            else:
                weights[s : s + c] = np.frombuffer(blob, dtype="<f4")

    # a copy: a cached posting list must not pin its row group's buffers
    lens = storage.binary_values(t["lens"]).copy()
    return docs, weights, lens, block_starts, counts


class _LRU:
    """LRU cache bounded by the summed size of its entries (bytes, or 1 per
    entry for a cap on the entry count).  Thread-safe: one reader serves
    every searcher open on its segment, whichever thread opened it."""

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0
        self._d: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            hit = self._d.get(key)
            if hit is None:
                return None
            self._d.move_to_end(key)
            return hit[0]

    def put(self, key, value, nbytes: int) -> None:
        if nbytes > self.cap:
            return
        with self._lock:
            old = self._d.pop(key, None)
            if old is not None:
                self.used -= old[1]
            self._d[key] = (value, nbytes)
            self.used += nbytes
            while self.used > self.cap:
                self.used -= self._d.popitem(last=False)[1][1]


class _RowGroup:
    """One row group of a shard file as read: its table, each field's row
    span ``{field: (first row, end row)}``, the term keys (a list of str,
    None for doclens), and numpy views of its columns, each made on first
    use (``col``) through ``storage.as_numpy``."""

    __slots__ = ("table", "spans", "terms", "_cols")

    def __init__(self, table: pa.Table, spans: dict, terms):
        self.table, self.spans, self.terms = table, spans, terms
        self._cols: dict = {}

    def col(self, name: str) -> np.ndarray:
        a = self._cols.get(name)
        if a is None:
            a = self._cols[name] = storage.as_numpy(self.table[name])
        return a


class SegmentReader:
    """Reads one segment's terminfo/postings/doclens (cached).

    Each (shard file, row group) is read once, on first touch, and every
    later lookup is a binary search of its sorted term keys that returns a
    run of rows (``_runs``): numpy views of the row group's columns, or a
    zero-copy table slice (``_rows``), as whoosh keeps a segment's files
    mapped and decodes term extents lazily.  A one-row-group shard file
    (the usual size) is read whole; a larger one reads only the row groups
    whose footer statistics may hold the term.  Nothing is read at open.
    Arrow data becomes numpy only through ``storage``'s converters, so no
    query imports pandas.

    A searcher takes its readers from a process-wide registry
    (``state.searcher.shared_reader``), so each row group is read once per
    process and shared by every open searcher on the segment.  Every cache
    here therefore depends on the segment's files only, never on a
    searcher's tombstones or scoring constants."""

    def __init__(self, index_dir: str, seg: SegmentMeta):
        self.seg = seg
        self.dir = storage.join(index_dir, seg.name)
        # bounded LRU: long-lived searcher actors see an open-ended query
        # term stream at scale; decoded posting lists must not accumulate
        self._postings = _LRU(4096)
        self._terminfo_cache: dict = {}
        self._column_cache: dict = {}
        self._vocab_cache: dict = {}
        # path -> (footer, per-row-group key bounds), None for a shard
        # file the segment does not have
        self._footers: dict = {}
        # (path, row group) -> _RowGroup
        self._row_groups = _LRU(64 << 20)
        self._all_docnums: "np.ndarray | None" = None
        # constant-score docsets (range / expanded-multiterm unions) are
        # recomputed per query otherwise; the reference Searcher keeps the
        # analogous filter cache (searching.py _filter_cache).  Bounded by
        # BYTES, not entries — one 10M-doc segment's full docset is 80 MB
        self._docsets = _LRU(128 << 20)
        # partition docnum ranges (sorted); a MERGED segment's ranges may be
        # non-contiguous, so docnum <-> dense-index mapping goes through them
        parts = sorted(seg.partitions, key=lambda p: p.base)
        self._part_bases = np.array([p.base for p in parts], dtype=np.int64)
        self._part_rows = np.array([p.rows for p in parts], dtype=np.int64)
        self._part_cum = np.concatenate([[0], np.cumsum(self._part_rows)])

    def all_docnums(self) -> np.ndarray:
        """Every docnum in this segment, ascending (from partition lineage).
        Memoized — callers only slice/index the result, never mutate."""
        if self._all_docnums is None:
            self._all_docnums = np.concatenate(
                [
                    np.arange(b, b + r, dtype=np.uint64)
                    for b, r in zip(self._part_bases, self._part_rows)
                ]
            ) if self._part_bases.size else np.empty(0, dtype=np.uint64)
        return self._all_docnums

    def docset_cached(self, key, build) -> np.ndarray:
        """LRU for constant-score docsets keyed by the query shape."""
        docs = self._docsets.get(key)
        if docs is None:
            docs = build()
            self._docsets.put(key, docs, docs.nbytes)
        return docs

    def dense_index(self, docnums: np.ndarray) -> np.ndarray:
        """Map docnums -> dense [0, doc_count) positions in all_docnums order."""
        d = docnums.astype(np.int64)
        pi = np.searchsorted(self._part_bases, d, side="right") - 1
        return self._part_cum[pi] + (d - self._part_bases[pi])

    # ---- shard files: each (file, row group) read once --------------------

    def _check_segment_exists(self) -> None:
        """Raise if this segment's directory is gone: its generation was
        garbage-collected under an open searcher, which must not read the
        segment as empty."""
        if not storage.exists(self.dir):
            raise FileNotFoundError(
                f"segment {self.seg.name} is gone from {self.dir}: its files "
                "were garbage-collected after a newer commit; reopen the searcher"
            )

    def _footer(self, path: str):
        """(footer, per-row-group ``[field min, field max, term min, term
        max]``) of one shard file, or None for a shard file the segment
        does not have (an empty shard).  A segment whose directory is gone
        (its generation garbage-collected under an open searcher) raises
        instead of reading as empty."""
        if path in self._footers:
            return self._footers[path]
        try:
            with storage.parquet_file(path) as pf:
                md = pf.metadata
        except FileNotFoundError:
            self._check_segment_exists()
            self._footers[path] = None
            return None
        names = md.schema.names
        bounds = []
        for i in range(md.num_row_groups):
            rg, b = md.row_group(i), []
            for col in ("field", "term"):
                st = rg.column(names.index(col)).statistics if col in names else None
                b += [st.min, st.max] if st is not None and st.has_min_max else [None, None]
            bounds.append(b)
        self._footers[path] = md, bounds
        return md, bounds

    def _row_group(self, path: str, md, i: int) -> _RowGroup:
        """Row group ``i`` of ``path``, read on first touch.  Its rows are
        one run per field, in field order: terminfo and postings files are
        sorted by (field, term), and a doclens file, sorted by docnum, is
        regrouped by field here (each field's rows keep docnum order)."""
        hit = self._row_groups.get((path, i))
        if hit is None:
            try:
                t = storage.read_parquet(path, row_groups=[i], metadata=md)
            except FileNotFoundError:
                self._check_segment_exists()
                raise
            terms = None
            if "term" not in t.column_names:  # a stable sort keeps docnum order
                t = t.take(pc.sort_indices(t, sort_keys=[("field", "ascending")]))
            runs = sorted((r["values"], r["counts"]) for r in pc.value_counts(t["field"]).to_pylist())
            ends = np.cumsum([n for _, n in runs])
            spans = {f: (int(e - n), int(e)) for (f, n), e in zip(runs, ends)}
            nbytes = t.nbytes
            if "term" in t.column_names:
                terms = storage.string_list(t["term"])
                # per key a list slot and a str header (8 + 49 bytes) beside
                # its text, which the column's bytes stand in for
                nbytes += t["term"].nbytes + 57 * len(terms)
            hit = _RowGroup(t, spans, terms)
            self._row_groups.put((path, i), hit, nbytes)
        return hit

    def _runs(
        self, template: str, shard: int, field: str, start=None, end=None,
        startexcl=False, endexcl=False,
    ) -> list:
        """``(row group, first row, end row)`` of each run of ``field``'s
        rows in one shard file, with start <= term <= end when given
        (either end exclusive).  Row groups are chosen from the footer
        statistics, as a parquet filter on (field, term) chooses them."""
        path = storage.join(self.dir, template.format(shard=shard))
        footer = self._footer(path)
        if footer is None:
            return []
        md, bounds = footer
        out = []
        for i, (fmin, fmax, tmin, tmax) in enumerate(bounds):
            if fmin is not None and not fmin <= field <= fmax:
                continue
            if tmin is not None and (
                (start is not None and start > tmax) or (end is not None and end < tmin)
            ):
                continue
            rg = self._row_group(path, md, i)
            lo, hi = rg.spans.get(field, (0, 0))
            if rg.terms is not None:
                base, stop = lo, hi
                if start is not None:
                    lo = (bisect_right if startexcl else bisect_left)(rg.terms, start, base, stop)
                if end is not None:
                    hi = (bisect_left if endexcl else bisect_right)(rg.terms, end, base, stop)
            if hi > lo:
                out.append((rg, lo, hi))
        return out

    def _rows(self, *args, **kw) -> list:
        """``_runs`` as zero-copy slices of the row group tables."""
        return [rg.table.slice(lo, hi - lo) for rg, lo, hi in self._runs(*args, **kw)]

    # ---- terminfo ---------------------------------------------------------

    def terminfo(self, field: str, term: str):
        key = (field, term)
        if key in self._terminfo_cache:
            return self._terminfo_cache[key]
        # a term has one terminfo row, in its one shard
        shard = _shard_of(field, term, self.seg.num_shards)
        rows = self._rows(TERMINFO_FILE, shard, field, term, term)
        info = {c: rows[0][c][0].as_py() for c in rows[0].column_names} if rows else None
        self._terminfo_cache[key] = info
        return info

    def doc_frequency(self, field: str, term: str) -> int:
        info = self.terminfo(field, term)
        return int(info["doc_freq"]) if info else 0

    def terminfo_prefix(self, field: str, prefix: str = "") -> dict:
        """{term: (weight_sum, doc_freq)} for every term of ``field``
        (optionally under ``prefix``) — a columnar slice of the terminfo
        files (no posting blobs touched), backing the reference's
        most_frequent_terms / most_distinctive_terms (reading.py:545-566)."""
        bounds = (prefix, prefix + "\uffff") if prefix else (None, None)
        out: dict = {}
        for shard in range(self.seg.num_shards):
            for rg, lo, hi in self._runs(TERMINFO_FILE, shard, field, *bounds, endexcl=True):
                ws = rg.col("weight_sum")[lo:hi].tolist()
                dfs = rg.col("doc_freq")[lo:hi].tolist()
                out.update(zip(rg.terms[lo:hi], zip(ws, dfs)))
        return out

    def expand_terms(self, field: str, start=None, end=None, startexcl=False, endexcl=False):
        """Terms of `field` in [start, end] across all shards (sorted)."""
        key = (field, start, end, startexcl, endexcl)
        if key not in self._vocab_cache:
            terms = set()
            for shard in range(self.seg.num_shards):
                for rg, lo, hi in self._runs(TERMINFO_FILE, shard, field, start, end, startexcl, endexcl):
                    terms.update(rg.terms[lo:hi])
            self._vocab_cache[key] = sorted(terms)
        return self._vocab_cache[key]

    # ---- postings ---------------------------------------------------------

    def _block_runs(self, field: str, term: str) -> list:
        """``_runs`` of a term's block rows in its shard's postings file, in
        doc order: the writer and the merge sort block rows by (field,
        term, doc_min), so row group order is doc order.  A term its
        shard's terminfo lacks reads no postings file; one it holds must
        have a postings file."""
        shard = _shard_of(field, term, self.seg.num_shards)
        if not self._runs(TERMINFO_FILE, shard, field, term, term):
            return []
        path = storage.join(self.dir, POSTINGS_FILE.format(shard=shard))
        if self._footer(path) is None:
            raise FileNotFoundError(
                f"postings file {path} is missing, but its shard's terminfo "
                f"holds {field}:{term!r}"
            )
        return self._runs(POSTINGS_FILE, shard, field, term, term)

    def _read_blocks(self, field: str, term: str):
        """Block rows of a term as one table, in doc order, or None."""
        parts = [rg.table.slice(lo, hi - lo) for rg, lo, hi in self._block_runs(field, term)]
        if len(parts) <= 1:
            return parts[0] if parts else None
        return pa.concat_tables(parts)

    def block_meta(self, field: str, term: str):
        """Per-block bound metadata for block-max WAND: dict of numpy arrays
        (doc_min, doc_max, count, max_weight, min_len_byte) or None.

        Scale note: the bound columns are a zero-copy slice of the term's
        block rows in the cached postings row group, the analogue of the
        reference's block headers; a postings file larger than one row
        group is read only in the row groups that may hold the term."""
        runs = self._block_runs(field, term)
        if not runs:
            return None
        bounds = ("doc_min", "doc_max", "count", "max_weight", "min_len_byte")
        if len(runs) == 1:
            rg, lo, hi = runs[0]
            return {c: rg.col(c)[lo:hi] for c in bounds}
        return {c: np.concatenate([rg.col(c)[lo:hi] for rg, lo, hi in runs]) for c in bounds}

    def decode_blocks(self, field: str, term: str, keep: np.ndarray):
        """Postings of the selected blocks -> (docs, weights, len_bytes).

        Decodes the term's FULL posting list once into the shared
        postings cache, then answers every (re)query — WAND retries,
        repeated searches on a warm searcher — with a pure numpy
        gather of the kept blocks' ranges."""
        plist = self.postings(field, term)
        if plist is None:
            e = np.empty(0, dtype=np.uint64)
            return e, np.empty(0, np.float64), np.empty(0, np.uint8)
        if keep.all():
            return plist.docs, plist.weights, plist.len_bytes
        kept = np.flatnonzero(keep)
        cnts = plist.block_counts[kept].astype(np.int64)
        tot = int(cnts.sum())
        seg0 = np.cumsum(cnts) - cnts
        idx = np.repeat(plist.block_starts[kept] - seg0, cnts) + np.arange(tot)
        return plist.docs[idx], plist.weights[idx], plist.len_bytes[idx]

    def postings(
        self, field: str, term: str, need_positions=False, need_chars=False,
        need_boosts=False, need_payload=False,
    ):
        key = (field, term, need_positions, need_chars, need_boosts, need_payload)
        plist = self._postings.get(key)
        if plist is None and not (need_positions or need_chars or need_boosts or need_payload):
            plist = self._postings.get((field, term, True, False, False, False))
        if plist is not None:
            return plist
        t = self._read_blocks(field, term)
        if t is None:
            return None
        def blobs(col, need):
            return storage.string_list(t[col]) if need and col in t.column_names else None

        plist = PostingList(
            *_decode_posting_columns(t), blobs("positions", need_positions),
            blobs("chars", need_chars), blobs("boosts", need_boosts),
            blobs("payload", need_payload),
        )
        self._postings.put(key, plist, 1)
        return plist

    def char_spans(self, field: str, term: str, docnum: int) -> np.ndarray:
        """[startchar, endchar) spans of ``term``'s occurrences in one doc,
        straight from the Characters posting payload (no re-analysis).
        Empty (0, 2) array when the doc has no posting or no payload."""
        plist = self.postings(field, term, need_chars=True)
        empty = np.empty((0, 2), dtype=np.uint64)
        if plist is None or plist.chars_blobs is None:
            return empty
        i = int(np.searchsorted(plist.docs, np.uint64(docnum)))
        if i >= plist.docs.size or plist.docs[i] != docnum:
            return empty
        b = int(np.searchsorted(plist.block_starts, i, side="right") - 1)
        if plist.chars_blobs[b] is None:
            return empty
        return plist.char_spans_for(i)

    def position_boosts(self, field: str, term: str, docnum: int):
        """[(position, boost), ...] of ``term``'s occurrences in one doc
        (reference PositionBoosts/CharacterBoosts decode,
        formats.py:378-388, 455-470).  Docs without a stored payload
        answer boost 1.0 per position; empty list when the doc has no
        posting."""
        plist = self.postings(field, term, need_positions=True, need_boosts=True)
        if plist is None:
            return []
        i = int(np.searchsorted(plist.docs, np.uint64(docnum)))
        if i >= plist.docs.size or plist.docs[i] != docnum:
            return []
        poss = plist.positions_for(i)
        boosts = plist.position_boosts_for(i)
        if boosts is None:
            boosts = np.ones(poss.size, dtype=np.float64)
        return [(int(p), float(b)) for p, b in zip(poss, boosts)]

    def payload(self, field: str, term: str, docnum: int) -> bytes | None:
        """Raw custom-Format payload of ``term``'s posting in one doc
        (formats.py plug point); None when the doc has no posting or the
        field stores no custom payload.  Decode with the registered
        Format's ``decode``."""
        plist = self.postings(field, term, need_payload=True)
        if plist is None:
            return None
        i = int(np.searchsorted(plist.docs, np.uint64(docnum)))
        if i >= plist.docs.size or plist.docs[i] != docnum:
            return None
        return plist.payload_for(i)

    # ---- columnar fields --------------------------------------------------

    def column(self, field: str) -> np.ndarray:
        """Dense per-docnum values of a columnar field for this segment
        (docnum - doc_base indexes it)."""
        arr = self._column_cache.get(field)
        if arr is None:
            parts = []
            for p in sorted(self.seg.partitions, key=lambda p: p.base):
                tbl = read_partition(p, columns=[field])
                parts.append(storage.as_numpy(tbl[field]))
            arr = np.concatenate(parts)
            self._column_cache[field] = arr
        return arr

    def _doclens_runs(self, field: str) -> list:
        return [
            run for shard in range(self.seg.num_shards)
            for run in self._runs(DOCLENS_FILE, shard, field)
        ]

    def field_docs(self, field: str) -> np.ndarray:
        """Docnums that contain at least one term in ``field`` (reference
        Every(field) semantics, qcore.py:650-737).  Scorable fields answer
        from the doclens sidecar (post-analysis length > 0 — a doc of pure
        stopwords has no terms); other fields fall back to a non-null /
        non-empty check on the source column (equivalent for ID/KEYWORD
        analyzers, whose every non-empty value yields a token)."""
        key = ("__fdocs__", field)
        cached = self._column_cache.get(key)
        if cached is not None:
            return cached
        runs = self._doclens_runs(field)
        if runs:
            docs = np.sort(np.concatenate([
                rg.col("docnum")[lo:hi][rg.col("length")[lo:hi] > 0].astype(np.uint64)
                for rg, lo, hi in runs
            ]))
        else:
            vals = self.column(field)
            kind = vals.dtype.kind
            if kind in ("O", "U", "S"):
                # missing: None, "" or a float NaN (v != v)
                mask = np.fromiter(
                    (v is not None and v == v and v != "" for v in vals.tolist()),
                    dtype=bool, count=vals.size,
                )
            elif kind in "fc":
                mask = ~np.isnan(vals)
            elif kind in "mM":
                mask = ~np.isnat(vals)
            else:
                mask = np.ones(vals.size, dtype=bool)
            docs = self.all_docnums()[mask]
        self._column_cache[key] = docs
        return docs

    def doclens(self, field: str) -> np.ndarray:
        """Dense per-docnum length bytes (for doc_field_length parity API)."""
        key = ("__lens__", field)
        arr = self._column_cache.get(key)
        if arr is None:
            arr = np.zeros(self.seg.doc_count, dtype=np.uint8)
            for rg, lo, hi in self._doclens_runs(field):
                arr[rg.col("docnum")[lo:hi] - self.seg.doc_base] = rg.col("len_byte")[lo:hi]
            self._column_cache[key] = arr
        return arr


class ScoreContext:
    """Global scoring constants, computed once per query on the driver.

    ``model``: "bm25f" (default) | "tfidf" | "frequency" | "dfree" | "pl2"
    | "fn" — mirroring the reference's WeightingModel registry
    (scoring.py BM25F/TF_IDF/Frequency/DFree/PL2/FunctionWeighting)."""

    def __init__(
        self,
        doc_count: int,
        avgfl: dict,
        idf: dict,
        B=0.75,
        K1=1.2,
        field_B: dict | None = None,
        model: str = "bm25f",
        cf: dict | None = None,
        fl: dict | None = None,
        pl2_c: float = 1.0,
        user_fn=None,
        field_models: dict | None = None,
        reverse: bool = False,
    ):
        self.doc_count = doc_count
        self.avgfl = avgfl  # field -> float
        self.idf = idf  # (field, term) -> float
        self.B = B
        self.K1 = K1
        self.field_B = field_B or {}  # per-field B override (BM25F <f>_B)
        self.model = model
        self.cf = cf or {}  # (field, term) -> total collection weight
        self.fl = fl or {}  # field -> total field length
        self.pl2_c = pl2_c
        self.user_fn = user_fn
        # per-field model override (reference MultiWeighting) and score
        # negation (reference ReverseWeighting)
        self.field_models = field_models or {}
        self.reverse = reverse


EMPTY = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64))


def score_postings(
    docs: np.ndarray,
    weights: np.ndarray,
    len_bytes: np.ndarray,
    field: str,
    term: str,
    ctx: ScoreContext,
) -> np.ndarray:
    """Vectorized per-posting scores under ctx.model / ctx.field_models
    (formulas from the reference scoring.py; lengths are the byte-quantized
    values, exactly as the reference's WeightLengthScorer supplies them);
    ``ctx.reverse`` negates (reference ReverseWeighting)."""
    s = _score_postings_fwd(docs, weights, len_bytes, field, term, ctx)
    return -s if ctx.reverse else s


def _score_postings_fwd(
    docs: np.ndarray,
    weights: np.ndarray,
    len_bytes: np.ndarray,
    field: str,
    term: str,
    ctx: ScoreContext,
) -> np.ndarray:
    avgfl = ctx.avgfl.get(field)
    m = ctx.field_models.get(field, ctx.model)
    tf = weights.astype(np.float64)
    if not avgfl and m != "fn":
        # non-scorable field: WeightScorer in every model EXCEPT a user
        # FunctionWeighting, whose scorer the reference hands out for any
        # field (scoring.py FunctionWeighting.scorer)
        return tf
    if m == "bm25f":
        fl = BYTE_TO_LENGTH[len_bytes].astype(np.float64)
        idf = ctx.idf.get((field, term), 1.0)
        B = ctx.field_B.get(field, ctx.B)
        return idf * (tf * (ctx.K1 + 1.0)) / (tf + ctx.K1 * ((1.0 - B) + B * fl / avgfl))
    if m == "tfidf":
        return tf * ctx.idf.get((field, term), 1.0)
    if m == "frequency":
        return tf
    if m == "dfree":
        dl = BYTE_TO_LENGTH[len_bytes].astype(np.float64)
        cf = ctx.cf.get((field, term), 1.0) or 1.0
        fltot = ctx.fl.get(field, 1.0) or 1.0
        prior = tf / dl
        post = (tf + 1.0) / (dl + 1.0)
        invpriorcol = fltot / cf
        norm = tf * np.log(post / prior)
        return norm * (
            tf * np.log(prior * invpriorcol)
            + (tf + 1.0) * np.log(post * invpriorcol)
            + 0.5 * np.log(post / prior)
        )
    if m == "pl2":
        fl = BYTE_TO_LENGTH[len_bytes].astype(np.float64)
        cf = ctx.cf.get((field, term), 1.0) or 1.0
        c = ctx.pl2_c
        TF = tf * np.log(1.0 + (c * avgfl) / fl)
        norm = 1.0 / (TF + 1.0)
        f = cf / ctx.doc_count
        rle = 1.0 / math.log(2)
        return norm * (
            TF * np.log(1.0 / f)
            + f * rle
            + 0.5 * np.log(2 * np.pi * TF)
            + TF * (np.log(TF) - rle)
        )
    if m == "fn":
        return np.array(
            [ctx.user_fn(field, term, int(d), float(w)) for d, w in zip(docs, tf)],
            dtype=np.float64,
        )
    raise ValueError(f"unknown scoring model {m!r}")


def term_scores(
    plist: PostingList, field: str, term: str, ctx: ScoreContext
) -> np.ndarray:
    """Full-posting-list scores, cached on the PostingList.

    The cache key is every VALUE the formula reads (model, idf, avgfl,
    B/K1, cf, fl, pl2_c, doc_count) rather than the ctx identity, so any
    two contexts computing the same numbers share the entry, and a context
    with different stats (other generation, hand-built) can never collide.
    User-function models are never cached (the fn isn't value-keyed).
    Callers must treat the returned array as READ-ONLY; the cache dies
    with the PostingList (reader posting-cache LRU bounds memory)."""
    m = ctx.field_models.get(field, ctx.model)
    if m == "fn":
        s = _score_postings_fwd(
            plist.docs, plist.weights, plist.len_bytes, field, term, ctx
        )
        return -s if ctx.reverse else s
    key = (
        m,
        ctx.idf.get((field, term), 1.0),
        ctx.avgfl.get(field),
        ctx.field_B.get(field, ctx.B),
        ctx.K1,
        (ctx.cf or {}).get((field, term), 1.0),
        (ctx.fl or {}).get(field, 1.0),
        ctx.pl2_c,
        ctx.doc_count,
    )
    s = plist._score_cache.get(key)
    if s is None:
        s = _score_postings_fwd(
            plist.docs, plist.weights, plist.len_bytes, field, term, ctx
        )
        plist._score_cache[key] = s
    return -s if ctx.reverse else s


def evaluate(reader: SegmentReader, q: ast.Query, ctx: ScoreContext, scored=True):
    """Evaluate a query tree on one segment -> (docnums sorted, scores)."""
    return _EVAL[type(q).__name__](reader, q, ctx, scored)


def _eval_term(reader, q: ast.Term, ctx, scored):
    plist = reader.postings(q.field, q.text)
    if plist is None:
        return EMPTY
    if not scored:
        return plist.docs, np.ones(plist.docs.size)
    scores = term_scores(plist, q.field, q.text, ctx)
    if q.boost != 1.0:
        scores = scores * q.boost
    return plist.docs, scores


def _intersect(a, b):
    (da, sa), (db, sb) = a, b
    common, ia, ib = np.intersect1d(da, db, assume_unique=True, return_indices=True)
    return common, sa[ia] + sb[ib]


def _eval_and(reader, q: ast.And, ctx, scored):
    # NOT-extraction fast path: when the And has at least one positive
    # child, a Not child need never materialize the segment's full docnum
    # complement (reference-equivalent: IntersectionMatcher over an
    # InverseMatcher gives a ∖ b with the Not contributing 1.0·boost on
    # every surviving doc, since survivors match every Not by definition).
    pos = [s for s in q.subqueries if not isinstance(s, ast.Not)]
    negs = [s for s in q.subqueries if isinstance(s, ast.Not)]
    if not pos:
        negs = []  # all-Not And: fall back to complement evaluation
    # columnar-range pushdown: a NumericRange child intersected with any
    # other positive child never needs its full docset materialized (at
    # 10M docs that's an 80 MB array per query) — evaluate the rest, then
    # test the predicate only at the surviving docnums.  Score parity: the
    # range contributes the same constant 1.0·boost per surviving doc the
    # full _intersect sum would have added (its huge docset sorts last in
    # the size-ordered fold, so the addition order matches too).
    preds = []
    if len(pos) > 1:
        preds = [s for s in pos if type(s) is ast.NumericRange]
        if len(preds) == len(pos):
            preds = []  # all-range And: keep the docset path
        elif preds:
            pos = [s for s in pos if type(s) is not ast.NumericRange]
    subs = [evaluate(reader, s, ctx, scored) for s in (pos or q.subqueries)]
    if not subs:
        return EMPTY
    subs.sort(key=lambda r: r[0].size)
    acc = subs[0]
    for s in subs[1:]:
        if acc[0].size == 0:
            return EMPTY
        acc = _intersect(acc, s)
    for p in preds:
        docs, scores = acc
        if docs.size == 0:
            return EMPTY
        vals = reader.column(p.field)[reader.dense_index(docs)]
        mask = _range_mask(p, vals)
        acc = (docs[mask], scores[mask] + 1.0 * p.boost)
    if negs and acc[0].size:
        docs, scores = acc
        keep = np.ones(docs.size, dtype=bool)
        for n in negs:
            nd, _ = evaluate(reader, n.subquery, ctx, scored=False)
            if nd.size:
                keep &= ~np.isin(docs, nd, assume_unique=True)
        docs, scores = docs[keep], scores[keep]
        # each Not contributes a constant 1.0 — the reference's Not.matcher
        # builds InverseMatcher WITHOUT passing self.boost (wrappers.py:137-144,
        # "boost is meaningless for excluded documents"), so weight stays 1.0
        acc = (docs, scores + float(len(negs)))
    return _apply_boost(acc, q.boost)


def _union(results):
    results = [r for r in results if r[0].size]
    if not results:
        return EMPTY
    if len(results) == 1:
        return results[0]
    # each input is doc-sorted and internally unique, so one stable sort
    # over the concatenation + run-boundary add.reduceat sums duplicates
    # in a single C pass (np.add.at is the buffered-ufunc slow path)
    alld = np.concatenate([r[0] for r in results])
    alls = np.concatenate([r[1] for r in results])
    order = np.argsort(alld, kind="stable")
    alld = alld[order]
    alls = alls[order]
    newmask = np.empty(alld.size, dtype=bool)
    newmask[0] = True
    np.not_equal(alld[1:], alld[:-1], out=newmask[1:])
    starts = np.flatnonzero(newmask)
    return alld[starts], np.add.reduceat(alls, starts)


def _term_leaves(q: ast.Query):
    """Yield the Term leaves of a query tree (reference
    Matcher.term_matchers(), matchers.py — walks the whole matcher tree)."""
    if isinstance(q, ast.Term):
        yield q
        return
    for attr in ("subqueries",):
        subs = getattr(q, attr, None)
        if subs:
            for s in subs:
                yield from _term_leaves(s)
            return
    for attr in ("subquery", "a", "b", "child"):
        sub = getattr(q, attr, None)
        if isinstance(sub, ast.Query):
            yield from _term_leaves(sub)


def _coord_leaf_docsets(reader, q: ast.Query, ctx, constraint) -> list:
    """Per-Term-leaf doc arrays for the coordination count, replicating the
    reference matching_terms() walk (mcore.py:112-130): a leaf counts at doc
    d only if EVERY enclosing matcher node is positioned at d, i.e. every
    enclosing And/phrase/binary node matches d.  Or/DisMax impose no
    alignment; leaves under Not count never (the InverseMatcher's child
    cursor sits on the NEXT excluded doc, not the current one)."""
    if isinstance(q, ast.Term):
        d = evaluate(reader, q, ctx, scored=False)[0]
        if constraint is not None:
            d = np.intersect1d(d, constraint, assume_unique=True)
        return [d]
    if isinstance(q, ast.Not):
        return []
    if isinstance(q, (ast.Or, ast.DisMax)):
        out: list = []
        for s in q.subqueries:
            out.extend(_coord_leaf_docsets(reader, s, ctx, constraint))
        return out
    leaves = list(_term_leaves(q))
    if not leaves:
        return []
    nd = evaluate(reader, q, ctx, scored=False)[0]
    c = nd if constraint is None else np.intersect1d(nd, constraint, assume_unique=True)
    if isinstance(q, ast.And):
        out = []
        for s in q.subqueries:
            out.extend(_coord_leaf_docsets(reader, s, ctx, c))
        return out
    # leaf-bearing opaque node (Phrase, spans, binary queries): each leaf
    # counts where the node itself matches and the leaf's postings contain
    # the doc (the node keeps its children skipped to >= its own cursor)
    return [
        np.intersect1d(evaluate(reader, leaf, ctx, scored=False)[0], c, assume_unique=True)
        for leaf in leaves
    ]


def _eval_or(reader, q: ast.Or, ctx, scored):
    res = _apply_boost(
        _union([evaluate(reader, s, ctx, scored) for s in q.subqueries]), q.boost
    )
    if not (q.scale and scored and res[0].size):
        return res
    # coordination bonus (reference CoordMatcher, matching/wrappers.py:532-583):
    # SQR = (score + (matching-1)/(termcount-scale)^2) * ((termcount-1)/termcount)
    # where matching = number of the tree's term matchers aligned at the doc
    # and termcount = total term matchers in the tree (Not subtrees included
    # in the count, per term_matchers(), though they never align).
    termcount = len(list(_term_leaves(q)))
    if termcount == 0:
        return res  # no term matchers: reference skips the CoordMatcher wrap
    union, scores = res
    if termcount == q.scale:
        return union, np.zeros(union.size)  # _sqr's degenerate guard
    matching = np.zeros(union.size, dtype=np.int64)
    for ld in _coord_leaf_docsets(reader, q, ctx, None):
        if ld.size:
            idx = np.searchsorted(ld, union)
            idx_c = np.minimum(idx, ld.size - 1)
            matching += (idx < ld.size) & (ld[idx_c] == union)
    scores = (scores + (matching - 1) / (termcount - q.scale) ** 2) * (
        (termcount - 1) / termcount
    )
    return union, scores


def _eval_dismax(reader, q: ast.DisMax, ctx, scored):
    """Replicates the reference DisjunctionMaxMatcher's CURSOR semantics
    (matching/binary.py:367-374): score() takes max(a.score(), b.score())
    WITHOUT checking doc alignment, so at doc d each still-active subquery
    contributes the score of its cursor position = its first posting >= d
    (an exhausted subquery contributes nothing).  Tree shape doesn't matter
    because max is associative and the activity rule is symmetric."""
    results = [r for r in (evaluate(reader, s, ctx, scored) for s in q.subqueries) if r[0].size]
    if not results:
        return EMPTY
    union = np.unique(np.concatenate([r[0] for r in results]))
    best = np.full(union.size, -np.inf)
    for docs, s in results:
        ia = np.searchsorted(docs, union, side="left")
        active = ia < docs.size
        val = np.full(union.size, -np.inf)
        val[active] = s[ia[active]]
        np.maximum(best, val, out=best)
    return _apply_boost((union, best), q.boost)


def _eval_not(reader, q: ast.Not, ctx, scored):
    sub_docs, _ = evaluate(reader, q.subquery, ctx, scored=False)
    all_docs = reader.all_docnums()
    mask = np.ones(all_docs.size, dtype=bool)
    mask[reader.dense_index(sub_docs)] = False
    docs = all_docs[mask]
    # constant 1.0 regardless of q.boost: the reference's Not.matcher builds
    # InverseMatcher without passing self.boost (wrappers.py:137-144)
    return docs, np.full(docs.size, 1.0)


def _eval_andnot(reader, q: ast.AndNot, ctx, scored):
    """Replicates the reference AndNotMatcher including its initialization
    quirk (matching/binary.py:573-576 _find_first): the FIRST positive doc
    is only excluded when the negative matcher's first doc happens to equal
    it exactly — otherwise it survives even if it appears later in the
    negative list."""
    da, sa = evaluate(reader, q.a, ctx, scored)
    db, _ = evaluate(reader, q.b, ctx, scored=False)
    if da.size == 0 or db.size == 0:
        return _apply_boost((da, sa), q.boost)
    keep = ~np.isin(da, db, assume_unique=True)
    if db[0] != da[0]:
        keep[0] = True
    return _apply_boost((da[keep], sa[keep]), q.boost)


def _eval_require(reader, q: ast.Require, ctx, scored):
    da, sa = evaluate(reader, q.a, ctx, scored)
    db, _ = evaluate(reader, q.b, ctx, scored=False)
    keep = np.isin(da, db, assume_unique=True)
    return _apply_boost((da[keep], sa[keep]), q.boost)


def _eval_andmaybe(reader, q: ast.AndMaybe, ctx, scored):
    da, sa = evaluate(reader, q.a, ctx, scored)
    db, sb = evaluate(reader, q.b, ctx, scored)
    common, ia, ib = np.intersect1d(da, db, assume_unique=True, return_indices=True)
    out = sa.copy()
    out[ia] += sb[ib]
    return _apply_boost((da, out), q.boost)


def _eval_otherwise(reader, q: "ast.Otherwise", ctx, scored):
    """a's matches, falling back to b when a matches nothing IN THIS
    SEGMENT (reference compound.py:585-589 picks the matcher per
    sub-searcher)."""
    da, sa = evaluate(reader, q.a, ctx, scored)
    if da.size:
        return _apply_boost((da, sa), q.boost)
    return _apply_boost(evaluate(reader, q.b, ctx, scored), q.boost)


def _eval_every(reader, q: ast.Every, ctx, scored):
    if q.field in (None, "", "*"):
        docs = reader.all_docnums()
    else:
        docs = reader.field_docs(q.field)
    return docs, np.full(docs.size, 1.0 * q.boost)


def _eval_phrase(reader, q: ast.Phrase, ctx, scored):
    """Position-verified And (reference Phrase -> SpanNear2 ordered,
    consecutive pair gap in [1, slop]); score = sum of term scores."""
    plists = [reader.postings(q.field, w, need_positions=True) for w in q.words]
    if not plists or any(p is None for p in plists):
        return EMPTY
    # intersect doc sets, tracking posting indices per term
    docs = plists[0].docs
    idxs = [np.arange(docs.size)]
    for p in plists[1:]:
        docs, ia, ib = np.intersect1d(docs, p.docs, assume_unique=True, return_indices=True)
        idxs = [ix[ia] for ix in idxs]
        idxs.append(ib)
    if docs.size == 0:
        return EMPTY
    # verify positions VECTORIZED across all candidate docs at once:
    # key = doc << 32 | pos, so chains can't cross doc boundaries; a term's
    # position p extends a chain ending at r iff 1 <= p - r <= slop
    # (reference SpanNear2 ordered, positional.py:134-277)
    slop = q.slop

    def _keys(t: int) -> np.ndarray:
        flat, counts = plists[t].positions_bulk(idxs[t])
        return (np.repeat(docs, counts) << np.uint64(32)) + flat

    reach = _keys(0)
    for t in range(1, len(plists)):
        # keys are built sorted (docs ascend across postings, positions
        # ascend within one) — verify cheaply instead of re-sorting; the
        # guard survives exotic analyzers that could emit out-of-order
        # duplicate positions
        nxt = _keys(t)
        if nxt.size > 1 and not (nxt[1:] >= nxt[:-1]).all():
            nxt = np.sort(nxt)
        hits = []
        for d in range(1, slop + 1):
            cand = reach + np.uint64(d)
            hits.append(cand[_sorted_isin(cand, nxt)])
        reach = np.unique(np.concatenate(hits)) if hits else np.empty(0, np.uint64)
        if reach.size == 0:
            return EMPTY
    ok_docs = np.unique(reach >> np.uint64(32))
    ok = np.isin(docs, ok_docs, assume_unique=True)
    docs = docs[ok]
    if not scored:
        return docs, np.ones(docs.size)
    # score = sum of per-term scores on surviving docs
    scores = np.zeros(docs.size, dtype=np.float64)
    for t, (p, w) in enumerate(zip(plists, q.words)):
        sub = idxs[t][ok]
        s = term_scores(p, q.field, w, ctx)
        scores += s[sub]
    return _apply_boost((docs, scores), q.boost)


def _expand_to_or(reader, q, ctx, scored, terms):
    sub = ast.Or([ast.Term(q.field, t) for t in terms], boost=q.boost)
    return evaluate(reader, sub, ctx, scored)


def _eval_prefix(reader, q: ast.Prefix, ctx, scored):
    # [prefix, prefix + ￿] covers all strings starting with prefix
    terms = reader.expand_terms(q.field, start=q.text, end=q.text + "￿")
    return _expand_to_or(reader, q, ctx, scored, terms)


def _eval_wildcard(reader, q: ast.Wildcard, ctx, scored):
    pat = q.pattern
    # literal prefix bounds the terminfo scan
    m = re.match(r"[^*?\[]*", pat)
    prefix = m.group(0)
    if prefix == pat:
        return evaluate(reader, ast.Term(q.field, pat, boost=q.boost), ctx, scored)
    cands = reader.expand_terms(
        q.field, start=prefix or None, end=(prefix + "￿") if prefix else None
    )
    rex = re.compile(_wildcard_to_regex(pat))
    terms = [t for t in cands if rex.fullmatch(t)]
    return _expand_to_or(reader, q, ctx, scored, terms)


def _wildcard_to_regex(pat: str) -> str:
    # the reference delegates to fnmatch.translate (query/terms.py:346),
    # which also handles [seq]/[!seq] character classes; the produced
    # pattern embeds \Z, so match == fullmatch for callers
    import fnmatch

    return fnmatch.translate(pat)


def _seq_child_terms(reader, q) -> tuple:
    """(field, [terms]) for a term-expandable Sequence child."""
    if isinstance(q, ast.Term):
        return q.field, [q.text]
    if isinstance(q, ast.Prefix):
        return q.field, reader.expand_terms(q.field, q.text, q.text + "\uffff")
    if isinstance(q, ast.Wildcard):
        m = re.match(r"[^*?\[]*", q.pattern)
        prefix = m.group(0)
        cands = reader.expand_terms(
            q.field, start=prefix or None, end=(prefix + "\uffff") if prefix else None
        )
        rex = re.compile(_wildcard_to_regex(q.pattern))
        return q.field, [t for t in cands if rex.fullmatch(t)]
    if isinstance(q, ast.FuzzyTerm):
        from .suggest import levenshtein_within

        pre = q.text[: q.prefixlength]
        cands = reader.expand_terms(
            q.field, start=pre or None, end=(pre + "\uffff") if pre else None
        )
        return q.field, [t for t in cands if levenshtein_within(q.text, t, q.maxdist)]
    if isinstance(q, ast.ConstantTerms):
        return q.field, list(q.termlist)
    if isinstance(q, ast.Or) and all(isinstance(s, ast.Term) for s in q.subqueries):
        fields = {s.field for s in q.subqueries}
        if len(fields) == 1:
            return fields.pop(), [s.text for s in q.subqueries]
    raise TypeError(f"Sequence child not term-expandable: {q!r}")


def _sorted_isin(cand: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of ``cand`` in a SORTED unique ``table`` via one
    searchsorted — avoids np.isin's internal concat+argsort."""
    if table.size == 0 or cand.size == 0:
        return np.zeros(cand.size, dtype=bool)
    idx = np.searchsorted(table, cand)
    idx[idx == table.size] = table.size - 1
    return table[idx] == cand


def _seq_child_keys(reader, q) -> np.ndarray:
    """Sorted (doc << 32 | pos) keys of every occurrence of the child.

    Static per segment, so cached on the reader with its docsets (bounded)
    — repeated sequence searches skip the full position decode."""
    field, terms = _seq_child_terms(reader, q)

    def build():
        keys = []
        for t in terms:
            pl = reader.postings(field, t, need_positions=True)
            if pl is None:
                continue
            flat, counts = pl.positions_bulk(np.arange(pl.docs.size))
            keys.append((np.repeat(pl.docs, counts) << np.uint64(32)) + flat)
        return np.unique(np.concatenate(keys)) if keys else np.empty(0, dtype=np.uint64)

    return reader.docset_cached(("seq_keys", field, tuple(terms)), build)


# ---------------------------------------------------------------------------
# Span algebra.  A span occurrence is an inclusive position interval inside
# one doc, represented as a PAIR of uint64 keys (skey, ekey) with
# key = doc << 32 | position — so all interval arithmetic stays doc-local
# (doc boundaries are 2^32 apart, farther than any slop/touch distance).
# Arrays are kept sorted lexicographically by (skey, ekey).
# ---------------------------------------------------------------------------

_POSMASK = np.uint64(0xFFFFFFFF)
_NOSPANS = (np.empty(0, np.uint64), np.empty(0, np.uint64))


def _sort_spans(sk, ek):
    order = np.lexsort((ek, sk))
    return sk[order], ek[order]


def _unique_spans(sk, ek):
    """Sort by (skey, ekey) and drop duplicate pairs — one lexsort + a
    boundary mask instead of np.unique over a structured dtype (the
    composite-compare sort is ~3x slower).  Output is span-sorted."""
    if sk.size == 0:
        return sk, ek
    order = np.lexsort((ek, sk))
    sk, ek = sk[order], ek[order]
    keep = np.empty(sk.size, dtype=bool)
    keep[0] = True
    np.logical_or(sk[1:] != sk[:-1], ek[1:] != ek[:-1], out=keep[1:])
    return sk[keep], ek[keep]


def _sequence_spans(reader, q) -> tuple:
    """Chain spans of a Sequence: child i+1 starts 1..slop after child i
    (reference SpanNear2 _get_spans, spans.py:530-700; combined span =
    aspan.to(bspan) = min start / max end)."""
    keys = _seq_child_keys(reader, q.subqueries[0])
    starts, ends = keys, keys
    for s in q.subqueries[1:]:
        if ends.size == 0:
            return _NOSPANS
        nxt = _seq_child_keys(reader, s)
        deltas = (
            range(1, q.slop + 1)
            if q.ordered
            else [d for d in range(-q.slop, q.slop + 1) if d != 0]
        )
        cs, ce = [], []
        for d in deltas:
            cand = ends + np.uint64(d) if d > 0 else ends - np.uint64(-d)
            m = _sorted_isin(cand, nxt)
            cs.append(starts[m])
            ce.append(cand[m])
        if not cs:
            return _NOSPANS
        starts, ends = np.concatenate(cs), np.concatenate(ce)
        if not q.ordered:  # unordered steps can move left of the start
            starts, ends = np.minimum(starts, ends), np.maximum(starts, ends)
        starts, ends = _unique_spans(starts, ends)  # span-sorted output
    # already span-sorted: single child = sorted unique keys; multi-child =
    # the last _unique_spans output
    return starts, ends


def _merge_spans(sk, ek) -> tuple:
    """Union of overlapping/TOUCHING spans (reference Span.merge,
    spans.py:100-125) — vectorized interval merge; exact on integer
    position sets."""
    if sk.size == 0:
        return _NOSPANS
    sk, ek = _sort_spans(sk, ek)
    run_end = np.maximum.accumulate(ek)
    new_grp = np.r_[True, sk[1:] > run_end[:-1] + np.uint64(1)]
    out_s = sk[new_grp]
    out_e = np.maximum.reduceat(ek, np.flatnonzero(new_grp))
    return out_s, out_e


def _collect_spans(reader, q) -> tuple:
    """(skey, ekey) arrays of every span occurrence of a span-expressible
    query, sorted by (skey, ekey).  Term-expandable leaves yield
    single-position spans; Sequence yields chain spans; Span* wrappers
    filter/merge recursively."""
    if isinstance(q, ast.Sequence):
        return _sequence_spans(reader, q)
    if isinstance(q, ast.Phrase):
        # Phrase == ordered Sequence of its terms at the phrase slop
        # (reference positional.py Phrase.matcher -> SpanNear2 tree)
        return _sequence_spans(
            reader,
            ast.Sequence([ast.Term(q.field, w) for w in q.words], slop=q.slop),
        )
    if isinstance(q, ast.SpanOr):
        parts = [_collect_spans(reader, s) for s in q.subqueries]
        sk = np.concatenate([p[0] for p in parts]) if parts else _NOSPANS[0]
        ek = np.concatenate([p[1] for p in parts]) if parts else _NOSPANS[1]
        return _merge_spans(sk, ek)
    if isinstance(q, ast.SpanFirst):
        sk, ek = _collect_spans(reader, q.child)
        keep = (ek & _POSMASK) <= np.uint64(q.limit)
        return sk[keep], ek[keep]
    if isinstance(q, ast.SpanNear):
        return _spannear_spans(reader, q)
    if isinstance(q, ast.Ordered):
        return _ordered_spans(reader, q)
    if isinstance(q, ast.SpanBefore):
        return _before_spans(
            _collect_spans(reader, q.a), _collect_spans(reader, q.b)
        )
    if isinstance(q, ast.SpanNot):
        return _spannot_spans(reader, q)
    if isinstance(q, ast.SpanContains):
        return _spancontains_spans(reader, q)
    if isinstance(q, ast.SpanCondition):
        ask, aek = _collect_spans(reader, q.a)
        bdocs, _ = evaluate(reader, q.b, None, scored=False)
        keep = np.isin(ask >> np.uint64(32), bdocs)
        return ask[keep], aek[keep]
    keys = _seq_child_keys(reader, q)
    return keys, keys


def _before_spans(a: tuple, b: tuple) -> tuple:
    """A-spans whose end precedes the MINIMUM b-span start of the same
    doc (reference SpanBefore._Matcher._get_spans, spans.py:899-901 —
    note it keeps the A spans, not a combination, and compares against
    b's first occurrence only)."""
    ask, aek = a
    bsk, bek = b
    if ask.size == 0 or bsk.size == 0:
        return _NOSPANS
    bdocs = bsk >> np.uint64(32)
    ib = np.flatnonzero(np.r_[True, bdocs[1:] != bdocs[:-1]])
    min_b_doc = bdocs[ib]
    min_b_key = bsk[ib]
    adocs = aek >> np.uint64(32)
    idx = np.searchsorted(min_b_doc, adocs)
    idx_c = np.minimum(idx, min_b_doc.size - 1)
    keep = (min_b_doc[idx_c] == adocs) & (aek < min_b_key[idx_c])
    return ask[keep], aek[keep]


def _ordered_spans(reader, q) -> tuple:
    """Ordered = binary SpanBefore tree over the halves of the list
    (reference positional.py:123 via util.make_binary_tree); the
    surviving spans are the FIRST child's qualifying spans."""

    def rec(subs):
        if len(subs) == 1:
            return _collect_spans(reader, subs[0])
        half = len(subs) // 2
        return _before_spans(rec(subs[:half]), rec(subs[half:]))

    if not q.subqueries:
        return _NOSPANS
    return rec(list(q.subqueries))


def _eval_ordered(reader, q, ctx, scored):
    sk, _ = _ordered_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    if not scored:
        return _apply_boost((docs, np.ones(docs.size)), q.boost)
    total = np.zeros(docs.size, dtype=np.float64)
    for s in q.subqueries:
        _, sc = _span_score(reader, s, ctx, True, docs)
        total += sc
    return _apply_boost((docs, total), q.boost)


def _spannear_spans(reader, q) -> tuple:
    """Combined spans of SpanNear (reference spans.py:476-528): pairs
    with mindist <= distance <= slop, ordered => a.start <= b.start;
    overlap = distance 0 (default mindist=1 rejects overlaps).  Doc
    boundaries are 2^32 apart in key space, so cross-doc pairs never
    satisfy the window."""
    ask, aek = _collect_spans(reader, q.a)
    bsk, bek = _collect_spans(reader, q.b)
    if ask.size == 0 or bsk.size == 0:
        return _NOSPANS
    slop = np.uint64(q.slop)
    # candidate window per a-span: b.start in
    # [a.start - slop - max_b_len, a.end + slop]
    max_b_len = np.uint64((bek - bsk).max())
    lo_key = ask - np.minimum(ask, slop + max_b_len)  # clamp underflow
    lo = np.searchsorted(bsk, lo_key, side="left")
    hi = np.searchsorted(bsk, aek + slop, side="right")
    cnt = (hi - lo).astype(np.int64)
    tot = int(cnt.sum())
    if tot == 0:
        return _NOSPANS
    seg0 = np.cumsum(cnt) - cnt
    ai = np.repeat(np.arange(ask.size), cnt)
    bi = np.repeat(lo - seg0, cnt) + np.arange(tot)
    a_s, a_e = ask[ai], aek[ai]
    b_s, b_e = bsk[bi], bek[bi]
    keep = b_e + slop >= a_s  # b not too far in front of a
    if q.ordered:
        keep &= a_s <= b_s
    # distance_to: 0 on overlap, else gap between the nearer edges
    overlap = (a_s <= b_e) & (b_s <= a_e)
    a_before = a_e < b_s
    dist = np.zeros(a_s.size, dtype=np.uint64)
    dist[a_before] = (b_s - a_e)[a_before]
    behind = ~overlap & ~a_before
    dist[behind] = (a_s - b_e)[behind]
    keep &= (dist >= np.uint64(q.mindist)) & (dist <= slop)
    if not keep.any():
        return _NOSPANS
    cs = np.minimum(a_s[keep], b_s[keep])
    ce = np.maximum(a_e[keep], b_e[keep])
    return _unique_spans(*_sort_spans(cs, ce))


def _eval_spannear(reader, q, ctx, scored):
    """Doc-level SpanNear: docs with a surviving pair; score is the
    wrapped IntersectionMatcher's a+b sum (reference spans.py:476)."""
    sk, _ = _spannear_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    if not scored:
        return _apply_boost((docs, np.ones(docs.size)), q.boost)
    _, sa = _span_score(reader, q.a, ctx, True, docs)
    _, sb = _span_score(reader, q.b, ctx, True, docs)
    return _apply_boost((docs, sa + sb), q.boost)


def _spannot_spans(reader, q) -> tuple:
    """a-spans that do not OVERLAP any b-span (reference spans.py:771-819;
    on docs without b, all a-spans survive).  b-spans are pre-merged
    (union of touching integer intervals is pointwise identical), so the
    only overlap candidate per a-span is the merged interval with the
    largest start <= a.end."""
    ask, aek = _collect_spans(reader, q.a)
    if ask.size == 0:
        return _NOSPANS
    bsk, bek = _merge_spans(*_collect_spans(reader, q.b))
    if bsk.size == 0:
        return ask, aek
    idx = np.searchsorted(bsk, aek, side="right") - 1
    has = idx >= 0
    overlapped = np.zeros(ask.size, dtype=bool)
    overlapped[has] = bek[idx[has]] >= ask[has]
    return ask[~overlapped], aek[~overlapped]


def _spancontains_spans(reader, q) -> tuple:
    """a-spans that CONTAIN some b-span (b.start >= a.start and
    b.end <= a.end; reference spans.py:846-871)."""
    ask, aek = _collect_spans(reader, q.a)
    if ask.size == 0:
        return _NOSPANS
    bsk, bek = _collect_spans(reader, q.b)
    if bsk.size == 0:
        return _NOSPANS
    lo = np.searchsorted(bsk, ask, side="left")
    hi = np.searchsorted(bsk, aek, side="right")
    if (bsk == bek).all():
        # single-position b-spans: containment = any b start in [a.s, a.e]
        keep = hi > lo
    else:
        keep = np.zeros(ask.size, dtype=bool)
        for i in range(ask.size):  # rare: compound b child
            keep[i] = bool(lo[i] < hi[i] and (bek[lo[i] : hi[i]] <= aek[i]).any())
    return ask[keep], aek[keep]


def _eval_sequence(reader, q, ctx, scored):
    """SpanNear-style chain: child i+1 must start 1..slop positions after
    child i (ordered; the reference Sequence default)."""
    sk, _ = _sequence_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    if not scored:
        return docs, np.ones(docs.size)
    total = np.zeros(docs.size, dtype=np.float64)
    for s in q.subqueries:
        d, sc = evaluate(reader, s, ctx, scored=True)
        idx = np.searchsorted(d, docs)
        ok = (idx < d.size) & (d[np.minimum(idx, d.size - 1)] == docs)
        total[ok] += sc[idx[ok]]
    return _apply_boost((docs, total), q.boost)


def _span_score(reader, child, ctx, scored, docs):
    """Child scores restricted to surviving docs (span matchers score the
    wrapped matcher on matching docs)."""
    if not scored:
        return docs, np.ones(docs.size)
    d, sc = evaluate(reader, child, ctx, scored=True)
    idx = np.searchsorted(d, docs)
    ok = (idx < d.size) & (d[np.minimum(idx, max(d.size - 1, 0))] == docs) if d.size else np.zeros(docs.size, bool)
    out = np.zeros(docs.size, dtype=np.float64)
    out[ok] = sc[idx[ok]]
    return docs, out


def _eval_spanfirst(reader, q, ctx, scored):
    sk, _ = _collect_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    return _apply_boost(_span_score(reader, q.child, ctx, scored, docs), q.boost)


def _eval_spannot(reader, q, ctx, scored):
    """Docs where at least one a-span survives; score follows the wrapped
    AndMaybeMatcher (reference spans.py:793-802): a's score, plus b's where
    b also matches the doc."""
    sk, _ = _collect_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    if not scored:
        return _apply_boost((docs, np.ones(docs.size)), q.boost)
    d, s = evaluate(reader, ast.AndMaybe(q.a, q.b), ctx, scored=True)
    m = np.isin(d, docs, assume_unique=True)
    return _apply_boost((d[m], s[m]), q.boost)


def _eval_spanor(reader, q, ctx, scored):
    """Doc-level SpanOr: union docs (spans merged for nesting); score is
    the wrapped UnionMatcher's sum (reference spans.py:726-753)."""
    sk, _ = _collect_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    if not scored:
        return _apply_boost((docs, np.ones(docs.size)), q.boost)
    d, s = _union([evaluate(reader, sub, ctx, True) for sub in q.subqueries])
    m = np.isin(d, docs, assume_unique=True)
    return _apply_boost((d[m], s[m]), q.boost)


def _eval_spancontains(reader, q, ctx, scored):
    """Docs where some a-span contains some b-span; score = a + b (the
    wrapped IntersectionMatcher, reference spans.py:846-852)."""
    sk, _ = _collect_spans(reader, q)
    if sk.size == 0:
        return EMPTY
    docs = np.unique(sk >> np.uint64(32))
    if not scored:
        return _apply_boost((docs, np.ones(docs.size)), q.boost)
    d, s = _intersect(
        evaluate(reader, q.a, ctx, True), evaluate(reader, q.b, ctx, True)
    )
    m = np.isin(d, docs, assume_unique=True)
    return _apply_boost((d[m], s[m]), q.boost)


def _eval_spancondition(reader, q, ctx, scored):
    """Docs matching both a and b (spans restricted to a's when nested);
    score = a + b (reference spans.py:923-930)."""
    d, s = _intersect(
        evaluate(reader, q.a, ctx, scored), evaluate(reader, q.b, ctx, scored)
    )
    if not scored and d.size:
        s = np.ones(d.size)
    return _apply_boost((d, s), q.boost)


def _eval_docset(reader, q: "ast.DocSet", ctx, scored):
    """Pre-resolved docnums (searcher-level rewrites, e.g. NestedChildren)
    restricted to this segment's doc space; constant score."""
    target = np.asarray(q.docnums, dtype=np.uint64)
    docs = np.intersect1d(reader.all_docnums(), target, assume_unique=True)
    return docs, np.full(docs.size, 1.0 * q.boost)


def _eval_scored_docset(reader, q: "ast.ScoredDocSet", ctx, scored):
    """Pre-resolved scored docnums (searcher-level rewrites, e.g.
    NestedParent) restricted to this segment's doc space."""
    target = np.asarray(q.docnums, dtype=np.uint64)
    docs, _, i2 = np.intersect1d(
        reader.all_docnums(), target, assume_unique=True, return_indices=True
    )
    if not scored:
        return docs, np.ones(docs.size)
    scores = np.asarray(q.scores, dtype=np.float64)[i2]
    if q.boost != 1.0:
        scores = scores * q.boost
    return docs, scores


def _eval_variations(reader, q: "ast.Variations", ctx, scored):
    """Segment-local fallback (the searcher rewrites Variations globally
    before fan-out): expand to variant terms present in this segment."""
    from .variations import variations as _vars

    terms = sorted(t for t in _vars(q.text) if reader.terminfo(q.field, t))
    return _expand_to_or(reader, q, ctx, scored, terms)


def _eval_spanbefore(reader, q, ctx, scored):
    a = _seq_child_keys(reader, q.a)
    b = _seq_child_keys(reader, q.b)
    if a.size == 0 or b.size == 0:
        return EMPTY
    da = a >> np.uint64(32)
    db = b >> np.uint64(32)
    # reference semantics (spans.py:899-901): an a-span must end before the
    # MINIMUM b start, i.e. min(a_pos) < min(b_pos) per doc (keys are
    # sorted, so the first key of each doc run is its min)
    ia = np.flatnonzero(np.r_[True, da[1:] != da[:-1]])
    min_a_docs, min_a_pos = da[ia], a[ia] & np.uint64(0xFFFFFFFF)
    ib = np.flatnonzero(np.r_[True, db[1:] != db[:-1]])
    min_b_docs, min_b_pos = db[ib], b[ib] & np.uint64(0xFFFFFFFF)
    common, i1, i2 = np.intersect1d(min_a_docs, min_b_docs, assume_unique=True, return_indices=True)
    docs = common[min_a_pos[i1] < min_b_pos[i2]]
    if docs.size == 0:
        return EMPTY
    if not scored:
        return docs, np.ones(docs.size)
    _, sa = _span_score(reader, q.a, ctx, True, docs)
    _, sb = _span_score(reader, q.b, ctx, True, docs)
    return _apply_boost((docs, sa + sb), q.boost)


def _eval_fuzzyterm(reader, q, ctx, scored):
    from .suggest import levenshtein_within

    pre = q.text[: q.prefixlength]
    cands = reader.expand_terms(
        q.field, start=pre or None, end=(pre + "\uffff") if pre else None
    )
    terms = [t for t in cands if levenshtein_within(q.text, t, q.maxdist)]
    return _expand_to_or(reader, q, ctx, scored, terms)


def _eval_termrange(reader, q: ast.TermRange, ctx, scored):
    terms = reader.expand_terms(q.field, q.start, q.end, q.startexcl, q.endexcl)
    return _expand_to_or(reader, q, ctx, scored, terms)


def _range_mask(q: ast.NumericRange, vals: np.ndarray) -> np.ndarray:
    if np.issubdtype(vals.dtype, np.datetime64):
        vals = vals.astype("datetime64[us]").astype(np.int64)
        conv = lambda v: np.datetime64(v, "us").astype(np.int64) if v is not None else None
    else:
        conv = lambda v: v
    mask = np.ones(vals.size, dtype=bool)
    lo, hi = conv(q.start), conv(q.end)
    if lo is not None:
        mask &= (vals > lo) if q.startexcl else (vals >= lo)
    if hi is not None:
        mask &= (vals < hi) if q.endexcl else (vals <= hi)
    return mask


def _eval_numericrange(reader, q: ast.NumericRange, ctx, scored):
    key = ("nr", q.field, q.start, q.end, q.startexcl, q.endexcl)

    def build():
        mask = _range_mask(q, reader.column(q.field))
        return reader.all_docnums()[mask]

    docs = reader.docset_cached(key, build)
    return docs, np.full(docs.size, 1.0 * q.boost)


def _eval_constantscore(reader, q, ctx, scored):
    docs, _ = evaluate(reader, q.child, ctx, scored=False)
    return docs, np.full(docs.size, float(q.score))


def _eval_column(reader, q, ctx, scored):
    vals = reader.column(q.field)
    if callable(q.condition):
        mask = np.array([bool(q.condition(v)) for v in vals])
    else:
        mask = np.array([v == q.condition for v in vals])
    docs = reader.all_docnums()[mask]
    return docs, np.full(docs.size, 1.0 * q.boost)


def _eval_constant_terms(reader, q: ast.ConstantTerms, ctx, scored):
    def build():
        docs_list = []
        for t in q.termlist:
            plist = reader.postings(q.field, t)
            if plist is not None:
                docs_list.append(plist.docs)
        if not docs_list:
            return EMPTY[0]
        return np.unique(np.concatenate(docs_list))

    union = reader.docset_cached(("ct", q.field, q.termlist), build)
    if union.size == 0:
        return EMPTY
    # score is exactly 1 (boost ignored): reference matching/combo.py:216-219
    return union, np.ones(union.size, dtype=np.float64)


def _apply_boost(res, boost):
    if boost != 1.0:
        return res[0], res[1] * boost
    return res


_EVAL = {
    "Term": _eval_term,
    "And": _eval_and,
    "Or": _eval_or,
    "DisMax": _eval_dismax,
    "Not": _eval_not,
    "AndNot": _eval_andnot,
    "Require": _eval_require,
    "AndMaybe": _eval_andmaybe,
    "Every": _eval_every,
    "Otherwise": _eval_otherwise,
    "ConstantTerms": _eval_constant_terms,
    "Phrase": _eval_phrase,
    "Prefix": _eval_prefix,
    "Wildcard": _eval_wildcard,
    "TermRange": _eval_termrange,
    "FuzzyTerm": _eval_fuzzyterm,
    "Sequence": _eval_sequence,
    "ColumnQuery": _eval_column,
    "ConstantScoreQuery": _eval_constantscore,
    "SpanFirst": _eval_spanfirst,
    "SpanNot": _eval_spannot,
    "SpanBefore": _eval_spanbefore,
    "SpanNear": _eval_spannear,
    "Ordered": _eval_ordered,
    "_NullQuery": lambda reader, q, ctx, scored: EMPTY,
    "SpanOr": _eval_spanor,
    "SpanContains": _eval_spancontains,
    "SpanCondition": _eval_spancondition,
    "DocSet": _eval_docset,
    "ScoredDocSet": _eval_scored_docset,
    "Variations": _eval_variations,
    "NumericRange": _eval_numericrange,
}
