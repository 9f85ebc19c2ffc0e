"""Training-data corpus operations over the ``documents`` table.

Large-scale-pipeline building blocks, each a Ray Data pipeline over
``documents.parquet`` (doc_id:int64, text:string, lang:string,
source:string, n_chars:int64) with, where SQL-expressible, a matching
DuckDB oracle (see ``__ray_entry__``):

  * exact dedup        — md5(text) hash-group, keep min doc_id
  * n-gram Jaccard near-dup — word-3-shingle MinHash(64) + LSH banding for
    candidates, EXACT shingle-Jaccard verification (so results equal the
    all-pairs oracle whenever LSH recall is 1 — 16 bands x 4 rows gives
    ~0.9998 recall at tau=0.8)
  * MinHash dedup      — drop any doc with a smaller verified near-dup
  * SimHash            — 64-bit fingerprints + Hamming<=k candidate pairs
  * text stats / quality scoring / token counting / fingerprinting
  * marker-based language ID

Scale notes: every op is map_batches + (at most) one groupby shuffle;
candidate verification fetches only the candidate docs' texts.  At 10^12
docs the LSH band table is the only all-to-all, keyed by (band, hash) which
is uniformly distributed by construction; exact-verify joins are bounded by
the duplicate rate.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import (
    PART_COL,
    arrow_group_aggregate,
    mix64,
    num_partitions_default,
    partition_ids,
    partitioned_map_groups,
    polyhash64,
)

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

MERSENNE = (1 << 61) - 1
N_PERMS = 64
N_BANDS = 16  # x 4 rows per band
JACCARD_TAU = 0.8

_rng = np.random.default_rng(42)
# a < 2^29 and shingle hashes masked to 32 bits keep a*x + b < 2^62: the
# whole universal-hash family evaluates in native uint64 (no bignum path)
PERM_A = _rng.integers(1, 1 << 29, size=N_PERMS, dtype=np.uint64)
PERM_B = _rng.integers(0, MERSENNE, size=N_PERMS, dtype=np.uint64)
HASH_MASK = np.uint64((1 << 32) - 1)


def _read_documents(sf_dir: str, columns):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def _collect_sorted(ds, sort_keys, collect: bool):
    """Gate-contract helper for O(N)-output per-doc ops: ``collect=True``
    materializes + sorts for the driver's hash compare (fine at test
    scale); ``collect=False`` returns the LAZY Dataset so callers
    ``write_parquet`` it without any driver concat — the 100 TB path."""
    if not collect:
        return ds
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return t.sort_by(sort_keys)


def _shingles(text: str, k: int = 3) -> list:
    """Word k-shingles over ``lower().split(' ')`` — mirrors the SQL oracle's
    ``string_split(lower(text), ' ')`` exactly."""
    w = text.lower().split(" ")
    return [" ".join(w[i : i + k]) for i in range(len(w) - k + 1)]


def _flat_ngrams(col, n: int):
    """(flat n-gram StringArray, n-grams-per-row counts) for
    ``lower().split(' ')`` word n-grams — the same tokenization as the
    SQL oracles' ``string_split(lower(text), ' ')``.  All-Arrow: gather
    the k shifted word arrays and join with one
    ``binary_join_element_wise`` kernel (no Python string building)."""
    flat, counts = _split_lower(col)
    nng = np.maximum(counts - (n - 1), 0)
    total = int(nng.sum())
    if total == 0:
        return pa.array([], type=pa.string()), nng
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    row_off = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ng_off = np.concatenate(([0], np.cumsum(nng)[:-1]))
    ng_row = np.repeat(np.arange(len(counts)), nng)
    intra = np.arange(total) - np.repeat(ng_off, nng)
    p = row_off[ng_row] + intra
    parts = [flat.take(pa.array(p + j)) for j in range(n)]
    return pc.binary_join_element_wise(*parts, " "), nng


def _hash64(values: list) -> np.ndarray:
    """Stable 61-bit hashes of strings (blake2b, runs-stable)."""
    return np.array(
        [
            int.from_bytes(hashlib.blake2b(v.encode(), digest_size=8).digest(), "little")
            & MERSENNE
            for v in values
        ],
        dtype=np.uint64,
    )


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def dedup_exact(sf_dir: str) -> pa.Table:
    """Kept doc_ids: min doc_id per md5(text) — hash-partitioned groupby
    (content-hash cardinality ~= doc count, so the aggregation runs as
    Arrow C++ group_by per hash partition; see functions/partition.py)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    P = num_partitions_default()

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = pa.array(
            [hashlib.md5(t.encode()).hexdigest() for t in batch["text"].to_pylist()]
        )
        return pa.table(
            {
                PART_COL: pa.array(partition_ids(polyhash64(hs), P)),
                "h": hs,
                "doc_id": batch["doc_id"],
            }
        )

    def min_per_hash(part: pa.Table) -> pa.Table:
        return arrow_group_aggregate(part, "h", [("doc_id", "min")])

    kept = partitioned_map_groups(
        ds.map_batches(add_hash, batch_format="pyarrow"), min_per_hash
    )
    parts = [b for b in kept.iter_batches(batch_format="pyarrow", batch_size=None)]
    t = pa.table({"doc_id": pa.concat_tables(parts)["doc_id_min"]})
    return t.sort_by("doc_id")


def oracle_dedup_exact() -> str:
    return """
SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text) ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# MinHash + LSH near-duplicate pairs (exact-verified n-gram Jaccard)
# ---------------------------------------------------------------------------


_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant
_SH_C1 = np.uint64(0xC2B2AE3D27D4EB4F)
_SH_C2 = np.uint64(0x165667B19E3779F9)


def _split_lower(col) -> tuple:
    """(flat word pa.Array, per-row counts) for lower().split(' ') — the
    same tokenization as the SQL oracle's string_split(lower(text), ' ').
    All-Arrow (no Python string lists: materializing 10^5 word objects per
    batch measured 10x slower than the C kernels)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lists = pc.split_pattern(pc.utf8_lower(pc.fill_null(col, "")), " ")
    counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    return pc.list_flatten(lists), counts


def _word_hashes(flat_words: pa.Array) -> np.ndarray:
    """Per-token 61-bit hashes, computed once per UNIQUE word (dictionary
    encode first: vocab << token count)."""
    if len(flat_words) == 0:
        return np.empty(0, np.uint64)
    denc = pc.dictionary_encode(flat_words)
    uh = _hash64(denc.dictionary.to_pylist())
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return uh[codes]


def _shingle_hashes_flat(texts, k: int = 3) -> tuple:
    """Vectorized word-k-shingle hashes for a batch: returns
    (flat shingle hashes, shingles-per-row counts).  Hash = wrapping uint64
    mix of the k word hashes (min over a multiset equals min over the set,
    so MinHash needs no per-doc dedup)."""
    flat, counts = _split_lower(texts)
    wh = _word_hashes(flat)
    nsh = np.maximum(counts - (k - 1), 0)
    total = int(nsh.sum())
    if total == 0:
        return np.empty(0, np.uint64), nsh
    row_off = np.concatenate(([0], np.cumsum(counts)[:-1]))
    sh_off = np.concatenate(([0], np.cumsum(nsh)[:-1]))
    sh_row = np.repeat(np.arange(len(counts)), nsh)
    intra = np.arange(total) - np.repeat(sh_off, nsh)
    p = row_off[sh_row] + intra
    with np.errstate(over="ignore"):
        h = wh[p] * _SH_C1
        for j in range(1, k):
            h = (h ^ wh[p + j]) * _SH_C2
    return h, nsh


def minhash_band_rows(batch: pa.Table, n_bands: int = N_BANDS) -> pa.Table:
    """Stateless vectorized map_batches stage: documents batch ->
    (doc_id, band, band_hash) LSH rows, n_bands per doc.

    All-numpy: shingle hashing via per-unique-word blake2b + uint64 mixing,
    64 permutations evaluated as one (n_shingles, 64) matrix with
    ``np.minimum.reduceat`` per row, band hashes as a wrapping fold over
    each band's signature rows.  No per-doc Python loop, no hashlib in the
    per-shingle path."""
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n_docs = len(batch)
    r = N_PERMS // n_bands
    sh, nsh = _shingle_hashes_flat(batch["text"])

    sigs = np.full((n_docs, N_PERMS), MERSENNE, dtype=np.uint64)
    bounds = np.concatenate(([0], np.cumsum(nsh)))
    masked = sh & HASH_MASK
    # doc-aligned chunks into ONE reused buffer: a single
    # (n_shingles, 64) temp costs ~16x more wall time in fresh-page
    # faults than cache-resident chunk reuse (measured)
    CH = 1 << 15
    buf = np.empty((CH, N_PERMS), np.uint64)
    d = 0
    while d < n_docs:
        e = d
        while e < n_docs and bounds[e + 1] - bounds[d] <= CH:
            e += 1
        if e == d:
            e = d + 1  # one doc bigger than the chunk: take it alone
        lo, hi = int(bounds[d]), int(bounds[e])
        cn = hi - lo
        if cn:
            v = buf[:cn] if cn <= CH else np.empty((cn, N_PERMS), np.uint64)
            np.multiply(masked[lo:hi, None], PERM_A, out=v)
            v += PERM_B
            v %= np.uint64(MERSENNE)
            # empty segments occupy no elements, so restricting reduceat
            # starts to nonzero segments keeps boundaries exact
            local = np.flatnonzero(nsh[d:e] > 0)
            starts = bounds[d:e][local] - lo
            sigs[d + local] = np.minimum.reduceat(v, starts, axis=0)
        d = e

    # band hash: wrapping multiply-fold of the band's r signature values
    with np.errstate(over="ignore"):
        bh = np.zeros((n_docs, n_bands), dtype=np.uint64)
        bview = sigs.reshape(n_docs, n_bands, r)
        for j in range(r):
            bh = (bh ^ bview[:, :, j]) * _BAND_MIX
    bh >>= np.uint64(1)  # fit int64 for parquet/shuffle friendliness

    return pa.table(
        {
            "doc_id": pa.array(np.repeat(doc_ids, n_bands), pa.int64()),
            "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n_docs)),
            "band_hash": pa.array(bh.reshape(-1).astype(np.int64), pa.int64()),
        }
    )


def _pair_partition_ids(a: np.ndarray, b: np.ndarray, P: int) -> np.ndarray:
    """Partition ids for (a, b) pair keys: mix both sides so either
    coordinate's structure can't skew the buckets."""
    with np.errstate(over="ignore"):
        key = mix64(a.astype(np.uint64)) ^ b.astype(np.uint64)
    return partition_ids(key, P)


def _bucket_pairs_combine(part: pa.Table, key_cols, id_col: str = "doc_id") -> pa.Table:
    """All LSH buckets of one partition -> distinct (a < b) candidate
    pairs.  Vectorized bucket discovery (lexsort + boundary diff); the
    triu expansion loops only over buckets of size > 1 — bounded by the
    duplicate rate, while the size-1 vast majority never reaches Python."""
    n = part.num_rows
    ids = part[id_col].to_numpy(zero_copy_only=False)
    keys = [part[c].to_numpy(zero_copy_only=False) for c in key_cols]
    order = np.lexsort((ids, *reversed(keys)))
    ids = ids[order]
    sk = [k[order] for k in keys]
    newgrp = np.zeros(n - 1, dtype=bool) if n > 1 else np.empty(0, bool)
    for k in sk:
        newgrp |= k[1:] != k[:-1]
    starts = np.concatenate(([0], np.flatnonzero(newgrp) + 1))
    sizes = np.diff(np.concatenate((starts, [n])))
    dup = sizes > 1
    out_a: list = []
    out_b: list = []
    for s, z in zip(starts[dup], sizes[dup]):
        g = ids[s : s + z]
        iu, ju = np.triu_indices(int(z), 1)
        out_a.append(g[iu])
        out_b.append(g[ju])
    if not out_a:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    rec = np.unique(np.rec.fromarrays([np.concatenate(out_a), np.concatenate(out_b)], names="a,b"))
    return pa.table(
        {"a": pa.array(rec["a"], pa.int64()), "b": pa.array(rec["b"], pa.int64())}
    )


def _distinct_pairs(cand, P: int):
    """(a, b) Dataset -> cross-partition-distinct (a, b) Dataset via a
    pair-hash partition and per-partition np.unique."""

    def addp(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return batch.add_column(0, PART_COL, pa.array(_pair_partition_ids(a, b, P)))

    def uniq(part: pa.Table) -> pa.Table:
        rec = np.unique(
            np.rec.fromarrays(
                [
                    part["a"].to_numpy(zero_copy_only=False),
                    part["b"].to_numpy(zero_copy_only=False),
                ],
                names="a,b",
            )
        )
        return pa.table(
            {"a": pa.array(rec["a"], pa.int64()), "b": pa.array(rec["b"], pa.int64())}
        )

    return partitioned_map_groups(cand.map_batches(addp, batch_format="pyarrow"), uniq)


def _lsh_candidate_pairs(sf_dir: str):
    """LSH bucket partition-groupby -> Dataset of DISTINCT candidate
    (a < b) pairs.

    Fully distributed: band rows shuffle by hash-partition of
    (band, band_hash) — uniform by construction — each partition's pair
    emission is vectorized bucket discovery + triu over dup buckets only,
    and cross-band duplicates collapse in a second pair-keyed partition
    pass.  Nothing is collected on the driver, and no per-bucket or
    per-pair Python call crosses the Ray group machinery (see
    functions/partition.py)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    P = num_partitions_default()

    def banded(batch: pa.Table) -> pa.Table:
        t = minhash_band_rows(batch)
        band = t["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bh = t["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            key = mix64(bh) ^ band * _BAND_MIX
        return t.add_column(0, PART_COL, pa.array(partition_ids(key, P)))

    def bucket_pairs(part: pa.Table) -> pa.Table:
        return _bucket_pairs_combine(part, ["band", "band_hash"])

    cand = partitioned_map_groups(
        ds.map_batches(banded, batch_format="pyarrow", batch_size=512), bucket_pairs
    )
    return _distinct_pairs(cand, P)


_SH_LIST = pa.list_(pa.int64())
_JOIN_SCHEMA = pa.schema(
    [("key", pa.int64()), ("a", pa.int64()), ("b", pa.int64()), ("sh", _SH_LIST)]
)


def _shingle_set_rows(batch: pa.Table) -> pa.Table:
    """documents batch -> (key=doc_id, a=null, b=null, sh=sorted unique
    64-bit shingle-STRING hashes).  Vectorized: one ``_flat_ngrams`` over
    the batch, polynomial fingerprints off the Arrow buffers
    (functions/partition.polyhash64 — the former per-doc Python shingle
    loop + per-unique blake2b measured >10x slower), per-row sorted
    dedup via a (row, hash) lexsort.  Hash-set Jaccard equals the
    oracle's string-set Jaccard up to 64-bit collisions; the gate
    corpora are verified hash-identical vs the exact string oracle."""
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n_rows = len(doc_ids)
    ngs, nng = _flat_ngrams(batch["text"], 3)
    h = polyhash64(ngs).view(np.int64)
    row = np.repeat(np.arange(n_rows, dtype=np.int64), nng)
    if h.size:
        order = np.lexsort((h, row))
        hs, rs = h[order], row[order]
        keep = np.concatenate(
            ([True], (rs[1:] != rs[:-1]) | (hs[1:] != hs[:-1]))
        )
        hu, ru = hs[keep], rs[keep]
    else:
        hu = np.empty(0, np.int64)
        ru = np.empty(0, np.int64)
    counts = np.bincount(ru, minlength=n_rows) if n_rows else np.empty(0, np.int64)
    offsets = pa.array(
        np.concatenate(([0], np.cumsum(counts))).astype(np.int32), pa.int32()
    )
    sh_lists = pa.ListArray.from_arrays(offsets, pa.array(hu, pa.int64()))
    return pa.table(
        {
            "key": pa.array(doc_ids, pa.int64()),
            "a": pa.nulls(n_rows, pa.int64()),
            "b": pa.nulls(n_rows, pa.int64()),
            "sh": sh_lists,
        },
        schema=_JOIN_SCHEMA,
    )


def _request_rows(batch: pa.Table) -> pa.Table:
    """candidate-pair batch -> two join-request rows per pair (key=a, key=b)."""
    a = batch["a"].to_numpy(zero_copy_only=False)
    b = batch["b"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "key": pa.array(np.concatenate([a, b]), pa.int64()),
            "a": pa.array(np.concatenate([a, a]), pa.int64()),
            "b": pa.array(np.concatenate([b, b]), pa.int64()),
            "sh": pa.nulls(2 * a.size, _SH_LIST),
        },
        schema=_JOIN_SCHEMA,
    )


_ATTACH_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("side", pa.int32()), ("sh", _SH_LIST)]
)
_JACC_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
)


def _attach_shingles_part(part: pa.Table) -> pa.Table:
    """All keys of one partition at once: doc rows (sh set) join to their
    request rows via a sorted-key searchsorted lookup (no per-key Python
    call); side 0 when key is the pair's 'a'."""
    valid = pc.is_valid(part["sh"]).to_numpy(zero_copy_only=False)
    keys = part["key"].to_numpy(zero_copy_only=False)
    doc_idx = np.flatnonzero(valid)
    req_idx = np.flatnonzero(~valid)
    if doc_idx.size == 0 or req_idx.size == 0:
        return _ATTACH_SCHEMA.empty_table()
    dorder = np.argsort(keys[doc_idx])
    dkeys = keys[doc_idx][dorder]
    dsrc = doc_idx[dorder]
    rkeys = keys[req_idx]
    pos = np.minimum(np.searchsorted(dkeys, rkeys), dkeys.size - 1)
    match = dkeys[pos] == rkeys
    req_ok = req_idx[match]
    sub = part.take(pa.array(req_ok, pa.int64()))
    sh_col = part["sh"].take(pa.array(dsrc[pos[match]], pa.int64()))
    side = np.where(
        sub["a"].to_numpy(zero_copy_only=False) == rkeys[match], 0, 1
    ).astype(np.int32)
    return pa.table(
        {"a": sub["a"], "b": sub["b"], "side": pa.array(side), "sh": sh_col},
        schema=_ATTACH_SCHEMA,
    )


def _pair_jaccard_part(part: pa.Table) -> pa.Table:
    """All candidate pairs of one partition at once: exact Jaccard of the
    two sides' sorted-unique shingle-hash sets, fully vectorized — the
    intersection count is the number of values occurring twice within a
    pair (each side's set is unique), found by one lexsort over
    (pair, value) and an adjacent-equal bincount."""
    n = part.num_rows
    if n == 0:
        return _JACC_SCHEMA.empty_table()
    a = part["a"].to_numpy(zero_copy_only=False)
    b = part["b"].to_numpy(zero_copy_only=False)
    side = part["side"].to_numpy(zero_copy_only=False)
    order = np.lexsort((side, b, a))
    a, b = a[order], b[order]
    # keep only complete pairs (row i pairs with i+1 on the same (a, b))
    same = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    first = np.flatnonzero(np.concatenate((same, [False])) & ~np.concatenate(([False], same)))
    if first.size == 0:
        return _JACC_SCHEMA.empty_table()
    keep = np.stack((first, first + 1), axis=1).reshape(-1)
    sub = part.take(pa.array(order[keep], pa.int64()))
    lens = pc.list_value_length(sub["sh"]).to_numpy(zero_copy_only=False).astype(np.int64)
    vals_arr = pc.list_flatten(sub["sh"])
    vals = vals_arr.to_numpy(zero_copy_only=False)
    npairs = first.size
    pair_of_val = np.repeat(np.arange(2 * npairs, dtype=np.int64) // 2, lens)
    vorder = np.lexsort((vals, pair_of_val))
    sv, sp = vals[vorder], pair_of_val[vorder]
    dupmask = (sv[1:] == sv[:-1]) & (sp[1:] == sp[:-1])
    inter = np.bincount(sp[1:][dupmask], minlength=npairs)
    union = lens.reshape(-1, 2).sum(axis=1) - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        j = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    return pa.table(
        {
            "a": sub["a"].take(pa.array(np.arange(0, 2 * npairs, 2), pa.int64())),
            "b": sub["b"].take(pa.array(np.arange(0, 2 * npairs, 2), pa.int64())),
            "jaccard": pa.array(j, pa.float64()),
        },
        schema=_JACC_SCHEMA,
    )


def _verified_pairs_ds(sf_dir: str):
    """Lazy Dataset of exact-Jaccard-verified candidate pairs
    (a:int64, b:int64, jaccard:float64) — the shared candidate+verify
    pipeline behind neardup_ngram_jaccard / dedup_minhash /
    neardup_clusters."""
    cand = _lsh_candidate_pairs(sf_dir)
    docs = _read_documents(sf_dir, ["doc_id", "text"])
    P = num_partitions_default()

    def keypart(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(k.astype(np.uint64), P))
        )

    def pairpart(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return batch.add_column(0, PART_COL, pa.array(_pair_partition_ids(a, b, P)))

    sh_ds = docs.map_batches(
        _shingle_set_rows, batch_format="pyarrow", batch_size=512
    ).map_batches(keypart, batch_format="pyarrow")
    req_ds = cand.map_batches(_request_rows, batch_format="pyarrow").map_batches(
        keypart, batch_format="pyarrow"
    )
    sided = partitioned_map_groups(sh_ds.union(req_ds), _attach_shingles_part)
    return partitioned_map_groups(
        sided.map_batches(pairpart, batch_format="pyarrow"), _pair_jaccard_part
    )


def neardup_ngram_jaccard(sf_dir: str) -> pa.Table:
    """Near-duplicate pairs with word-3-shingle Jaccard >= 0.8: MinHash-LSH
    candidates, EXACT verification — all stages Ray Data (no driver-side
    pair sets or text reads).

    Verification is a distributed repartition join: candidate pairs explode
    into per-doc request rows, union with the per-doc shingle-set table,
    groupby(doc_id) attaches each side's set, groupby(a, b) computes the
    exact Jaccard.  Shuffle volume is O(corpus shingle sets) + O(candidate
    pairs x set size) — bounded by the duplicate rate, never all-pairs."""
    verified = _verified_pairs_ds(sf_dir)
    parts = list(verified.iter_batches(batch_format="pyarrow", batch_size=None))
    j = (
        pa.concat_tables(parts)
        if parts
        else pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
        ).empty_table()
    )
    j = j.filter(pc.greater_equal(j["jaccard"], JACCARD_TAU))
    j = j.set_column(2, "jaccard", pc.round(j["jaccard"], 6))
    return j.sort_by([("a", "ascending"), ("b", "ascending")])


def oracle_neardup_ngram_jaccard() -> str:
    return f"""
WITH toks AS (SELECT doc_id, string_split(lower(text), ' ') w FROM documents),
sh AS (SELECT doc_id,
              list_distinct([w[i]||' '||w[i+1]||' '||w[i+2]
                             for i in generate_series(1, len(w)-2)]) s
       FROM toks),
pairs AS (
  SELECT a.doc_id a, b.doc_id b,
         len(list_intersect(a.s, b.s))::DOUBLE
           / len(list_distinct(list_concat(a.s, b.s))) j
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
SELECT a, b, ROUND(j, 6) AS jaccard FROM pairs WHERE j >= {JACCARD_TAU}
ORDER BY a, b
"""


def dedup_minhash(sf_dir: str) -> pa.Table:
    """Kept doc_ids: drop every doc that has a SMALLER verified near-dup
    (deterministic, SQL-expressible alternative to connected components).

    The drop set is bounded by the duplicate rate (small side), so it is
    broadcast once via ``ray.put`` and anti-joined inside ``map_batches``
    with a vectorized ``np.isin`` mask — the id column streams, nothing is
    materialized on the driver except the final (output-bounded) result."""
    import ray

    dup = neardup_ngram_jaccard(sf_dir)
    dropped_ref = ray.put(np.unique(dup["b"].to_numpy()))
    ds = _read_documents(sf_dir, ["doc_id"])

    def keep(batch: pa.Table) -> pa.Table:
        dropped = ray.get(dropped_ref)  # zero-copy plasma read per task
        mask = ~np.isin(batch["doc_id"].to_numpy(zero_copy_only=False), dropped)
        return batch.filter(pa.array(mask))

    parts = list(
        ds.map_batches(keep, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    t = pa.concat_tables(parts) if parts else pa.table({"doc_id": pa.array([], pa.int64())})
    return t.sort_by("doc_id")


def oracle_dedup_minhash() -> str:
    return f"""
WITH toks AS (SELECT doc_id, string_split(lower(text), ' ') w FROM documents),
sh AS (SELECT doc_id,
              list_distinct([w[i]||' '||w[i+1]||' '||w[i+2]
                             for i in generate_series(1, len(w)-2)]) s
       FROM toks),
dropped AS (
  SELECT DISTINCT b.doc_id
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE len(list_intersect(a.s, b.s))::DOUBLE
          / len(list_distinct(list_concat(a.s, b.s))) >= {JACCARD_TAU})
SELECT doc_id FROM documents WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Near-dup clustering (connected components by iterative min-label
# propagation — all-Dataset, no driver-side graph)
# ---------------------------------------------------------------------------

_MSG_SCHEMA = pa.schema([("key", pa.int64()), ("dst", pa.int64()), ("label", pa.int64())])


_CC_LABELS_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])


def _cc_join_min_part(part: pa.Table) -> pa.Table:
    """All keys of one partition at once: label rows (dst < 0, one per
    node) join to edge/request rows via a sorted-key searchsorted lookup;
    every label row also messages its own key.  Emits PARTIAL per-node
    label minima via one sort + minimum.reduceat — no per-key Python call
    crosses the Ray group machinery (see functions/partition.py)."""
    key = part["key"].to_numpy(zero_copy_only=False)
    dst = part["dst"].to_numpy(zero_copy_only=False)
    lab = part["label"].to_numpy(zero_copy_only=False)
    is_lab = dst < 0
    lidx = np.flatnonzero(is_lab)
    if lidx.size == 0:
        return _CC_LABELS_SCHEMA.empty_table()
    ridx = np.flatnonzero(~is_lab)
    lorder = np.argsort(key[lidx], kind="stable")
    lkeys = key[lidx][lorder]
    lvals = lab[lidx][lorder]
    if ridx.size:
        rk = key[ridx]
        pos = np.minimum(np.searchsorted(lkeys, rk), lkeys.size - 1)
        match = lkeys[pos] == rk
        msg_dst = np.concatenate([dst[ridx][match], lkeys])
        msg_lab = np.concatenate([lvals[pos[match]], lvals])
    else:
        msg_dst, msg_lab = lkeys, lvals
    o = np.argsort(msg_dst, kind="stable")
    d, l = msg_dst[o], msg_lab[o]
    starts = np.concatenate(([0], np.flatnonzero(d[1:] != d[:-1]) + 1))
    return pa.table(
        {
            "node": pa.array(d[starts], pa.int64()),
            "label": pa.array(np.minimum.reduceat(l, starts), pa.int64()),
        },
        schema=_CC_LABELS_SCHEMA,
    )


def _cc_global_min(ds, P: int):
    """(node, label) partials -> exact per-node min labels (node-keyed
    partition pass + Arrow C++ group_by)."""

    def nodepart(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False)
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(nodes.astype(np.uint64), P))
        )

    def minpart(part: pa.Table) -> pa.Table:
        g = arrow_group_aggregate(part, "node", [("label", "min")])
        return pa.table(
            {"node": g["node"], "label": g["label_min"]}, schema=_CC_LABELS_SCHEMA
        )

    return partitioned_map_groups(
        ds.map_batches(nodepart, batch_format="pyarrow"), minpart
    )


def _cc_messages_min(msgs, P: int):
    """(key, dst, label) message Dataset -> per-node min of delivered
    labels: key-partitioned join, then node-partitioned global min."""

    def keypart(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(k.astype(np.uint64), P))
        )

    partials = partitioned_map_groups(
        msgs.map_batches(keypart, batch_format="pyarrow"), _cc_join_min_part
    )
    return _cc_global_min(partials, P)


def _cc_shortcut(labels):
    """One pointer-jumping hop: new_label(n) = label(label(n)).  The same
    union+groupby repartition-join trick as message passing — request rows
    keyed by the CURRENT label, label rows keyed by node."""

    def request_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {"key": b["label"], "dst": b["node"], "label": pa.array(np.full(len(b), -1), pa.int64())},
            schema=_MSG_SCHEMA,
        )

    def label_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {"key": b["node"], "dst": pa.array(np.full(len(b), -1), pa.int64()), "label": b["label"]},
            schema=_MSG_SCHEMA,
        )

    return _cc_messages_min(
        labels.map_batches(request_rows, batch_format="pyarrow").union(
            labels.map_batches(label_rows, batch_format="pyarrow")
        ),
        num_partitions_default(),
    )


def _cc_min_label(edges, max_iters: int = 50):
    """Connected components over a symmetric edge Dataset (src:int64,
    dst:int64) by iterative min-label propagation WITH pointer jumping:
    every node's label starts as min(self, neighbors); each round takes
    the min over neighbors' labels and then shortcuts through
    label(label(n)), so convergence needs O(log diameter) rounds (a
    1000-hop dup chain converges in ~10 rounds, not 1000).  Terminates
    when the monotonically decreasing label sum is stable; raises if
    ``max_iters`` rounds aren't enough rather than returning wrong
    labels.  The labels table is bounded by the number of nodes that
    appear in any pair (duplicate-rate bounded), never the corpus."""

    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch["src"],
                "label": pc.min_element_wise(batch["src"], batch["dst"]),
            }
        )

    P = num_partitions_default()
    labels = _cc_global_min(
        edges.map_batches(init_labels, batch_format="pyarrow"), P
    ).materialize()
    prev_sum = None
    for _ in range(max_iters):
        edge_rows = edges.map_batches(
            lambda b: pa.table(
                {
                    "key": b["src"],
                    "dst": b["dst"],
                    "label": pa.array(np.full(len(b), -1), pa.int64()),
                },
                schema=_MSG_SCHEMA,
            ),
            batch_format="pyarrow",
        )
        label_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "key": b["node"],
                    "dst": pa.array(np.full(len(b), -1), pa.int64()),
                    "label": b["label"],
                },
                schema=_MSG_SCHEMA,
            ),
            batch_format="pyarrow",
        )
        neighbor_min = _cc_messages_min(edge_rows.union(label_rows), P)
        labels = _cc_shortcut(neighbor_min).materialize()
        s = labels.sum("label")
        if s == prev_sum:  # labels only decrease; a stable sum is convergence
            return labels
        prev_sum = s
    raise RuntimeError(
        f"connected components did not converge in {max_iters} rounds "
        "(pointer jumping makes this 2^rounds-diameter coverage; "
        "check the edge table for corruption)"
    )


def neardup_clusters(sf_dir: str) -> pa.Table:
    """(doc_id, cluster_id) for every doc in at least one verified near-dup
    pair; cluster_id = min doc_id of its connected component in the
    near-dup graph.  The canonical dedup-at-scale output: keep one doc per
    cluster, drop the rest — unlike pairwise dedup this collapses chains
    (a~b, b~c puts a,c in one cluster even when a!~c directly).

    Fully distributed: verified pairs stay a Dataset, components come from
    iterative min-label propagation (two node-keyed shuffles per round,
    rounds = component diameter); the driver sees only the final
    (duplicate-rate-bounded) labels."""

    def pair_edges(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater_equal(batch["jaccard"], JACCARD_TAU))
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    # materialized once: the edge table is duplicate-rate bounded and is
    # re-read every propagation round (otherwise each round would re-run
    # the whole LSH + verify pipeline upstream)
    edges = (
        _verified_pairs_ds(sf_dir)
        .map_batches(pair_edges, batch_format="pyarrow")
        .materialize()
    )
    if edges.count() == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    labels = _cc_min_label(edges)
    parts = list(labels.iter_batches(batch_format="pyarrow", batch_size=None))
    t = pa.concat_tables(parts)
    t = pa.table({"doc_id": t["node"], "cluster_id": t["label"]})
    return t.sort_by("doc_id")


def oracle_neardup_clusters() -> str:
    return f"""
WITH RECURSIVE
toks AS (SELECT doc_id, string_split(lower(text), ' ') w FROM documents),
sh AS (SELECT doc_id,
              list_distinct([w[i]||' '||w[i+1]||' '||w[i+2]
                             for i in generate_series(1, len(w)-2)]) s
       FROM toks),
pairs AS (
  SELECT a.doc_id a, b.doc_id b
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE len(list_intersect(a.s, b.s))::DOUBLE
          / len(list_distinct(list_concat(a.s, b.s))) >= {JACCARD_TAU}),
edges AS (
  SELECT a x, b y FROM pairs UNION SELECT b, a FROM pairs
  UNION SELECT a, a FROM pairs UNION SELECT b, b FROM pairs),
reach(n, m) AS (
  SELECT x, y FROM edges
  UNION
  SELECT r.n, e.y FROM reach r JOIN edges e ON r.m = e.x)
SELECT n AS doc_id, MIN(m) AS cluster_id FROM reach GROUP BY n
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Quality filtering (the Gopher-rules pattern: drop documents failing
# cheap length/ratio heuristics before expensive pipeline stages)
# ---------------------------------------------------------------------------

QF_MIN_TOKENS = 20
QF_MAX_TOKENS = 100_000
QF_MIN_MEAN_WLEN = 2.0
QF_MAX_MEAN_WLEN = 12.0
QF_MAX_SYMBOL_RATIO = 0.3


def filter_quality(sf_dir: str, collect: bool = True):
    """Documents passing the quality rules, with per-rule flags —
    Gopher-style heuristic filtering (Rae et al. 2021 §A1.1: word-count
    bounds, mean-word-length bounds, symbol-to-word ratio), vectorized
    Arrow kernels per batch, SQL-parity formulas.

    Output: (doc_id, n_tokens, mean_word_len, symbol_ratio, keep) for
    every doc — a downstream pipeline filters ``keep`` and joins nothing.
    Map-only: no shuffle, streams at any scale."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def rules(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").combine_chunks()
        words = pc.split_pattern(pc.utf8_lower(texts), " ")
        n_tok = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        wlens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.zeros(n_tok.size, dtype=np.int64)
        np.cumsum(n_tok[:-1], out=starts[1:])
        ml = np.round(np.add.reduceat(wlens, starts) / n_tok, 6)
        n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
        n_sym = (
            n_chars
            - pc.count_substring_regex(pc.utf8_lower(texts), pattern=r"[a-z0-9 ]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        sym_ratio = np.round(n_sym / np.maximum(n_chars, 1), 6)
        keep = (
            (n_tok >= QF_MIN_TOKENS)
            & (n_tok <= QF_MAX_TOKENS)
            & (ml >= QF_MIN_MEAN_WLEN)
            & (ml <= QF_MAX_MEAN_WLEN)
            & (sym_ratio <= QF_MAX_SYMBOL_RATIO)
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "mean_word_len": pa.array(ml, pa.float64()),
                "symbol_ratio": pa.array(sym_ratio, pa.float64()),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    out = ds.map_batches(rules, batch_format="pyarrow")
    return _collect_sorted(out, "doc_id", collect)


def oracle_filter_quality() -> str:
    return f"""
WITH w AS (SELECT doc_id, text, string_split(lower(text), ' ') words FROM documents),
s AS (
  SELECT doc_id,
         len(words)::BIGINT n_tokens,
         ROUND(list_sum(list_transform(words, x -> len(x)))::DOUBLE / len(words), 6) ml,
         length(text)::BIGINT n_chars,
         (length(text) - len(regexp_extract_all(lower(text), '[a-z0-9 ]')))::BIGINT n_sym
  FROM w)
SELECT doc_id, n_tokens,
       ml AS mean_word_len,
       ROUND(n_sym::DOUBLE / GREATEST(n_chars, 1), 6) AS symbol_ratio,
       (n_tokens >= {QF_MIN_TOKENS} AND n_tokens <= {QF_MAX_TOKENS}
        AND ml >= {QF_MIN_MEAN_WLEN} AND ml <= {QF_MAX_MEAN_WLEN}
        AND ROUND(n_sym::DOUBLE / GREATEST(n_chars, 1), 6) <= {QF_MAX_SYMBOL_RATIO}) AS keep
FROM s ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

SAMPLE_PER_SOURCE = 5


def _md5_rank_key(doc_ids: np.ndarray) -> list:
    return [hashlib.md5(str(d).encode()).hexdigest() for d in doc_ids.tolist()]


def stratified_sample(sf_dir: str, n: int = SAMPLE_PER_SOURCE) -> pa.Table:
    """Deterministic stratified sample: the ``n`` docs per ``source`` whose
    md5(doc_id) sorts lowest — an unbiased, reproducible pick (hash order
    is independent of ingestion order, unlike a head-n) used to draw
    balanced eval/inspection sets from a skewed corpus.

    Distributed top-n-per-key: each batch keeps its local n best per
    source (map-side combine), the per-source groupby merges partials —
    shuffle volume is batches x n per source, never the corpus."""

    def local_top(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        src = batch["source"].to_numpy(zero_copy_only=False)
        keys = np.array(_md5_rank_key(ids))
        keep = np.zeros(ids.size, dtype=bool)
        for s in np.unique(src):
            m = np.flatnonzero(src == s)
            keep[m[np.argsort(keys[m], kind="stable")[:n]]] = True
        return batch.filter(pa.array(keep))

    def final_top(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        keys = np.array(_md5_rank_key(ids))
        order = np.argsort(keys, kind="stable")[:n]
        return group.take(pa.array(np.sort(order), pa.int64()))

    ds = _read_documents(sf_dir, ["doc_id", "source"])
    out = (
        ds.map_batches(local_top, batch_format="pyarrow")
        .groupby("source")
        .map_groups(final_top, batch_format="pyarrow")
    )
    parts = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    t = (
        pa.concat_tables(parts)
        if parts
        else pa.table({"doc_id": pa.array([], pa.int64()), "source": pa.array([], pa.string())})
    )
    return t.select(["source", "doc_id"]).sort_by(
        [("source", "ascending"), ("doc_id", "ascending")]
    )


def oracle_stratified_sample() -> str:
    return f"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) rn
  FROM documents)
WHERE rn <= {SAMPLE_PER_SOURCE}
ORDER BY source, doc_id
"""


# ---------------------------------------------------------------------------
# SimHash (rows-only check: bit-twiddling isn't reasonable ANSI SQL)
# ---------------------------------------------------------------------------


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (numpy<2 has no bitwise_count)."""
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)


def simhash_batch(batch: pa.Table) -> pa.Table:
    """Stateless vectorized map_batches stage: documents batch ->
    (doc_id, simhash).  64-bit SimHash over word features (weight = term
    frequency): md5-derived hash per UNIQUE word, per-token +-1 bit contributions
    accumulated per doc with one ``np.add.at`` — bit-identical to the
    per-doc Counter formulation."""
    n_docs = len(batch)
    flat, counts = _split_lower(batch["text"])
    denc = pc.dictionary_encode(flat)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uwords = denc.dictionary.to_pylist()
    # word hash = upper 8 md5 bytes little-endian == DuckDB md5_number_lower,
    # so the whole fingerprint is SQL-reproducible (oracle below)
    uh = np.array(
        [
            int.from_bytes(hashlib.md5(w.encode()).digest()[8:], "little")
            for w in uwords
        ],
        dtype=np.uint64,
    )
    # (-1|+1)^bit matrix per unique word
    bits = ((uh[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int8)
    sign = (2 * bits - 1).astype(np.int32)  # (nu, 64)
    acc = np.zeros((n_docs, 64), dtype=np.int64)
    if codes.size:
        row_idx = np.repeat(np.arange(n_docs), counts)
        np.add.at(acc, row_idx, sign[codes])
    fp = ((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(axis=1)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            # two's complement int64 for parquet/shuffle friendliness
            "simhash": pa.array(fp.astype(np.int64)),
        }
    )


def simhash_fingerprints(sf_dir: str, collect: bool = True):
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(simhash_batch, batch_format="pyarrow", batch_size=512)
    return _collect_sorted(out, "doc_id", collect)


def simhash_neardup_pairs(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """Pairs within Hamming distance <= k via the pigeonhole trick: split 64
    bits into k+1 bands; a pair within distance k must agree on >= 1 band.

    Fully distributed: fingerprints explode into (band, band_val) rows that
    groupby-shuffle into buckets; each bucket VERIFIES its candidate pairs
    in place (both signatures are in the group) with a vectorized xor +
    popcount; cross-band duplicates collapse in an (a, b) groupby.  The
    driver only sees verified pairs (output-bounded)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    sigs = ds.map_batches(simhash_batch, batch_format="pyarrow", batch_size=512)
    nb = max_hamming + 1
    width = 64 // nb

    def band_explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hs = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bands = np.arange(nb, dtype=np.uint64)
        vals = (hs[:, None] >> (bands * np.uint64(width))) & np.uint64((1 << width) - 1)
        return pa.table(
            {
                "band": pa.array(np.tile(bands.astype(np.int32), ids.size)),
                "band_val": pa.array(vals.reshape(-1).astype(np.int64), pa.int64()),
                "doc_id": pa.array(np.repeat(ids, nb), pa.int64()),
                "simhash": pa.array(np.repeat(hs, nb).astype(np.int64), pa.int64()),
            }
        )

    P = num_partitions_default()

    def bandpart(batch: pa.Table) -> pa.Table:
        t = band_explode(batch)
        band = t["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bv = t["band_val"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            key = mix64(bv) ^ band * _BAND_MIX
        return t.add_column(0, PART_COL, pa.array(partition_ids(key, P)))

    _OUT = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("hamming", pa.int64())])

    def part_verified_pairs(part: pa.Table) -> pa.Table:
        # all buckets of the partition at once: vectorized bucket
        # discovery; triu + popcount verify only inside dup buckets
        band = part["band"].to_numpy(zero_copy_only=False).astype(np.int64)
        bv = part["band_val"].to_numpy(zero_copy_only=False)
        ids = part["doc_id"].to_numpy(zero_copy_only=False)
        hs = part["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids, bv, band))
        band, bv, ids, hs = band[order], bv[order], ids[order], hs[order]
        n = ids.size
        newgrp = (band[1:] != band[:-1]) | (bv[1:] != bv[:-1])
        starts = np.concatenate(([0], np.flatnonzero(newgrp) + 1))
        sizes = np.diff(np.concatenate((starts, [n])))
        dup = sizes > 1
        out_a: list = []
        out_b: list = []
        out_h: list = []
        for s, z in zip(starts[dup], sizes[dup]):
            gi, gh = ids[s : s + z], hs[s : s + z]
            iu, ju = np.triu_indices(int(z), 1)
            ham = _popcount64(gh[iu] ^ gh[ju])
            ok = ham <= max_hamming
            out_a.append(gi[iu][ok])
            out_b.append(gi[ju][ok])
            out_h.append(ham[ok])
        if not out_a:
            return _OUT.empty_table()
        rec = np.unique(
            np.rec.fromarrays(
                [np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_h)],
                names="a,b,h",
            )
        )
        return pa.table(
            {
                "a": pa.array(rec["a"], pa.int64()),
                "b": pa.array(rec["b"], pa.int64()),
                "hamming": pa.array(rec["h"], pa.int64()),
            },
            schema=_OUT,
        )

    def pairpart(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return batch.add_column(0, PART_COL, pa.array(_pair_partition_ids(a, b, P)))

    def distinct_with_ham(part: pa.Table) -> pa.Table:
        rec = np.unique(
            np.rec.fromarrays(
                [
                    part["a"].to_numpy(zero_copy_only=False),
                    part["b"].to_numpy(zero_copy_only=False),
                    part["hamming"].to_numpy(zero_copy_only=False),
                ],
                names="a,b,h",
            )
        )
        return pa.table(
            {
                "a": pa.array(rec["a"], pa.int64()),
                "b": pa.array(rec["b"], pa.int64()),
                "hamming": pa.array(rec["h"], pa.int64()),
            },
            schema=_OUT,
        )

    pairs = partitioned_map_groups(
        partitioned_map_groups(
            sigs.map_batches(bandpart, batch_format="pyarrow"), part_verified_pairs
        ).map_batches(pairpart, batch_format="pyarrow"),
        distinct_with_ham,
    )
    parts = list(pairs.iter_batches(batch_format="pyarrow", batch_size=None))
    t = (
        pa.concat_tables(parts)
        if parts
        else pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("hamming", pa.int64())]
        ).empty_table()
    )
    return t.select(["a", "b", "hamming"]).sort_by(
        [("a", "ascending"), ("b", "ascending")]
    )


_SIMHASH_FP_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(lower(text), ' ')) AS w
  FROM documents
),
th AS (SELECT doc_id, md5_number_lower(w) AS h FROM toks),
bits AS (
  SELECT doc_id, i,
         SUM(CASE WHEN (h >> i) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS i) g
  GROUP BY doc_id, i
),
fp AS (
  SELECT doc_id,
         SUM(CASE WHEN s > 0 THEN CAST(1 AS HUGEINT) << i
                  ELSE CAST(0 AS HUGEINT) END) AS u
  FROM bits GROUP BY doc_id
)
SELECT doc_id,
       CAST(CASE WHEN u >= CAST(1 AS HUGEINT) << 63
                 THEN u - (CAST(1 AS HUGEINT) << 64) ELSE u END AS BIGINT)
         AS simhash
FROM fp
"""


def oracle_simhash_fingerprints() -> str:
    """The SimHash spec is fully SQL-reproducible: the word hash is the
    upper 8 md5 bytes little-endian == DuckDB ``md5_number_lower``, the
    tokenization is ``lower().split(' ')`` == ``string_split(lower(text))``,
    and the bit vote / two's-complement packing are plain integer ops."""
    return f"{_SIMHASH_FP_SQL} ORDER BY doc_id"


def oracle_simhash_neardup_pairs(max_hamming: int = 8) -> str:
    """All-pairs xor+popcount over the SQL-computed fingerprints.  The
    pigeonhole banding in ``simhash_neardup_pairs`` has recall 1.0 by
    construction, so the naive oracle matches exactly."""
    return f"""
WITH f AS ({_SIMHASH_FP_SQL})
SELECT a.doc_id a, b.doc_id b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM f a JOIN f b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
ORDER BY a, b
"""


# ---------------------------------------------------------------------------
# text analysis: stats, quality, token counts, fingerprint, language ID
# ---------------------------------------------------------------------------

STOPSET = (
    "a an and are as at be by for from has he in is it its of on that the to was were will with"
).split()


_STOPLIST_ARR = None


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """Stateless vectorized text-stats kernel (see text_stats)."""
    global _STOPLIST_ARR
    if _STOPLIST_ARR is None:
        _STOPLIST_ARR = pa.array(list(STOPSET), pa.string())
    texts = batch.column("text").combine_chunks()
    words = pc.split_pattern(pc.utf8_lower(texts), " ")
    n_tok = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(words)
    wlens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    is_stop = pc.is_in(flat, value_set=_STOPLIST_ARR).to_numpy(zero_copy_only=False)
    starts = np.zeros(n_tok.size, dtype=np.int64)
    np.cumsum(n_tok[:-1], out=starts[1:])
    # split of any string (even "") yields >= 1 token, so every segment is
    # non-empty and reduceat is well-defined
    sum_len = np.add.reduceat(wlens, starts)
    n_stop = np.add.reduceat(is_stop.astype(np.int64), starts)
    ml = np.round(sum_len / n_tok, 6)
    sr_raw = n_stop / n_tok
    sr = np.round(sr_raw, 6)
    # quality: long-enough docs with moderate stopword rate score high
    qual = np.round(np.minimum(n_tok / 50.0, 1.0) * (1.0 - np.abs(sr_raw - 0.4)), 6)
    n_bpe = pc.count_substring_regex(texts, pattern=r"\w+|[^\w\s]")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_bpe_tokens": n_bpe.cast(pa.int64()),
            "mean_word_len": pa.array(ml, pa.float64()),
            "stopword_ratio": pa.array(sr, pa.float64()),
            "quality": pa.array(qual, pa.float64()),
        }
    )


def text_stats(sf_dir: str, collect: bool = True):
    """Per-doc: whitespace token count, regex (BPE-ish) token count, mean
    word length, stopword ratio, quality score — all vectorized per batch
    (Arrow split/length/is_in kernels + np.add.reduceat over the flattened
    word list), SQL-parity formulas."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(text_stats_batch, batch_format="pyarrow")
    return _collect_sorted(out, "doc_id", collect)


def oracle_text_stats() -> str:
    stops = ", ".join(f"'{w}'" for w in STOPSET)
    return f"""
WITH w AS (SELECT doc_id, text, string_split(lower(text), ' ') words FROM documents),
s AS (
  SELECT doc_id,
         len(words)::BIGINT n_tokens,
         len(regexp_extract_all(text, '\\w+|[^\\w\\s]'))::BIGINT n_bpe_tokens,
         list_sum(list_transform(words, x -> len(x)))::DOUBLE / len(words) ml,
         len(list_filter(words, x -> x IN ({stops})))::DOUBLE / len(words) sr
  FROM w)
SELECT doc_id, n_tokens, n_bpe_tokens,
       ROUND(ml, 6) AS mean_word_len,
       ROUND(sr, 6) AS stopword_ratio,
       ROUND(LEAST(n_tokens / 50.0, 1.0) * (1.0 - ABS(sr - 0.4)), 6) AS quality
FROM s ORDER BY doc_id
"""


def fingerprint_docs(sf_dir: str, collect: bool = True):
    """Deterministic document fingerprint: md5 of whitespace-normalized
    lowered text (the cross-system-stable exact-dedup key)."""
    import re

    ws = re.compile(r"\s+")
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        out = [
            hashlib.md5(ws.sub(" ", t.lower()).strip().encode()).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table({"doc_id": batch["doc_id"], "fingerprint": pa.array(out)})

    out_ds = ds.map_batches(fp, batch_format="pyarrow")
    return _collect_sorted(out_ds, "doc_id", collect)


def oracle_fingerprint_docs() -> str:
    return """
SELECT doc_id,
       md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fingerprint
FROM documents ORDER BY doc_id
"""


def lang_id(sf_dir: str, collect: bool = True):
    """Stopword-profile language ID over the reference's 14 per-language
    stoplists (lang/stopwords data; the classic stopword-frequency
    method): score = count of tokens in each language's stoplist,
    predict argmax, ties -> alphabetically first language.  Fully
    vectorized: one Arrow split + one is_in/bincount pass per language
    over the flattened token stream."""
    from whoosh_reloaded_ray.functions.lang_stopwords import STOPLISTS

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    langs = sorted(STOPLISTS)
    value_sets = {l: pa.array(sorted(STOPLISTS[l])) for l in langs}

    def predict(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(pc.utf8_lower(batch["text"]), " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = pc.list_flatten(toks)
        n = len(batch)
        row_of = np.repeat(
            np.arange(n), pc.list_value_length(toks).to_numpy()
        )
        scores = np.zeros((n, len(langs)), dtype=np.int64)
        for j, l in enumerate(langs):
            hit = pc.is_in(flat, value_set=value_sets[l]).to_numpy(
                zero_copy_only=False
            )
            scores[:, j] = np.bincount(row_of[hit.astype(bool)], minlength=n)
        best = scores.argmax(axis=1)  # first max = alphabetical tie-break
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": pa.array([langs[j] for j in best]),
                "stop_hits": pa.array(
                    scores[np.arange(n), best], pa.int64()
                ),
            }
        )

    out = ds.map_batches(predict, batch_format="pyarrow")
    return _collect_sorted(out, "doc_id", collect)


def oracle_lang_id() -> str:
    from whoosh_reloaded_ray.functions.lang_stopwords import STOPLISTS

    langs = sorted(STOPLISTS)
    score_cols = ",\n         ".join(
        "len(list_filter(words, x -> x IN ({})))::BIGINT s_{}".format(
            ", ".join("'{}'".format(w.replace("'", "''")) for w in sorted(STOPLISTS[l])), l
        )
        for l in langs
    )
    greatest = "GREATEST({})".format(", ".join(f"s_{l}" for l in langs))
    case = "CASE " + " ".join(
        f"WHEN s_{l} = g THEN '{l}'" for l in langs
    ) + " END"
    return f"""
WITH w AS (SELECT doc_id, string_split(lower(text), ' ') words FROM documents),
s AS (SELECT doc_id, {score_cols} FROM w),
g AS (SELECT *, {greatest} g FROM s)
SELECT doc_id, {case} AS pred_lang, g AS stop_hits FROM g ORDER BY doc_id
"""


# ---- winnowing fingerprints (rolling hash) --------------------------------

WINNOW_K = 5       # k-gram length (chars)
WINNOW_W = 4       # winnowing window (hashes)
WINNOW_B = 31      # polynomial base
WINNOW_M = 2_147_483_647  # modulus (2^31 - 1)


def winnow_fingerprints(sf_dir: str, collect: bool = True):
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken 2003):
    polynomial rolling hashes of the lowered text's char k-grams, then the
    minimum hash of each sliding window of ``WINNOW_W`` hashes; the
    fingerprint is the DISTINCT set of selected hash values (the tie rule
    picks a position, not a value, so the value set is rule-independent).
    Texts yielding fewer than W hashes contribute their single overall
    minimum.  Exploded (doc_id, fp) rows, sorted."""
    return _collect_sorted(
        _winnow_ds(sf_dir), [("doc_id", "ascending"), ("fp", "ascending")], collect
    )


def _winnow_ds(sf_dir: str, k: int = WINNOW_K, w: int = WINNOW_W):
    """Lazy Dataset of exploded (doc_id:int64, fp:int64) winnow rows.

    Coefficients are b^(k-1-j) mod m so large k never overflows int64
    (each term < 2^52, the k-term sum < 2^57; identical values to the
    full-power formula for the default k=5)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    powers = np.array(
        [pow(WINNOW_B, k - 1 - j, WINNOW_M) for j in range(k)], dtype=np.int64
    )

    def fp(batch: pa.Table) -> pa.Table:
        doc_ids, fps = [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            t = (text or "").lower()
            if len(t) < k:
                continue
            codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
            grams = np.lib.stride_tricks.sliding_window_view(codes, k)
            hashes = (grams @ powers) % WINNOW_M
            if hashes.size >= w:
                wmins = np.lib.stride_tricks.sliding_window_view(hashes, w).min(axis=1)
            else:
                wmins = hashes.min(keepdims=True)
            sel = np.unique(wmins)
            doc_ids.extend([did] * sel.size)
            fps.extend(sel.tolist())
        return pa.table(
            {"doc_id": pa.array(doc_ids, pa.int64()), "fp": pa.array(fps, pa.int64())}
        )

    return ds.map_batches(fp, batch_format="pyarrow")


WINNOW_MIN_SHARED = 2
WINNOW_PAIR_K = 20  # long k-grams: a shared fp implies a >= K+W-1 = 27-char
WINNOW_PAIR_W = 8   # common substring, i.e. a genuinely copied passage


_WPAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("n", pa.int64())])


def _winnow_pair_partial(part: pa.Table) -> pa.Table:
    """All fp buckets of one partition -> (a, b, n) PARTIAL shared-fp
    counts.  Per-bucket distinct docs (a doc's winnow can pick the same
    fp at several positions), triu pairs for dup buckets only, then one
    np.unique(return_counts) folds the partition's per-fp pair emissions
    into partial counts — global counts come from summing partials."""
    fp = part["fp"].to_numpy(zero_copy_only=False)
    ids = part["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, fp))
    fp, ids = fp[order], ids[order]
    keep = np.concatenate(([True], (fp[1:] != fp[:-1]) | (ids[1:] != ids[:-1])))
    fp, ids = fp[keep], ids[keep]
    n = ids.size
    newgrp = fp[1:] != fp[:-1]
    starts = np.concatenate(([0], np.flatnonzero(newgrp) + 1))
    sizes = np.diff(np.concatenate((starts, [n])))
    dup = sizes > 1
    out_a: list = []
    out_b: list = []
    for s, z in zip(starts[dup], sizes[dup]):
        g = ids[s : s + z]
        iu, ju = np.triu_indices(int(z), 1)
        out_a.append(g[iu])
        out_b.append(g[ju])
    if not out_a:
        return _WPAIR_SCHEMA.empty_table()
    rec, cnt = np.unique(
        np.rec.fromarrays([np.concatenate(out_a), np.concatenate(out_b)], names="a,b"),
        return_counts=True,
    )
    return pa.table(
        {
            "a": pa.array(rec["a"], pa.int64()),
            "b": pa.array(rec["b"], pa.int64()),
            "n": pa.array(cnt, pa.int64()),
        },
        schema=_WPAIR_SCHEMA,
    )


def winnow_shared_pairs(sf_dir: str, min_shared: int = WINNOW_MIN_SHARED) -> pa.Table:
    """MOSS-style overlap detection: doc pairs sharing >= ``min_shared``
    winnow fingerprints, with the shared count (Schleimer/Wilkerson/Aiken
    2003 §4 — matching fingerprints locate copied/near-copied passages,
    catching partial overlap that whole-doc Jaccard dilutes away).

    Uses LONG k-grams (k=20, window 8): a shared fingerprint implies a
    >= 27-char common substring, so counts reflect copied passages rather
    than the char-5-gram collisions the whole-doc fingerprint op tolerates.

    Distributed: fingerprint rows group by fp value (pair emission is
    per-bucket, like LSH banding), then a (a, b) groupby counts shared
    fingerprints.  Exact — every pair sharing a fingerprint is counted.
    At open-web scale, drop ultra-hot fingerprint buckets (boilerplate
    shared by thousands of docs) before pair emission, exactly like the
    LSH hot-bucket guard; long-k buckets in the sf corpora are dup-sized,
    so the gate path is uncapped."""
    P = num_partitions_default()

    def fppart(batch: pa.Table) -> pa.Table:
        f = batch["fp"].to_numpy(zero_copy_only=False)
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(f.astype(np.uint64), P))
        )

    def pairpart(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return batch.add_column(0, PART_COL, pa.array(_pair_partition_ids(a, b, P)))

    def sum_pairs(part: pa.Table) -> pa.Table:
        return arrow_group_aggregate(part, ["a", "b"], [("n", "sum")])

    pairs = partitioned_map_groups(
        _winnow_ds(sf_dir, k=WINNOW_PAIR_K, w=WINNOW_PAIR_W).map_batches(
            fppart, batch_format="pyarrow"
        ),
        _winnow_pair_partial,
    )
    counted = partitioned_map_groups(
        pairs.map_batches(pairpart, batch_format="pyarrow"), sum_pairs
    )

    def finish(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": batch["a"],
                "b": batch["b"],
                "n_shared": batch["n_sum"].cast(pa.int64()),
            }
        )
        return t.filter(pc.greater_equal(t["n_shared"], min_shared))

    parts = list(
        counted.map_batches(finish, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    t = (
        pa.concat_tables(parts)
        if parts
        else pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("n_shared", pa.int64())]
        ).empty_table()
    )
    return t.sort_by([("a", "ascending"), ("b", "ascending")])


def oracle_winnow_shared_pairs() -> str:
    k, w, b, m = WINNOW_PAIR_K, WINNOW_PAIR_W, WINNOW_B, WINNOW_M
    # modular coefficients keep every term < 2^52 (no BIGINT overflow);
    # ord() is INT32 in DuckDB, so cast before the multiply
    gram = " + ".join(
        f"ord(substr(t, i + {j}, 1))::BIGINT * {pow(b, k - 1 - j, m)}" for j in range(k)
    )
    return f"""
WITH lowered AS (
  SELECT doc_id, lower(text) AS t FROM documents WHERE length(text) >= {k}
),
hashed AS (
  SELECT doc_id,
         list_transform(generate_series(1, length(t) - {k} + 1),
                        i -> ({gram}) % {m}) AS hs
  FROM lowered
),
winnowed AS (
  SELECT doc_id,
         CASE WHEN len(hs) >= {w}
              THEN list_transform(generate_series(1, len(hs) - {w} + 1),
                                  p -> list_aggregate(hs[p:p + {w} - 1], 'min'))
              ELSE [list_aggregate(hs, 'min')]
         END AS wmins
  FROM hashed
),
fps AS (SELECT DISTINCT doc_id, unnest(wmins) AS fp FROM winnowed)
SELECT f1.doc_id AS a, f2.doc_id AS b, COUNT(*)::BIGINT AS n_shared
FROM fps f1 JOIN fps f2 ON f1.fp = f2.fp AND f1.doc_id < f2.doc_id
GROUP BY 1, 2 HAVING COUNT(*) >= {WINNOW_MIN_SHARED}
ORDER BY a, b
"""


def oracle_winnow_fingerprints() -> str:
    k, w, b, m = WINNOW_K, WINNOW_W, WINNOW_B, WINNOW_M
    gram = " + ".join(
        f"ord(substr(t, i + {j}, 1)) * {b ** (k - 1 - j)}" for j in range(k)
    )
    return f"""
WITH lowered AS (
  SELECT doc_id, lower(text) AS t FROM documents WHERE length(text) >= {k}
),
hashed AS (
  SELECT doc_id,
         list_transform(generate_series(1, length(t) - {k} + 1),
                        i -> ({gram}) % {m}) AS hs
  FROM lowered
),
winnowed AS (
  SELECT doc_id,
         CASE WHEN len(hs) >= {w}
              THEN list_transform(generate_series(1, len(hs) - {w} + 1),
                                  p -> list_aggregate(hs[p:p + {w} - 1], 'min'))
              ELSE [list_aggregate(hs, 'min')]
         END AS wmins
  FROM hashed
)
SELECT DISTINCT doc_id, unnest(wmins) AS fp
FROM winnowed ORDER BY doc_id, fp
"""
