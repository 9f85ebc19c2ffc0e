"""Similarity search over the ``embeddings`` table (vec_id, embedding
list<float>, label).

Exact brute-force cosine top-k is the baseline: the query matrix is
``ray.put`` ONCE and every ``map_batches`` task reads it from the object
store (broadcast, not per-batch reship); each task computes a float64
matmul against its batch and emits only its LOCAL top-k rows per query, so
the driver merge sees num_blocks x k rows regardless of corpus size.

The scale path is IVF: a deterministic k-means coarse quantizer (driver
trains on a sample, centroids broadcast), cluster assignment as a stateless
map, and queries probing only the ``nprobe`` nearest clusters — recall is
checked against brute force in tests (approximate => no SQL oracle).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def _emb_matrix(col, dtype=np.float64) -> np.ndarray:
    """Zero-copy list<float> embedding column -> (n, dim) matrix: flatten
    the ListArray values buffer and reshape — no per-row Python conversion
    (``to_pylist`` costs one PyObject per float; on a 768-dim batch that
    dwarfs the matmul it feeds)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype)
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    assert flat.size % n == 0, "ragged embedding column"
    return np.asarray(flat, dtype=dtype).reshape(n, flat.size // n)


def _read_embeddings(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=columns
    )


def _query_matrix(sf_dir: str, n_queries: int):
    """The benchmark query set = the ``n_queries`` smallest vec_ids.

    Pruned reads only: row-group MIN statistics select the (usually one)
    row group that can contain the n smallest ids — the driver reads only
    those row groups' id column, never the full id column — then a
    filtered read fetches just those embeddings.  (In a real deployment
    the query set is an input, not derived from the corpus.)"""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    pf = pq.ParquetFile(path)
    md = pf.metadata
    leaf = next(
        i
        for i in range(md.num_columns)
        if md.schema.column(i).path.split(".")[0] == "vec_id"
    )
    rg_mins = sorted(
        (md.row_group(i).column(leaf).statistics.min, i)
        for i in range(md.num_row_groups)
    )
    got = np.empty(0, dtype=np.int64)
    for mn, i in rg_mins:
        if got.size >= n_queries and mn > np.partition(got, n_queries - 1)[n_queries - 1]:
            break
        ids = pf.read_row_group(i, columns=["vec_id"])["vec_id"].to_numpy()
        got = np.concatenate([got, ids])
    qids = np.sort(got)[:n_queries].tolist()
    t = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "in", qids)]
    ).sort_by("vec_id")
    return qids, _emb_matrix(t["embedding"])


def ann_cosine_topk(sf_dir: str, n_queries: int = 5, k: int = 10) -> pa.Table:
    """Exact cosine top-k for each query vector (self excluded).

    Output: (qid, vec_id, sim_r, rank) — sims rounded to 4dp, rank by
    (rounded sim desc, vec_id asc) so the ordering is reproducible across
    float implementations."""
    import ray

    qids, Q = _query_matrix(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    q_ref = ray.put((qids, Qn))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids_, Qn_ = ray.get(q_ref)
        ids = batch["vec_id"].to_numpy()
        X = _emb_matrix(batch["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        S = Qn_ @ Xn.T  # (nq, batch)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(qids_):
            sims = S[qi]
            mask = ids != qid
            cand = np.flatnonzero(mask)
            top = cand[np.argsort(-sims[cand], kind="stable")[: k]]
            out_q.extend([qid] * top.size)
            out_v.extend(ids[top].tolist())
            out_s.extend(sims[top].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = _read_embeddings(sf_dir, ["vec_id", "embedding"])
    parts = [
        b
        for b in ds.map_batches(partial_topk, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    ]
    t = pa.concat_tables(parts)
    # driver merge: num_blocks x k rows -> final top-k per query
    import pyarrow.compute as pc

    t = t.set_column(2, "sim_r", pc.round(t["sim"], 4))
    rows = []
    for qid in qids:
        sub = t.filter(pc.equal(t["qid"], qid))
        s = sub["sim_r"].to_numpy()
        v = sub["vec_id"].to_numpy()
        order = np.lexsort((v, -s))[:k]
        for rank, i in enumerate(order, 1):
            rows.append((qid, int(v[i]), float(s[i]), rank))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "sim_r": pa.array([r[2] for r in rows], pa.float64()),
            "rank": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def oracle_ann_cosine_topk(n_queries: int = 5, k: int = 10) -> str:
    return f"""
WITH q AS (
  SELECT vec_id qid, CAST(embedding AS DOUBLE[]) qe FROM embeddings
  ORDER BY vec_id LIMIT {n_queries}
),
sims AS (
  SELECT q.qid, e.vec_id,
         ROUND(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])), 4) AS sim_r
  FROM q JOIN embeddings e ON e.vec_id != q.qid
),
ranked AS (
  SELECT qid, vec_id, sim_r,
         ROW_NUMBER() OVER (PARTITION BY qid ORDER BY sim_r DESC, vec_id) AS rank
  FROM sims)
SELECT qid, vec_id, sim_r, rank FROM ranked WHERE rank <= {k}
ORDER BY qid, rank
"""


def neardup_embedding_pairs(
    sf_dir: str, tau: float = 0.4, exact_max_rows: int = 100_000
) -> pa.Table:
    """All pairs with cosine >= tau.

    SIZE-GATED: at or below ``exact_max_rows`` (counted from parquet
    metadata, no data read) this runs the exact blocked matmul — the full
    normalized matrix broadcast once via ray.put, each task emitting only
    its rows' qualifying pairs.  ABOVE the gate it auto-routes to the
    LSH-bucketed verify (``neardup_embedding_pairs_lsh``) — the declared
    scale mode: band buckets co-locate candidates, verification is a small
    in-bucket matmul, no O(N^2) pass and no full-matrix broadcast.  Exact
    mode is retained under the gate as the small-N oracle path (the DuckDB
    gate runs at sf<=0.1, well below it)."""
    import ray
    import pyarrow.compute as pc

    import pyarrow.parquet as pq

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    if pq.ParquetFile(emb_path).metadata.num_rows > exact_max_rows:
        return neardup_embedding_pairs_lsh(sf_dir, tau=tau)

    full = pq.read_table(
        emb_path, columns=["vec_id", "embedding"]
    ).sort_by("vec_id")
    all_ids = full["vec_id"].to_numpy()
    X = _emb_matrix(full["embedding"])
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    m_ref = ray.put((all_ids, Xn))

    def pairs(batch: pa.Table) -> pa.Table:
        ids_, Xn_ = ray.get(m_ref)
        bids = batch["vec_id"].to_numpy()
        B = _emb_matrix(batch["embedding"])
        Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
        S = Bn @ Xn_.T
        a_out, b_out, s_out = [], [], []
        for i, a in enumerate(bids):
            hit = np.flatnonzero((S[i] >= tau) & (ids_ > a))
            a_out.extend([a] * hit.size)
            b_out.extend(ids_[hit].tolist())
            s_out.extend(S[i][hit].tolist())
        return pa.table(
            {
                "a": pa.array(a_out, pa.int64()),
                "b": pa.array(b_out, pa.int64()),
                "sim": pa.array(s_out, pa.float64()),
            }
        )

    ds = _read_embeddings(sf_dir, ["vec_id", "embedding"])
    parts = [
        b
        for b in ds.map_batches(pairs, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    ]
    t = pa.concat_tables(parts)
    t = t.set_column(2, "sim_r", pc.round(t["sim"], 4))
    return t.select(["a", "b", "sim_r"]).sort_by(
        [("a", "ascending"), ("b", "ascending")]
    )


def oracle_neardup_embedding_pairs(tau: float = 0.4) -> str:
    return f"""
SELECT a.vec_id a, b.vec_id b,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 4) AS sim_r
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= {tau}
ORDER BY a, b
"""


def neardup_embedding_pairs_lsh(
    sf_dir: str,
    tau: float = 0.4,
    n_planes: int = 64,
    n_bands: int = 16,
    seed: int = 29,
) -> pa.Table:
    """Approximate near-dup pairs — the DECLARED SCALE MODE for
    ``neardup_embedding_pairs``: random-hyperplane LSH bucketing instead of
    the exact all-pairs matmul.

    sign(x @ H) gives ``n_planes`` bits per vector; split into ``n_bands``
    bands, a pair must agree on >= 1 whole band to become a candidate.
    For cosine = tau = 0.4 (theta ~ 66deg, p = 1 - theta/pi ~ 0.63) the
    default 16 bands x 4 bits give recall ~ 1-(1-p^4)^16 ~ 0.94, higher
    for closer pairs.  Band WIDTH trades recall for bucket size: at larger
    corpora (or tighter tau) raise width so buckets stay small — candidate
    work scales with sum of squared bucket sizes.
    Candidates verify EXACTLY inside their bucket: the embeddings ride the
    shuffle, so verification is a small in-group matmul; no broadcast of
    the full matrix, no O(N^2) work.  Cross-band duplicates collapse in an
    (a, b) groupby; the driver sees only verified pairs."""
    import pyarrow.compute as pc

    width = n_planes // n_bands

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        n = ids.size
        col = batch["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        dim = int(lens[0])
        X = np.asarray(flat, dtype=np.float64).reshape(n, dim)
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        # identical plane matrix in every task: seeded by (seed, dim) only
        H = np.random.default_rng(seed).standard_normal((dim, n_planes))
        bits = (Xn @ H) > 0  # (n, n_planes)
        weights = (1 << np.arange(width, dtype=np.int64))
        vals = np.stack(
            [bits[:, b * width : (b + 1) * width] @ weights for b in range(n_bands)],
            axis=1,
        )  # (n, n_bands)
        # embeddings ride the shuffle: replicate rows via numpy repeat +
        # rebuilt list offsets (no Python list-of-lists)
        rep = np.repeat(flat.reshape(n, dim), n_bands, axis=0).reshape(-1)
        offsets = pa.array(
            np.arange(n * n_bands + 1, dtype=np.int32) * dim, pa.int32()
        )
        emb_rep = pa.ListArray.from_arrays(offsets, pa.array(rep, col.type.value_type))
        return pa.table(
            {
                "band": pa.array(
                    np.tile(np.arange(n_bands, dtype=np.int32), n), pa.int32()
                ),
                "band_val": pa.array(vals.reshape(-1).astype(np.int64), pa.int64()),
                "vec_id": pa.array(np.repeat(ids, n_bands), pa.int64()),
                "embedding": emb_rep,
            }
        )

    from .partition import (
        PART_COL,
        mix64,
        num_partitions_default,
        partition_ids,
        partitioned_map_groups,
    )

    P = num_partitions_default()
    _GOLD = np.uint64(0x9E3779B97F4A7C15)
    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("sim_r", pa.float64())]
    )

    def bandpart(batch: pa.Table) -> pa.Table:
        t = explode(batch)
        band = t["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bv = t["band_val"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            key = mix64(bv) ^ band * _GOLD
        return t.add_column(0, PART_COL, pa.array(partition_ids(key, P)))

    def part_verify(part: pa.Table) -> pa.Table:
        # all buckets of the partition: vectorized bucket discovery, small
        # in-bucket matmul verify only where a bucket has >= 2 vectors
        band = part["band"].to_numpy(zero_copy_only=False).astype(np.int64)
        bv = part["band_val"].to_numpy(zero_copy_only=False)
        ids = part["vec_id"].to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(part["embedding"]).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(part["embedding"]).to_numpy(zero_copy_only=False)
        X = np.asarray(flat, dtype=np.float64).reshape(ids.size, int(lens[0]))
        order = np.lexsort((ids, bv, band))
        band, bv, ids, X = band[order], bv[order], ids[order], X[order]
        newgrp = (band[1:] != band[:-1]) | (bv[1:] != bv[:-1])
        starts = np.concatenate(([0], np.flatnonzero(newgrp) + 1))
        sizes = np.diff(np.concatenate((starts, [ids.size])))
        dup = sizes > 1
        out_a: list = []
        out_b: list = []
        out_s: list = []
        for s, z in zip(starts[dup], sizes[dup]):
            gi = ids[s : s + z]
            Xg = X[s : s + z]
            Xn = Xg / np.linalg.norm(Xg, axis=1, keepdims=True)
            S = Xn @ Xn.T
            iu, ju = np.triu_indices(int(z), 1)
            sims = S[iu, ju]
            ok = sims >= tau
            out_a.append(gi[iu][ok])
            out_b.append(gi[ju][ok])
            out_s.append(np.round(sims[ok], 4))
        if not out_a:
            return out_schema.empty_table()
        rec = np.unique(
            np.rec.fromarrays(
                [np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_s)],
                names="a,b,s",
            )
        )
        return pa.table(
            {
                "a": pa.array(rec["a"], pa.int64()),
                "b": pa.array(rec["b"], pa.int64()),
                "sim_r": pa.array(rec["s"], pa.float64()),
            },
            schema=out_schema,
        )

    def pairpart(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            key = mix64(a) ^ b
        return batch.add_column(0, PART_COL, pa.array(partition_ids(key, P)))

    def distinct_pairs(part: pa.Table) -> pa.Table:
        rec = np.unique(
            np.rec.fromarrays(
                [
                    part["a"].to_numpy(zero_copy_only=False),
                    part["b"].to_numpy(zero_copy_only=False),
                    part["sim_r"].to_numpy(zero_copy_only=False),
                ],
                names="a,b,s",
            )
        )
        return pa.table(
            {
                "a": pa.array(rec["a"], pa.int64()),
                "b": pa.array(rec["b"], pa.int64()),
                "sim_r": pa.array(rec["s"], pa.float64()),
            },
            schema=out_schema,
        )

    ds = _read_embeddings(sf_dir, ["vec_id", "embedding"])
    pairs = partitioned_map_groups(
        partitioned_map_groups(
            ds.map_batches(bandpart, batch_format="pyarrow", batch_size=512),
            part_verify,
        ).map_batches(pairpart, batch_format="pyarrow"),
        distinct_pairs,
    )
    parts = list(pairs.iter_batches(batch_format="pyarrow", batch_size=None))
    t = (
        pa.concat_tables(parts)
        if parts
        else pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("sim_r", pa.float64())]
        ).empty_table()
    )
    return t.select(["a", "b", "sim_r"]).sort_by(
        [("a", "ascending"), ("b", "ascending")]
    )


# ---------------------------------------------------------------------------
# IVF: the approximate scale path (no SQL oracle; recall tested vs brute)
# ---------------------------------------------------------------------------


def _train_centroids(X: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 13):
    """Deterministic Lloyd k-means on (a sample of) X, cosine geometry."""
    rng = np.random.default_rng(seed)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    C = Xn[rng.choice(len(Xn), size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        for c in range(n_clusters):
            m = assign == c
            if m.any():
                v = Xn[m].mean(axis=0)
                C[c] = v / (np.linalg.norm(v) or 1.0)
    return C


# Fixed-point quantum for the distributed Lloyd partial sums: coordinates of
# unit vectors are quantized to q = round(x * 2^40) int64 inside each block,
# so partial sums are EXACT integers and integer addition is associative —
# the refined centroids are bit-identical under ANY block structure / batch
# size / shuffle order (a float partial-sum tree differs from a whole-stream
# sum by ~1 ulp, which can flip an argmin near a tie and break byte-stable
# reruns).  Bounds: |q| <= 2^40 and int64 holds 2^63, so a block may hold up
# to 2^22 ≈ 4.2M rows per cluster (Ray blocks at the default 128 MiB target
# are ~256k rows of 64-dim float32); the driver accumulates per-block int64
# partials into arbitrary-precision Python ints, so the TOTAL stream size is
# unbounded.  Quantization error 2^-40 per coordinate is ~1e-12 — far below
# kmeans' own convergence tolerance.
_FIX_SCALE = 1 << 40


def _fix_div(acc_obj: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Exact rational -> correctly-rounded float64: each cell is a Python
    int sum divided by (count * _FIX_SCALE) via int.__truediv__ (one
    correctly-rounded float op — deterministic on every platform)."""
    flat = acc_obj.reshape(acc_obj.shape[0], -1)
    out = np.empty(flat.shape, dtype=np.float64)
    for r in range(flat.shape[0]):
        den = int(cnt[r]) * _FIX_SCALE
        out[r] = [int(v) / den for v in flat[r]]
    return out.reshape(acc_obj.shape)


def _refine_centroids_distributed(ds, C: np.ndarray, iters: int = 2) -> np.ndarray:
    """Lloyd refinement over the WHOLE embedding stream (the scale path the
    sample-seeded trainer was missing): each iteration is one map_batches
    pass emitting per-cluster partial (sum, count) rows; the driver reduces
    n_clusters x dim cells per block — never the vectors themselves.  At
    10^12 vectors each pass streams with backpressure and the driver-side
    reduce stays O(blocks * n_clusters * dim).  Partial sums are fixed-point
    int64 (see _FIX_SCALE) so the result is bit-deterministic under any
    blocking."""
    import ray

    n_clusters, dim = C.shape
    for _ in range(iters):
        bc = ray.put(C)

        def partial(batch: pa.Table, _bc=bc, _nc=n_clusters) -> pa.Table:
            C_ = ray.get(_bc)
            X = _emb_matrix(batch["embedding"])
            Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
            assign = np.argmax(Xn @ C_.T, axis=1)
            order = np.argsort(assign, kind="stable")
            a_sorted = assign[order]
            starts = np.flatnonzero(
                np.concatenate(([True], a_sorted[1:] != a_sorted[:-1]))
            )
            clusters = a_sorted[starts]
            Q = np.round(Xn * _FIX_SCALE).astype(np.int64)
            sums = np.add.reduceat(Q[order], starts, axis=0)
            counts = np.diff(np.append(starts, a_sorted.size))
            return pa.table(
                {
                    "cluster": pa.array(clusters.astype(np.int64)),
                    "count": pa.array(counts.astype(np.int64)),
                    "sum": pa.array([s.tobytes() for s in sums], pa.binary()),
                }
            )

        acc = np.zeros((n_clusters, dim), dtype=object)
        cnt = np.zeros(n_clusters, dtype=np.int64)
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            cl = b["cluster"].to_numpy()
            cn = b["count"].to_numpy()
            sm = np.stack(
                [np.frombuffer(s, dtype=np.int64) for s in b["sum"].to_pylist()]
            ).astype(object)
            np.add.at(acc, cl, sm)
            np.add.at(cnt, cl, cn)
        nz = cnt > 0
        C = C.copy()
        C[nz] = _fix_div(acc[nz], cnt[nz])
        norms = np.linalg.norm(C, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        C = C / norms
    return C


def ann_ivf_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    refine_iters: int = 2,
) -> pa.Table:
    """IVF approximate top-k: coarse-quantize every vector to its nearest
    centroid (stateless map over broadcast centroids), then score queries
    against only the ``nprobe`` closest clusters.  At 10^12 vectors the
    cluster assignment is the partitioning key for the vector parquet, so a
    probe reads ~nprobe/n_clusters of the data."""
    import ray

    # SEED on a bounded sample (first train_sample rows of the stream) —
    # never a full-table driver read; then ``refine_iters`` distributed
    # Lloyd passes over the whole stream tighten the centroids without any
    # vector ever crossing to the driver (only per-block cluster sums do)
    train_sample = max(4096, 64 * n_clusters)
    sample = _read_embeddings(sf_dir, ["embedding"]).limit(train_sample).take_all()
    X = np.array([r["embedding"] for r in sample], dtype=np.float64)
    C = _train_centroids(X, n_clusters)
    if refine_iters:
        C = _refine_centroids_distributed(
            _read_embeddings(sf_dir, ["embedding"]), C, iters=refine_iters
        )
    qids, Q = _query_matrix(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    probe = np.argsort(-(Qn @ C.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    bcast = ray.put((qids, Qn, C, probe))

    def scored(batch: pa.Table) -> pa.Table:
        qids_, Qn_, C_, probe_ = ray.get(bcast)
        ids = batch["vec_id"].to_numpy()
        X_ = _emb_matrix(batch["embedding"])
        Xn_ = X_ / np.linalg.norm(X_, axis=1, keepdims=True)
        assign = np.argmax(Xn_ @ C_.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(qids_):
            m = np.isin(assign, probe_[qi]) & (ids != qid)
            cand = np.flatnonzero(m)
            if cand.size == 0:
                continue
            sims = Xn_[cand] @ Qn_[qi]
            top = cand[np.argsort(-sims, kind="stable")[: k]]
            out_q.extend([qid] * top.size)
            out_v.extend(ids[top].tolist())
            out_s.extend((Xn_[top] @ Qn_[qi]).tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = _read_embeddings(sf_dir, ["vec_id", "embedding"])
    parts = [
        b
        for b in ds.map_batches(scored, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    ]
    t = pa.concat_tables(parts)
    import pyarrow.compute as pc

    # merge on RAW float64 sims (tie-break vec_id): the global top-k by raw
    # sim is contained in the union of per-batch top-ks under ANY batching,
    # so the result is batching-invariant (a rounded-sim merge could admit a
    # 4-decimal-tied candidate that only survives some batchings)
    rows = []
    for qid in qids:
        sub = t.filter(pc.equal(t["qid"], qid))
        s = sub["sim"].to_numpy()
        v = sub["vec_id"].to_numpy()
        order = np.lexsort((v, -s))[:k]
        for rank, i in enumerate(order, 1):
            rows.append((qid, int(v[i]), round(float(s[i]), 4), rank))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "sim_r": pa.array([r[2] for r in rows], pa.float64()),
            "rank": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Product quantization (PQ) — the compressed-representation scale path:
# 8 uint8 codes per vector instead of 256 float32 bytes (32x), so a
# 10^12-vector corpus's code table fits where the raw embeddings cannot.
# Jegou/Douze/Schmid 2011, "Product Quantization for Nearest Neighbor
# Search" — codebooks per subspace + asymmetric distance (ADC) lookup.
# ---------------------------------------------------------------------------


def _train_pq_codebooks(X: np.ndarray, m_sub: int, n_codes: int, iters: int = 10, seed: int = 29):
    """Per-subspace Lloyd k-means codebooks over NORMALIZED vectors (so the
    ADC dot-product sum approximates cosine).  Returns (m_sub, K, d/m_sub)."""
    d = X.shape[1]
    assert d % m_sub == 0, "dim must divide into subspaces"
    ds_ = d // m_sub
    books = []
    for m in range(m_sub):
        sub = X[:, m * ds_ : (m + 1) * ds_]
        rng = np.random.default_rng(seed + m)
        k = min(n_codes, len(sub))
        C = sub[rng.choice(len(sub), size=k, replace=False)].copy()
        for _ in range(iters):
            d2 = ((sub[:, None, :] - C[None]) ** 2).sum(-1)
            a = np.argmin(d2, axis=1)
            for c in range(k):
                msk = a == c
                if msk.any():
                    C[c] = sub[msk].mean(0)
        books.append(C)
    return np.stack(books)  # (m_sub, K, ds_)


def _refine_pq_codebooks_distributed(ds, books: np.ndarray, iters: int = 1) -> np.ndarray:
    """Distributed Lloyd refinement of PQ codebooks over the WHOLE stream
    (same shape as :func:`_refine_centroids_distributed`): each pass emits
    per-(subspace, code) partial sums from map_batches; the driver reduces
    m_sub * K * dsub cells per block and never sees a vector.  Partial sums
    are fixed-point int64 (see _FIX_SCALE) so the refined codebooks are
    bit-deterministic under any blocking."""
    import ray

    m_sub, K, dsub = books.shape
    for _ in range(iters):
        bc = ray.put(books)

        def partial(batch: pa.Table, _bc=bc) -> pa.Table:
            B = ray.get(_bc)
            msub, nk, dsub_ = B.shape
            X = _emb_matrix(batch["embedding"])
            Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
            subs = Xn.reshape(len(Xn), msub, dsub_)
            Qfix = np.round(subs * _FIX_SCALE).astype(np.int64)
            rows_m, rows_c, rows_n, rows_s = [], [], [], []
            for m in range(msub):
                d2 = ((subs[:, m, None, :] - B[None, m]) ** 2).sum(-1)
                a = np.argmin(d2, axis=1)
                order = np.argsort(a, kind="stable")
                a_sorted = a[order]
                starts = np.flatnonzero(
                    np.concatenate(([True], a_sorted[1:] != a_sorted[:-1]))
                )
                sums = np.add.reduceat(Qfix[order, m], starts, axis=0)
                counts = np.diff(np.append(starts, a_sorted.size))
                codes = a_sorted[starts]
                rows_m.extend([m] * codes.size)
                rows_c.extend(codes.tolist())
                rows_n.extend(counts.tolist())
                rows_s.extend(s.tobytes() for s in sums)
            return pa.table(
                {
                    "sub": pa.array(rows_m, pa.int64()),
                    "code": pa.array(rows_c, pa.int64()),
                    "count": pa.array(rows_n, pa.int64()),
                    "sum": pa.array(rows_s, pa.binary()),
                }
            )

        acc = np.zeros((m_sub, K, dsub), dtype=object)
        cnt = np.zeros((m_sub, K), dtype=np.int64)
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            sub = b["sub"].to_numpy()
            code = b["code"].to_numpy()
            cn = b["count"].to_numpy()
            sm = np.stack(
                [np.frombuffer(s, dtype=np.int64) for s in b["sum"].to_pylist()]
            ).astype(object)
            np.add.at(acc, (sub, code), sm)
            np.add.at(cnt, (sub, code), cn)
        books = books.copy()
        nz = cnt > 0
        books[nz] = _fix_div(acc[nz], cnt[nz])
    return books


def ann_pq_topk(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 10,
    m_sub: int = 8,
    n_codes: int = 64,
    refine_iters: int = 1,
) -> pa.Table:
    """PQ approximate top-k: codebooks train on a bounded sample, every
    vector encodes to ``m_sub`` uint8 codes in a stateless map (broadcast
    codebooks), and each query scores candidates via an ADC lookup table —
    per batch: one (m_sub x K) table per query, then a table-gather sum
    over the batch's code matrix.  Per-batch partial top-k; the driver
    merges blocks x k rows.  Rows-only gate (approximate by design); the
    recall floor vs brute force is asserted in tests."""
    import ray

    train_sample = max(2048, 8 * n_codes)
    sample = _read_embeddings(sf_dir, ["embedding"]).limit(train_sample).take_all()
    X = np.array([r["embedding"] for r in sample], dtype=np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    books = _train_pq_codebooks(Xn, m_sub, n_codes)
    if refine_iters:
        books = _refine_pq_codebooks_distributed(
            _read_embeddings(sf_dir, ["embedding"]), books, iters=refine_iters
        )
    qids, Q = _query_matrix(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    ds_ = Xn.shape[1] // m_sub
    # per-query ADC tables: tables[q][m][c] = <query_subvec_m, codebook_m_c>
    tables = np.einsum("qmd,mkd->qmk", Qn.reshape(len(Qn), m_sub, ds_), books)
    bcast = ray.put((qids, tables, books, Qn))

    def scored(batch: pa.Table) -> pa.Table:
        qids_, tables_, books_, Qn_ = ray.get(bcast)
        ids = batch["vec_id"].to_numpy()
        X_ = _emb_matrix(batch["embedding"])
        Xn_ = X_ / np.linalg.norm(X_, axis=1, keepdims=True)
        nb, msub, dsub = len(Xn_), books_.shape[0], books_.shape[2]
        subs = Xn_.reshape(nb, msub, dsub)
        # encode: nearest codebook entry per subspace (vectorized per m)
        codes = np.empty((nb, msub), dtype=np.int64)
        for m in range(msub):
            d2 = ((subs[:, m, None, :] - books_[None, m]) ** 2).sum(-1)
            codes[:, m] = np.argmin(d2, axis=1)
        out_q, out_v, out_a, out_s = [], [], [], []
        marange = np.arange(msub)
        for qi, qid in enumerate(qids_):
            approx = tables_[qi][marange, codes].sum(axis=1)  # (nb,)
            mask = ids != qid
            cand = np.flatnonzero(mask)
            # ADC shortlist (4k per batch) with BOTH scores attached; the
            # global shortlist is picked by the DRIVER so the result is
            # batching-invariant (a per-batch exact rerank would let extra
            # candidates in whenever Ray splits the stream into more
            # batches).  Exact dot products touch only the survivors.
            short = cand[np.argsort(-approx[cand], kind="stable")[: 4 * k]]
            exact = Xn_[short] @ Qn_[qi]
            out_q.extend([qid] * short.size)
            out_v.extend(ids[short].tolist())
            out_a.extend(approx[short].tolist())
            out_s.extend(exact.tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "approx": pa.array(out_a, pa.float64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = _read_embeddings(sf_dir, ["vec_id", "embedding"])
    parts = list(
        ds.map_batches(scored, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    t = pa.concat_tables(parts)
    import pyarrow.compute as pc

    # the standard two-stage ADC recipe, made batching-invariant: global
    # top-4k shortlist by RAW approx score (contained in the union of
    # per-batch shortlists under any batching), then top-k by RAW exact sim
    # over exactly that set; ties break on vec_id at both stages
    rows = []
    for qid in qids:
        sub = t.filter(pc.equal(t["qid"], qid))
        a = sub["approx"].to_numpy()
        s = sub["sim"].to_numpy()
        v = sub["vec_id"].to_numpy()
        short = np.lexsort((v, -a))[: 4 * k]
        order = short[np.lexsort((v[short], -s[short]))[:k]]
        for rank, i in enumerate(order, 1):
            rows.append((qid, int(v[i]), round(float(s[i]), 4), rank))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "sim_r": pa.array([r[2] for r in rows], pa.float64()),
            "rank": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# HNSW — graph-based ANN (Malkov & Yashunin 2016, "Efficient and robust
# approximate nearest neighbor search using Hierarchical Navigable Small
# World graphs").  Ray-Data-native shape: each worker batch builds an
# HNSW graph over ITS shard of the vectors and answers the broadcast
# query matrix locally; the driver merges the bounded per-shard top-k
# (shards x k rows).  At 10^12 vectors the graphs live in long-lived
# shard actors keyed by the vector parquet's partitioning; here they are
# built per batch, which exercises the same plumbing.
# ---------------------------------------------------------------------------


class _HnswGraph:
    """Minimal in-memory HNSW over unit-normalized vectors (cosine via
    dot product).  Deterministic level draws from a seeded RNG."""

    def __init__(self, M: int = 8, ef_construction: int = 64, seed: int = 7):
        self.M = M
        self.M0 = 2 * M
        self.efc = ef_construction
        self.mL = 1.0 / np.log(M)
        self.rng = np.random.RandomState(seed)
        self.X = None  # (n, d) unit vectors
        self.levels: list = []
        self.links: list = []  # per node: {level: np.ndarray of neighbor ids}
        self.entry = -1
        self.max_level = -1

    def _search_layer(self, q: np.ndarray, entry: int, ef: int, level: int):
        import heapq

        visited = {entry}
        d0 = float(self.X[entry] @ q)
        cand = [(-d0, entry)]  # max-heap on similarity via negation
        best = [(d0, entry)]  # min-heap of current ef best
        while cand:
            negd, c = heapq.heappop(cand)
            if -negd < best[0][0] and len(best) >= ef:
                break
            for nb in self.links[c].get(level, ()):  # numpy array
                nb = int(nb)
                if nb in visited:
                    continue
                visited.add(nb)
                d = float(self.X[nb] @ q)
                if len(best) < ef or d > best[0][0]:
                    heapq.heappush(cand, (-d, nb))
                    heapq.heappush(best, (d, nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted(best, reverse=True)  # (sim, id) best-first

    def build(self, X: np.ndarray):
        n = X.shape[0]
        self.X = X
        draws = self.rng.random_sample(n)
        node_levels = np.floor(-np.log(np.clip(draws, 1e-12, None)) * self.mL).astype(int)
        self.levels = node_levels
        self.links = [dict() for _ in range(n)]
        for i in range(n):
            li = int(node_levels[i])
            if self.entry < 0:
                for lev in range(li + 1):
                    self.links[i][lev] = np.empty(0, dtype=np.int64)
                self.entry, self.max_level = i, li
                continue
            ep = self.entry
            # greedy descent above the node's level
            for lev in range(self.max_level, li, -1):
                ep = self._search_layer(self.X[i], ep, 1, lev)[0][1]
            # insert with ef_construction from min(li, max_level) down
            for lev in range(min(li, self.max_level), -1, -1):
                cands = self._search_layer(self.X[i], ep, self.efc, lev)
                mmax = self.M0 if lev == 0 else self.M
                nbrs = np.array([c[1] for c in cands[:mmax]], dtype=np.int64)
                self.links[i][lev] = nbrs
                for nb in nbrs:
                    nb = int(nb)
                    cur = self.links[nb].get(lev)
                    cur = (
                        np.array([i], dtype=np.int64)
                        if cur is None or cur.size == 0
                        else np.append(cur, i)
                    )
                    if cur.size > mmax:  # prune to the closest mmax
                        sims = self.X[cur] @ self.X[nb]
                        cur = cur[np.argsort(-sims)[:mmax]]
                    self.links[nb][lev] = cur
                ep = cands[0][1]
            for lev in range(self.max_level + 1, li + 1):
                self.links[i][lev] = np.empty(0, dtype=np.int64)
            if li > self.max_level:
                self.entry, self.max_level = i, li

    def search(self, q: np.ndarray, k: int, ef: int = 64):
        ep = self.entry
        for lev in range(self.max_level, 0, -1):
            ep = self._search_layer(q, ep, 1, lev)[0][1]
        best = self._search_layer(q, ep, max(ef, k), 0)
        return best[:k]  # (sim, local_id) best-first


def ann_hnsw_topk(
    sf_dir: str, n_queries: int = 5, k: int = 10, M: int = 8,
    ef_construction: int = 64, ef_search: int = 64, n_shards: int = 4,
) -> pa.Table:
    """HNSW approximate top-k over DETERMINISTIC shards: every vector is
    assigned ``shard = splitmix64(vec_id) % n_shards`` (input-determined —
    never Ray block boundaries, so the result is stable under any batching
    / re-run and an independent single-process oracle can reproduce it);
    one graph per shard is built in insertion order sorted by vec_id and
    answers the broadcast queries; the driver merges the bounded
    shards x (k+1) candidate rows.  At 10^12 vectors the shard key doubles
    as the vector parquet's partitioning key and the graphs live in
    long-lived shard actors."""
    import ray

    from .partition import partition_ids

    qids, Q = _query_matrix(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    bcast = ray.put((qids, Qn))

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy().astype(np.uint64)
        return batch.append_column(
            "__shard", pa.array(partition_ids(ids, n_shards))
        )

    def shard_topk(part: pa.Table) -> pa.Table:
        qids_, Qn_ = ray.get(bcast)
        part = part.sort_by("vec_id")
        ids = part["vec_id"].to_numpy()
        X = _emb_matrix(part["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        g = _HnswGraph(M=M, ef_construction=ef_construction, seed=7)
        g.build(Xn)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(qids_):
            for sim, li in g.search(Qn_[qi], k + 1, ef=ef_search):
                if ids[li] == qid:
                    continue
                out_q.append(qid)
                out_v.append(int(ids[li]))
                out_s.append(float(sim))
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = _read_embeddings(sf_dir, ["vec_id", "embedding"]).map_batches(
        add_shard, batch_format="pyarrow"
    )
    t = pa.concat_tables(
        ds.groupby("__shard")
        .map_groups(shard_topk, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    import pyarrow.compute as pc

    rows = []
    for qid in qids:
        sub = t.filter(pc.equal(t["qid"], qid))
        s = sub["sim"].to_numpy()
        v = sub["vec_id"].to_numpy()
        order = np.lexsort((v, -np.round(s, 4)))[:k]
        for rank, i in enumerate(order, 1):
            rows.append((qid, int(v[i]), round(float(s[i]), 4), rank))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "sim_r": pa.array([r[2] for r in rows], pa.float64()),
            "rank": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def ann_approx_topk(sf_dir: str):
    """IVF, HNSW and PQ approximate top-k, unioned as
    ``which, qid, vec_id, sim_r, rank``.  The three are deterministic given
    their seeds (HNSW shards by splitmix64(vec_id), not Ray block
    boundaries), so a naive single-process implementation reproduces every
    row (scripts/gen_gate_fixtures.py, tests/test_gate_fixtures.py)."""
    from . import tagged_union

    return tagged_union(
        sf_dir,
        [
            ("ann_ivf_topk", ann_ivf_topk),
            ("ann_hnsw_topk", ann_hnsw_topk),
            ("ann_pq_topk", ann_pq_topk),
        ],
        ["qid", "vec_id", "sim_r", "rank"],
    )
