"""Generate committed oracle fixtures for gates whose semantics are not
SQL-expressible (iterative BPE training, seeded LSH selection, sketch
estimation).

Each fixture is produced by an INDEPENDENT NAIVE single-process
implementation of the published spec (no Ray, no library pipeline code) so
the driver's fixture-oracle compare genuinely cross-checks the distributed
machinery against a second implementation, exactly like the SQL oracles
cross-check against DuckDB.  ``tests/test_gate_fixtures.py`` re-runs the
naive implementations per round and asserts the committed fixtures are not
stale.

Usage:  python scripts/gen_gate_fixtures.py [sf_dir ...]
        (default: /root/testdata/sf0.01 — the driver's gate scale)
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXDIR = os.path.join(REPO, "tests", "fixtures")

END_OF_WORD = "▁"
MAX_VOCAB_WORDS = 50_000
N_MERGES = 200


# ---------------------------------------------------------------------------
# naive BPE (Sennrich et al. 2016 fig. 1, string-space symbol lists)
# ---------------------------------------------------------------------------


def naive_bpe_train(word_counts: dict, n_merges: int) -> list:
    vocab = [(list(w) + [END_OF_WORD], n) for w, n in word_counts.items() if w]
    out: list = []
    for _ in range(n_merges):
        pairs: dict = {}
        for sym, n in vocab:
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        top = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        out.append(top)
        nv = []
        for sym, n in vocab:
            ns, i = [], 0
            while i < len(sym):
                if sym[i : i + 2] == [top[0], top[1]]:
                    ns.append(top[0] + top[1])
                    i += 2
                else:
                    ns.append(sym[i])
                    i += 1
            nv.append((ns, n))
        vocab = nv
    return out


def naive_bpe_encode_len(word: str, merges: list) -> int:
    sym = list(word) + [END_OF_WORD]
    for a, b in merges:
        i = 0
        while i < len(sym) - 1:
            if sym[i] == a and sym[i + 1] == b:
                sym[i : i + 2] = [a + b]
            else:
                i += 1
    return len(sym)


def gen_bpe_token_counts(sf_dir: str) -> pa.Table:
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).sort_by("doc_id")
    texts = [(t or "").lower().split(" ") for t in docs["text"].to_pylist()]
    counts: dict = {}
    for words in texts:
        for w in words:
            counts[w] = counts.get(w, 0) + 1
    counts.pop("", None)
    if len(counts) > MAX_VOCAB_WORDS:
        keep = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:MAX_VOCAB_WORDS]
        counts = dict(keep)
    merges = naive_bpe_train(counts, N_MERGES)
    memo: dict = {}
    n_words, n_bpe = [], []
    for words in texts:
        n_words.append(len(words))
        total = 0
        for w in words:
            n = memo.get(w)
            if n is None:
                n = memo[w] = naive_bpe_encode_len(w, merges)
            total += n
        n_bpe.append(total)
    return pa.table(
        {
            "doc_id": docs["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# naive random-hyperplane LSH near-dup pairs (seeded, deterministic)
# ---------------------------------------------------------------------------


def gen_neardup_embedding_lsh(
    sf_dir: str,
    tau: float = 0.4,
    n_planes: int = 64,
    n_bands: int = 16,
    seed: int = 29,
) -> pa.Table:
    emb = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).sort_by("vec_id")
    ids = emb["vec_id"].to_numpy()
    X = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    H = np.random.default_rng(seed).standard_normal((X.shape[1], n_planes))
    bits = (Xn @ H) > 0
    width = n_planes // n_bands
    pairs: set = set()
    for b in range(n_bands):
        band = bits[:, b * width : (b + 1) * width]
        buckets: dict = {}
        for i in range(len(ids)):
            buckets.setdefault(tuple(band[i]), []).append(i)
        for members in buckets.values():
            for ii in range(len(members)):
                for jj in range(ii + 1, len(members)):
                    i, j = members[ii], members[jj]
                    sim = float(Xn[i] @ Xn[j])
                    if sim >= tau:
                        a, b2 = sorted((int(ids[i]), int(ids[j])))
                        pairs.add((a, b2, float(np.round(sim, 4))))
    rows = sorted(pairs)
    return pa.table(
        {
            "a": pa.array([r[0] for r in rows], pa.int64()),
            "b": pa.array([r[1] for r in rows], pa.int64()),
            "sim_r": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# naive sketches: HyperLogLog distinct users + Count-Min heavy hitters.
# Pure-Python int/hashlib reimplementations of the published specs
# (Flajolet et al. 2007; Cormode-Muthukrishnan 2005) with the same
# parameters as the library (p=12; d=4, w=2048) — no numpy vector paths.
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix_hash(uid: int) -> int:
    h = ((uid * 0x9E3779B97F4A7C15) & _M64) ^ 0xBF58476D1CE4E5B9
    h ^= h >> 31
    h = (h * 0x94D049BB133111EB) & _M64
    h ^= h >> 29
    return h


def gen_events_hll_users(sf_dir: str, p: int = 12) -> pa.Table:
    ev = pq.read_table(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )
    m = 1 << p
    regs: dict = {}
    for uid, et in zip(ev["user_id"].to_pylist(), ev["event_type"].to_pylist()):
        h = _splitmix_hash(int(uid))
        idx = h >> (64 - p)
        rest = ((h << p) & _M64) | (1 << (p - 1))
        rank = (64 - rest.bit_length()) + 1
        r = regs.setdefault(et, [0] * m)
        if rank > r[idx]:
            r[idx] = rank
    rows = []
    for et in sorted(regs):
        r = regs[et]
        est = (0.7213 / (1 + 1.079 / m)) * m * m / sum(2.0 ** -x for x in r)
        zeros = r.count(0)
        if est <= 2.5 * m and zeros:
            import math

            est = m * math.log(m / zeros)
        rows.append((et, int(round(est))))
    return pa.table(
        {
            "event_type": pa.array([t for t, _ in rows], pa.string()),
            "approx_users": pa.array([n for _, n in rows], pa.int64()),
        }
    )


def gen_heavy_hitters_cms(
    sf_dir: str, k: int = 10, d: int = 4, w: int = 2048, n_cand: int = 64
) -> pa.Table:
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).sort_by("doc_id")
    counts: dict = {}  # insertion order = first appearance, like value_counts
    for t in docs["text"].to_pylist():
        for word in (t or "").lower().split(" "):
            counts[word] = counts.get(word, 0) + 1
    terms = list(counts)

    def cms_col(term: str, r: int) -> int:
        h = hashlib.blake2b(term.encode(), digest_size=8, salt=bytes([r])).digest()
        return int.from_bytes(h, "little") % w

    sk = [[0] * w for _ in range(d)]
    for t, n in counts.items():
        for r in range(d):
            sk[r][cms_col(t, r)] += n
    # per-batch candidate rule at gate scale (whole corpus = one batch):
    # stable sort by -count over first-appearance order, top n_cand
    cands = sorted(
        sorted(range(len(terms)), key=lambda i: -counts[terms[i]])[:n_cand],
        key=lambda i: terms[i],
    )
    scored = []
    for i in cands:
        t = terms[i]
        scored.append((t, min(sk[r][cms_col(t, r)] for r in range(d))))
    top = sorted(scored, key=lambda te: (-te[1], te[0]))[:k]
    return pa.table(
        {
            "term": pa.array([t for t, _ in top], pa.string()),
            "est_count": pa.array([n for _, n in top], pa.int64()),
        }
    )


def gen_sketches_approx(sf_dir: str) -> pa.Table:
    """The folded ``sketches_approx`` gate shape: which/key/n union of the
    HLL distinct-users and CMS heavy-hitter results."""
    import pandas as pd

    hll = gen_events_hll_users(sf_dir).to_pandas()
    hll.columns = ["key", "n"]
    hll.insert(0, "which", "events_hll_users")
    cms = gen_heavy_hitters_cms(sf_dir).to_pandas()
    cms.columns = ["key", "n"]
    cms.insert(0, "which", "heavy_hitters_cms")
    return pa.Table.from_pandas(
        pd.concat([hll, cms], ignore_index=True), preserve_index=False
    )


# ---------------------------------------------------------------------------
# naive approximate-ANN top-k (IVF / PQ / HNSW) — single-process, no Ray.
#
# Each follows the published algorithm (IVF/PQ: Jegou-Douze-Schmid 2011;
# HNSW: Malkov-Yashunin 2016) with the library's fixed seeds and parameter
# choices, over the table read in plain file order.  Where the library's
# distributed machinery shuffles or batches (per-block partial sums for the
# Lloyd refinement, per-shard graphs keyed by splitmix64(vec_id)), the naive
# code computes the SAME mathematical quantity in one process, which is what
# makes the compare a genuine cross-check of the Ray plumbing.  Determinism
# notes: all inner products are float64 and the outputs round similarities to
# 4 decimals, so blockwise-vs-whole float accumulation differences (~1e-15)
# cannot move a result; assignment argmax/argmin ties cannot occur with the
# continuous synthetic embeddings.
# ---------------------------------------------------------------------------


def _naive_read_emb(sf_dir: str):
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = t["vec_id"].to_numpy()
    X = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    return ids, Xn


def _naive_queries(ids: np.ndarray, Xn: np.ndarray, n_queries: int):
    """Query set = the n smallest vec_ids, embeddings sorted by vec_id."""
    order = np.argsort(ids, kind="stable")[:n_queries]
    qids = ids[order].tolist()
    return qids, Xn[order]


def _naive_topk_table(per_query: dict, qids: list, k: int, raw: bool = False) -> list:
    """Global merge: per qid, lexsort by (-sim, vec_id) — rounded to 4
    decimals for the shard-deterministic HNSW merge, RAW float64 for the
    batching-invariant IVF merge — then top k, sim_r rounded on output."""
    rows = []
    for qid in qids:
        v, s = per_query.get(qid, (np.empty(0, np.int64), np.empty(0)))
        key = s if raw else np.round(s, 4)
        order = np.lexsort((v, -key))[:k]
        for rank, i in enumerate(order, 1):
            rows.append((qid, int(v[i]), round(float(s[i]), 4), rank))
    return rows


def _naive_kmeans_cosine(Xn, n_clusters, iters=10, seed=13):
    rng = np.random.default_rng(seed)
    C = Xn[rng.choice(len(Xn), size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        for c in range(n_clusters):
            m = assign == c
            if m.any():
                v = Xn[m].mean(axis=0)
                C[c] = v / (np.linalg.norm(v) or 1.0)
    return C


_FIXQ = 1 << 40  # the library's fixed-point Lloyd quantum (associative sums)


def _naive_lloyd_refine(Xn, C, iters):
    """Full-stream Lloyd passes in the library's fixed-point arithmetic:
    coordinates quantize to round(x * 2^40) int64, per-cluster sums are
    exact integers, and each centroid cell is one correctly-rounded
    int/int float division — so the single-process result is bit-identical
    to the distributed per-block partial-sum reduce under any blocking."""
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        order = np.argsort(assign, kind="stable")
        a_sorted = assign[order]
        starts = np.flatnonzero(np.concatenate(([True], a_sorted[1:] != a_sorted[:-1])))
        Q = np.round(Xn * _FIXQ).astype(np.int64)
        sums = np.add.reduceat(Q[order], starts, axis=0)
        counts = np.diff(np.append(starts, a_sorted.size))
        C = C.copy()
        for cl, srow, n in zip(a_sorted[starts], sums, counts):
            den = int(n) * _FIXQ
            C[cl] = [int(v) / den for v in srow]
        norms = np.linalg.norm(C, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        C = C / norms
    return C


def gen_ann_ivf_topk(
    sf_dir, n_queries=5, k=10, n_clusters=16, nprobe=4, refine_iters=2
):
    ids, Xn = _naive_read_emb(sf_dir)
    train_sample = max(4096, 64 * n_clusters)
    C = _naive_kmeans_cosine(Xn[:train_sample], n_clusters)
    C = _naive_lloyd_refine(Xn, C, refine_iters)
    qids, Qn = _naive_queries(ids, Xn, n_queries)
    probe = np.argsort(-(Qn @ C.T), axis=1)[:, :nprobe]
    assign = np.argmax(Xn @ C.T, axis=1)
    per_query = {}
    for qi, qid in enumerate(qids):
        m = np.isin(assign, probe[qi]) & (ids != qid)
        cand = np.flatnonzero(m)
        sims = Xn[cand] @ Qn[qi]
        top = cand[np.argsort(-sims, kind="stable")[:k]]
        per_query[qid] = (ids[top], Xn[top] @ Qn[qi])
    return _naive_topk_table(per_query, qids, k, raw=True)


def gen_ann_pq_topk(
    sf_dir, n_queries=5, k=10, m_sub=8, n_codes=64, refine_iters=1, seed=29
):
    ids, Xn = _naive_read_emb(sf_dir)
    d = Xn.shape[1]
    dsub = d // m_sub
    train = Xn[: max(2048, 8 * n_codes)]
    # per-subspace Lloyd codebooks (euclidean on normalized subvectors)
    books = []
    for m in range(m_sub):
        sub = train[:, m * dsub : (m + 1) * dsub]
        rng = np.random.default_rng(seed + m)
        kk = min(n_codes, len(sub))
        C = sub[rng.choice(len(sub), size=kk, replace=False)].copy()
        for _ in range(10):
            d2 = ((sub[:, None, :] - C[None]) ** 2).sum(-1)
            a = np.argmin(d2, axis=1)
            for c in range(kk):
                msk = a == c
                if msk.any():
                    C[c] = sub[msk].mean(0)
        books.append(C)
    books = np.stack(books)
    # full-stream refinement passes (fixed-point, see _naive_lloyd_refine)
    subs = Xn.reshape(len(Xn), m_sub, dsub)
    Qfix = np.round(subs * _FIXQ).astype(np.int64)
    for _ in range(refine_iters):
        books = books.copy()
        for m in range(m_sub):
            d2 = ((subs[:, m, None, :] - books[None, m]) ** 2).sum(-1)
            a = np.argmin(d2, axis=1)
            order = np.argsort(a, kind="stable")
            a_sorted = a[order]
            starts = np.flatnonzero(
                np.concatenate(([True], a_sorted[1:] != a_sorted[:-1]))
            )
            sums = np.add.reduceat(Qfix[order, m], starts, axis=0)
            counts = np.diff(np.append(starts, a_sorted.size))
            for cl, srow, n in zip(a_sorted[starts], sums, counts):
                den = int(n) * _FIXQ
                books[m, cl] = [int(v) / den for v in srow]
    qids, Qn = _naive_queries(ids, Xn, n_queries)
    tables = np.einsum("qmd,mkd->qmk", Qn.reshape(len(Qn), m_sub, dsub), books)
    codes = np.empty((len(Xn), m_sub), dtype=np.int64)
    for m in range(m_sub):
        d2 = ((subs[:, m, None, :] - books[None, m]) ** 2).sum(-1)
        codes[:, m] = np.argmin(d2, axis=1)
    marange = np.arange(m_sub)
    rows = []
    for qi, qid in enumerate(qids):
        approx = tables[qi][marange, codes].sum(axis=1)
        cand = np.flatnonzero(ids != qid)
        # two-stage, matching the library's driver merge: global top-4k
        # shortlist by (-approx, vec_id), then top-k by (-exact, vec_id)
        short = cand[np.lexsort((ids[cand], -approx[cand]))[: 4 * k]]
        exact = Xn[short] @ Qn[qi]
        order = short[np.lexsort((ids[short], -exact))[:k]]
        exact_k = exact[np.lexsort((ids[short], -exact))[:k]]
        for rank, (i, s) in enumerate(zip(order, exact_k), 1):
            rows.append((qid, int(ids[i]), round(float(s), 4), rank))
    return rows


def _splitmix64_int(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


class _NaiveHnsw:
    """Hierarchical navigable small-world graph per Malkov-Yashunin 2016,
    with the library's parameter choices (simple closest-M neighbor
    selection, backlink prune to closest M, greedy ef=1 descent) — plain
    python lists / explicit max-scans instead of heaps and numpy link
    arrays."""

    def __init__(self, M=8, efc=64, seed=7):
        self.M, self.M0, self.efc = M, 2 * M, efc
        self.mL = 1.0 / np.log(M)
        self.rng = np.random.RandomState(seed)

    def _layer(self, q, entry, ef, level):
        X, links = self.X, self.links
        visited = {entry}
        d0 = float(X[entry] @ q)
        cand = [(d0, entry)]
        best = [(d0, entry)]
        while cand:
            # pop the candidate with max sim (ties: smallest id)
            j = max(range(len(cand)), key=lambda i: (cand[i][0], -cand[i][1]))
            d, c = cand.pop(j)
            worst = min(best)[0]
            if d < worst and len(best) >= ef:
                break
            for nb in links[c].get(level, ()):
                if nb in visited:
                    continue
                visited.add(nb)
                dn = float(X[nb] @ q)
                if len(best) < ef or dn > min(best)[0]:
                    cand.append((dn, nb))
                    best.append((dn, nb))
                    if len(best) > ef:
                        best.remove(min(best))
        return sorted(best, reverse=True)

    def build(self, X):
        n = len(X)
        self.X = X
        draws = self.rng.random_sample(n)
        levels = np.floor(-np.log(np.clip(draws, 1e-12, None)) * self.mL).astype(int)
        self.links = [dict() for _ in range(n)]
        self.entry, self.max_level = -1, -1
        for i in range(n):
            li = int(levels[i])
            if self.entry < 0:
                for lev in range(li + 1):
                    self.links[i][lev] = []
                self.entry, self.max_level = i, li
                continue
            ep = self.entry
            for lev in range(self.max_level, li, -1):
                ep = self._layer(X[i], ep, 1, lev)[0][1]
            for lev in range(min(li, self.max_level), -1, -1):
                cands = self._layer(X[i], ep, self.efc, lev)
                mmax = self.M0 if lev == 0 else self.M
                nbrs = [c[1] for c in cands[:mmax]]
                self.links[i][lev] = nbrs
                for nb in nbrs:
                    cur = list(self.links[nb].get(lev, [])) + [i]
                    if len(cur) > mmax:
                        sims = [float(X[c] @ X[nb]) for c in cur]
                        keep = sorted(range(len(cur)), key=lambda t: -sims[t])[:mmax]
                        cur = [cur[t] for t in keep]
                    self.links[nb][lev] = cur
                ep = cands[0][1]
            for lev in range(self.max_level + 1, li + 1):
                self.links[i][lev] = []
            if li > self.max_level:
                self.entry, self.max_level = i, li

    def search(self, q, k, ef):
        ep = self.entry
        for lev in range(self.max_level, 0, -1):
            ep = self._layer(q, ep, 1, lev)[0][1]
        return self._layer(q, ep, max(ef, k), 0)[:k]


def gen_ann_hnsw_topk(
    sf_dir, n_queries=5, k=10, M=8, efc=64, efs=64, n_shards=4
):
    ids, Xn = _naive_read_emb(sf_dir)
    qids, Qn = _naive_queries(ids, Xn, n_queries)
    shard = np.array([_splitmix64_int(int(i)) % n_shards for i in ids])
    per_query: dict = {q: ([], []) for q in qids}
    for s in range(n_shards):
        m = np.flatnonzero(shard == s)
        if m.size == 0:
            continue
        order = m[np.argsort(ids[m], kind="stable")]
        sid, sX = ids[order], Xn[order]
        g = _NaiveHnsw(M=M, efc=efc, seed=7)
        g.build(sX)
        for qi, qid in enumerate(qids):
            for sim, li in g.search(Qn[qi], k + 1, ef=efs):
                if sid[li] == qid:
                    continue
                per_query[qid][0].append(int(sid[li]))
                per_query[qid][1].append(float(sim))
    merged = {
        q: (np.array(v, dtype=np.int64), np.array(sv, dtype=np.float64))
        for q, (v, sv) in per_query.items()
    }
    return _naive_topk_table(merged, qids, k)


def gen_ann_approx_topk(sf_dir: str) -> pa.Table:
    """The folded ``ann_approx_topk`` gate shape: which/qid/vec_id/sim_r/rank
    union of the IVF, HNSW and PQ naive results (fold order matches
    corpus_pipelines.ann.ann_approx_topk)."""
    rows = []
    for which, fn in (
        ("ann_ivf_topk", gen_ann_ivf_topk),
        ("ann_hnsw_topk", gen_ann_hnsw_topk),
        ("ann_pq_topk", gen_ann_pq_topk),
    ):
        for qid, vec_id, sim_r, rank in fn(sf_dir):
            rows.append((which, qid, vec_id, sim_r, rank))
    return pa.table(
        {
            "which": pa.array([r[0] for r in rows], pa.string()),
            "qid": pa.array([r[1] for r in rows], pa.int64()),
            "vec_id": pa.array([r[2] for r in rows], pa.int64()),
            "sim_r": pa.array([r[3] for r in rows], pa.float64()),
            "rank": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def gen_fixtures(sf_dir: str, tag: str) -> None:
    os.makedirs(FIXDIR, exist_ok=True)
    t = gen_bpe_token_counts(sf_dir)
    pq.write_table(t, os.path.join(FIXDIR, f"bpe_token_counts_{tag}.parquet"))
    print(f"bpe_token_counts_{tag}: {t.num_rows} rows")
    t = gen_neardup_embedding_lsh(sf_dir)
    pq.write_table(t, os.path.join(FIXDIR, f"neardup_embedding_lsh_{tag}.parquet"))
    print(f"neardup_embedding_lsh_{tag}: {t.num_rows} rows")
    t = gen_sketches_approx(sf_dir)
    pq.write_table(t, os.path.join(FIXDIR, f"sketches_approx_{tag}.parquet"))
    print(f"sketches_approx_{tag}: {t.num_rows} rows")
    t = gen_ann_approx_topk(sf_dir)
    pq.write_table(t, os.path.join(FIXDIR, f"ann_approx_topk_{tag}.parquet"))
    print(f"ann_approx_topk_{tag}: {t.num_rows} rows")


if __name__ == "__main__":
    dirs = sys.argv[1:] or ["/root/testdata/sf0.01"]
    for d in dirs:
        gen_fixtures(d, os.path.basename(os.path.normpath(d)))
