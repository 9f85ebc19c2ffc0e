"""Training-data curation ops: n-gram statistics, benchmark
decontamination, repetition filtering, PII redaction, sequence packing.

These complement ``corpus_ops`` (dedup / near-dup / quality) with the
remaining hygiene stages a large-scale LLM-data pipeline runs before
training.  Every op is a lazy Ray Data pipeline with (where
SQL-expressible) a matching DuckDB oracle wired through
``__ray_entry__``:

  * ``top_ngrams``       — corpus-wide top-k word n-grams.  Per-batch
    combiner (``pc.value_counts``) shrinks the shuffle to one row per
    distinct n-gram per batch before the ``groupby().sum()``.
  * ``decontaminate``    — GPT-3-style benchmark decontamination: flag
    every training doc sharing any word n-gram with the held-out set
    (here: ``doc_id % 97 == 0``).  Distributed semi-join: n-gram-hash
    groupby, emit non-benchmark doc_ids from mixed groups.  No driver-
    side n-gram set — the benchmark may be arbitrarily large.
  * ``repetition_stats`` — Gopher-style repetition signals per doc
    (distinct-token fraction, most-frequent-bigram share), fully
    vectorized (dictionary codes + np.unique, no Python loop over rows).
  * ``redact_pii``       — regex scrub (email / IPv4 / number runs) over
    ``events.props`` with per-pattern match counts; all-Arrow
    (``pc.replace_substring_regex`` / ``pc.count_substring_regex``, RE2
    on both the Ray side and the DuckDB oracle).
  * ``pack_sequences``   — deterministic greedy next-fit packing of docs
    into fixed token-budget bins, per ``source`` partition.  The
    sequential fold runs inside ``map_groups`` per source (bounded
    group), never on the driver; bin ids are local to the source so the
    op needs no global coordination.

Scale notes: ``top_ngrams`` / ``decontaminate`` shuffle one row per
distinct n-gram (hash-keyed, uniform); ``repetition_stats`` and
``redact_pii`` are map-only; ``pack_sequences`` is one groupby on the
pre-existing ``source`` key.  Reference parity: the reference engine has
no curation layer — these ops extend it per the 100 TB brief (SURVEY.md
Section 2 addendum).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import (
    PART_COL,
    arrow_group_aggregate,
    num_partitions_default,
    partition_ids,
    partitioned_map_groups,
    polyhash64,
)
from .corpus_ops import _flat_ngrams, _hash64, _read_documents, _split_lower

DECON_N = 4  # word n-gram size for decontamination
DECON_BENCH_MOD = 97  # doc_id % MOD == 0 -> held-out benchmark doc
TOP_NGRAM_N = 3
TOP_NGRAM_K = 20
PACK_BUDGET = 256  # tokens per packed sequence bin

# RE2-compatible on BOTH sides (Arrow compute and DuckDB use RE2).
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
PII_NUM = r"[0-9]+"


# ---------------------------------------------------------------------------
# shared: vectorized flat n-gram strings for a batch
# ---------------------------------------------------------------------------


def _ngram_hashes(ngs: pa.Array) -> np.ndarray:
    """int64 hashes per n-gram, cost-adaptive on string length: short
    n-grams (3-4 words) hash fastest via the vectorized polynomial
    fingerprint off the Arrow buffers (functions/partition.polyhash64 —
    cost scales with CHARS; ~2x the blake path at n=4), long spans
    (dup_spans' 20-gram, ~135 chars) via dictionary-encode + blake2b per
    UNIQUE value (cost scales with VALUE COUNT; ~1.6x poly there).
    Collisions merge two n-grams' groups (poly ~n^2/2^64, blake
    ~n^2/2^61); every consuming gate is verified hash-identical against
    its exact string oracle."""
    if len(ngs) == 0:
        return np.empty(0, np.int64)
    if isinstance(ngs, pa.ChunkedArray):
        ngs = ngs.combine_chunks()
    if ngs.nbytes / max(len(ngs), 1) <= 64:
        return polyhash64(ngs).view(np.int64)
    denc = pc.dictionary_encode(ngs)
    uh = _hash64(denc.dictionary.to_pylist()).view(np.int64)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return uh[codes]


# ---------------------------------------------------------------------------
# top-k corpus n-grams
# ---------------------------------------------------------------------------


def top_ngrams(sf_dir: str, n: int = TOP_NGRAM_N, k: int = TOP_NGRAM_K) -> pa.Table:
    """Top-k most frequent word n-grams corpus-wide.

    Per-batch partial counts (one row per distinct n-gram per batch)
    combine BEFORE the shuffle, so the all-to-all moves the batch-local
    vocabulary, not one row per token position.  The shuffle key is a
    small hash-partition id, NOT the n-gram string — Ray's sort-based
    groupby walks group boundaries in Python, which is pathological at
    n-gram cardinality (see functions/partition.py; 10.8x measured).
    Each partition aggregates with Arrow's C++ group_by and yields its
    local top-k (sound: every n-gram lives in exactly one partition).
    Ties break on the n-gram string, making the k-boundary
    deterministic."""
    ds = _read_documents(sf_dir, ["text"])
    P = num_partitions_default()

    def partial(batch: pa.Table) -> pa.Table:
        ngs, _ = _flat_ngrams(batch["text"], n)
        if len(ngs) == 0:
            return pa.table(
                {
                    PART_COL: pa.array([], pa.int64()),
                    "ng": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        vc = pc.value_counts(ngs)
        vals = vc.field("values")
        return pa.table(
            {
                PART_COL: pa.array(partition_ids(polyhash64(vals), P)),
                "ng": vals,
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def local_topk(part: pa.Table) -> pa.Table:
        g = arrow_group_aggregate(part, "ng", [("n", "sum")])
        cnt = g["n_sum"].to_numpy(zero_copy_only=False)
        ngs = g["ng"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ngs, -cnt))[:k]
        return pa.table(
            {"ng": pa.array(ngs[order].tolist(), pa.string()),
             "n": pa.array(cnt[order], pa.int64())}
        )

    cand = partitioned_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), local_topk
    )
    t = pa.concat_tables(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    cnt = t["n"].to_numpy(zero_copy_only=False)
    ngs = t["ng"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ngs, -cnt))[:k]
    return pa.table(
        {"ng": pa.array(ngs[order].tolist(), pa.string()),
         "n": pa.array(cnt[order], pa.int64())}
    )


def oracle_top_ngrams() -> str:
    n, k = TOP_NGRAM_N, TOP_NGRAM_K
    return f"""
WITH t AS (SELECT string_split(lower(text), ' ') AS toks FROM documents),
g AS (SELECT array_to_string(toks[i+1:i+{n}], ' ') AS ng
      FROM t, unnest(range(len(toks) - {n - 1})) AS u(i)
      WHERE len(toks) >= {n})
SELECT ng, CAST(count(*) AS BIGINT) AS n
FROM g GROUP BY ng ORDER BY n DESC, ng LIMIT {k}
"""


# ---------------------------------------------------------------------------
# benchmark decontamination
# ---------------------------------------------------------------------------


def decontaminate(
    sf_dir: str, n: int = DECON_N, bench_mod: int = DECON_BENCH_MOD
) -> pa.Table:
    """doc_ids of training docs contaminated by the held-out benchmark:
    any shared word ``n``-gram with a benchmark doc (``doc_id %
    bench_mod == 0``) flags the doc (GPT-3 appendix-C style).

    Distributed semi-join: (ngram-hash, doc_id, is_bench) rows, deduped
    per batch, one groupby on the 61-bit hash; mixed groups emit their
    non-benchmark doc_ids, a second groupby dedups docs flagged by many
    n-grams.  The benchmark side is never collected to the driver, so it
    may be arbitrarily large (hash collisions: < n_distinct^2 / 2^61,
    negligible; the gate corpus was verified collision-free vs the exact
    string oracle)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    P = num_partitions_default()

    def ngram_rows(batch: pa.Table) -> pa.Table:
        ngs, nng = _flat_ngrams(batch["text"], n)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = _ngram_hashes(ngs)
        d = np.repeat(doc, nng)
        rec = np.rec.fromarrays([h, d], names="h,d")
        uniq = np.unique(rec)
        hu, du = uniq["h"], uniq["d"]
        return pa.table(
            {
                PART_COL: pa.array(partition_ids(hu.view(np.uint64), P)),
                "h": pa.array(hu, pa.int64()),
                "doc_id": pa.array(du, pa.int64()),
                "bench": pa.array(du % bench_mod == 0),
            }
        )

    def emit_contaminated(part: pa.Table) -> pa.Table:
        # vectorized over ALL hash-groups in the partition: sort by h,
        # per-group bench counts via reduceat, members of mixed groups
        # that are not benchmark docs are contaminated
        h = part["h"].to_numpy(zero_copy_only=False)
        docs = part["doc_id"].to_numpy(zero_copy_only=False)
        bench = part["bench"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        h, docs, bench = h[order], docs[order], bench[order]
        starts = np.concatenate(([0], np.flatnonzero(h[1:] != h[:-1]) + 1))
        sizes = np.diff(np.concatenate((starts, [len(h)])))
        bcnt = np.add.reduceat(bench.astype(np.int64), starts)
        mixed = (bcnt > 0) & (bcnt < sizes)
        member_mixed = np.repeat(mixed, sizes)
        out = np.unique(docs[member_mixed & ~bench])
        return pa.table({"doc_id": pa.array(out, pa.int64())})

    def distinct_docs(part: pa.Table) -> pa.Table:
        d = np.unique(part["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": pa.array(d, pa.int64())})

    def docpart(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                PART_COL: pa.array(partition_ids(d.astype(np.uint64), P)),
                "doc_id": batch["doc_id"],
            }
        )

    flagged = partitioned_map_groups(
        partitioned_map_groups(
            ds.map_batches(ngram_rows, batch_format="pyarrow"), emit_contaminated
        ).map_batches(docpart, batch_format="pyarrow"),
        distinct_docs,
    )
    parts = list(flagged.iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:  # clean corpus: nothing contaminated
        return pa.table({"doc_id": pa.array([], pa.int64())})
    t = pa.concat_tables(parts)
    return pa.table({"doc_id": t["doc_id"]}).sort_by("doc_id")


def oracle_decontaminate() -> str:
    n, m = DECON_N, DECON_BENCH_MOD
    return f"""
WITH t AS (SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents),
g AS (SELECT doc_id, array_to_string(toks[i+1:i+{n}], ' ') AS ng
      FROM t, unnest(range(len(toks) - {n - 1})) AS u(i)
      WHERE len(toks) >= {n}),
bench AS (SELECT DISTINCT ng FROM g WHERE doc_id % {m} = 0)
SELECT DISTINCT doc_id FROM g
WHERE doc_id % {m} <> 0 AND ng IN (SELECT ng FROM bench)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# repetition stats (Gopher-style signals)
# ---------------------------------------------------------------------------


def repetition_stats(sf_dir: str, collect: bool = True):
    """Per-doc repetition signals: token counts, distinct tokens, and the
    most-frequent-bigram count/share (Gopher Table A1's duplication
    family re-expressed for the space-tokenized corpus).  Vectorized:
    dictionary codes + np.unique over (row, code) keys — no per-row
    Python loop."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        flat, counts = _split_lower(batch["text"])
        nrows = len(counts)
        doc = batch["doc_id"]
        denc = pc.dictionary_encode(
            flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        )
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.int64(max(len(denc.dictionary), 1))
        row = np.repeat(np.arange(nrows, dtype=np.int64), counts)
        # distinct tokens per row
        uniq_rows = np.unique(row * V + codes) // V
        n_distinct = np.bincount(uniq_rows, minlength=nrows)
        # most-frequent bigram per row
        nbg = np.maximum(counts - 1, 0)
        top_bg = np.zeros(nrows, np.int64)
        if nbg.sum() > 0:
            row_off = np.concatenate(([0], np.cumsum(counts)[:-1]))
            bg_row = np.repeat(np.arange(nrows, dtype=np.int64), nbg)
            intra = np.arange(int(nbg.sum())) - np.repeat(
                np.concatenate(([0], np.cumsum(nbg)[:-1])), nbg
            )
            p = row_off[bg_row] + intra
            key = (bg_row * V + codes[p]) * V + codes[p + 1]
            uk, cnt = np.unique(key, return_counts=True)
            np.maximum.at(top_bg, (uk // V) // V, cnt)
        nt = counts.astype(np.float64)
        frac = np.divide(top_bg, nt - 1.0, out=np.zeros(nrows), where=counts > 1)
        return pa.table(
            {
                "doc_id": doc,
                "n_tokens": pa.array(counts, pa.int64()),
                "n_distinct": pa.array(n_distinct, pa.int64()),
                "top_bigram_n": pa.array(top_bg, pa.int64()),
                "top_bigram_frac": pa.array(frac, pa.float64()),
            }
        )

    out = ds.map_batches(stats, batch_format="pyarrow")
    if not collect:
        return out  # lazy Dataset: at scale, write_parquet this instead
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by("doc_id")


def oracle_repetition_stats() -> str:
    return """
WITH t AS (SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents),
w AS (SELECT doc_id, unnest(toks) AS w FROM t),
base AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
                CAST(count(DISTINCT w) AS BIGINT) AS n_distinct
         FROM w GROUP BY doc_id),
g AS (SELECT doc_id, array_to_string(toks[i+1:i+2], ' ') AS ng
      FROM t, unnest(range(len(toks) - 1)) AS u(i) WHERE len(toks) >= 2),
bc AS (SELECT doc_id, ng, count(*) AS c FROM g GROUP BY doc_id, ng),
mx AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram_n FROM bc GROUP BY doc_id)
SELECT base.doc_id, n_tokens, n_distinct,
       COALESCE(top_bigram_n, 0) AS top_bigram_n,
       CASE WHEN n_tokens > 1
            THEN COALESCE(top_bigram_n, 0) / (n_tokens - 1.0) ELSE 0.0 END
         AS top_bigram_frac
FROM base LEFT JOIN mx USING (doc_id) ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# TF-IDF keyword extraction
# ---------------------------------------------------------------------------

KEYWORDS_PER_DOC = 3


def doc_keywords(sf_dir: str, k: int = KEYWORDS_PER_DOC, collect: bool = True):
    """Top-k TF-IDF keywords per doc: score = tf * ln(N / df), ranked
    (score desc, term asc) on the 6-decimal-rounded score.

    Scale shape: ONE vocab-sized shuffle (df = docs-per-term groupby,
    pre-aggregated per batch), then the df table is broadcast via
    ``ray.put`` and every batch computes its docs' tf + top-k locally —
    docs never shuffle.  Assumes the distinct-term table fits a worker
    (10^7-ish terms is fine); for web-scale vocab, pre-filter
    stopword-frequency terms before the broadcast."""
    import ray

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    n_docs = float(ds.count())

    def batch_term_docs(batch: pa.Table) -> pa.Table:
        # partial df: one row per (term) with the batch's doc-count
        flat, counts = _split_lower(batch["text"])
        denc = pc.dictionary_encode(
            flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        )
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.int64(max(len(denc.dictionary), 1))
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        uniq = np.unique(row * V + codes)  # distinct (doc, term)
        term_codes, df_part = np.unique(uniq % V, return_counts=True)
        terms = denc.dictionary.take(pa.array(term_codes))
        return pa.table(
            {
                PART_COL: pa.array(partition_ids(polyhash64(terms), _P)),
                "term": terms,
                "df": pa.array(df_part, pa.int64()),
            }
        )

    _P = num_partitions_default()

    def sum_df(part: pa.Table) -> pa.Table:
        # vocab-cardinality key: Arrow C++ group_by per hash partition
        # instead of Ray's per-group-Python sort aggregate
        return arrow_group_aggregate(part, "term", [("df", "sum")])

    df_table = pa.concat_tables(
        partitioned_map_groups(
            ds.map_batches(batch_term_docs, batch_format="pyarrow"), sum_df
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    df_map = dict(
        zip(df_table["term"].to_pylist(), df_table["df_sum"].to_pylist())
    )
    df_ref = ray.put(df_map)

    def topk(batch: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        flat, counts = _split_lower(batch["text"])
        denc = pc.dictionary_encode(
            flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        )
        vocab = denc.dictionary.to_pylist()
        df_by_code = np.array([dfm[t] for t in vocab], np.int64)
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.int64(max(len(vocab), 1))
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        key, tf = np.unique(row * V + codes, return_counts=True)
        krow, kcode = key // V, key % V
        kdf = df_by_code[kcode]
        score = np.round(tf * np.log(n_docs / kdf), 6)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        terms = np.array(vocab, dtype=object)[kcode]
        out = {"doc_id": [], "rank": [], "term": [], "tf": [], "df": [], "score": []}
        order = np.lexsort((terms, -score, krow))  # doc, score desc, term
        krow, terms = krow[order], terms[order]
        tf, kdf, score = tf[order], kdf[order], score[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(krow)) + 1, [len(krow)]))
        for i in range(len(starts) - 1):
            lo = starts[i]
            hi = min(starts[i] + k, starts[i + 1])
            m = hi - lo
            out["doc_id"].append(np.full(m, doc[krow[lo]]))
            out["rank"].append(np.arange(1, m + 1))
            out["term"].append(terms[lo:hi])
            out["tf"].append(tf[lo:hi])
            out["df"].append(kdf[lo:hi])
            out["score"].append(score[lo:hi])
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out["doc_id"]), pa.int64()),
                "rank": pa.array(np.concatenate(out["rank"]), pa.int64()),
                "term": pa.array(np.concatenate(out["term"]).tolist(), pa.string()),
                "tf": pa.array(np.concatenate(out["tf"]), pa.int64()),
                "df": pa.array(np.concatenate(out["df"]), pa.int64()),
                "score": pa.array(np.concatenate(out["score"]), pa.float64()),
            }
        )

    out = ds.map_batches(topk, batch_format="pyarrow")
    if not collect:
        return out  # lazy Dataset: at scale, write_parquet this instead
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by([("doc_id", "ascending"), ("rank", "ascending")])


def oracle_doc_keywords() -> str:
    k = KEYWORDS_PER_DOC
    return f"""
WITH t AS (SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents),
w AS (SELECT doc_id, unnest(toks) AS term FROM t),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
       FROM w GROUP BY doc_id, term),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
scored AS (SELECT doc_id, term, tf, df,
                  round(tf * ln((SELECT CAST(count(*) AS DOUBLE) FROM documents) / df), 6) AS score
           FROM tf JOIN df USING (term)),
ranked AS (SELECT *, row_number() OVER
             (PARTITION BY doc_id ORDER BY score DESC, term) AS rank
           FROM scored)
SELECT doc_id, CAST(rank AS BIGINT) AS rank, term, tf, df, score
FROM ranked WHERE rank <= {k} ORDER BY doc_id, rank
"""


# ---------------------------------------------------------------------------
# PII redaction (events.props)
# ---------------------------------------------------------------------------


def redact_pii(sf_dir: str, collect: bool = True):
    """Scrub emails, IPv4 addresses, then remaining number runs from
    ``events.props``, with per-pattern match counts.  Map-only and
    all-Arrow: one ``count_substring_regex`` + one
    ``replace_substring_regex`` per pattern, applied in order (counts
    are taken on the string as it stood BEFORE that pattern's replace,
    matching the oracle's nesting)."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "props"]
    )

    def scrub(batch: pa.Table) -> pa.Table:
        s = pc.fill_null(batch["props"], "")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        out = {"event_id": batch["event_id"]}
        for name, pat, repl in (
            ("n_emails", PII_EMAIL, "<EMAIL>"),
            ("n_ips", PII_IPV4, "<IP>"),
            ("n_nums", PII_NUM, "<NUM>"),
        ):
            out[name] = pc.cast(pc.count_substring_regex(s, pat), pa.int64())
            s = pc.replace_substring_regex(s, pat, repl)
        out["redacted"] = s
        return pa.table(out)

    out = ds.map_batches(scrub, batch_format="pyarrow")
    if not collect:
        return out  # lazy Dataset: at scale, write_parquet this instead
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by("event_id")


def oracle_redact_pii() -> str:
    return f"""
WITH a AS (SELECT event_id,
             CAST(len(regexp_extract_all(props, '{PII_EMAIL}')) AS BIGINT) AS n_emails,
             regexp_replace(props, '{PII_EMAIL}', '<EMAIL>', 'g') AS p1
           FROM events),
b AS (SELECT event_id, n_emails,
             CAST(len(regexp_extract_all(p1, '{PII_IPV4}')) AS BIGINT) AS n_ips,
             regexp_replace(p1, '{PII_IPV4}', '<IP>', 'g') AS p2
      FROM a)
SELECT event_id, n_emails, n_ips,
       CAST(len(regexp_extract_all(p2, '{PII_NUM}')) AS BIGINT) AS n_nums,
       regexp_replace(p2, '{PII_NUM}', '<NUM>', 'g') AS redacted
FROM b ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------


def pack_sequences(sf_dir: str, budget: int = PACK_BUDGET, collect: bool = True):
    """Deterministic greedy next-fit sequence packing: docs in doc_id
    order within each ``source`` fold into bins of at most ``budget``
    tokens (a doc longer than the budget gets its own bin).  Bin ids are
    LOCAL to the source — the partitioning assumption is that one
    training shard == one source group, so packing needs no cross-group
    coordination and the sequential fold runs inside ``map_groups`` on a
    bounded group, never on the driver."""
    ds = _read_documents(sf_dir, ["doc_id", "source", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        _, counts = _split_lower(batch["text"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "n_tokens": pa.array(counts, pa.int64()),
            }
        )

    def pack(group: pa.Table) -> pa.Table:
        g = group.sort_by("doc_id")
        nt = g["n_tokens"].to_numpy(zero_copy_only=False)
        bin_id = np.empty(len(nt), np.int64)
        cur, fill = 0, 0
        for i, n in enumerate(nt):
            if fill > 0 and fill + n > budget:
                cur += 1
                fill = 0
            bin_id[i] = cur
            fill += int(n)
        return g.append_column("bin_id", pa.array(bin_id, pa.int64()))

    out = (
        ds.map_batches(tokens, batch_format="pyarrow")
        .groupby("source")
        .map_groups(pack, batch_format="pyarrow")
    )
    if not collect:
        return out  # lazy Dataset: at scale, write_parquet this instead
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by([("source", "ascending"), ("doc_id", "ascending")])


def oracle_pack_sequences() -> str:
    return f"""
WITH RECURSIVE t AS (
  SELECT doc_id, source, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents),
r AS (
  SELECT doc_id, source, n_tokens, rn, CAST(0 AS BIGINT) AS bin_id,
         n_tokens AS fill
  FROM t WHERE rn = 1
  UNION ALL
  SELECT t.doc_id, t.source, t.n_tokens, t.rn,
         CASE WHEN r.fill + t.n_tokens <= {PACK_BUDGET}
              THEN r.bin_id ELSE r.bin_id + 1 END,
         CASE WHEN r.fill + t.n_tokens <= {PACK_BUDGET}
              THEN r.fill + t.n_tokens ELSE t.n_tokens END
  FROM r JOIN t ON t.source = r.source AND t.rn = r.rn + 1)
SELECT doc_id, source, n_tokens, bin_id FROM r ORDER BY source, doc_id
"""


# ---------------------------------------------------------------------------
# exact duplicated-span detection (substring dedup core)
# ---------------------------------------------------------------------------

DUP_SPAN_N = 20  # tokens per span (Lee et al.'s exact-substring dedup, scaled)


def dup_spans(sf_dir: str, n: int = DUP_SPAN_N, collect: bool = True):
    """(doc_id, pos) of every word ``n``-gram span that occurs more than
    once corpus-wide — the detection core of exact-substring training-
    data dedup (remove-all-but-first repeated spans).

    One groupby on the span's 61-bit hash; groups of size > 1 emit their
    member (doc_id, pos) rows.  Span text never leaves the mapper (the
    shuffle moves 3 ints per span); repeated-span groups are bounded by
    the corpus duplication rate.  ``collect=False`` returns the lazy
    Dataset (at scale the span list feeds a per-doc mask rewrite, not a
    driver collect)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    P = num_partitions_default()

    def span_rows(batch: pa.Table) -> pa.Table:
        ngs, nng = _flat_ngrams(batch["text"], n)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        total = int(nng.sum())
        off = np.concatenate(([0], np.cumsum(nng)[:-1]))
        pos = np.arange(total) - np.repeat(off, nng)
        h = _ngram_hashes(ngs)
        return pa.table(
            {
                PART_COL: pa.array(partition_ids(h.view(np.uint64), P)),
                "h": pa.array(h, pa.int64()),
                "doc_id": pa.array(np.repeat(doc, nng), pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def emit_dups(part: pa.Table) -> pa.Table:
        # all span-hash groups of one partition at once: sort by h,
        # group sizes via reduceat boundaries, keep members of size>1
        # groups (span-hash cardinality makes per-group Python calls
        # pathological — see functions/partition.py)
        h = part["h"].to_numpy(zero_copy_only=False)
        if len(h) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
            )
        order = np.argsort(h, kind="stable")
        h = h[order]
        starts = np.concatenate(([0], np.flatnonzero(h[1:] != h[:-1]) + 1))
        sizes = np.diff(np.concatenate((starts, [len(h)])))
        keep = order[np.repeat(sizes > 1, sizes)]
        return part.select(["doc_id", "pos"]).take(pa.array(np.sort(keep)))

    out = partitioned_map_groups(
        ds.map_batches(span_rows, batch_format="pyarrow"), emit_dups
    )
    if not collect:
        return out
    parts = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:  # no repeated spans anywhere
        return pa.table({"doc_id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())})
    return pa.concat_tables(parts).sort_by(
        [("doc_id", "ascending"), ("pos", "ascending")]
    )


def oracle_dup_spans() -> str:
    n = DUP_SPAN_N
    return f"""
WITH t AS (SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents),
g AS (SELECT doc_id, CAST(i AS BIGINT) AS pos,
             array_to_string(toks[i+1:i+{n}], ' ') AS ng
      FROM t, unnest(range(len(toks) - {n - 1})) AS u(i)
      WHERE len(toks) >= {n}),
d AS (SELECT ng FROM g GROUP BY ng HAVING count(*) > 1)
SELECT doc_id, pos FROM g JOIN d USING (ng) ORDER BY doc_id, pos
"""
