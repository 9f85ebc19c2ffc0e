"""Byte-pair-encoding tokenizer trained on the corpus (Sennrich et al.
2016, "Neural Machine Translation of Rare Words with Subword Units").

The canonical LLM-training-data tokenization path, structured for scale:

1. **Word counts** (distributed): ``map_batches`` explodes each batch into
   (word, n) partial counts — one row per UNIQUE word per batch, a
   map-side combine — then a ``groupby(word).sum`` shuffle yields corpus
   counts.  The driver fetches only the top ``max_vocab_words`` rows
   (frequency-capped, so driver memory is bounded regardless of corpus
   size; classic BPE trains on a word-frequency dict, not the raw text).
2. **Merge training** (driver, classical): start from characters,
   repeatedly merge the most frequent adjacent symbol pair (ties broken
   lexicographically for determinism), ``n_merges`` times.
3. **Apply** (distributed): the merge table is ``ray.put`` ONCE and read
   zero-copy by an actor-pool tokenizer whose per-word results are
   memoized per actor — each unique word is merged once per actor, and
   batches count tokens vectorized over the memo.

No SQL oracle (BPE is not reasonably expressible in ANSI SQL): the gate
is rows-only; correctness is covered by unit tests against an
independent naive implementation plus algebraic invariants.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

MAX_VOCAB_WORDS = 50_000
N_MERGES = 200
END_OF_WORD = "▁"  # marks word ends so merges can't cross words


def _word_count_rows(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    words = pc.list_flatten(
        pc.split_pattern(pc.utf8_lower(batch.column("text").combine_chunks()), " ")
    )
    keys, counts = np.unique(np.asarray(words), return_counts=True)
    return pa.table(
        {"word": pa.array(keys.tolist(), pa.string()), "n": pa.array(counts, pa.int64())}
    )


def corpus_word_counts(sf_dir: str, max_words: int = MAX_VOCAB_WORDS):
    """(word, n) corpus counts, truncated to the ``max_words`` most
    frequent (ties by word) — the bounded training dictionary."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    from .partition import (
        PART_COL,
        arrow_group_aggregate,
        num_partitions_default,
        partition_ids,
        partitioned_map_groups,
        polyhash64,
    )

    P = num_partitions_default()

    def addp(batch: pa.Table) -> pa.Table:
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(polyhash64(batch["word"]), P))
        )

    def sum_words(part: pa.Table) -> pa.Table:
        # vocab-cardinality key: Arrow C++ group_by per hash partition
        # (see functions/partition.py) with a partition-local top-k —
        # sound because each word lives in exactly one partition
        g = arrow_group_aggregate(part, "word", [("n", "sum")])
        if g.num_rows > max_words:
            cnt = g["n_sum"].to_numpy(zero_copy_only=False)
            words = g["word"].to_numpy(zero_copy_only=False)
            order = np.lexsort((words, -cnt))[:max_words]
            g = g.take(pa.array(np.sort(order), pa.int64()))
        return g

    counted = partitioned_map_groups(
        ds.map_batches(_word_count_rows, batch_format="pyarrow").map_batches(
            addp, batch_format="pyarrow"
        ),
        sum_words,
    )
    # tie-break by word so the max_words truncation boundary is stable
    rows = (
        counted.sort(["n_sum", "word"], descending=[True, False])
        .limit(max_words)
        .take_all()
    )
    return {r["word"]: int(r["n_sum"]) for r in rows if r["word"]}


def train_merges(word_counts: dict, n_merges: int = N_MERGES) -> list:
    """Classical BPE training over a word-frequency dict: each round
    merges the (count-max, then lexicographically-least) adjacent symbol
    pair.  Returns the ordered merge list [(a, b), ...]."""
    vocab = {
        tuple(word) + (END_OF_WORD,): n for word, n in word_counts.items() if word
    }
    merges: list = []
    for _ in range(n_merges):
        pair_counts: dict = {}
        for sym, n in vocab.items():
            for i in range(len(sym) - 1):
                p = (sym[i], sym[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + n
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        merged = best[0] + best[1]
        new_vocab: dict = {}
        for sym, n in vocab.items():
            out, i = [], 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == best[0] and sym[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + n
        vocab = new_vocab
    return merges


def apply_merges(word: str, ranks: dict) -> list:
    """Encode one word with a trained merge-rank table: always apply the
    LOWEST-rank applicable merge first (the standard BPE inference rule)."""
    sym = list(word) + [END_OF_WORD]
    while len(sym) > 1:
        best_rank, best_i = None, None
        for i in range(len(sym) - 1):
            r = ranks.get((sym[i], sym[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_i is None:
            break
        sym[best_i : best_i + 2] = [sym[best_i] + sym[best_i + 1]]
    return sym


class BpeTokenCounter:
    """Actor-pool stage: per-doc BPE token counts.  The merge table ref is
    resolved once per actor; per-word encodings are memoized so each
    unique word is merged once per actor lifetime."""

    def __init__(self, merges_ref):
        import ray

        merges = ray.get(merges_ref)
        self.ranks = {tuple(p): i for i, p in enumerate(merges)}
        self.memo: dict = {}

    def _count(self, word: str) -> int:
        n = self.memo.get(word)
        if n is None:
            n = self.memo[word] = len(apply_merges(word, self.ranks))
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = batch.column("text").combine_chunks()
        words = pc.split_pattern(pc.utf8_lower(texts), " ")
        n_tok = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(pc.list_flatten(words))
        # memoized per-unique-word counts, then scatter back
        uniq, inv = np.unique(flat, return_inverse=True)
        per_word = np.array([self._count(w) for w in uniq.tolist()], dtype=np.int64)
        flat_counts = per_word[inv]
        starts = np.zeros(n_tok.size, dtype=np.int64)
        np.cumsum(n_tok[:-1], out=starts[1:])
        doc_counts = np.add.reduceat(flat_counts, starts) if flat_counts.size else np.zeros(0, np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_tok, pa.int64()),
                "n_bpe_tokens": pa.array(doc_counts, pa.int64()),
            }
        )


def unigram_logprob(sf_dir: str) -> pa.Table:
    """Per-doc mean unigram log-probability — the classic cheap language-
    model quality signal (docs full of corpus-atypical tokens score low).

    Distributed: corpus word counts via the map-side-combined groupby,
    broadcast ONCE via ``ray.put`` as a vectorized lookup (sorted word
    array + logprob array, np.searchsorted per batch); per-doc mean is a
    reduceat over the flattened word stream.  Smoothing: unseen words get
    log(0.5 / total) (counts are corpus-wide here; at open-web scale the
    count table is the top-K vocabulary and the unseen mass is real).

    Output: (doc_id, n_tokens, mean_logprob) rounded to 6dp."""
    import math

    import ray
    import ray.data
    import pyarrow.compute as pc

    counts = corpus_word_counts(sf_dir)
    total = sum(counts.values())
    words_sorted = np.array(sorted(counts))
    logp = np.array(
        [math.log(counts[w] / total) for w in words_sorted.tolist()], dtype=np.float64
    )
    unseen = math.log(0.5 / total)
    table_ref = ray.put((words_sorted, logp))

    def score(batch: pa.Table) -> pa.Table:
        ws, lp = ray.get(table_ref)
        texts = batch.column("text").combine_chunks()
        words = pc.split_pattern(pc.utf8_lower(texts), " ")
        n_tok = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(pc.list_flatten(words))
        idx = np.searchsorted(ws, flat)
        idx_c = np.minimum(idx, ws.size - 1)
        hit = (idx < ws.size) & (ws[idx_c] == flat)
        flat_lp = np.where(hit, lp[idx_c], unseen)
        starts = np.zeros(n_tok.size, dtype=np.int64)
        np.cumsum(n_tok[:-1], out=starts[1:])
        mean_lp = np.round(np.add.reduceat(flat_lp, starts) / n_tok, 6)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "mean_logprob": pa.array(mean_lp, pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    t = pa.concat_tables(
        ds.map_batches(score, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    return t.sort_by("doc_id")


def oracle_unigram_logprob() -> str:
    return """
WITH w AS (SELECT doc_id, unnest(string_split(lower(text), ' ')) AS word
           FROM documents),
cnt AS (SELECT word, COUNT(*)::DOUBLE n FROM w GROUP BY word),
tot AS (SELECT SUM(n) t FROM cnt),
scored AS (
  SELECT w.doc_id, ln(cnt.n / tot.t) lp
  FROM w JOIN cnt USING (word) CROSS JOIN tot)
SELECT doc_id, COUNT(*)::BIGINT AS n_tokens,
       ROUND(AVG(lp), 6) AS mean_logprob
FROM scored GROUP BY doc_id ORDER BY doc_id
"""


def bpe_token_counts(sf_dir: str, n_merges: int = N_MERGES) -> pa.Table:
    """Gate query: train BPE on the corpus's word-frequency dict, then
    count per-doc BPE tokens with the broadcast merge table.  Checked
    against a committed fixture from an independent naive implementation
    (scripts/gen_gate_fixtures.py, tests/test_gate_fixtures.py)."""
    import ray
    import ray.data

    from . import actor_pool_size as _pool

    counts = corpus_word_counts(sf_dir)
    merges = train_merges(counts, n_merges=n_merges)
    merges_ref = ray.put(merges)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(
        BpeTokenCounter,
        fn_constructor_args=(merges_ref,),
        concurrency=_pool(),
        batch_size=256,
        batch_format="pyarrow",
    )
    t = pa.concat_tables(out.iter_batches(batch_format="pyarrow", batch_size=None))
    return t.sort_by("doc_id")
