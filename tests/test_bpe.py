"""BPE tokenizer: training + inference vs an independent naive
implementation, plus the distributed token-count pipeline."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from corpus_pipelines.bpe import (
    END_OF_WORD,
    apply_merges,
    bpe_token_counts,
    corpus_word_counts,
    train_merges,
)

SF = "/root/testdata/sf0.001"


def naive_train(word_counts, n_merges):
    """Independent reference: Sennrich et al. 2016 fig. 1 algorithm,
    written differently from the library version (string-space merge via
    symbol lists rebuilt each round)."""
    vocab = [(list(w) + [END_OF_WORD], n) for w, n in word_counts.items() if w]
    out = []
    for _ in range(n_merges):
        pairs = {}
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


def naive_encode(word, merges):
    sym = list(word) + [END_OF_WORD]
    for a, b in merges:  # training order = rank order
        i = 0
        while i < len(sym) - 1:
            if sym[i] == a and sym[i + 1] == b:
                sym[i : i + 2] = [a + b]
            else:
                i += 1
    return sym


def test_train_matches_naive():
    wc = {"low": 5, "lower": 2, "newest": 6, "widest": 3, "new": 1}
    assert train_merges(wc, 12) == naive_train(wc, 12)


def test_encode_matches_naive_on_training_words():
    wc = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = train_merges(wc, 10)
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    for w in list(wc) + ["lowest", "wider", "newer", "x", ""]:
        assert apply_merges(w, ranks) == naive_encode(w, merges), w


def test_classic_sennrich_shape():
    # the canonical example: 'es' then 'est' merge first
    wc = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = train_merges(wc, 3)
    assert merges[0] == ("e", "s") and merges[1] == ("es", "t")


def test_corpus_pipeline(ray_session):
    t = bpe_token_counts(SF, n_merges=60)
    docs = pq.read_table(SF + "/documents.parquet", columns=["doc_id"])
    assert t.num_rows == docs.num_rows
    nw = np.asarray(t["n_words"])
    nb = np.asarray(t["n_bpe_tokens"])
    assert (nb >= nw).all()  # each word is >= 1 token
    # with only 60 merges most words stay multi-token
    assert nb.sum() > nw.sum()
    # deterministic: retrain+recount gives identical results
    t2 = bpe_token_counts(SF, n_merges=60)
    assert t.equals(t2)


def test_word_counts_match_python(ray_session):
    got = corpus_word_counts(SF, max_words=100)
    texts = pq.read_table(SF + "/documents.parquet", columns=["text"])["text"].to_pylist()
    from collections import Counter

    c = Counter(w for t in texts for w in t.lower().split(" ") if w)
    expect = dict(sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:100])
    assert got == expect


def test_unigram_logprob(ray_session):
    import duckdb

    from corpus_pipelines.bpe import oracle_unigram_logprob, unigram_logprob

    t = unigram_logprob(SF)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    o = con.sql(oracle_unigram_logprob()).arrow()
    assert t.num_rows == o.num_rows
    for c in t.column_names:
        assert t[c].to_pylist() == o[c].to_pylist(), c
    # typical docs score higher than a doc of rare tokens would
    assert max(t["mean_logprob"].to_pylist()) < 0
