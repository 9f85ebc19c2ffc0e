"""Block-max WAND: exact top-k equivalence + actual block skipping.

The WAND path (query/wand.py) must return byte-identical top-k to the full
evaluator for every Term / Or-of-Terms query, while decoding strictly fewer
blocks on skewed corpora (the reference's block_quality pruning,
collectors.py:376-420, is likewise exact)."""

from __future__ import annotations

import glob

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.query import Or, Term
from whoosh_reloaded_ray.query.wand import topk_wand, wandable_terms
from whoosh_reloaded_ray.query.exec import evaluate
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("wandcorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=4000, avg_turn_words=30, seed=17, rows_per_file=1000)
    idx_dir = str(tmp_path_factory.mktemp("wandidx"))
    build_index([path], idx_dir, num_shards=4, partition_rows=1000)
    return IndexSearcher(idx_dir)


def _vocab_by_df(searcher):
    files = glob.glob(f"{searcher.index_dir}/seg-*/terminfo-*.parquet")
    t = pa.concat_tables(pq.read_table(f, columns=["field", "term", "doc_freq"]) for f in files)
    t = t.filter(pc.equal(t["field"], "text"))
    agg = t.group_by("term").aggregate([("doc_freq", "sum")]).sort_by(
        [("doc_freq_sum", "descending")]
    )
    return agg["term"].to_pylist()


def _full_topk(searcher, q, k):
    """Reference result: unpruned evaluation + driver top-k."""
    reader = searcher.local.readers[0]
    ctx = searcher._context(q)
    docs, scores = evaluate(reader, q, ctx, scored=True)
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


def test_wand_equals_full_random(index):
    vocab = _vocab_by_df(index)
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        terms = list(rng.choice(vocab[: min(len(vocab), 400)], size=n, replace=False))
        boosts = rng.choice([1.0, 1.0, 2.0, 0.5], size=n)
        q = (
            Term("text", terms[0], boost=float(boosts[0]))
            if n == 1
            else Or([Term("text", t, boost=float(b)) for t, b in zip(terms, boosts)])
        )
        k = int(rng.integers(1, 20))
        res = index.search(q, limit=k)
        fdocs, fscores = _full_topk(index, q, k)
        np.testing.assert_array_equal(res["docnum"].to_numpy(), fdocs)
        np.testing.assert_allclose(res["score"].to_numpy(), fscores, rtol=0, atol=0)


def test_wand_skips_blocks_on_skew(index):
    vocab = _vocab_by_df(index)
    hot, rare = vocab[0], vocab[300]
    q = Or([Term("text", hot), Term("text", rare)])
    ctx = index._context(q)
    reader = index.local.readers[0]
    stats: dict = {}
    mode, tlist = wandable_terms(q)
    topk_wand(reader, tlist, ctx, 5, stats_out=stats, mode=mode)
    assert stats["blocks_total"] > 4, "hot term should have several blocks"
    assert stats["blocks_decoded"] < stats["blocks_total"], (
        f"expected pruning: {stats}"
    )


def test_wand_single_hot_term(index):
    vocab = _vocab_by_df(index)
    q = Term("text", vocab[0])
    res = index.search(q, limit=10)
    fdocs, fscores = _full_topk(index, q, 10)
    np.testing.assert_array_equal(res["docnum"].to_numpy(), fdocs)
    np.testing.assert_allclose(res["score"].to_numpy(), fscores, atol=0)


def test_dismax_routed_exact(index):
    """DisMax routes to the conservative tail-prune path (topk_dismax);
    cold start decodes everything, so results must match the full
    cursor-quirk evaluator exactly."""
    from whoosh_reloaded_ray.query import DisMax
    from whoosh_reloaded_ray.query.wand import wandable_dismax, wandable_terms

    vocab = _vocab_by_df(index)
    q = DisMax([Term("text", vocab[0]), Term("text", vocab[100])])
    assert wandable_terms(q) is None
    assert wandable_dismax(q) is not None
    res = index.search(q, limit=10)
    fdocs, fscores = _full_topk(index, q, 10)
    np.testing.assert_array_equal(res["docnum"].to_numpy(), fdocs)
    np.testing.assert_allclose(res["score"].to_numpy(), fscores, atol=0)


def test_dismax_hot_theta_exact_fuzz(index):
    """With a hot theta (seeded from a worker's earlier segments), the
    DisMax tail prune must return the exact top-k of the full
    cursor-quirk evaluator (on a uniform corpus it rarely SKIPS — the
    qualifying blocks span the doc range — so this fuzz checks only
    exactness; the skip behavior is exercised on a skewed corpus below)."""
    from whoosh_reloaded_ray.query import DisMax
    from whoosh_reloaded_ray.query.wand import topk_dismax, wandable_dismax

    vocab = _vocab_by_df(index)
    rng = np.random.default_rng(11)
    reader = index.local.readers[0]
    for trial in range(20):
        n = int(rng.integers(2, 5))
        terms = list(rng.choice(vocab[: min(len(vocab), 400)], size=n, replace=False))
        boosts = rng.choice([1.0, 1.0, 2.0, 0.5], size=n)
        q = DisMax([Term("text", t, boost=float(b)) for t, b in zip(terms, boosts)])
        k = int(rng.integers(1, 10))
        fdocs, fscores = _full_topk(index, q, k)
        if fscores.size < k:
            continue
        theta = float(fscores[-1])  # exact kth-best: valid lower bound
        ctx = index._context(q)
        st: dict = {}
        docs, scores = topk_dismax(
            reader, wandable_dismax(q), ctx, k,
            initial_theta=theta, stats_out=st,
        )
        # topk_dismax returns doc-sorted (like topk_wand); rank for compare
        o = np.lexsort((docs, -scores))
        np.testing.assert_array_equal(docs[o], fdocs)
        np.testing.assert_allclose(scores[o], fscores, atol=0)


def test_dismax_tail_prune_skips_on_skew(ray_session, tmp_path_factory):
    """Tail pruning bites when the high-IDF child's postings END EARLY in
    doc order (the impact-ordered layout a static-rank sort produces): the
    rare term drives theta above every later block's bound, so the hot
    term's tail blocks are skipped — and the result still matches the
    full evaluator exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.query import DisMax
    from whoosh_reloaded_ray.query.wand import topk_dismax, wandable_dismax

    n = 4000
    texts = [
        ("zzzrare filler alpha beta" if i < n // 8 else "common filler alpha beta")
        for i in range(n)
    ]
    d = tmp_path_factory.mktemp("dmskew")
    path = str(d / "t.parquet")
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array([f"c{i}" for i in range(n)]),
                "turn_idx": pa.array(list(range(n)), pa.int64()),
                "role": pa.array(["user"] * n),
                "text": pa.array(texts),
            }
        ),
        path,
    )
    idx = str(tmp_path_factory.mktemp("dmskewidx"))
    build_index([path], idx, num_shards=2, partition_rows=4000)
    s = IndexSearcher(idx)
    q = DisMax([Term("text", "zzzrare"), Term("text", "common")])
    k = 5
    fdocs, fscores = _full_topk(s, q, k)
    theta = float(fscores[-1])
    ctx = s._context(q)
    st: dict = {}
    docs, scores = topk_dismax(
        s.local.readers[0], wandable_dismax(q), ctx, k,
        initial_theta=theta, stats_out=st,
    )
    o = np.lexsort((docs, -scores))
    np.testing.assert_array_equal(docs[o], fdocs)
    np.testing.assert_allclose(scores[o], fscores, atol=0)
    assert st["blocks_total"] > 10
    assert st["blocks_decoded"] < st["blocks_total"] // 2, st


def test_dismax_theta_threading_multisegment(ray_session, tmp_path_factory):
    """DisMax through the full search path on a multi-segment index:
    segment-to-segment theta threading must not change results."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.query import DisMax
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts

    d = tmp_path_factory.mktemp("dmthetacorpus")
    path = str(d / "t.parquet")
    generate_transcripts(path, n_turns=2000, avg_turn_words=25, seed=29, rows_per_file=250)
    idx = str(tmp_path_factory.mktemp("dmthetaidx"))
    build_index([path], idx, num_shards=4, partition_rows=250, rows_per_segment=500)
    s = IndexSearcher(idx)
    assert len(s.manifest.segments) >= 3
    vocab = _vocab_by_df(s)
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(2, 4))
        terms = list(rng.choice(vocab[: min(len(vocab), 300)], size=n, replace=False))
        q = DisMax([Term("text", t) for t in terms])
        pruned = s.search(q, limit=10)
        fdocs, fscores = _full_topk_multiseg(s, q, 10)
        np.testing.assert_array_equal(pruned["docnum"].to_numpy(), fdocs)
        np.testing.assert_allclose(pruned["score"].to_numpy(), fscores, atol=0)


def test_theta_threading_multisegment(ray_session, tmp_path_factory):
    """Theta carried across segments must not change top-k results."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts

    d = tmp_path_factory.mktemp("thetacorpus")
    path = str(d / "t.parquet")
    generate_transcripts(path, n_turns=2000, avg_turn_words=25, seed=23, rows_per_file=250)
    idx = str(tmp_path_factory.mktemp("thetaidx"))
    build_index([path], idx, num_shards=4, partition_rows=250, rows_per_segment=500)
    s = IndexSearcher(idx)
    assert len(s.manifest.segments) >= 3
    vocab = _vocab_by_df(s)
    for terms in ([vocab[0]], [vocab[0], vocab[50]], [vocab[10], vocab[200], vocab[400]]):
        q = Term("text", terms[0]) if len(terms) == 1 else Or([Term("text", t) for t in terms])
        pruned = s.search(q, limit=10)
        fdocs, fscores = _full_topk_multiseg(s, q, 10)
        np.testing.assert_array_equal(pruned["docnum"].to_numpy(), fdocs)
        np.testing.assert_allclose(pruned["score"].to_numpy(), fscores, atol=0)


def _full_topk_multiseg(searcher, q, k):
    ctx = searcher._context(q)
    docs_all, scores_all = [], []
    for r in searcher.local.readers:
        d, sc = evaluate(r, q, ctx, scored=True)
        docs_all.append(d)
        scores_all.append(sc)
    docs = np.concatenate(docs_all)
    scores = np.concatenate(scores_all)
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]
