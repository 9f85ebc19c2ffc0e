"""Rank identity against the brute-force BM25F oracle, on both executors.

The oracle (``perfbench/oracle.py``) scores every document by scanning the
corpus text, with none of the engine's index, query or scoring code, and the
query strings come from the benchmark's seeded ``QueryStream``; both are
imported, so the benchmark and this test check answers one way.

An index of three segments over a seeded corpus is searched on the local
executor and on a ray executor whose one actor holds every segment:

* term, AND, OR and NOT queries: the full ranked list scores as the oracle
  does, equal scores come in ascending docnum order, and the top-10 is that
  list's head;
* phrase, prefix, wildcard and range queries: the doc set is the oracle's.

Then a marker batch is appended, a term's documents are deleted, two
segments merge, and both executors are reopened and checked again.

A skewed corpus (one term in about half the turns, one conversation on
about a fifth of the rows) checks that the hot term, whose postings sit in
one shard of each segment, ranks as the oracle ranks it alone and in AND
and OR queries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.oracle import Oracle, check_ranked
from perfbench.workloads import (
    KIND_CYCLE,
    SET_KINDS,
    QueryStream,
    make_corpus,
    parser,
    stopwords_of,
)
from whoosh_reloaded_ray.query import Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher

TURNS = 1536
BATCH = 256
LIMIT = 10
ROUNDS = 3  # queries of each kind per check


def _merge_two_smallest(segments):
    by_size = sorted(segments, key=lambda s: s.doc_count)
    return by_size[:2], by_size[2:]


def _ranked_ok(searcher, q, expected: dict) -> bool:
    full = searcher.search(q, limit=None)
    docs, scores = full["docnum"].to_numpy(), full["score"].to_numpy()
    if not check_ranked(expected, docs, scores, len(expected)):
        return False
    tied = scores[1:] == scores[:-1]
    if not np.all(docs[1:][tied] > docs[:-1][tied]):
        return False
    top = searcher.search(q, limit=LIMIT)
    return np.array_equal(top["docnum"].to_numpy(), docs[:LIMIT]) and np.allclose(
        top["score"].to_numpy(), scores[:LIMIT], rtol=0, atol=1e-9
    )


def _wrong_answers(searcher, qp, oracle, queries, ndocs, deleted) -> list:
    wrong = []
    for kind, text, words in queries:
        q = qp.parse(text)
        if kind in SET_KINDS:
            res = searcher.search(q, limit=None, scored=False)
            ok = set(res["docnum"].to_numpy().tolist()) == oracle.doc_set(
                kind, words, ndocs, deleted
            )
        else:
            ok = _ranked_ok(searcher, q, oracle.bm25(kind, words, ndocs, deleted))
        if not ok:
            wrong.append(f"{kind} {text}")
    return wrong


def _check_both(idx, qp, oracle, queries, ndocs, deleted):
    import ray

    for executor in ("local", "ray"):
        s = IndexSearcher(idx, executor=executor, num_actors=1)
        try:
            if executor == "ray":
                assert len(s.workers) < len(s.manifest.segments)
            assert _wrong_answers(s, qp, oracle, queries, ndocs, deleted) == [], executor
        finally:
            for w in getattr(s, "workers", None) or []:
                ray.kill(w)


def test_ranked_answers_match_oracle_before_and_after_writes(ray_session, tmp_path):
    from whoosh_reloaded_ray.pipelines import merge, write_ops
    from whoosh_reloaded_ray.pipelines.build import build_index

    corpus, batch = str(tmp_path / "corpus.parquet"), str(tmp_path / "batch.parquet")
    # 256-row row groups, so the 512-turn segments can be planned
    generate_transcripts(corpus, n_turns=TURNS, seed=5, rows_per_file=256)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()
    marker = "mkgatex5"
    btexts = make_corpus(batch, BATCH, 6, marker)
    stop = stopwords_of(texts + btexts)
    idx = str(tmp_path / "idx")
    man = build_index([corpus], idx, num_shards=4, rows_per_segment=512, partition_rows=256)
    assert len(man.segments) >= 3

    oracle = Oracle(stop)
    oracle.add(texts)
    stream = QueryStream(texts, stop, [5, 1])
    queries = [stream.next() for _ in range(ROUNDS * len(KIND_CYCLE))]
    qp = parser()
    _check_both(idx, qp, oracle, queries, TURNS, frozenset())

    write_ops.append_documents(idx, [batch])
    oracle.add(btexts)
    ndocs = TURNS + BATCH
    rare = next(w for w in stream.vocab if 2 <= stream.counts[w] <= 4)
    assert write_ops.delete_by_term(idx, "text", rare) > 0
    deleted = frozenset(oracle.docs_with(rare, ndocs)[0].tolist())
    n_before = len(IndexSearcher(idx).manifest.segments)
    man = merge.maybe_merge(idx, policy=_merge_two_smallest)
    assert len(man.segments) == n_before - 1 >= 3

    hits = IndexSearcher(idx).search(Term("text", marker), limit=None, scored=False)
    visible = sorted(set(range(TURNS, ndocs)) - deleted)
    assert sorted(hits["docnum"].to_numpy().tolist()) == visible
    queries.append(("term", marker, [marker]))
    queries.append(("or", f"{marker} OR {rare}", [marker, rare]))
    _check_both(idx, qp, oracle, queries, ndocs, deleted)


def test_skewed_corpus_matches_oracle(ray_session, tmp_path):
    from whoosh_reloaded_ray.pipelines.build import build_index

    corpus, hot = str(tmp_path / "skew.parquet"), "hotspotx"
    generate_transcripts(corpus, n_turns=TURNS, seed=11, rows_per_file=256)
    t = pq.read_table(corpus)
    rng = np.random.default_rng(5)
    texts = [
        f"{hot} {text}" if m else text
        for text, m in zip(t["text"].to_pylist(), rng.random(t.num_rows) < 0.5)
    ]
    convs = [
        "conv-fat" if m else c
        for c, m in zip(t["conv_id"].to_pylist(), rng.random(t.num_rows) < 0.2)
    ]
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts))
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", pa.array(convs))
    pq.write_table(t, corpus, row_group_size=256)
    assert 0.15 < convs.count("conv-fat") / TURNS < 0.25
    idx = str(tmp_path / "idx")
    man = build_index([corpus], idx, num_shards=4, rows_per_segment=512, partition_rows=256)
    assert len(man.segments) >= 3

    stop = stopwords_of(texts)
    oracle = Oracle(stop)
    oracle.add(texts)
    assert 0.4 < oracle.docs_with(hot, TURNS)[0].size / TURNS < 0.6
    stream = QueryStream(texts, stop, [11, 1])
    w1, w2 = [w for w in stream.words(3) if w != hot][:2]
    queries = [
        ("term", hot, [hot]),
        ("and", f"{hot} AND {w1}", [hot, w1]),
        ("or", f"{hot} OR {w2}", [hot, w2]),
    ]
    _check_both(idx, parser(), oracle, queries, TURNS, frozenset())
