"""Segment merge: MERGE_SMALL policy parity + merged-index result identity.

The policy semantics mirror the reference's MERGE_SMALL (writing.py:74-109);
the mechanism is block-row concatenation (see pipelines/merge.py).  After a
merge the index must return byte-identical search results — same docnums,
same scores — because postings, terminfo stats and global stats are all
preserved exactly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from whoosh_reloaded_ray.pipelines.merge import fib, maybe_merge, select_merge_small
from whoosh_reloaded_ray.query import And, Not, Or, Phrase, Prefix, Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.manifest import SegmentMeta, load_manifest
from whoosh_reloaded_ray.state.searcher import IndexSearcher


def _seg(name, count):
    return SegmentMeta(
        name=name, doc_base=0, doc_count=count, num_shards=4,
        partitions=[], field_lengths={},
    )


def test_fib():
    assert [fib(n) for n in range(1, 10)] == [1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_policy_no_merge_point():
    # big segments: cumulative total >= fib(i+5) everywhere -> no merge
    segs = [_seg(f"s{i}", 10_000) for i in range(6)]
    victims, keep = select_merge_small(segs)
    assert victims == [] and keep == segs


def test_policy_small_segments_merge():
    # 6 segments of 5 docs: at i=4 total=25 < fib(9)=55 -> merge first 5
    segs = [_seg(f"s{i}", 5) for i in range(6)]
    victims, keep = select_merge_small(segs)
    assert len(victims) == 5 and len(keep) == 1


def test_policy_requires_five_segments():
    # i > 3 requirement: 4 tiny segments never merge
    segs = [_seg(f"s{i}", 1) for i in range(4)]
    victims, keep = select_merge_small(segs)
    assert victims == []


@pytest.fixture(scope="module")
def multi_segment_index(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("mergecorpus")
    path = str(d / "transcripts.parquet")
    # 20 tiny 8-doc segments: MERGE_SMALL only fires on genuinely small
    # cumulative doc counts (fib(i+5)), mirroring the reference heuristic
    generate_transcripts(path, n_turns=160, avg_turn_words=25, seed=7, rows_per_file=8)
    idx_dir = str(tmp_path_factory.mktemp("mergeidx"))
    build_index([path], idx_dir, num_shards=4, partition_rows=8, rows_per_segment=8)
    return idx_dir


def _common_terms(idx_dir, n=3):
    """Most frequent indexed text terms (so test queries actually match)."""
    import glob as g

    import pyarrow.parquet as pq

    files = sum((g.glob(f"{idx_dir}/seg-*/terminfo-*.parquet") for _ in [0]), [])
    import pyarrow as pa

    t = pa.concat_tables(pq.read_table(f, columns=["field", "term", "doc_freq"]) for f in files)
    t = t.filter(pa.compute.equal(t["field"], "text"))
    agg = t.group_by("term").aggregate([("doc_freq", "sum")])
    agg = agg.sort_by([("doc_freq_sum", "descending")])
    return agg["term"].to_pylist()[:n]


def test_merge_preserves_results(multi_segment_index):
    idx_dir = multi_segment_index
    man0 = load_manifest(idx_dir)
    assert len(man0.segments) >= 6, "fixture should produce many small segments"
    t1, t2, t3 = _common_terms(idx_dir)

    QUERIES = [
        Term("text", t1),
        Or([Term("text", t2), Term("text", t3)]),
        And([Term("text", t1), Not(Term("text", t2))]),
        Prefix("text", t1[:1]),
    ]
    s0 = IndexSearcher(idx_dir)
    # generic query results + stats before merge
    before = [s0.search(q, limit=None) for q in QUERIES]
    vocab_q = Or([Term("text", t) for t in (t1, t2, t3)])
    before.append(s0.search(vocab_q, limit=20))

    man1 = maybe_merge(idx_dir)
    assert len(man1.segments) < len(man0.segments)
    merged_names = {s.name for s in man1.segments}
    assert any("merged" in n for n in merged_names)

    s1 = IndexSearcher(idx_dir)
    assert s1.manifest.doc_count == man0.doc_count
    after = [s1.search(q, limit=None) for q in QUERIES] + [s1.search(vocab_q, limit=20)]
    for b, a in zip(before, after):
        assert b.num_rows == a.num_rows
        np.testing.assert_array_equal(b["docnum"].to_numpy(), a["docnum"].to_numpy())
        np.testing.assert_allclose(b["score"].to_numpy(), a["score"].to_numpy(), rtol=0, atol=0)


def test_optimize_merges_to_one(multi_segment_index):
    idx_dir = multi_segment_index
    (t1,) = _common_terms(idx_dir, 1)
    s0 = IndexSearcher(idx_dir)
    before = s0.search(Term("text", t1), limit=None)
    man = maybe_merge(idx_dir, optimize=True)
    assert len(man.segments) == 1
    s1 = IndexSearcher(idx_dir)
    after = s1.search(Term("text", t1), limit=None)
    np.testing.assert_array_equal(before["docnum"].to_numpy(), after["docnum"].to_numpy())
    np.testing.assert_allclose(before["score"].to_numpy(), after["score"].to_numpy())


def test_merge_raises_on_a_lost_shard_file(ray_session, tmp_path):
    """A victim's shard file that its ``SegmentMeta.files`` lists but that
    is gone makes the merge raise, naming the file, and commits nothing;
    it is never merged as an empty shard."""
    from whoosh_reloaded_ray.pipelines.build import build_index

    path = str(tmp_path / "t.parquet")
    generate_transcripts(path, n_turns=48, avg_turn_words=25, seed=9, rows_per_file=8)
    idx_dir = str(tmp_path / "idx")
    build_index([path], idx_dir, num_shards=4, partition_rows=8, rows_per_segment=8)
    man0 = load_manifest(idx_dir)
    seg = man0.segments[2]
    name = next(f for f in seg.files if f.startswith("terminfo-"))
    os.remove(os.path.join(idx_dir, seg.name, name))
    with pytest.raises(FileNotFoundError, match=name):
        maybe_merge(idx_dir, optimize=True)
    assert load_manifest(idx_dir).generation == man0.generation


def test_shard_count_edges():
    from whoosh_reloaded_ray.pipelines.build import ROWS_PER_SHARD, shard_count

    assert shard_count(0, 8) == 1
    assert shard_count(1, 8) == 1
    assert shard_count(ROWS_PER_SHARD, 8) == 1
    assert shard_count(ROWS_PER_SHARD + 1, 8) == 2
    assert shard_count(8 * ROWS_PER_SHARD, 8) == 8
    assert shard_count(8 * ROWS_PER_SHARD + 1, 8) == 8
    assert shard_count(100 * ROWS_PER_SHARD, 1) == 1


def test_optimize_across_shard_counts_matches_oracle(ray_session, tmp_path, monkeypatch):
    """A 4-shard build plus two sized (1-shard) appends optimize into one
    segment; with 256 rows a shard the merged segment has 4 shards, so the
    build's segments give it their own shard files and the appends' rows
    are routed.  It answers as the brute-force oracle does on both
    executors, before and after a delete."""
    import pyarrow.parquet as pq
    from perfbench.oracle import Oracle
    from perfbench.workloads import KIND_CYCLE, QueryStream, parser, stopwords_of
    from test_oracle_gate import _wrong_answers
    from test_write_ops import _marked_batch

    from whoosh_reloaded_ray.pipelines import build, write_ops
    from whoosh_reloaded_ray.pipelines.build import build_index

    corpus = str(tmp_path / "corpus.parquet")
    generate_transcripts(corpus, n_turns=1024, seed=5, rows_per_file=256)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()[:768]
    pq.write_table(pq.read_table(corpus).slice(0, 768), str(tmp_path / "base.parquet"),
                   row_group_size=256)
    batches = [
        _marked_batch(corpus, str(tmp_path / f"b{i}.parquet"), 128, f"mkx{i}q", 768 + 128 * i)
        for i in range(2)
    ]
    idx = str(tmp_path / "idx")
    build_index([str(tmp_path / "base.parquet")], idx, num_shards=4,
                rows_per_segment=256, partition_rows=256)
    for i in range(2):
        write_ops.append_documents(idx, [str(tmp_path / f"b{i}.parquet")])
    counts = [s.num_shards for s in load_manifest(idx).segments]
    assert counts == [4, 4, 4, 1, 1]

    monkeypatch.setattr(build, "ROWS_PER_SHARD", 256)
    man = maybe_merge(idx, optimize=True)
    assert len(man.segments) == 1 and man.segments[0].num_shards == 4
    assert man.doc_count == 1024

    every = texts + batches[0] + batches[1]
    stop = stopwords_of(every)
    oracle = Oracle(stop)
    oracle.add(every)
    stream = QueryStream(every, stop, [7, 1])
    queries = [stream.next() for _ in range(2 * len(KIND_CYCLE))]
    queries += [("term", "mkx1q", ["mkx1q"]), ("or", "mkx0q OR mkx1q", ["mkx0q", "mkx1q"])]
    qp = parser()

    def check(deleted):
        for executor in ("local", "ray"):
            with IndexSearcher(idx, executor=executor, num_actors=1) as s:
                assert _wrong_answers(s, qp, oracle, queries, 1024, deleted) == [], executor

    check(frozenset())
    rare = next(w for w in stream.vocab if 2 <= stream.counts[w] <= 4)
    assert write_ops.delete_by_term(idx, "text", rare) > 0
    check(frozenset(oracle.docs_with(rare, 1024)[0].tolist()))


def test_same_shard_count_merge_reads_each_shard_file_as_before(ray_session, tmp_path, monkeypatch):
    """When every victim has the output's shard count, output shard j is
    victim shard j's rows: block rows concatenated in (field, term,
    doc_min) order, terminfo re-aggregated, doclens concatenated."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from whoosh_reloaded_ray.pipelines import build
    from whoosh_reloaded_ray.pipelines.build import build_index

    path = str(tmp_path / "t.parquet")
    generate_transcripts(path, n_turns=96, avg_turn_words=25, seed=3, rows_per_file=16)
    idx = str(tmp_path / "idx")
    man0 = build_index([path], idx, num_shards=4, partition_rows=16, rows_per_segment=16)
    assert len(man0.segments) == 6

    def shard_rows(names, tmpl, j, keys):
        ts = [pq.read_table(p) for n in names
              if os.path.exists(p := os.path.join(idx, n, tmpl.format(shard=j)))]
        t = pa.concat_tables(ts).replace_schema_metadata(None)
        return t.take(pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys]))

    from whoosh_reloaded_ray.stages.segment_write import (
        DOCLENS_FILE, POSTINGS_FILE, TERMINFO_FILE,
    )

    victims = [s.name for s in man0.segments]
    post_keys = ["field", "term", "doc_min"]
    want = {
        j: (shard_rows(victims, POSTINGS_FILE, j, post_keys),
            shard_rows(victims, TERMINFO_FILE, j, ["field", "term"]),
            shard_rows(victims, DOCLENS_FILE, j, ["docnum", "field"]))
        for j in range(4)
    }
    # one shard per row: the output takes the cap, the victims' count
    monkeypatch.setattr(build, "ROWS_PER_SHARD", 1)
    man = maybe_merge(idx, optimize=True)
    (seg,) = man.segments
    assert seg.num_shards == 4
    for j in range(4):
        posts, ti, dl = want[j]
        got = shard_rows([seg.name], POSTINGS_FILE, j, post_keys)
        assert got.equals(posts)
        got_ti = shard_rows([seg.name], TERMINFO_FILE, j, ["field", "term"])
        agg = ti.group_by(["field", "term"]).aggregate([("doc_freq", "sum")])
        assert sorted(zip(got_ti["field"].to_pylist(), got_ti["term"].to_pylist(),
                          got_ti["doc_freq"].to_pylist())) == sorted(
            zip(agg["field"].to_pylist(), agg["term"].to_pylist(), agg["doc_freq_sum"].to_pylist()))
        assert shard_rows([seg.name], DOCLENS_FILE, j, ["docnum", "field"]).equals(dl)
