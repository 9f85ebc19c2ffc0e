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
