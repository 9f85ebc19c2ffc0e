"""The ray executor's default actor count and segment placement, its
answers under that default, the fan-out CPU split, and ``close``.

The count comes from the index's postings (``actor_groups``): one actor
per ``POSTINGS_PER_ACTOR``, at most half the CPUs and one per segment.  A
small index is served by one actor; with the constant patched down, the
same index gets two, and both answer as the brute-force oracle does
(``tests/test_oracle_gate.py``'s check, on the default count)."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from perfbench.oracle import Oracle
from perfbench.workloads import KIND_CYCLE, QueryStream, parser, stopwords_of
from test_oracle_gate import TURNS, _wrong_answers
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state import searcher as searcher_mod
from whoosh_reloaded_ray.state.manifest import SegmentMeta
from whoosh_reloaded_ray.state.searcher import IndexSearcher, actor_groups


def _segs(*postings):
    return [
        SegmentMeta(f"seg-{i:05d}", 0, 1, 4, [], {}, n_postings=p)
        for i, p in enumerate(postings)
    ]


def test_small_index_gets_one_actor():
    per = searcher_mod.POSTINGS_PER_ACTOR
    assert actor_groups(_segs(10, 20, 30), cpus=16) == [[0, 1, 2]]
    assert actor_groups(_segs(per // 2, per // 2), cpus=16) == [[0, 1]]
    assert actor_groups(_segs(per // 2, per // 2 + 1), cpus=16) == [[1], [0]]
    assert actor_groups(_segs(), cpus=16) == []


def test_search_served_sized_index_gets_one_actor():
    # perfbench's search_served index: 8,192 turns in two 4,096-turn
    # segments, 249,596 postings, on 4 CPUs
    assert actor_groups(_segs(124_517, 125_079), cpus=4) == [[0, 1]]


def test_large_index_gets_min_of_cap_and_segments():
    big = searcher_mod.POSTINGS_PER_ACTOR * 100
    # cap = cpus // 2, at least 1
    assert len(actor_groups(_segs(*[big] * 8), cpus=4)) == 2
    assert len(actor_groups(_segs(*[big] * 8), cpus=12)) == 6
    assert len(actor_groups(_segs(*[big] * 8), cpus=1)) == 1
    # at most one per segment
    assert len(actor_groups(_segs(big, big, big), cpus=64)) == 3


def test_explicit_num_actors_is_honoured():
    segs = _segs(5, 4, 3, 2, 1)
    assert len(actor_groups(segs, cpus=2, num_actors=4)) == 4
    assert len(actor_groups(segs, cpus=64, num_actors=1)) == 1
    assert len(actor_groups(segs, cpus=64, num_actors=9)) == 5  # one per segment


def test_placement_is_largest_first_in_manifest_order():
    segs = _segs(10, 70, 20, 40, 30, 50)
    groups = actor_groups(segs, cpus=4, num_actors=2)
    # 70 -> 0, 50 -> 1, 40 -> 1, 30 -> 0, 20 -> 1, 10 -> 0: the lighter each time
    loads = [sum(segs[i].n_postings for i in g) for g in groups]
    assert sorted(loads) == [110, 110]
    assert sorted(i for g in groups for i in g) == list(range(6))
    assert all(g == sorted(g) for g in groups)
    assert groups == [[0, 1, 4], [2, 3, 5]]
    # every actor gets a segment, empty segments too
    assert actor_groups(_segs(0, 0, 0), cpus=4, num_actors=3) == [[0], [1], [2]]


@pytest.fixture(scope="module")
def gate(ray_session, tmp_path_factory):
    """tests/test_oracle_gate.py's seeded corpus: three 512-turn
    segments, about 47k postings."""
    from whoosh_reloaded_ray.pipelines.build import build_index

    tmp = tmp_path_factory.mktemp("sizing")
    corpus = str(tmp / "corpus.parquet")
    generate_transcripts(corpus, n_turns=TURNS, seed=5, rows_per_file=256)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()
    idx = str(tmp / "idx")
    man = build_index([corpus], idx, num_shards=4, rows_per_segment=512, partition_rows=256)
    assert len(man.segments) == 3
    stop = stopwords_of(texts)
    oracle = Oracle(stop)
    oracle.add(texts)
    stream = QueryStream(texts, stop, [5, 1])
    queries = [stream.next() for _ in range(2 * len(KIND_CYCLE))]
    return idx, oracle, queries


@pytest.mark.parametrize("per_actor,n_actors", [(None, 1), (1, 2)])
def test_default_count_matches_oracle(gate, monkeypatch, per_actor, n_actors):
    idx, oracle, queries = gate
    if per_actor is not None:
        monkeypatch.setattr(searcher_mod, "POSTINGS_PER_ACTOR", per_actor)
    with IndexSearcher(idx, executor="ray") as s:
        assert len(s.workers) == n_actors
        assert _wrong_answers(s, parser(), oracle, queries, TURNS, frozenset()) == []


@pytest.mark.parametrize("executor", ["local", "ray"])
def test_cpu_split_is_complete(gate, executor):
    idx, _, queries = gate
    qp = parser()
    with IndexSearcher(idx, executor=executor, num_actors=2) as s:
        for _ in range(3):
            for _, text, _ in queries:
                s.search(qp.parse(text), limit=10)
        f = s.fanout
        assert f.calls == 3 * len(queries) * (2 if executor == "ray" else 1)
        fields = ("pack_ms", "wait_ms", "merge_ms", "unpickle_ms", "engine_ms", "actor_ms")
        assert all(getattr(f, k) >= 0 for k in fields), f
        assert f.engine_ms > 0 and f.merge_ms > 0
        # the parts measured inside the calls are inside the calls' totals
        assert f.in_call_ms <= f.actor_ms
        assert f.ray_actor_ms == pytest.approx(f.actor_ms - f.in_call_ms)
        if executor == "ray":
            assert f.pack_ms > 0 and f.wait_ms > 0 and f.unpickle_ms > 0
            assert f.ray_actor_ms > 0
        else:
            assert f.pack_ms == f.wait_ms == f.unpickle_ms == 0
            assert f.actor_ms == pytest.approx(f.engine_ms)


def test_close_stops_the_actors(gate):
    import ray

    idx, _, _ = gate
    local = IndexSearcher(idx)
    local.close()
    local.close()
    assert local.search(parser().parse("hello"), limit=1) is not None
    with IndexSearcher(idx, executor="ray", num_actors=2) as s:
        workers = list(s.workers)
        assert len(workers) == 2
    assert s.workers == []
    s.close()  # idempotent
    for w in workers:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(w.node_id.remote())
    with pytest.raises(RuntimeError, match="closed"):
        s.search(parser().parse("hello"), limit=1)
