"""Searchers in one process share the SegmentReader of each segment they
have in common, through the weak registry in ``state.searcher``.

* a searcher opened while another is alive takes that one's readers for
  every segment still in the index, and a new reader for a new segment;
  once no searcher holds a reader, the registry lets it go;
* threads that each open a fresh searcher and query at once get the serial
  answers, with no exception, also while the caches they share evict on
  nearly every fill;
* a segment rebuilt under the same name, or collected by a merge, never
  hands its old reader to a new searcher: answers are checked against the
  brute-force BM25F oracle (``perfbench/oracle.py``).
"""

from __future__ import annotations

import gc
import shutil
import sys
import threading

import numpy as np
import pyarrow.parquet as pq
import pytest

from perfbench.oracle import Oracle, check_ranked
from perfbench.workloads import (
    KIND_CYCLE,
    SET_KINDS,
    QueryStream,
    make_corpus,
    parser,
    stopwords_of,
)
from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.query import Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state import searcher as searcher_mod
from whoosh_reloaded_ray.state import storage
from whoosh_reloaded_ray.state.searcher import IndexSearcher

TURNS = 1536
THREADS = 6


def _build(tmp_path, idx: str, seed: int):
    """A 3-segment index over a seeded corpus; the same plan every time, so
    a rebuild into ``idx`` repeats the segment names."""
    corpus = str(tmp_path / f"corpus-{seed}.parquet")
    generate_transcripts(corpus, n_turns=TURNS, seed=seed, rows_per_file=256)
    man = build_index([corpus], idx, num_shards=4, rows_per_segment=512, partition_rows=256)
    assert len(man.segments) >= 3
    return pq.read_table(corpus, columns=["text"])["text"].to_pylist()


def _queries(texts, seed: int, rounds: int = 2):
    stop = stopwords_of(texts)
    stream = QueryStream(texts, stop, [seed, 1])
    return stop, stream, [stream.next() for _ in range(rounds * len(KIND_CYCLE))]


def _answer(s, q, kind):
    res = s.search(q, limit=None, scored=kind not in SET_KINDS)
    return res["docnum"].to_numpy(), res["score"].to_numpy()


def _wrong(s, oracle, queries, ndocs) -> list:
    qp, wrong = parser(), []
    for kind, text, words in queries:
        docs, scores = _answer(s, qp.parse(text), kind)
        if kind in SET_KINDS:
            ok = set(docs.tolist()) == oracle.doc_set(kind, words, ndocs, frozenset())
        else:
            expected = oracle.bm25(kind, words, ndocs, frozenset())
            ok = check_ranked(expected, docs, scores, len(expected))
        if not ok:
            wrong.append(f"{kind} {text}")
    return wrong


@pytest.fixture()
def index(ray_session, tmp_path):
    idx = str(tmp_path / "idx")
    texts = _build(tmp_path, idx, seed=5)
    return idx, texts


def test_open_searchers_share_readers_of_unchanged_segments(index, tmp_path):
    from whoosh_reloaded_ray.pipelines import write_ops

    idx, texts = index
    a = IndexSearcher(idx)
    b = IndexSearcher(idx)
    assert all(x is y for x, y in zip(a.local.readers, b.local.readers))
    batch = str(tmp_path / "batch.parquet")
    make_corpus(batch, 64, 9, "mkshared")
    write_ops.append_documents(idx, [batch])
    c = IndexSearcher(idx)
    assert len(c.local.readers) == len(a.local.readers) + 1
    assert all(x is y for x, y in zip(a.local.readers, c.local.readers))
    assert c.search(Term("text", "mkshared"), limit=None).num_rows == 64
    # weak references: the readers go with the last searcher holding them
    dirs = {r.dir for r in c.local.readers}
    del a, b, c
    gc.collect()
    assert not [r for r in searcher_mod._READERS.values() if r.dir in dirs]


@pytest.mark.parametrize("small_caches", [False, True])
def test_threads_opening_searchers_get_the_serial_answers(index, small_caches):
    from whoosh_reloaded_ray.query.exec import _LRU

    idx, texts = index
    qp = parser()
    _, _, queries = _queries(texts, seed=5, rounds=8)
    parsed = [(qp.parse(text), kind) for kind, text, _ in queries]
    serial = IndexSearcher(idx)
    want = [_answer(serial, q, kind) for q, kind in parsed]
    dirs = {r.dir for r in serial.local.readers}
    del serial
    gc.collect()
    assert not [r for r in searcher_mod._READERS.values() if r.dir in dirs]
    if small_caches:
        # the threads share these readers, whose caches evict all the time:
        # one thread's eviction meets another's lookup of the same cache
        holder = IndexSearcher(idx)
        for r in holder.local.readers:
            r._row_groups, r._postings, r._docsets = _LRU(64 << 10), _LRU(2), _LRU(16 << 10)

    start = threading.Barrier(THREADS)
    got, errors = {}, []

    def run(t):
        try:
            start.wait(timeout=60)
            s = IndexSearcher(idx)
            # each thread starts at a different query, so cold lookups of
            # the shared readers overlap
            order = np.roll(np.arange(len(parsed)), t * 3)
            got[t] = (s, {int(i): _answer(s, *parsed[i]) for i in order})
        except Exception as e:  # surfaced below: thread errors don't fail pytest
            errors.append(e)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(THREADS)]
    # switch threads often, so a lookup of one cache is interleaved with
    # another thread's fill of the same cache
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(got) == THREADS
    first = got[0][0].local.readers
    for s, answers in got.values():
        assert all(x is y for x, y in zip(s.local.readers, first))
        for i, (docs, scores) in answers.items():
            np.testing.assert_array_equal(docs, want[i][0])
            np.testing.assert_array_equal(scores, want[i][1])


def test_rebuilt_or_collected_segments_never_reuse_a_reader(index, tmp_path):
    from whoosh_reloaded_ray.pipelines import write_ops
    from whoosh_reloaded_ray.pipelines.merge import maybe_merge

    idx, texts = index
    _, _, queries = _queries(texts, seed=5)
    qp = parser()
    a = IndexSearcher(idx)
    for kind, text, _ in queries:  # warm every cache A's readers have
        _answer(a, qp.parse(text), kind)
    names = [r.seg.name for r in a.local.readers]

    # a different corpus into the same directory with the same plan: the
    # segment names repeat while A still holds the old segments' readers
    shutil.rmtree(idx)
    new_texts = _build(tmp_path, idx, seed=11)
    b = IndexSearcher(idx)
    assert [r.seg.name for r in b.local.readers] == names
    assert not any(x is y for x in a.local.readers for y in b.local.readers)
    stop, _, new_queries = _queries(new_texts, seed=11)
    oracle = Oracle(stop)
    oracle.add(new_texts)
    assert _wrong(b, oracle, queries + new_queries, TURNS) == []

    # merges collect B's segment directories (two manifest generations are
    # kept); no searcher opened afterwards gets one of their readers
    for i in range(3):
        extra = str(tmp_path / f"more-{i}.parquet")
        make_corpus(extra, 32, 40 + i, f"mkrebuilt{i}")
        write_ops.append_documents(idx, [extra])
        maybe_merge(idx, optimize=True)
    gc.collect()
    c = IndexSearcher(idx)
    held = [r for s in (a, b) for r in s.local.readers]
    assert not any(r is h for r in c.local.readers for h in held)
    assert all(storage.exists(r.dir) for r in c.local.readers)
    for i in range(3):
        assert c.search(Term("text", f"mkrebuilt{i}"), limit=None).num_rows == 32


def test_threads_sharing_a_searcher_count_every_fanout(index):
    """Threads searching one searcher at once lose no fan-out count."""
    idx, _ = index
    s = IndexSearcher(idx)
    q, rounds = Term("text", "zzabsentzz"), 200
    start = threading.Barrier(THREADS)

    def run():
        start.wait(timeout=60)
        for _ in range(rounds):
            s.search(q, limit=10)

    threads = [threading.Thread(target=run) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert s.fanout.calls == THREADS * rounds
