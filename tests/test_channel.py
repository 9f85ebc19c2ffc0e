"""The ray executor's transport: every fan-out goes over one long-lived,
authenticated connection per segment actor (``_SegmentWorker.open_channel``
and ``IndexSearcher._fanout``).  Errors raised in an actor arrive with their
own type, large replies arrive whole, threads sharing a searcher get their
own answers, an idle actor does not spin, and closed or dropped searchers
release their connections."""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from whoosh_reloaded_ray.query import And, Every, Or, Term
from whoosh_reloaded_ray.query.collectors import VectorCollector
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def idx_dir(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("chancorpus")
    path = str(d / "t.parquet")
    # enough docs that a limit=None reply is well over 64 KB
    generate_transcripts(path, n_turns=20_000, avg_turn_words=3, seed=5, rows_per_file=5_000)
    idx = str(tmp_path_factory.mktemp("chanidx"))
    build_index([path], idx, num_shards=2, partition_rows=5_000, rows_per_segment=10_000)
    return idx


def _terms(s: IndexSearcher, n: int) -> list:
    return [t for _, t in s.most_frequent_terms("text", n)]


def _same(a, b) -> None:
    np.testing.assert_array_equal(a["docnum"].to_numpy(), b["docnum"].to_numpy())
    np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(), atol=0)


def _cpu_s(pid: int) -> float:
    """utime + stime of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def test_actor_exception_keeps_its_type(idx_dir, tmp_path):
    """A FileNotFoundError raised inside an actor (its segment lost a
    postings file) reaches the caller as a FileNotFoundError with the
    actor's message, not wrapped in a Ray error; one that cannot be
    pickled arrives as a RuntimeError carrying the actor's traceback."""
    import shutil

    import ray

    d = str(tmp_path / "idx")
    shutil.copytree(idx_dir, d)
    with IndexSearcher(d, executor="ray", num_actors=2) as s:
        term = _terms(s, 1)[0]
        assert s.search(Term("text", term), limit=5).num_rows > 0
        for seg in s.manifest.segments:
            for f in seg.files:
                if f.startswith("postings-"):
                    os.remove(os.path.join(d, seg.name, f))
        # a new searcher's actors read the postings afresh
        with pytest.raises(FileNotFoundError, match=r"postings-\d{4}\.parquet") as err:
            IndexSearcher(d, executor="ray", num_actors=2).search(Term("text", term), limit=5)
        assert type(err.value) is FileNotFoundError
        assert not isinstance(err.value, ray.exceptions.RayError)
        assert any("raised in a segment actor" in n for n in err.value.__notes__)

    class Unpicklable(VectorCollector):
        scored = False

        def collect(self, reader, docs, scores):
            raise ValueError(threading.Lock())

        def combine(self, partials):
            return partials

    with IndexSearcher(idx_dir, executor="ray", num_actors=2) as s:
        with pytest.raises(RuntimeError, match="ValueError"):
            s.search_with_collector(Every(), Unpicklable())
        # the channels stay in step: the next search is answered exactly
        _same(IndexSearcher(idx_dir).search(Term("text", term), limit=10),
              s.search(Term("text", term), limit=10))


def test_large_reply_equals_local(idx_dir):
    """Every doc, unranked and unbounded: each actor's reply is over 64 KB
    and arrives whole."""
    local = IndexSearcher(idx_dir)
    want = local.search(Every(), limit=None, scored=False)
    # two segments of 10,000 docs, one per actor
    assert want["docnum"].nbytes // 2 > 64 << 10
    with IndexSearcher(idx_dir, executor="ray", num_actors=2) as s:
        _same(want, s.search(Every(), limit=None, scored=False))


def test_threads_sharing_a_searcher_get_their_own_answers(idx_dir):
    """Four driver threads search one ray searcher at once; each gets the
    local executor's answers to its own queries."""
    local = IndexSearcher(idx_dir)
    t = _terms(local, 24)
    queries = [Term("text", w) for w in t[:8]] + [
        Or([Term("text", a), Term("text", b)]) for a, b in zip(t[8:16], t[16:24])
    ] + [And([Term("text", t[0]), Term("text", w)]) for w in t[1:5]]
    want = [local.search(q, limit=20) for q in queries]
    with IndexSearcher(idx_dir, executor="ray", num_actors=2) as s:

        def worker(k: int) -> int:
            n = 0
            for r in range(5):
                for i in range(len(queries)):
                    j = (i + k * 5 + r) % len(queries)
                    _same(want[j], s.search(queries[j], limit=20))
                    n += 1
            return n

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
        try:
            with ThreadPoolExecutor(4) as pool:
                done = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert done == [5 * len(queries)] * 4
        assert s.fanout.calls == 2 * sum(done)


def test_idle_actor_uses_no_cpu(idx_dir):
    """An actor whose channel is open and idle blocks in recv: under 2% of
    one CPU over 2 s (a busy-polling transport would use 100%)."""
    import ray

    with IndexSearcher(idx_dir, executor="ray", num_actors=2) as s:
        s.search(Term("text", _terms(s, 1)[0]), limit=10)
        pids = ray.get([w.__ray_call__.remote(lambda _: os.getpid()) for w in s.workers])
        time.sleep(0.5)  # let the call's own after-work finish
        before = [_cpu_s(p) for p in pids]
        time.sleep(2.0)
        used = [_cpu_s(p) - b for p, b in zip(pids, before)]
        assert all(u < 0.02 * 2.0 for u in used), used


def test_closed_and_dropped_searchers_release_their_channels(idx_dir):
    """``close()`` closes the connections before it kills the actors, and
    the next search raises; a searcher dropped without ``close()`` has its
    connections closed when it is collected."""
    import ray

    q = Term("text", _terms(IndexSearcher(idx_dir), 1)[0])
    s = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    s.search(q, limit=5)
    conns = list(s._conns)
    assert len(conns) == 2 and not any(c.closed for c in conns)
    s.close()
    assert all(c.closed for c in conns)
    with pytest.raises(RuntimeError, match="closed"):
        s.search(q, limit=5)

    s = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    s.search(q, limit=5)
    conns, workers = list(s._conns), list(s.workers)
    del s
    gc.collect()
    assert all(c.closed for c in conns)
    for w in workers:
        ray.kill(w)


def test_dead_actor_raises(idx_dir):
    """An actor killed for good makes the next search raise RayActorError
    after its channel is lost, never answer from the other actors alone."""
    import ray

    q = Term("text", _terms(IndexSearcher(idx_dir), 1)[0])
    with IndexSearcher(idx_dir, executor="ray", num_actors=2) as s:
        s.search(q, limit=5)
        ray.kill(s.workers[1], no_restart=True)
        with pytest.raises(ray.exceptions.RayActorError):  # wait for the death
            ray.get(s.workers[1].node_id.remote())
        with pytest.raises(ray.exceptions.RayActorError):
            s.search(q, limit=5)
