"""The query-side Ray actor-pool executor must return byte-identical
results to the local executor (segments partition the doc space; per-actor
evaluation + driver merge is exact)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.query import (
    And, FuzzyTerm, Not, Or, Phrase, Prefix, Regex, Term, TermRange, Wildcard,
)
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def idx_dir(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("rexcorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=900, avg_turn_words=20, seed=71, rows_per_file=150)
    idx = str(tmp_path_factory.mktemp("rexidx"))
    # several segments so actors actually split work
    build_index([path], idx, num_shards=4, partition_rows=150, rows_per_segment=300)
    return idx


def _vocab(idx_dir):
    import glob

    import pyarrow as pa

    files = glob.glob(f"{idx_dir}/seg-*/terminfo-*.parquet")
    t = pa.concat_tables(pq.read_table(f, columns=["field", "term", "doc_freq"]) for f in files)
    t = t.filter(pa.compute.equal(t["field"], "text"))
    agg = t.group_by("term").aggregate([("doc_freq", "sum")]).sort_by(
        [("doc_freq_sum", "descending")]
    )
    return agg["term"].to_pylist()


def test_ray_executor_matches_local(idx_dir):
    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=3)
    vocab = _vocab(idx_dir)
    t1, t2 = vocab[2], vocab[40]
    queries = [
        Term("text", t1),
        Or([Term("text", t1), Term("text", t2)]),
        And([Term("text", t1), Not(Term("text", t2))]),
        Phrase("text", [t1, t2]),
        Prefix("text", t1[:2]),
    ]
    for q in queries:
        a = local.search(q, limit=15)
        b = rays.search(q, limit=15)
        np.testing.assert_array_equal(a["docnum"].to_numpy(), b["docnum"].to_numpy())
        np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(), atol=0)
    # stats APIs agree too
    assert local.doc_frequency("text", t1) == rays.doc_frequency("text", t1)
    assert local.frequencies([("text", t1)]) == rays.frequencies([("text", t1)])


def test_actor_call_args_pickle_by_reference(idx_dir):
    """A served query ships its AST and ScoreContext to the segment actors
    by reference: the package's classes are imported on the workers, not
    pickled into every call, so the packed message of a search stays
    small.  Results stay equal to the local executor."""
    import ray

    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    vocab = _vocab(idx_dir)
    t1, t2, t3 = vocab[2], vocab[5], vocab[40]
    for q in (
        Term("text", t1),
        And([Term("text", t1), Term("text", t2)]),
        Or([Term("text", t1), Term("text", t2), Term("text", t3)]),
        Phrase("text", [t1, t2]),
    ):
        rq = rays._rewrite(q)
        ctx = rays._context(rq)
        assert len(ray.cloudpickle.dumps((rq, ctx))) < 4096, q
        a = local.search(q, limit=10)
        sent = rays.fanout.msg_bytes
        b = rays.search(q, limit=10)
        # the one packed (method, args) message each actor received
        assert 0 < rays.fanout.msg_bytes - sent < 4096, q
        np.testing.assert_array_equal(a["docnum"].to_numpy(), b["docnum"].to_numpy())
        np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(), atol=0)


def test_each_search_is_one_fanout(idx_dir):
    """A term, prefix, wildcard or range search makes exactly one call per
    worker: expansion and doc frequencies are answered on the driver, for
    a cold term set too, and the statistics APIs make no worker call."""
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    try:
        assert len(rays.workers) == 2
        vocab = _vocab(idx_dir)
        t = vocab[4]
        lo, hi = sorted(vocab[10:12])
        for s, n in ((IndexSearcher(idx_dir), 1), (rays, len(rays.workers))):
            for q in (
                Term("text", t),
                Prefix("text", t[:2]),
                Wildcard("text", t[:1] + "*" + t[-1:]),
                TermRange("text", lo, hi),
                Or([Term("text", vocab[60]), Term("text", vocab[61])]),  # cold term set
            ):
                calls = s.fanout.calls
                s.search(q, limit=10)
                assert s.fanout.calls - calls == n, (s.executor, q)
            calls = s.fanout.calls
            s.doc_frequency("text", vocab[70])
            s.frequencies([("text", vocab[71])])
            s.lexicon("text", t[:1])
            s.most_frequent_terms("text")
            s.most_distinctive_terms("text")
            s.suggest("text", t[:-1])
            assert s.fanout.calls == calls, s.executor
        assert rays.fanout.ms > 0
    finally:
        rays.close()


def test_fanout_first_ms_is_the_first_fanout(idx_dir):
    """``FanoutStats.first_ms`` keeps the wall time of a searcher's first
    fan-out, which on the ray executor waits for the new actors, apart from
    the later ones."""
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    try:
        t = _vocab(idx_dir)[4]
        for s in (IndexSearcher(idx_dir), rays):
            assert s.fanout.first_ms is None
            s.search(Term("text", t), limit=10)
            first = s.fanout.first_ms
            assert first is not None and first == pytest.approx(s.fanout.ms)
            s.search(Term("text", t), limit=10)
            assert s.fanout.first_ms == first and s.fanout.ms > first
        # the first round trip starts two actor processes; a warm one does not
        assert rays.fanout.first_ms > rays.fanout.ms - rays.fanout.first_ms
    finally:
        rays.close()


def _driver_side_answers(s, vocab) -> list:
    """What moved from the actors to the driver: multiterm expansion
    (searched) and the term statistics APIs."""
    t = vocab[3]
    lo, hi = sorted(vocab[10:12])
    out = []
    for q in (
        Prefix("text", t[:2]),
        Wildcard("text", t[:1] + "*" + t[-1:]),
        TermRange("text", lo, hi),
        Regex("text", t[:2] + ".*"),
        FuzzyTerm("text", t, maxdist=1),
    ):
        res = s.search(q, limit=20)
        out.append((repr(q), res["docnum"].to_pylist(), res["score"].to_pylist()))
    out += [
        s.lexicon("text", t[:1]),
        s.most_frequent_terms("text", 10),
        s.most_distinctive_terms("text", 10),
        s.frequencies([("text", w) for w in vocab[:30]]),
        s._doc_freqs([("text", w) for w in vocab[:30]]),
        s.suggest("text", t[:-1]),
    ]
    return out


def test_driver_statistics_match_local_before_and_after_delete(idx_dir, tmp_path):
    """Prefix/wildcard/range/regex/fuzzy searches and lexicon, most_*_terms,
    frequencies and suggest give the local executor's answers on the ray
    executor, before and after a delete; doc frequencies keep counting
    deleted docs."""
    import shutil

    from whoosh_reloaded_ray.pipelines.write_ops import delete_by_term

    d = str(tmp_path / "idx")
    shutil.copytree(idx_dir, d)
    vocab = _vocab(d)
    gone = vocab[8]
    for deleted in (False, True):
        if deleted:
            assert delete_by_term(d, "text", gone) > 0
        local = IndexSearcher(d, executor="local")
        rays = IndexSearcher(d, executor="ray", num_actors=2)
        try:
            assert _driver_side_answers(rays, vocab) == _driver_side_answers(local, vocab)
            hits = rays.search(Term("text", gone), limit=None)
            assert (hits.num_rows == 0) == deleted
            assert rays.doc_frequency("text", gone) == local.doc_frequency("text", gone) > 0
        finally:
            rays.close()
        if not deleted:
            df_before = local.doc_frequency("text", gone)
    assert local.doc_frequency("text", gone) == df_before


def test_ray_executor_facets_and_sorting(idx_dir):
    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=3)
    vocab = _vocab(idx_dir)
    q = Term("text", vocab[3])
    assert local.facet_counts(q, "role") == rays.facet_counts(q, "role")
    a = local.search_sorted(q, "turn_idx", limit=10)
    b = rays.search_sorted(q, "turn_idx", limit=10)
    assert a["docnum"].to_pylist() == b["docnum"].to_pylist()
    assert local.search_grouped(q, "role") == rays.search_grouped(q, "role")
    # bounded path: values fetched for the top-limit docs and merged by docnum
    assert local.search_grouped(q, "role", limit=10) == \
        rays.search_grouped(q, "role", limit=10)


def test_multi_segment_workers_match_local(idx_dir):
    """Workers holding several segments thread the WAND threshold across
    them; results must stay byte-identical to the local executor."""
    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=1)  # 1 worker, 3 segments
    assert len(rays.workers) < len(rays.manifest.segments)
    vocab = _vocab(idx_dir)
    for q in (
        Term("text", vocab[0]),                      # hot term
        Or([Term("text", vocab[1]), Term("text", vocab[30])]),
        Or([Term("text", vocab[5], boost=2.0), Term("text", vocab[50])]),
    ):
        for limit in (3, 10):
            a = local.search(q, limit=limit)
            b = rays.search(q, limit=limit)
            np.testing.assert_array_equal(a["docnum"].to_numpy(), b["docnum"].to_numpy())
            np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(), atol=0)


def test_search_timelimit_both_executors(idx_dir):
    """``timelimit`` works on both executors: a zero budget raises
    TimeLimitExceeded carrying a partial table, a generous one returns
    the untimed result."""
    from whoosh_reloaded_ray.state.searcher import TimeLimitExceeded

    vocab = _vocab(idx_dir)
    q = Or([Term("text", vocab[1]), Term("text", vocab[20])])
    for searcher in (
        IndexSearcher(idx_dir, executor="local"),
        IndexSearcher(idx_dir, executor="ray", num_actors=2),
    ):
        with pytest.raises(TimeLimitExceeded) as ei:
            searcher.search(q, limit=10, timelimit=0.0)
        assert ei.value.partial.column_names == ["docnum", "score"]
        want = searcher.search(q, limit=10)
        assert want.num_rows == 10
        assert searcher.search(q, limit=10, timelimit=30.0).equals(want)


def test_export_matches(idx_dir, tmp_path):
    """Streaming per-segment match export equals a driver-side search with
    limit=None; write_parquet round-trips."""
    from whoosh_reloaded_ray.pipelines.export import export_matches, matches_dataset

    local = IndexSearcher(idx_dir)
    vocab = _vocab(idx_dir)
    q = Or([Term("text", vocab[1]), Term("text", vocab[25])])
    want = local.search(q, limit=None)
    ds = matches_dataset(idx_dir, q, columns=["conv_id", "turn_idx"])
    import pyarrow as pa

    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("docnum")
    assert got["docnum"].to_pylist() == sorted(want["docnum"].to_pylist())
    bydoc = dict(zip(want["docnum"].to_pylist(), want["score"].to_pylist()))
    np.testing.assert_allclose(
        got["score"].to_numpy(), [bydoc[d] for d in got["docnum"].to_pylist()], atol=0
    )
    out = str(tmp_path / "export")
    n = export_matches(idx_dir, q, out, columns=["conv_id"])
    assert n == want.num_rows


def test_distributed_aggregates_match_local(idx_dir):
    """The per-segment partial-aggregate paths (facet/sort/grouped/collapse/
    parent) must agree between executors and across maptypes/limits."""
    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=3)
    vocab = _vocab(idx_dir)
    q = Or([Term("text", vocab[1]), Term("text", vocab[10])])

    for maptype in ("count", "best", "ordered"):
        assert local.search_grouped(q, "role", maptype=maptype) == rays.search_grouped(
            q, "role", maptype=maptype
        ), maptype
    # multi-field grouping (MultiFacet tuples)
    assert local.search_grouped(q, ["role", "turn_idx"], maptype="count") == \
        rays.search_grouped(q, ["role", "turn_idx"], maptype="count")
    # bounded (limit) path still matches
    assert local.search_grouped(q, "role", limit=20, maptype="count") == \
        rays.search_grouped(q, "role", limit=20, maptype="count")

    a = local.search_collapsed(q, "role", limit=5, collapse_limit=2)
    b = rays.search_collapsed(q, "role", limit=5, collapse_limit=2)
    assert a["docnum"].to_pylist() == b["docnum"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()

    a = local.parent_search(q, "conv_id", limit=10)
    b = rays.parent_search(q, "conv_id", limit=10)
    assert a.to_pydict() == b.to_pydict()

    a = local.search_sorted(q, ["role", "turn_idx"], limit=15, reverse=True)
    b = rays.search_sorted(q, ["role", "turn_idx"], limit=15, reverse=True)
    assert a["docnum"].to_pylist() == b["docnum"].to_pylist()

    assert local.facet_counts_range(q, "turn_idx", 0, 10, 2) == \
        rays.facet_counts_range(q, "turn_idx", 0, 10, 2)


_IMPORT_RULE_SCRIPT = """
import ray

ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.query import Or, Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher

generate_transcripts("t.parquet", n_turns=300, avg_turn_words=20, seed=5, rows_per_file=150)
build_index(["t.parquet"], "idx", num_shards=2, partition_rows=150, rows_per_segment=150)
q = Or([Term("text", "aabjx"), Term("text", "aacdod")])  # frequent words at seed 5
a = IndexSearcher("idx").search(q, limit=10)
b = IndexSearcher("idx", executor="ray", num_actors=2).search(q, limit=10)
assert a.num_rows > 0
assert a["docnum"].to_pylist() == b["docnum"].to_pylist()
assert a["score"].to_pylist() == b["score"].to_pylist()
ray.shutdown()
"""


def test_workers_import_package_from_pythonpath(tmp_path):
    """The import rule: with the checkout on PYTHONPATH, a driver started
    from any directory builds and serves an index on Ray workers."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = repo
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_RULE_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


_ONE_CPU_SCRIPT = """
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.pipelines.merge import maybe_merge
from whoosh_reloaded_ray.pipelines.write_ops import append_documents
from whoosh_reloaded_ray.query import Or, Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher

generate_transcripts("t.parquet", n_turns=300, avg_turn_words=20, seed=5, rows_per_file=150)
generate_transcripts("u.parquet", n_turns=100, avg_turn_words=20, seed=6)
man = build_index(["t.parquet"], "idx", num_shards=2, partition_rows=150, rows_per_segment=150)
assert len(man.segments) == 2
assert len(append_documents("idx", "u.parquet").segments) == 3
assert len(maybe_merge("idx", optimize=True).segments) == 1
q = Or([Term("text", "aabjx"), Term("text", "aacdod")])  # frequent words at seed 5
a = IndexSearcher("idx").search(q, limit=10)
b = IndexSearcher("idx", executor="ray", num_actors=1).search(q, limit=10)
assert a.num_rows > 0
assert a["docnum"].to_pylist() == b["docnum"].to_pylist()
assert a["score"].to_pylist() == b["score"].to_pylist()
ray.shutdown()
"""


def test_one_cpu_build_append_merge(tmp_path):
    """A Ray session with one CPU builds two segments, appends a third,
    merges them and serves the result: no build stage holds a CPU that
    another stage of the same build waits for."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = repo
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
