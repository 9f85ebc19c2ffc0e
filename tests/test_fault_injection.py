"""Fault injection: killed Ray workers must not change any result.

The kills are REAL process deaths (``os._exit(1)`` via
``_rayutil.consume_fault_flag``, armed by a flag file the test plants in
the index dir — exactly one worker consumes it), not Python exceptions.
What recovers is Ray's own machinery, which these tests exist to exercise:

  * build and merge: Ray's task retry re-runs the shard write task
    (``pipelines/build.py``) or shard merge task (``pipelines/merge.py``)
    whose worker died; every file write is atomic (tmp + rename) and the
    output is byte-deterministic, so the recovered index must be
    file-for-file identical to an uninjected one;
  * query: the searcher actors are declared ``max_restarts/max_task_retries``
    (state/searcher.py) because they are pure snapshot readers — a worker
    dying MID-EVALUATE must transparently restart, replay the read, and
    return byte-identical matches.

North-rule relevance: on a 256-node cluster over 100 TB, worker loss is
routine; "retry yields identical bytes" is what makes the manifest/lineage
design (state/manifest.py) actually restartable.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pytest

from whoosh_reloaded_ray.query import And, Or, Phrase, Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("faultcorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=1200, avg_turn_words=25, seed=41, rows_per_file=200)
    return path


def _tree_hashes(idx_dir: str) -> dict:
    """relative path -> sha256 for every file in an index dir.

    Manifests are hashed with the per-segment ``metrics`` block (wall-clock
    build_secs / rows_per_sec diagnostics — intrinsically timing-dependent)
    stripped; every logical field (doc counts, docnum bases, field sums,
    lineage) stays in the hash."""
    import json

    out = {}
    for f in glob.glob(os.path.join(idx_dir, "**", "*"), recursive=True):
        if not os.path.isfile(f):
            continue
        rel = os.path.relpath(f, idx_dir)
        with open(f, "rb") as fh:
            data = fh.read()
        if os.path.basename(f).startswith("manifest-") and f.endswith(".json"):
            man = json.loads(data)
            for seg in man.get("segments", []):
                seg.pop("metrics", None)
            data = json.dumps(man, sort_keys=True).encode()
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def test_writer_death_mid_build_identical_index(corpus, ray_session, tmp_path):
    """Kill the worker of one shard write task mid-build; Ray retries the
    task; the committed index is file-identical to an uninjected build
    (byte-determinism + atomic writes = idempotent retry)."""
    from whoosh_reloaded_ray.pipelines.build import build_index

    clean = str(tmp_path / "idx_clean")
    build_index([corpus], clean, num_shards=4, partition_rows=200)
    want = _tree_hashes(clean)

    hurt = str(tmp_path / "idx_fault")
    os.makedirs(hurt, exist_ok=True)
    flag = os.path.join(hurt, ".fault_crash_writer")
    open(flag, "w").close()
    man = build_index([corpus], hurt, num_shards=4, partition_rows=200)

    assert not os.path.exists(flag), "flag not consumed — no worker died"
    assert os.path.exists(flag + ".consumed"), "crash hook did not fire"
    os.unlink(flag + ".consumed")  # not part of the index payload
    got = _tree_hashes(hurt)
    assert got == want, "recovered build differs from clean build"
    assert man.doc_count == 1200


def test_merger_death_mid_merge_identical_index(corpus, ray_session, tmp_path):
    """Kill the worker of one shard merge task during an optimize; Ray
    retries the task; the merged index is file-identical to an uninjected
    merge of the same segments."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.pipelines.merge import maybe_merge

    def merged(name, crash):
        idx = str(tmp_path / name)
        build_index([corpus], idx, num_shards=4, partition_rows=200, rows_per_segment=400)
        flag = os.path.join(idx, ".fault_crash_merger")
        if crash:
            open(flag, "w").close()
        man = maybe_merge(idx, optimize=True)
        if crash:
            assert not os.path.exists(flag), "flag not consumed — no worker died"
            assert os.path.exists(flag + ".consumed"), "crash hook did not fire"
            os.unlink(flag + ".consumed")  # not part of the index payload
        assert len(man.segments) == 1 and man.doc_count == 1200
        return _tree_hashes(idx)

    want = merged("idx_clean", crash=False)
    assert any("merged" in rel for rel in want)
    assert merged("idx_fault", crash=True) == want, "recovered merge differs from clean merge"


@pytest.fixture(scope="module")
def idx_dir(corpus, ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index

    idx = str(tmp_path_factory.mktemp("faultidx"))
    # several segments so multiple actors hold real work
    build_index([corpus], idx, num_shards=4, partition_rows=200, rows_per_segment=400)
    return idx


def _queries(idx_dir):
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = glob.glob(f"{idx_dir}/seg-*/terminfo-*.parquet")
    t = pa.concat_tables(
        pq.read_table(f, columns=["field", "term", "doc_freq"]) for f in files
    )
    t = t.filter(pa.compute.equal(t["field"], "text"))
    agg = (
        t.group_by("term")
        .aggregate([("doc_freq", "sum")])
        .sort_by([("doc_freq_sum", "descending")])
    )
    v = agg["term"].to_pylist()
    return [
        Term("text", v[1]),
        Or([Term("text", v[2]), Term("text", v[20])]),
        And([Term("text", v[0]), Term("text", v[5])]),
        Phrase("text", [v[0], v[1]]),
    ]


def _assert_same(a, b):
    np.testing.assert_array_equal(a["docnum"].to_numpy(), b["docnum"].to_numpy())
    np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(), atol=0)


def test_searcher_death_mid_query(idx_dir):
    """Plant the eval crash flag: exactly one actor dies INSIDE evaluate();
    max_task_retries replays the task on the restarted actor and the search
    returns byte-identical results — the caller never sees the death."""
    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    qs = _queries(idx_dir)
    want = [local.search(q, limit=10) for q in qs]
    # warm pass proves the pool works before the kill
    _assert_same(want[0], rays.search(qs[0], limit=10))

    flag = os.path.join(idx_dir, ".fault_crash_eval")
    open(flag, "w").close()
    got = rays.search(qs[1], limit=10)  # one worker dies mid-evaluate here
    assert not os.path.exists(flag), "flag not consumed — no worker died"
    assert os.path.exists(flag + ".consumed"), "crash hook did not fire"
    os.unlink(flag + ".consumed")
    _assert_same(want[1], got)

    # the restarted worker keeps serving the full query set correctly
    for q, w in zip(qs, want):
        _assert_same(w, rays.search(q, limit=10))
    # doc frequencies come from the driver's readers, unaffected by the death
    t = qs[0].field, qs[0].text
    assert local.doc_frequency(*t) == rays.doc_frequency(*t)


def test_searcher_external_ray_kill(idx_dir):
    """ray.kill(no_restart=False) a worker BETWEEN queries: the next search
    transparently lands on the restarted actor with identical results."""
    import ray

    local = IndexSearcher(idx_dir, executor="local")
    rays = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    qs = _queries(idx_dir)
    want = [local.search(q, limit=10) for q in qs]
    _assert_same(want[0], rays.search(qs[0], limit=10))

    ray.kill(rays.workers[0], no_restart=False)
    for q, w in zip(qs, want):
        _assert_same(w, rays.search(q, limit=10))
