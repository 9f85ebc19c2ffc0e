"""Checkpoint/resume: a killed build resumes from committed segments.

North-rule requirement: indexing is checkpointable per segment with
per-partition lineage so a killed run resumes without reprocessing completed
partitions.  Mirrors the reference's TOC-generation durability (a crashed
writer loses only the in-flight segment, index.py:576-728).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from whoosh_reloaded_ray.pipelines import build as build_mod
from whoosh_reloaded_ray.query import Or, Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.manifest import load_manifest
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("resumecorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=64, avg_turn_words=20, seed=11, rows_per_file=16)
    return path


def test_killed_build_resumes_without_reprocessing(corpus, ray_session, tmp_path_factory, monkeypatch):
    idx_dir = str(tmp_path_factory.mktemp("resumeidx"))
    ref_dir = str(tmp_path_factory.mktemp("refidx"))

    real = build_mod._build_segment
    calls = {"n": 0}

    def dying(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("simulated kill")
        return real(*args, **kwargs)

    monkeypatch.setattr(build_mod, "_build_segment", dying)
    with pytest.raises(RuntimeError, match="simulated kill"):
        build_mod.build_index([corpus], idx_dir, num_shards=4, partition_rows=16, rows_per_segment=16)
    monkeypatch.setattr(build_mod, "_build_segment", real)

    # the kill left 2 committed segments (generation per segment)
    man = load_manifest(idx_dir)
    assert man is not None and len(man.segments) == 2

    mtimes_before = {
        p: os.path.getmtime(p) for p in glob.glob(os.path.join(idx_dir, "seg-00000", "*"))
    }
    assert mtimes_before

    # resume completes the remaining segments only
    man2 = build_mod.build_index(
        [corpus], idx_dir, num_shards=4, partition_rows=16, rows_per_segment=16
    )
    assert len(man2.segments) == 4
    for p, t in mtimes_before.items():
        assert os.path.getmtime(p) == t, f"resume rewrote committed file {p}"

    # resumed index is identical to a never-killed build
    build_mod.build_index([corpus], ref_dir, num_shards=4, partition_rows=16, rows_per_segment=16)
    s_res, s_ref = IndexSearcher(idx_dir), IndexSearcher(ref_dir)
    assert s_res.manifest.doc_count == s_ref.manifest.doc_count
    assert s_res.manifest.field_length("text") == s_ref.manifest.field_length("text")

    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(idx_dir, "seg-*", "terminfo-*.parquet"))
    import pyarrow as pa

    vocab = pa.concat_tables(pq.read_table(f, columns=["term"]) for f in files)
    terms = [t for t in vocab["term"].to_pylist() if t != "\x00"][:5]
    q = Or([Term("text", t) for t in terms])
    a, b = s_res.search(q, limit=None), s_ref.search(q, limit=None)
    np.testing.assert_array_equal(a["docnum"].to_numpy(), b["docnum"].to_numpy())
    np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(), atol=0)


def test_resume_reuses_committed_partition_plan(corpus, ray_session, tmp_path_factory, monkeypatch):
    """A resumed build must re-derive the ORIGINAL partition plan even when
    called with different (or adaptive) plan parameters — otherwise no
    lineage matches and committed segments rebuild over live files."""
    idx_dir = str(tmp_path_factory.mktemp("planidx"))
    build_mod.build_index([corpus], idx_dir, num_shards=4, partition_rows=16, rows_per_segment=32)
    m1 = load_manifest(idx_dir)
    assert m1.build_config["partition_rows"] == 16
    n_segs = len(m1.segments)
    assert n_segs > 1

    calls = {"n": 0}
    real = build_mod._build_segment

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(build_mod, "_build_segment", counting)
    # different requested plan: the committed one must win and everything skip
    build_mod.build_index([corpus], idx_dir, num_shards=8, partition_rows=64)
    assert calls["n"] == 0
    m2 = load_manifest(idx_dir)
    assert len(m2.segments) == n_segs
    assert m2.build_config == m1.build_config


def test_manifest_of_a_salted_build_fails_loudly(corpus, ray_session, tmp_path):
    """Manifests of builds that split hot terms over several shards carry a
    non-empty ``salted_terms``; read with one shard per term they would miss
    postings, so opening one raises.  An empty one, which every other
    earlier manifest carries, opens."""
    import json

    idx_dir = str(tmp_path / "idx")
    build_mod.build_index([corpus], idx_dir, num_shards=2, partition_rows=64)
    (path,) = glob.glob(os.path.join(idx_dir, "manifest-*.json"))
    with open(path) as f:
        written = json.load(f)

    def write(salted_terms):
        for seg in written["segments"]:
            seg["salted_terms"] = salted_terms
        with open(path, "w") as f:
            json.dump(written, f)

    write({"text": {"x": 2}})
    with pytest.raises(ValueError, match="seg-00000.*rebuild the index"):
        load_manifest(idx_dir)
    with pytest.raises(ValueError, match="rebuild the index"):
        IndexSearcher(idx_dir)
    write({})
    assert load_manifest(idx_dir).doc_count == 64
    assert IndexSearcher(idx_dir).search(Term("role", "user"), limit=None).num_rows > 0
