"""The build keeps two segments in flight and commits them in plan order.

``build_index`` submits segment k+1 (launches its map and write tasks)
before it finishes and commits segment k.  Here: every task's counters sum
to what is on disk and in the manifest; a later segment that finishes
first still commits after the one ahead of it; and a failed segment
commits the segments ahead of it and nothing after it, ends every task
before the call raises, and resumes into the index a clean build writes.

The delays and the failure come from ``_rayutil.segment_test_hook``: a
``.test_hook_<segment name>`` file at the index root, read by each map
task of that segment.
"""

from __future__ import annotations

import glob
import json
import os
import time

import pytest
from test_fault_injection import _tree_hashes

from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.pipelines.merge import maybe_merge
from whoosh_reloaded_ray.pipelines.write_ops import append_documents
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.manifest import load_manifest

# 4 segments of 2 partitions each
PLAN = dict(num_shards=4, partition_rows=32, rows_per_segment=64)
SEGMENTS = [f"seg-{i:05d}" for i in range(4)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipecorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=256, avg_turn_words=20, seed=17, rows_per_file=32)
    extra = str(d / "extra.parquet")
    generate_transcripts(extra, n_turns=64, avg_turn_words=20, seed=18, rows_per_file=32)
    return path, extra


def _hook(index_dir: str, segment: str, action: str) -> None:
    os.makedirs(index_dir, exist_ok=True)
    with open(os.path.join(index_dir, f".test_hook_{segment}"), "w") as f:
        f.write(action)


def _unhook(index_dir: str) -> None:
    for path in glob.glob(os.path.join(index_dir, ".test_hook_*")):
        os.unlink(path)


def _generations(index_dir: str) -> dict:
    """generation -> the segment names its manifest lists, in order."""
    out = {}
    for path in glob.glob(os.path.join(index_dir, "manifest-*.json")):
        with open(path) as f:
            man = json.load(f)
        out[man["generation"]] = [s["name"] for s in man["segments"]]
    return out


def _files(index_dir: str) -> dict:
    """relative path -> (size, mtime) of every file under ``index_dir``."""
    out = {}
    for path in glob.glob(os.path.join(index_dir, "**", "*"), recursive=True):
        if os.path.isfile(path):
            st = os.stat(path)
            out[os.path.relpath(path, index_dir)] = (st.st_size, st.st_mtime_ns)
    return out


def _disk_bytes(index_dir: str, segment: str) -> int:
    return sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(index_dir, segment, "*.parquet"))
    )


def test_task_counters_match_the_segment(corpus, ray_session, tmp_path):
    """Map rows = doc_count, write rows = n_postings, and write bytes =
    index_bytes = the segment's bytes on disk; for a build, an append and
    a merge."""
    path, extra = corpus
    idx = str(tmp_path / "idx")
    build_index([path], idx, **PLAN)
    append_documents(idx, [extra])
    man = load_manifest(idx)
    assert [s.name for s in man.segments][:4] == SEGMENTS and len(man.segments) == 5
    for seg in man.segments:
        m = seg.metrics
        assert set(m) == {"index_bytes", "map", "write"}
        assert m["map"]["rows"] == seg.doc_count
        assert m["write"]["rows"] == seg.n_postings > 0
        assert m["index_bytes"] == m["write"]["bytes"] == _disk_bytes(idx, seg.name)
        assert m["map"]["bytes"] > 0
        assert m["map"]["busy_s"] > 0 and m["write"]["busy_s"] > 0

    (merged,) = maybe_merge(idx, optimize=True).segments
    m = merged.metrics
    assert set(m) == {"index_bytes", "merge"}
    assert m["merge"]["rows"] == merged.n_postings == sum(s.n_postings for s in man.segments)
    assert m["index_bytes"] == m["merge"]["bytes"] == _disk_bytes(idx, merged.name)
    assert m["merge"]["busy_s"] > 0


def test_commits_in_plan_order_when_a_later_segment_finishes_first(
    corpus, ray_session, tmp_path
):
    """The first segment's map tasks are slowed so the second segment's
    files are written first; each committed generation still lists a
    prefix of the plan."""
    idx = str(tmp_path / "idx")
    _hook(idx, SEGMENTS[0], "sleep 2")
    man = build_index([corpus[0]], idx, **PLAN)
    _unhook(idx)
    assert [s.name for s in man.segments] == SEGMENTS

    def written(segment):
        return [os.stat(p).st_mtime_ns for p in glob.glob(os.path.join(idx, segment, "*"))]

    assert max(written(SEGMENTS[1])) < min(written(SEGMENTS[0])), (
        "the second segment did not finish first: nothing overlapped"
    )
    assert _generations(idx) == {g: SEGMENTS[: g + 1] for g in range(4)}


def test_failed_segment_commits_only_the_ones_before_it(corpus, ray_session, tmp_path):
    """The third of four segments fails while the fourth, slowed, is in
    flight: segments 1-2 are committed and nothing after them, no file
    changes once the call has raised, and a resume gives a clean build's
    index."""
    path = corpus[0]
    clean = str(tmp_path / "clean")
    build_index([path], clean, **PLAN)

    idx = str(tmp_path / "idx")
    _hook(idx, SEGMENTS[2], "fail")
    _hook(idx, SEGMENTS[3], "sleep 1.5")
    with pytest.raises(RuntimeError, match="test hook: segment seg-00002 fails"):
        build_index([path], idx, **PLAN)
    after_raise = _files(idx)

    assert [s.name for s in load_manifest(idx).segments] == SEGMENTS[:2]
    assert _generations(idx) == {0: SEGMENTS[:1], 1: SEGMENTS[:2]}
    time.sleep(2.5)
    assert _files(idx) == after_raise, "a task of the build wrote after build_index raised"

    _unhook(idx)
    man = build_index([path], idx, **PLAN)
    assert [s.name for s in man.segments] == SEGMENTS
    assert _tree_hashes(idx) == _tree_hashes(clean)
