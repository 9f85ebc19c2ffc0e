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

An append's plan of one partition and one shard is built in the calling
process instead (``_build_segment``): here it writes what the tasks write
for the same plan, with the same ``SegmentMeta``; any other plan still
runs as tasks; and the test hook fails it with nothing committed.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import time

import pytest
from test_fault_injection import _tree_hashes

from whoosh_reloaded_ray.pipelines import build
from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.pipelines.merge import maybe_merge
from whoosh_reloaded_ray.pipelines.write_ops import append_documents
from whoosh_reloaded_ray.schema import transcript_schema
from whoosh_reloaded_ray.sources.corpus import generate_transcripts, plan_partitions
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


def _without_busy_seconds(meta) -> dict:
    d = copy.deepcopy(meta.to_dict())
    for stage in ("map", "write"):
        d["metrics"][stage].pop("busy_s")
    return d


def test_in_process_segment_equals_the_task_built_one(corpus, ray_session, tmp_path, monkeypatch):
    """The same one-partition, one-shard plan, built in process (no task
    launched) and through ``_submit_segment``/``_finish_segment``: the
    same files, byte for byte, and the same ``SegmentMeta`` apart from
    busy seconds (the map's bytes included: the postings' IPC size)."""
    import ray

    from whoosh_reloaded_ray.stages.tokenize import Tokenizer

    schema = transcript_schema()
    spec = plan_partitions([corpus[1]], target_rows=1000)
    assert len(spec) == 1
    columns = build._source_columns(schema, spec[0].path)
    tasks = build._finish_segment(build._submit_segment(
        "seg-x", spec, str(tmp_path / "tasks"), 1, columns, ray.put(Tokenizer(schema, num_shards=1))
    ))

    def refuse(fn):
        raise AssertionError(f"{fn.__name__} ran as a task")

    monkeypatch.setattr(build, "remote_task", refuse)
    here = build._build_segment("seg-x", spec, str(tmp_path / "here"), schema, 1)

    assert _tree_hashes(str(tmp_path / "here")) == _tree_hashes(str(tmp_path / "tasks"))
    assert _without_busy_seconds(here) == _without_busy_seconds(tasks)
    assert here.metrics["map"]["bytes"] > 0 and here.metrics["write"]["busy_s"] > 0


def test_other_append_plans_run_as_tasks(corpus, ray_session, tmp_path, monkeypatch):
    """Only a plan of one partition and one shard is built in process: a
    two-file append, and an append sized to two shards, run as tasks."""
    path, extra = corpus
    idx = str(tmp_path / "idx")
    build_index([path], idx, **PLAN)
    launched = []
    remote_task = build.remote_task

    def counted(fn):
        launched.append(fn.__name__)
        return remote_task(fn)

    monkeypatch.setattr(build, "remote_task", counted)

    append_documents(idx, [extra])
    assert launched == [] and load_manifest(idx).segments[-1].num_shards == 1
    append_documents(idx, [path, extra])
    assert launched == ["_map_partition", "_write_shard"]
    launched.clear()
    monkeypatch.setattr(build, "ROWS_PER_SHARD", 32)
    append_documents(idx, [extra])  # 64 rows: two shards
    assert launched == ["_map_partition", "_write_shard"]
    assert [s.num_shards for s in load_manifest(idx).segments[4:]] == [1, 1, 2]


def test_test_hook_fails_an_in_process_append_with_nothing_committed(corpus, ray_session, tmp_path):
    path, extra = corpus
    idx = str(tmp_path / "idx")
    build_index([path], idx, **PLAN)
    before = load_manifest(idx)
    _hook(idx, f"seg-00004a{before.generation + 1}", "fail")
    with pytest.raises(RuntimeError, match="test hook: segment seg-00004a4 fails"):
        append_documents(idx, [extra])
    after = load_manifest(idx)
    assert after.generation == before.generation
    assert [s.name for s in after.segments] == SEGMENTS
    assert _generations(idx) == {g: SEGMENTS[: g + 1] for g in range(4)}
