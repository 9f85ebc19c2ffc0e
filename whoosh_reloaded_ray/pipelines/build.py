"""Index build pipeline: read -> tokenize -> shard exchange -> segment write.

The Ray equivalent of the reference's MpWriter map->sort->reduce build
(multiproc.py:61-351), with the parent-side single-threaded merge replaced
by an exchange keyed on the term shard, built from plain Ray tasks:

    map task per partition:   read_partition -> Tokenizer -> sort by shard
                              -> one Arrow IPC slice per shard, then its
                                 counters (num_returns=num_shards + 1)
    write task per shard:     concat its slices -> ShardSegmentWriter
                              -> postings/terminfo/doclens parquet files
                              -> its summary row (none if empty) as dicts,
                                 and its counters
    driver:                   sum the shard summaries -> SegmentMeta, and
                              the task counters -> SegmentMeta.metrics
    commit_manifest()         # atomic TOC generation

What crosses a task boundary is an Arrow IPC buffer or a plain dict, never
a ``pa.Table``: Ray pickles a table through a Python-level per-column
reducer, which held each segment's exchange up by 25-100 ms, varying from
run to run (the first table a process sends pays extra), where IPC slices
take about 12 ms.  Both task functions go through
``_rayutil.remote_task``, the one runner of every write task (merge and
update use it too), which makes each remote once per process.

Which plans run where: every segment of ``build_index``, and an append's or
update's segment of several partitions or shards, runs as the tasks above.
An append's or update's segment of one partition and one shard
(``_build_segment``) has one map step and one write step and nothing to
overlap them with, so the calling process does both itself
(``_build_in_process``: read_partition -> Tokenizer -> ShardSegmentWriter),
as the reference's ``SegmentWriter`` writes a segment in the caller and
fans out only under ``MpWriter``.  Its postings never leave the process:
no task, no object-store handoff, no shard sort or IPC round trip, and Ray
need not be initialized.  Both paths share the steps' work (``_postings``,
``_write_postings``) and the summing (``_segment_meta``), so they give the
same files and the same ``SegmentMeta``, busy seconds apart.

Ray retries a map or write task whose worker died; every file write is
atomic (tmp + rename) and the output is byte-deterministic, so a retry
yields the same segment.  Tasks hold no CPUs beyond their own run, so a
build finishes on any cluster size, one CPU included.

Every task returns its counters: rows, bytes and busy seconds (map: source
rows read and IPC bytes sent; write: postings and file bytes written); a
step run in process counts the same (its map bytes are the postings' IPC
size, counted without writing them).
Summed per stage they are the segment's ``metrics``, and the write tasks'
bytes are its ``index_bytes``.

Checkpoint/resume: segments are built with at most two in flight,
committed in plan order, one manifest generation each.  A segment is
submitted (its map and write tasks launched) before the one ahead of it is
finished (its summaries gathered) and committed, so the next segment's map
tasks fill the CPUs the last one's write tasks leave idle.  When a segment
fails, the segments ahead of it still commit, nothing planned after it
does, and the build waits until every task it launched has ended before it
raises.  A resumed build diffs the plan against committed lineage and only
runs missing segments.  A killed run leaves at most uncommitted shard
files that the resume overwrites atomically.

Scale: each segment is one bounded exchange over only ``rows_per_segment``
rows — the exchange never spans the whole corpus and a lost segment costs
one segment, not the build.  Two in flight bound the object store's share
to two segments' map outputs.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._rayutil import counters, remote_task, segment_test_hook, sum_counters
from ..schema import IndexSchema, transcript_schema
from ..sources.corpus import Partition, plan_partitions, read_partition
from ..stages.segment_write import ShardSegmentWriter
from ..stages.tokenize import Tokenizer
from ..state import storage
from ..state.manifest import Manifest, SegmentMeta, commit_manifest, load_manifest

logger = logging.getLogger(__name__)

# segments in flight at once: double buffering.  The next segment's map
# tasks run while the last one's write tasks finish and it commits, so the
# object store holds at most two segments' map outputs.
_IN_FLIGHT = 2

# Rows (documents) per shard of a segment whose shard count is not given:
# appends and merges (``shard_count``).  A shard costs a cold query one
# more footer parse and row-group read and decode per file it touches, and
# saves an append write time by running beside the other shards' write
# tasks.  Measured on a 4-vCPU VM, Ray 2.49 at 4 CPUs, median of five runs:
# a segment of N generated turns appended with S shards to an 8,192-turn
# index (two segments, 8 shards) whose readers are warm, then 32 ranked
# queries (term, AND, OR, NOT) each run twice at once on a fresh searcher;
# first-touch CPU is the first run's CPU less the second's, per query:
#   N        append wall s, S = 1/2/4/8     first-touch ms, S = 1/2/4/8
#   512      0.050 0.043 0.046 0.051         0.48 0.47 0.61 0.87
#   2,048    0.126 0.108 0.105 0.118         0.57 0.68 0.76 1.01
#   4,096    0.237 0.192 0.183 0.191         0.93 0.96 0.98 1.31
#   8,192    0.440 0.368 0.407 0.398         1.27 1.17 1.16 1.58
#   16,384   0.896 0.762 0.741 0.697         2.10 2.17 1.79 2.19
# (row groups read per query from the new segment: 0.06 at one shard, 0.50
# at eight).  A second shard saved no append time at 512 rows and cost
# first-touch CPU at 2,048 (+19%); from 4,096 rows on it cost none (+3%,
# -8%, +3%), and four first beat two at 16,384 (-18%): one shard per
# 4,096 rows.
ROWS_PER_SHARD = 4096


def shard_count(rows: int, cap: int) -> int:
    """Shards of a segment of ``rows`` documents: one per
    ``ROWS_PER_SHARD`` rows (rounded up), at least 1 and at most ``cap``."""
    return max(1, min(cap, -(-rows // ROWS_PER_SHARD)))


def shard_cap(manifest: Manifest) -> int:
    """The index's configured shard count, the cap of ``shard_count``: the
    build's ``num_shards``, or else its widest segment's count (16, the
    build's default, for an index of neither)."""
    n = manifest.build_config.get("num_shards")
    if n is None:
        n = max((s.num_shards for s in manifest.segments), default=16)
    return int(n)


def build_index(
    source_paths,
    index_dir: str,
    schema: IndexSchema | None = None,
    num_shards: int = 16,
    rows_per_segment: int | None = None,
    partition_rows: int | None = None,
    resume: bool = True,
) -> Manifest:
    """Build (or resume building) an index over parquet transcript files.

    Hot-term skew is bounded by the plan, not by splitting keys: a term's
    postings live in one shard, and a write task holds one segment's
    (``rows_per_segment``) postings for its shard.

    Returns the committed manifest."""
    if isinstance(source_paths, str):
        source_paths = [source_paths]
    schema = schema or transcript_schema()
    if schema.dynamic:
        import pyarrow.parquet as _pqd

        schema.resolve_dynamic(_pqd.ParquetFile(source_paths[0]).schema_arrow.names)

    # Load any committed manifest FIRST: its persisted plan parameters take
    # precedence on resume, because re-deriving partition_rows from the
    # cluster size at call time would produce a different plan on a
    # different cluster — no lineage key would match and every segment
    # would rebuild under its old name over still-referenced files.
    manifest = None
    committed_lineage: dict = {}
    if resume:
        manifest = load_manifest(index_dir)
    if manifest is not None and manifest.build_config:
        bc = manifest.build_config
        if partition_rows is not None and partition_rows != bc.get("partition_rows"):
            logger.warning(
                "resume: overriding requested partition_rows=%s with the "
                "committed plan's %s", partition_rows, bc.get("partition_rows"),
            )
        partition_rows = bc.get("partition_rows", partition_rows)
        rows_per_segment = bc.get("rows_per_segment", rows_per_segment)
        num_shards = bc.get("num_shards", num_shards)

    if partition_rows is None:
        # adaptive default: ~4 partitions per CPU so the read+tokenize
        # stage (the dominant cost) runs in small even waves — stragglers
        # in one big wave were measured to cost 2.5x wall time at 1M rows
        # (BASELINE.md); capped for the tiny-corpus case
        import pyarrow.parquet as _pq

        import ray as _ray

        total = sum(_pq.ParquetFile(p).metadata.num_rows for p in source_paths)
        cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
        partition_rows = max(4096, total // max(4 * cpus, 1))

    parts = plan_partitions(source_paths, target_rows=partition_rows)
    total_rows = sum(p.rows for p in parts)
    rows_per_segment = rows_per_segment or max(total_rows, 1)

    # group partitions into segment specs (contiguous docnum ranges)
    seg_specs: list[list[Partition]] = []
    cur: list[Partition] = []
    cur_rows = 0
    for p in parts:
        if cur and cur_rows + p.rows > rows_per_segment:
            seg_specs.append(cur)
            cur, cur_rows = [], 0
        cur.append(p)
        cur_rows += p.rows
    if cur:
        seg_specs.append(cur)

    # committed lineage at PARTITION granularity: a merged segment carries
    # the union of its victims' partitions, so per-segment tuples would stop
    # matching after any merge
    committed_parts: set = set()
    if manifest is not None:
        for s in manifest.segments:
            committed_parts.update((p.path, p.row_groups, p.base) for p in s.partitions)
    if manifest is None:
        manifest = Manifest(schema=schema)
    manifest.build_config = {
        "partition_rows": int(partition_rows),
        "rows_per_segment": int(rows_per_segment),
        "num_shards": int(num_shards),
    }

    committed_names = {s.name for s in manifest.segments}
    to_build: list[tuple[int, list]] = []
    for i, spec in enumerate(seg_specs):
        part_keys = {(p.path, p.row_groups, p.base) for p in spec}
        if part_keys <= committed_parts:
            logger.info("segment %d already committed; skipping", i)
            continue
        if part_keys & committed_parts:
            raise RuntimeError(
                f"resume plan mismatch: planned segment {i} overlaps committed "
                f"lineage only partially (committed plan: {manifest.build_config})"
            )
        planned_name = f"seg-{i:05d}"
        if planned_name in committed_names:
            # same name, different lineage: writing here would mix shard
            # files under a directory the committed manifest still references
            raise RuntimeError(
                f"resume plan mismatch: segment {planned_name} is committed "
                f"with different lineage (committed plan: "
                f"{manifest.build_config}); refusing to overwrite"
            )
        to_build.append((i, spec))

    todo = deque(to_build)
    if todo:
        import ray

        columns = _source_columns(schema, todo[0][1][0].path)
        tok = ray.put(Tokenizer(schema, num_shards=num_shards))
    flights: deque = deque()  # submitted, not yet committed, in plan order
    failed = None
    try:
        while todo or flights:
            while failed is None and todo and len(flights) < _IN_FLIGHT:
                i, spec = todo.popleft()
                try:
                    flights.append(
                        _submit_segment(f"seg-{i:05d}", spec, index_dir, num_shards, columns, tok)
                    )
                except Exception as exc:
                    # the segments already in flight come first in the
                    # plan: they still finish and commit
                    failed = exc
            if not flights:
                break
            manifest.segments.append(_finish_segment(flights[0]))
            flights.popleft()
            manifest.segments.sort(key=lambda s: s.doc_base)
            commit_manifest(index_dir, manifest)
    finally:
        # after a failure, what is still in flight is planned after it:
        # nothing of it commits, but its tasks end before we return, so
        # none is still writing when the caller resumes or cleans up
        _wait_ended(flights)
    if failed is not None:
        raise failed
    return manifest


def _source_columns(schema: IndexSchema, path: str) -> list:
    """The source columns a map task reads: the indexed fields, plus the
    write-time boost columns (_boost / _<field>_boost, reference
    writing.py:392-402) when the source file carries them."""
    import pyarrow.parquet as pq

    columns = [f.name for f in schema.indexed_fields]
    indexed = set(columns)
    src_cols = set(pq.ParquetFile(path).schema_arrow.names)
    return columns + [c for c in src_cols if c == "_boost" or (
        c.startswith("_") and c.endswith("_boost") and c[1:-6] in indexed
    )]


def _postings(part: Partition, columns: list, tok: Tokenizer, seg_dir: str) -> tuple:
    """The map step's work, in a task or in the caller: the segment's test
    hook, then one partition read and tokenized.  Returns its postings, the
    rows read and the ``time.perf_counter()`` the work started at."""
    segment_test_hook(seg_dir)
    t0 = time.perf_counter()
    batch = read_partition(part, columns=columns)
    return tok(batch), batch.num_rows, t0


def _map_partition(
    part: Partition, columns: list, tok: Tokenizer, num_shards: int, seg_dir: str
):
    """Map task: one partition's postings, cut into one slice per shard
    (slice k holds shard k's rows, possibly none), each an Arrow IPC
    stream; then the task's counters (source rows read, slice bytes)."""
    postings, rows, t0 = _postings(part, columns, tok, seg_dir)
    postings = postings.take(pc.sort_indices(postings, sort_keys=[("shard", "ascending")]))
    bounds = np.searchsorted(storage.as_numpy(postings["shard"]), np.arange(num_shards + 1))
    slices = [
        _to_ipc(postings.slice(a, b - a), pa.BufferOutputStream()).getvalue()
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return (*slices, counters(rows, sum(s.size for s in slices), t0))


def _to_ipc(table: pa.Table, sink):
    """``table`` written to ``sink`` as an Arrow IPC stream; returns ``sink``
    (a ``pa.MockOutputStream`` only counts the bytes)."""
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink


def _write_shard(seg_dir: str, *slices: pa.Buffer) -> tuple:
    """Write task: one shard's slices from every map task -> its files;
    returns the shard's summary rows (none if empty) and the task's
    counters (postings written, file bytes)."""
    t0 = time.perf_counter()
    table = pa.concat_tables([pa.ipc.open_stream(s).read_all() for s in slices])
    return _write_postings(seg_dir, table, t0)


def _write_postings(seg_dir: str, table: pa.Table, t0: float) -> tuple:
    """The write step's work, in a task or in the caller: one shard's
    postings -> its files.  Returns the shard's summary rows and the
    counters of the work started at ``t0``."""
    rows = ShardSegmentWriter(seg_dir)(table).to_pylist()
    return rows, counters(
        sum(r["n_postings"] for r in rows), sum(r["bytes"] for r in rows), t0
    )


@dataclass
class _Flight:
    """A submitted segment: its plan and its tasks' refs."""

    name: str
    spec: list
    num_shards: int
    maps: list  # each map task's counters
    writes: list  # each write task's (summary rows, counters)


def _segment_dir(index_dir: str, name: str) -> str:
    seg_dir = storage.join(index_dir, name)
    storage.makedirs(seg_dir)
    return seg_dir


def _submit_segment(
    name: str, spec: list, index_dir: str, num_shards: int, columns: list, tok
) -> _Flight:
    """First step of a segment build: launch its map tasks and one write
    task per shard, and return their refs without waiting.  ``tok`` is
    the build's ``Tokenizer``, already in the object store."""
    seg_dir = _segment_dir(index_dir, name)
    map_task = remote_task(_map_partition).options(num_returns=num_shards + 1)
    write_task = remote_task(_write_shard)
    outs = [map_task.remote(p, columns, tok, num_shards, seg_dir) for p in spec]
    writes = [
        write_task.remote(seg_dir, *(refs[k] for refs in outs)) for k in range(num_shards)
    ]
    return _Flight(name, list(spec), num_shards, [refs[-1] for refs in outs], writes)


def _wait_ended(flights) -> None:
    """Block until every task of ``flights`` has ended, failed ones too."""
    import ray

    refs = [r for f in flights for r in f.maps + f.writes]
    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)


def _finish_segment(flight: _Flight) -> SegmentMeta:
    """Second step of a segment build: wait for its tasks (raising the
    first failure), then sum their shard summaries and counters into its
    ``SegmentMeta``."""
    import ray

    _wait_ended([flight])
    return _segment_meta(
        flight.name, flight.spec, flight.num_shards, ray.get(flight.maps), ray.get(flight.writes)
    )


def _segment_meta(name: str, spec: list, num_shards: int, maps: list, writes: list) -> SegmentMeta:
    """A built segment's ``SegmentMeta``: ``maps`` are its map steps'
    counters, ``writes`` its write steps' (summary rows, counters), summed
    the same way wherever the steps ran."""
    summary = [row for rows, _ in writes for row in rows]

    # field totals for avgfl: each shard writer pre-aggregates its doclen
    # sentinel rows and ships the per-field sums back in its summary row —
    # no second driver pass over the doclens parquet
    field_lengths: dict = {}
    for s in summary:
        for f, v in json.loads(s["field_lengths_json"]).items():
            field_lengths[f] = field_lengths.get(f, 0) + int(v)

    write = sum_counters(c for _, c in writes)
    meta = SegmentMeta(
        name=name,
        doc_base=min(p.base for p in spec),
        doc_count=sum(p.rows for p in spec),
        num_shards=num_shards,
        partitions=list(spec),
        field_lengths=field_lengths,
        n_terms=sum(s["n_terms"] for s in summary),
        n_postings=sum(s["n_postings"] for s in summary),
        files=sorted(f for s in summary for f in s["files"]),
        metrics={"index_bytes": write["bytes"], "map": sum_counters(maps), "write": write},
    )
    logger.info(
        "built %s: %d docs, %d postings, %.2fs of map and %.2fs of write work",
        meta.name, meta.doc_count, meta.n_postings,
        meta.metrics["map"]["busy_s"], write["busy_s"],
    )
    return meta


def _build_segment(
    name: str,
    spec: list,
    index_dir: str,
    schema: IndexSchema,
    num_shards: int,
) -> SegmentMeta:
    """One segment, nothing else in flight (appends and updates).

    A plan of one partition and one shard has one map step and one write
    step, with nothing to overlap: it runs in the calling process, read,
    tokenize and write, with no task, no object-store handoff and no shard
    sort or IPC round trip, and Ray need not be initialized.  Any other plan
    goes through ``_submit_segment`` and ``_finish_segment`` as a build's
    segment does.  Both give the same files and the same ``SegmentMeta``
    (busy seconds apart)."""
    columns = _source_columns(schema, spec[0].path)
    tok = Tokenizer(schema, num_shards=num_shards)
    if len(spec) == 1 and num_shards == 1:
        return _build_in_process(name, spec[0], index_dir, columns, tok)
    import ray

    return _finish_segment(
        _submit_segment(name, spec, index_dir, num_shards, columns, ray.put(tok))
    )


def _build_in_process(
    name: str, part: Partition, index_dir: str, columns: list, tok: Tokenizer
) -> SegmentMeta:
    """A one-partition, one-shard segment built in the calling process: the
    map step's work, then the write step's, counted as the tasks count them
    (the map's bytes are the postings' IPC size, counted, not written)."""
    seg_dir = _segment_dir(index_dir, name)
    postings, rows, t0 = _postings(part, columns, tok, seg_dir)
    mapped = counters(rows, _to_ipc(postings, pa.MockOutputStream()).size(), t0)
    written = _write_postings(seg_dir, postings, time.perf_counter())
    return _segment_meta(name, [part], 1, [mapped], [written])
