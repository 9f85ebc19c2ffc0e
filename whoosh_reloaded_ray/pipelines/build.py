"""Index build pipeline: read -> tokenize -> shard exchange -> segment write.

The Ray equivalent of the reference's MpWriter map->sort->reduce build
(multiproc.py:61-351), with the parent-side single-threaded merge replaced
by an exchange keyed on the term shard, built from plain Ray tasks:

    map task per partition:   read_partition -> Tokenizer -> sort by shard
                              -> one Arrow IPC slice per shard
                                 (num_returns=num_shards)
    write task per shard:     concat its slices -> ShardSegmentWriter
                              -> postings/terminfo/doclens parquet files
                              -> its summary row (none if empty) as dicts
    driver:                   sum the shard summaries -> SegmentMeta
    commit_manifest()         # atomic TOC generation

What crosses a task boundary is an Arrow IPC buffer or a plain dict, never
a ``pa.Table``: Ray pickles a table through a Python-level per-column
reducer, which held each segment's exchange up by 25-100 ms, varying from
run to run (the first table a process sends pays extra), where IPC slices
take about 12 ms.  Both task functions go through
``_rayutil.remote_task``, the one runner of every write task (merge and
update use it too), which makes each remote once per process.

Ray retries a map or write task whose worker died; every file write is
atomic (tmp + rename) and the output is byte-deterministic, so a retry
yields the same segment.  Tasks hold no CPUs beyond their own run, so a
build finishes on any cluster size, one CPU included.

Checkpoint/resume: segments are built one at a time and committed one
manifest generation each, in plan order; a resumed build diffs the plan
against committed lineage and only runs missing segments.  A killed run
leaves at most uncommitted shard files that the resume overwrites
atomically.

Scale: each segment is one bounded exchange over only ``rows_per_segment``
rows — the exchange never spans the whole corpus and a lost segment costs
one segment, not the build.
"""

from __future__ import annotations

import json
import logging
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._rayutil import remote_task
from ..schema import IndexSchema, transcript_schema
from ..sources.corpus import Partition, plan_partitions, read_partition
from ..stages.segment_write import ShardSegmentWriter
from ..stages.tokenize import Tokenizer
from ..state.manifest import Manifest, SegmentMeta, commit_manifest, load_manifest

logger = logging.getLogger(__name__)


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

    for i, spec in to_build:
        seg = _build_segment(f"seg-{i:05d}", spec, index_dir, schema, num_shards)
        manifest.segments.append(seg)
        manifest.segments.sort(key=lambda s: s.doc_base)
        commit_manifest(index_dir, manifest)
    return manifest


def _map_partition(part: Partition, columns: list, tok: Tokenizer, num_shards: int):
    """Map task: one partition's postings, cut into one slice per shard
    (slice k holds shard k's rows, possibly none), each an Arrow IPC
    stream."""
    postings = tok(read_partition(part, columns=columns))
    postings = postings.take(pc.sort_indices(postings, sort_keys=[("shard", "ascending")]))
    bounds = np.searchsorted(postings["shard"].to_numpy(), np.arange(num_shards + 1))
    slices = [_to_ipc(postings.slice(a, b - a)) for a, b in zip(bounds[:-1], bounds[1:])]
    return slices if num_shards > 1 else slices[0]


def _to_ipc(table: pa.Table) -> pa.Buffer:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue()


def _write_shard(seg_dir: str, *slices: pa.Buffer) -> list:
    """Write task: one shard's slices from every map task -> its files;
    returns the shard's summary rows (none for an empty shard)."""
    table = pa.concat_tables([pa.ipc.open_stream(s).read_all() for s in slices])
    return ShardSegmentWriter(seg_dir)(table).to_pylist()


def _build_segment(
    name: str,
    spec: list,
    index_dir: str,
    schema: IndexSchema,
    num_shards: int,
) -> SegmentMeta:
    t0 = time.time()
    import ray

    from ..state import storage

    seg_dir = storage.join(index_dir, name)
    storage.makedirs(seg_dir)

    doc_base = min(p.base for p in spec)
    doc_count = sum(p.rows for p in spec)
    indexed_cols = [f.name for f in schema.indexed_fields]
    # write-time boost columns (_boost / _<field>_boost, reference
    # writing.py:392-402) ride along when the source carries them
    import pyarrow.parquet as _pq

    src_cols = set(_pq.ParquetFile(spec[0].path).schema_arrow.names)
    indexed_cols += [c for c in src_cols if c == "_boost" or (
        c.startswith("_") and c.endswith("_boost") and c[1:-6] in set(indexed_cols)
    )]
    tok = ray.put(Tokenizer(schema, num_shards=num_shards))
    map_task = remote_task(_map_partition).options(num_returns=num_shards)
    write_task = remote_task(_write_shard)
    slices = [map_task.remote(p, indexed_cols, tok, num_shards) for p in spec]
    if num_shards == 1:
        slices = [[ref] for ref in slices]
    summary = [row for rows in ray.get([
        write_task.remote(seg_dir, *(refs[k] for refs in slices))
        for k in range(num_shards)
    ]) for row in rows]

    # field totals for avgfl: each shard writer pre-aggregates its doclen
    # sentinel rows and ships the per-field sums back in its summary row —
    # no second driver pass over the doclens parquet
    field_lengths: dict = {}
    for s in summary:
        for f, v in json.loads(s["field_lengths_json"]).items():
            field_lengths[f] = field_lengths.get(f, 0) + int(v)

    seg_bytes = sum(
        storage.getsize(storage.join(seg_dir, f))
        for f in storage.listdir(seg_dir)
        if f.endswith(".parquet")
    )
    elapsed = time.time() - t0
    meta = SegmentMeta(
        name=name,
        doc_base=doc_base,
        doc_count=doc_count,
        num_shards=num_shards,
        partitions=list(spec),
        field_lengths=field_lengths,
        n_terms=sum(s["n_terms"] for s in summary),
        n_postings=sum(s["n_postings"] for s in summary),
        metrics={
            "build_secs": round(elapsed, 3),
            "rows_per_sec": round(doc_count / elapsed, 1) if elapsed else None,
            "index_bytes": seg_bytes,
        },
    )
    logger.info(
        "built %s: %d docs, %d postings in %.1fs",
        name,
        doc_count,
        meta.n_postings,
        time.time() - t0,
    )
    return meta
