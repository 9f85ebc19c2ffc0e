"""Index build pipeline: read -> tokenize -> shard shuffle -> segment write.

The Ray-Data-native equivalent of the reference's MpWriter map->sort->reduce
build (multiproc.py:61-351), with the parent-side single-threaded merge
replaced by the groupby(term-shard) shuffle:

    read_corpus(partitions)                       # stateless read tasks,
                                                  #   docnums from the plan
      .map_batches(Tokenizer, batch_format=...)   # analysis chain, vectorized
      .groupby("shard").map_groups(ShardSegmentWriter)  # the shuffle + reduce
      -> per-shard parquet block files + terminfo + doclens
    commit_manifest()                             # atomic TOC generation

Checkpoint/resume: segments are committed one manifest generation at a
time; a resumed build diff's the plan against committed lineage and only
runs missing segments.  A killed run leaves at most uncommitted shard files
that the resume overwrites atomically.

Scale: each segment group is one bounded sub-pipeline that saturates the
cluster (read/tokenize/shuffle stream concurrently with backpressure); at
100 TB you get N_segments sequential waves, each an all-to-all over only
``rows_per_segment`` rows — the shuffle never spans the whole corpus and a
lost wave costs one segment, not the build.
"""

from __future__ import annotations

import gc
import logging
import time

from ..schema import IndexSchema, transcript_schema
from ..sources.corpus import Partition, plan_partitions, read_corpus
from ..stages.segment_write import ShardSegmentWriter
from ..stages.tokenize import LEN_SENTINEL, Tokenizer
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
    tokenizer_concurrency=None,
    writer_concurrency: int | None = None,
    salted_terms: dict | None = None,
    salt_df_ratio: float | None = None,
    salt_sample_rows: int = 100_000,
) -> Manifest:
    """Build (or resume building) an index over parquet transcript files.

    Hot-term skew valve: ``salted_terms`` = {(field, term): n_salts} splits a
    hot term's postings across n_salts reducers by docnum range (see
    stages/tokenize.py).  ``salt_df_ratio`` (e.g. 0.05) auto-detects instead:
    a driver-side sample of ``salt_sample_rows`` rows estimates per-term doc
    frequency, and terms appearing in more than ``salt_df_ratio`` of docs get
    n_salts proportional to their estimated share.

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

    if salted_terms is None and salt_df_ratio is not None:
        salted_terms = estimate_hot_terms(parts, schema, salt_df_ratio, salt_sample_rows)

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

    if not to_build:
        return manifest

    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8

    # Shuffle algorithm: the per-segment groupby("shard") is a sort
    # shuffle.  On wide clusters the pull-based exchange's wall time is
    # dominated by per-object pulls that don't scale with CPUs (measured
    # 53k -> 63k turns/s at 32 CPUs on a 1.25M-row segment when switched);
    # push-based pre-merges partitions and wins at width, while narrow
    # clusters keep the cheaper pull-based default.
    _ctx = _saved_strategy = None
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        _ctx = DataContext.get_current()
        _saved_strategy = _ctx.shuffle_strategy
        if cpus >= 16:
            _ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    except Exception:  # older Ray without the knob keeps its default
        _ctx = None

    # Overlap consecutive segment builds: each segment pipeline ends in a
    # shuffle + bounded reducer tail during which the tokenize stage is
    # idle; running the NEXT segment's read/tokenize under that tail keeps
    # the cluster busy.  Commits stay strictly in plan order so resume
    # semantics are unchanged (a crash commits only a prefix).  Depth 2 is
    # the measured sweet spot (10M-turn / 32-CPU probe, 2026-08-19:
    # depth 2 = 85.2k turns/s vs depth 4 = 42-51k — more concurrent
    # pipelines fragment the per-stage actor pools and thrash the driver's
    # per-dataset executors) and bounds in-flight shuffle memory to TWO
    # segments — size rows_per_segment so 2 x segment postings fits the
    # aggregate object store.
    overlap = 1 if len(to_build) < 2 or cpus < 8 else 2
    try:
        if overlap == 1:
            for i, spec in to_build:
                seg = _build_segment(
                    f"seg-{i:05d}", spec, index_dir, schema, num_shards,
                    tokenizer_concurrency, writer_concurrency, salted_terms,
                    autoscale_writers=False,
                )
                manifest.segments.append(seg)
                manifest.segments.sort(key=lambda s: s.doc_base)
                commit_manifest(index_dir, manifest)
        else:
            import concurrent.futures as _futmod

            done_metas: dict = {}
            pending = [i for i, _ in to_build]
            with _futmod.ThreadPoolExecutor(max_workers=overlap) as pool:
                futs = {
                    pool.submit(
                        _build_segment,
                        f"seg-{i:05d}", spec, index_dir, schema, num_shards,
                        tokenizer_concurrency, writer_concurrency, salted_terms,
                        True,  # autoscale_writers: pipelines share the CPUs
                    ): i
                    for i, spec in to_build
                }
                for fut in _futmod.as_completed(futs):
                    done_metas[futs[fut]] = fut.result()
                    while pending and pending[0] in done_metas:
                        j = pending.pop(0)
                        manifest.segments.append(done_metas.pop(j))
                        manifest.segments.sort(key=lambda s: s.doc_base)
                        commit_manifest(index_dir, manifest)
    finally:
        if _ctx is not None:
            _ctx.shuffle_strategy = _saved_strategy
    return manifest


def _build_segment(
    name: str,
    spec: list,
    index_dir: str,
    schema: IndexSchema,
    num_shards: int,
    tokenizer_concurrency,
    writer_concurrency: int | None = None,
    salted_terms: dict | None = None,
    autoscale_writers: bool = False,
) -> SegmentMeta:
    t0 = time.time()
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
    ds = read_corpus(spec, columns=indexed_cols)
    tok = Tokenizer(
        schema,
        num_shards=num_shards,
        salted=salted_terms,
        doc_range=(doc_base, doc_count),
    )
    kwargs = {}
    if tokenizer_concurrency:
        kwargs["concurrency"] = tokenizer_concurrency
    postings = ds.map_batches(tok, batch_format="pyarrow", **kwargs)

    # Reducer = stateful actor pool with BOUNDED concurrency (~cpus/4):
    # unbounded write tasks run concurrently with every tokenizer and
    # memory-bandwidth-thrash each other (measured 5-20x UDF cpu-time
    # inflation at 32-way); a small pool doubles end-to-end throughput and
    # leaves the remaining cores to the tokenize stage.
    if writer_concurrency is None:
        import ray

        total_cpus = int(ray.cluster_resources().get("CPU", 8))
        writer_concurrency = max(2, total_cpus // 4)
    summary = (
        postings.groupby("shard")
        .map_groups(
            ShardSegmentWriter,
            fn_constructor_args=(seg_dir,),
            # When OVERLAPPED with sibling segment pipelines, the pool
            # autoscales (2..N): a fixed-size pool RESERVES its actors'
            # CPUs for the pipeline's whole lifetime and starves the
            # siblings' tokenize stages.  A lone pipeline keeps the fixed
            # pool — autoscale spin-up lag costs ~20% on short builds.
            concurrency=(
                (min(2, writer_concurrency), writer_concurrency)
                if autoscale_writers
                else writer_concurrency
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    # Ray Data releases the writer pool by dropping its actor handles, but
    # the finished executor holds them in reference cycles: until a full
    # collection the actors stay alive and keep their CPUs, and the next
    # build's fixed pool plus its tokenize tasks can wait on them forever.
    del ds, postings
    gc.collect()

    # field totals for avgfl: each shard reducer pre-aggregates its doclen
    # sentinel rows and ships the per-field sums back in its summary row —
    # no second driver pass over the doclens parquet
    import json as _json

    field_lengths: dict = {}
    if len(summary):
        for s in summary["field_lengths_json"]:
            for f, v in _json.loads(s).items():
                field_lengths[f] = field_lengths.get(f, 0) + int(v)

    salted_serial: dict = {}
    for (f, t), n in (salted_terms or {}).items():
        salted_serial.setdefault(f, {})[t] = int(n)
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
        n_terms=int(summary["n_terms"].sum()) if len(summary) else 0,
        n_postings=int(summary["n_postings"].sum()) if len(summary) else 0,
        salted_terms=salted_serial,
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


def estimate_hot_terms(
    parts: list,
    schema: IndexSchema,
    df_ratio: float,
    sample_rows: int,
    max_salts: int = 32,
) -> dict:
    """Driver-side sampled doc-frequency estimate -> {(field, term): n_salts}.

    Reads up to ``sample_rows`` rows spread across the partition plan (first
    row groups of evenly spaced partitions — cheap metadata-guided reads, no
    cluster pass), tokenizes with the schema analyzers, and marks any term
    whose sampled doc ratio exceeds ``df_ratio`` as hot with
    ``n_salts ~ ratio / df_ratio`` (capped).  Deterministic for a fixed plan."""
    from collections import Counter

    from ..functions.analysis import make_analyzer
    from ..sources.corpus import read_partition

    if not parts:
        return {}
    step = max(1, len(parts) // 8)
    sampled = parts[::step][:8]
    per_part = max(1, sample_rows // len(sampled))
    counters = {f.name: Counter() for f in schema.indexed_fields if f.scorable}
    analyzers = {
        f.name: make_analyzer(f.analyzer)
        for f in schema.indexed_fields
        if f.scorable
    }
    n_docs = 0
    for p in sampled:
        tbl = read_partition(p, columns=list(analyzers))
        tbl = tbl.slice(0, per_part)
        n_docs += tbl.num_rows
        for fname, analyze in analyzers.items():
            for text in tbl[fname].to_pylist():
                if text:
                    counters[fname].update({t for t, _ in analyze(text)})
    hot: dict = {}
    if n_docs == 0:
        return hot
    for fname, ctr in counters.items():
        for term, df in ctr.items():
            ratio = df / n_docs
            if ratio > df_ratio:
                hot[(fname, term)] = min(max_salts, max(2, int(ratio / df_ratio)))
    return hot


