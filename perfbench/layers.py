"""The engine's layers as the traced run sees them.

``install`` wraps each layer's public entry points in span recorders;
``replay_build`` runs the build stages again on an index's partitions (in
a real build they run inside Ray workers, out of the tracer's reach);
``per_layer_metrics`` turns the recorded spans into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import os
import statistics

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .trace import Patches, Tracer

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "sources.corpus.read_s": "s",
    "stages.tokenize.busy_s": "s",
    "stages.tokenize.rows_out": "rows",
    "pipelines.build.shuffle_s": "s",
    "stages.segment_write.busy_s": "s",
    "stages.segment_write.bytes": "B",
    "state.manifest.commit_s": "s",
    "state.manifest.commits": "1/op",
    "pipelines.write_ops.append_s": "s",
    "pipelines.write_ops.delete_s": "s",
    "state.searcher.open_s": "s",
    "pipelines.merge.merge_s": "s/op",
    "pipelines.merge.bytes_rewritten": "B/op",
    "state.storage.reads_per_query": "1/query",
    "state.storage.read_ms_per_query": "ms/query",
    "query.exec.postings_calls_per_query": "1/query",
    "query.exec.postings_miss_ratio": "ratio",
    "query.exec.evaluate_ms": "ms/query",
    "query.wand.topk_ms": "ms/query",
    "query.wand.calls": "1/query",
    "query.parser.parse_us": "us",
    "state.searcher.search_ms": "ms",
    "state.searcher.fanout_ms": "ms",
    "trace.overhead_pct": "%",
}

SEARCH = "state.searcher.search"
PARSE = "query.parser.parse"
READ = "state.storage.read_parquet"
LOOKUPS = ("query.exec.terminfo", "query.exec.postings")
EVALUATE = "query.exec.evaluate"
WAND = "query.wand.topk_wand"
OPEN = "state.searcher.open"
COMMIT = "state.manifest.commit"
APPEND = "pipelines.write_ops.append"
DELETE = "pipelines.write_ops.delete"
MERGE = "pipelines.merge.maybe_merge"


def install() -> Patches:
    """Wrap the layers' entry points (module attributes, so every caller
    that looks them up at call time is traced)."""
    from whoosh_reloaded_ray.pipelines import build, merge, write_ops
    from whoosh_reloaded_ray.query import exec as qexec
    from whoosh_reloaded_ray.query import parser, wand
    from whoosh_reloaded_ray.state import manifest, searcher, storage

    targets = [
        (parser.QueryParser, "parse", PARSE),
        (searcher.IndexSearcher, "search", SEARCH),
        (searcher.IndexSearcher, "__init__", OPEN),
        (qexec.SegmentReader, "terminfo", LOOKUPS[0]),
        (qexec.SegmentReader, "postings", LOOKUPS[1]),
        (qexec, "evaluate", EVALUATE),
        (searcher, "evaluate", EVALUATE),
        (wand, "topk_wand", WAND),
        (storage, "read_parquet", READ),
        (write_ops, "append_documents", APPEND),
        (write_ops, "delete_by_term", DELETE),
        (merge, "maybe_merge", MERGE),
    ]
    # commit_manifest is imported by name into each module that commits
    targets += [(m, "commit_manifest", COMMIT) for m in (manifest, build, write_ops, merge)]
    return Patches(targets)


def replay_build(tracer: Tracer, segments, out_dir: str, num_shards: int, per: int) -> dict:
    """Run the build stages over ``segments`` (per segment, the partitions
    the index manifest records it was built from), one span per stage call.
    Read, tokenize and segment write run in-process.  The shuffle runs as
    ``build_index`` runs it, through Ray Data's ``groupby("shard")
    .map_groups(ShardSegmentWriter)`` with build's writer pool size, so its
    span covers the exchange and the reduce-side writes.  Returns the build
    layers' metrics divided by ``per``, the number of workload operations
    the replayed input stands for."""
    import ray

    from whoosh_reloaded_ray.schema import transcript_schema
    from whoosh_reloaded_ray.sources.corpus import read_partition
    from whoosh_reloaded_ray.stages.segment_write import ShardSegmentWriter
    from whoosh_reloaded_ray.stages.tokenize import Tokenizer

    schema = transcript_schema()
    columns = [f.name for f in schema.indexed_fields]
    writers = max(2, int(ray.cluster_resources().get("CPU", 8)) // 4)
    written = os.path.join(out_dir, "in-process")
    lo = len(tracer.spans)
    rows_out = 0
    for i, spec in enumerate(segments):
        tok = Tokenizer(
            schema, num_shards=num_shards,
            doc_range=(min(p.base for p in spec), sum(p.rows for p in spec)),
        )
        tokens = []
        for part in spec:
            with tracer.span("sources.corpus.read"):
                batch = read_partition(part, columns=columns)
            with tracer.span("stages.tokenize"):
                out = tok(batch)
            rows_out += out.num_rows
            tokens.append(out)

        shuffled = os.path.join(out_dir, "shuffled", f"seg-{i:05d}")
        os.makedirs(shuffled)
        with tracer.span("pipelines.build.shuffle"):
            ray.data.from_arrow(tokens).groupby("shard").map_groups(
                ShardSegmentWriter, fn_constructor_args=(shuffled,),
                concurrency=writers, batch_format="pyarrow",
            ).to_pandas()

        # the same shard groups, written again in-process
        table = pa.concat_tables(tokens)
        table = table.take(pc.sort_indices(table, sort_keys=[("shard", "ascending")]))
        shards = table["shard"].to_numpy()
        bounds = [0, *(np.flatnonzero(np.diff(shards)) + 1).tolist(), table.num_rows]
        seg_dir = os.path.join(written, f"seg-{i:05d}")
        os.makedirs(seg_dir)
        writer = ShardSegmentWriter(seg_dir)
        for a, b in zip(bounds, bounds[1:]):
            group = table.slice(a, b - a)
            with tracer.span("stages.segment_write"):
                writer(group)

    def busy(name):
        return sum(e - s for n, s, e, _ in tracer.spans[lo:] if n == name) / per

    return {
        "sources.corpus.read_s": busy("sources.corpus.read"),
        "stages.tokenize.busy_s": busy("stages.tokenize"),
        "stages.tokenize.rows_out": rows_out / per,
        "pipelines.build.shuffle_s": busy("pipelines.build.shuffle"),
        "stages.segment_write.busy_s": busy("stages.segment_write"),
        "stages.segment_write.bytes": dir_bytes(written) / per,
    }


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def query_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-query layer metrics over client queries recorded in spans[lo:hi]:
    each top-level search span is one query, and its descendants are the
    work that query caused."""
    spans = tracer.spans
    roots = tracer.roots()
    queries = [i for i in range(lo, hi) if spans[i][0] == SEARCH and spans[i][3] < 0]
    qset = set(queries)
    n = max(len(queries), 1)
    reads = read_s = lookups = wand_calls = wand_s = eval_s = 0.0
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        if roots[i] not in qset or i in qset:
            continue
        if name == READ:
            reads += 1
            read_s += end - start
        elif name in LOOKUPS:
            lookups += 1
        elif name == WAND:
            wand_calls += 1
            wand_s += end - start
        elif name == EVALUATE and spans[parent][0] != EVALUATE:
            eval_s += end - start
    parses = [spans[i][2] - spans[i][1] for i in range(lo, hi) if spans[i][0] == PARSE]
    return {
        "state.storage.reads_per_query": reads / n,
        "state.storage.read_ms_per_query": read_s * 1e3 / n,
        "query.exec.postings_calls_per_query": lookups / n,
        "query.exec.postings_miss_ratio": reads / lookups if lookups else 0.0,
        "query.exec.evaluate_ms": eval_s * 1e3 / n,
        "query.wand.topk_ms": wand_s * 1e3 / n,
        "query.wand.calls": wand_calls / n,
        "query.parser.parse_us": _median(parses) * 1e6,
        "state.searcher.search_ms": _median(
            [spans[i][2] - spans[i][1] for i in queries]
        ) * 1e3,
    }


def per_layer_metrics(tracer: Tracer, query_range: tuple, ops: int, extra: dict) -> dict:
    """Every per-layer metric, 0 for layers the workload did not run.

    ``query_range``: span index range holding the client queries whose
    per-query metrics are reported; ``ops``: write cycles (``ingest``; 1
    elsewhere) that write-side counts are divided by; ``extra``: values
    the workload worked out itself (build replay, merge bytes, fan-out,
    tracing overhead).
    """
    spans = tracer.spans

    def durations(name):
        return [e - s for n, s, e, _ in spans if n == name]

    out = {k: 0.0 for k in PER_LAYER}
    out.update({
        "state.manifest.commit_s": _median(durations(COMMIT)),
        "state.manifest.commits": len(durations(COMMIT)) / max(ops, 1),
        "pipelines.write_ops.append_s": _median(durations(APPEND)),
        "pipelines.write_ops.delete_s": _median(durations(DELETE)),
        "state.searcher.open_s": _median(durations(OPEN)),
        "pipelines.merge.merge_s": sum(durations(MERGE)) / max(ops, 1),
    })
    out.update(query_metrics(tracer, *query_range))
    out.update(extra)
    return out
