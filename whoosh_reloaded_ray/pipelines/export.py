"""Streaming match export: evaluate a query across segments as a Ray
Dataset of matching SOURCE ROWS — the scale path for "find every doc
matching Q and write them out" (the reference's `Results` is driver-bound;
at 100 TB the matches themselves are big data).

Shape: one task per segment (segments partition the doc space, so tasks
are independent); each task evaluates the query tree locally against its
segment files, then reads back only the matched rows' partitions/row
groups via the manifest lineage.  The output streams through the Ray Data
executor with backpressure — consume with ``write_parquet`` /
``iter_batches`` / aggregates, never ``take_all`` on a big result.

Global scoring stats (idf, avgfl) are computed ONCE on the driver and
broadcast inside the query context, so per-segment scores equal a normal
search (same invariant as state/searcher.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..query import ast
from ..query.exec import ScoreContext, SegmentReader, evaluate
from ..state.searcher import IndexSearcher


def _eval_segment_rows(
    index_dir: str,
    seg_dict: dict,
    q: ast.Query,
    ctx: ScoreContext,
    schema: pa.Schema,
    scored: bool,
    excluded,
) -> pa.Table:
    """Task body: evaluate q on one segment, fetch matched source rows,
    typed by ``schema`` (the whole index's, so every block agrees)."""
    from ..sources.corpus import fetch_rows
    from ..state.manifest import SegmentMeta

    seg = SegmentMeta.from_dict(seg_dict)
    reader = SegmentReader(index_dir, seg)
    docs, scores = evaluate(reader, q, ctx, scored=scored)
    if excluded is not None and docs.size:
        keep = ~np.isin(docs, excluded)
        docs, scores = docs[keep], scores[keep]
    if docs.size == 0:
        # empty result with the SAME schema as matched segments (source
        # columns + docnum + score) so cross-task block union stays clean
        fields = [*schema, pa.field("docnum", pa.uint64()), pa.field("score", pa.float64())]
        return pa.schema(fields).empty_table()
    rows = fetch_rows(seg.partitions, docs.tolist(), schema=schema)
    rows = rows.sort_by("docnum")
    return rows.append_column("score", pa.array(scores, pa.float64()))


def matches_dataset(
    index_dir: str,
    q: ast.Query,
    columns=None,
    scored: bool = True,
):
    """Ray Dataset of every row matching ``q`` (selected source columns +
    docnum + score), one evaluation task per segment."""
    import ray.data

    from ..sources.corpus import source_schema

    s = IndexSearcher(index_dir)  # driver-side stats + rewrite only
    rq = s._rewrite(q)
    ctx = s._context(rq)
    excluded = s.local.excluded if s.local.excluded.size else None
    # one schema over every commit's source file: a segment's own files
    # may type a column differently from another segment's
    schema = source_schema(s.manifest.partitions, columns)
    segs = [seg.to_dict() for seg in s.manifest.segments]
    ds = ray.data.from_items([{"i": i} for i in range(len(segs))])

    def _run(batch: pa.Table) -> pa.Table:
        out = [
            _eval_segment_rows(
                index_dir, segs[int(i)], rq, ctx, schema, scored, excluded
            )
            for i in batch["i"].to_pylist()
        ]
        return pa.concat_tables(out) if len(out) > 1 else out[0]

    return ds.map_batches(_run, batch_format="pyarrow", batch_size=1)


def export_matches(
    index_dir: str,
    q: ast.Query,
    out_dir: str,
    columns=None,
    scored: bool = True,
) -> int:
    """Evaluate ``q`` and write matching rows as partitioned Parquet
    (resumable output layout: one file per output block).  Returns the
    number of exported rows."""
    import glob
    import os

    import pyarrow.parquet as pq

    ds = matches_dataset(index_dir, q, columns=columns, scored=scored)
    ds.write_parquet(out_dir)  # streams block-by-block; no materialization
    return sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(out_dir, "*.parquet"))
    )
