"""Index mutation: delete / append / update (reference writing.py:309-502).

Deletes are TOMBSTONES: a parquet sidecar of deleted docnums committed with
a new manifest generation (the reference marks per-segment deleted bitsets,
index data is untouched either way).  Deleted docs stay in the collection
statistics until segments are rewritten — exactly the reference's behavior
(doc_count_all() includes deleted docs, so BM25 idf/avgfl are unchanged by
deletion; reading.py doc_count vs doc_count_all).

Appends plan new partitions with docnum bases AFTER the current maximum so
global docnums stay dense-per-partition and unique.  ``update_documents`` =
delete-by-unique-key then append (writing.py:439-502 update_document).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .._rayutil import remote_task
from ..query import ast
from ..state import storage
from ..state.manifest import Manifest, commit_manifest, load_manifest
from ..state.searcher import IndexSearcher


def _write_tombstones(index_dir: str, manifest: Manifest, docnums: np.ndarray) -> Manifest:
    existing = manifest.load_tombstones(index_dir)
    merged = np.union1d(existing, docnums.astype(np.uint64))
    gen = manifest.generation + 1
    fname = f"tombstones-{gen:05d}.parquet"
    storage.write_parquet_atomic(
        pa.table({"docnum": storage.from_numpy(merged)}),
        storage.join(index_dir, fname),
    )
    manifest.tombstones = fname
    commit_manifest(index_dir, manifest)
    return manifest


def delete_by_query(index_dir: str, q: ast.Query) -> int:
    """Mark every doc matching ``q`` deleted; returns the newly-deleted
    count.  (reference delete_by_query, writing.py:334-342)"""
    s = IndexSearcher(index_dir)
    res = s.search(q, limit=None, scored=False)
    docs = storage.as_numpy(res["docnum"]).astype(np.uint64)
    before = s.manifest.load_tombstones(index_dir)
    new = np.setdiff1d(docs, before)
    if new.size:
        _write_tombstones(index_dir, s.manifest, docs)
    return int(new.size)


def delete_by_term(index_dir: str, field: str, text: str) -> int:
    """(reference delete_by_term, writing.py:309-324)"""
    return delete_by_query(index_dir, ast.Term(field, text))


def add_field(index_dir: str, spec) -> Manifest:
    """Add a schema field between commits (reference writing.py:279-287):
    committed as a new manifest generation; existing segments hold no
    postings for it, segments appended afterwards index it."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest in {index_dir}")
    manifest.schema.add_field(spec)
    commit_manifest(index_dir, manifest)
    return manifest


def remove_field(index_dir: str, name: str) -> Manifest:
    """Remove a schema field between commits (reference writing.py:289-296):
    its postings stay on disk until the segments merge away, but the
    schema (analyzers, stats, parser fields) no longer exposes it."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest in {index_dir}")
    manifest.schema.remove_field(name)
    for s in manifest.segments:
        s.field_lengths.pop(name, None)
    commit_manifest(index_dir, manifest)
    return manifest


def append_documents(
    index_dir: str,
    source_paths,
    partition_rows: int | None = None,
    num_shards: int | None = None,
) -> Manifest:
    """Index additional parquet files as one new segment appended after the
    existing docnum space, through the build's ``_build_segment``.
    ``partition_rows`` defaults to 250,000.  An explicit ``num_shards`` is
    used as given; without one the segment gets ``build.shard_count`` of
    its rows, capped at the index's configured count
    (``build.shard_cap``), so a small batch writes one shard's files.

    A plan of one partition (one file, at most ``partition_rows`` rows) and
    one shard is read, tokenized and written in this process, Ray not
    needed; any other plan runs as the build's map and write tasks."""
    from ..sources.corpus import plan_partitions
    from .build import _build_segment, shard_cap, shard_count

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest in {index_dir}")
    base = max(
        (p.base + p.rows for s in manifest.segments for p in s.partitions), default=0
    )
    if isinstance(source_paths, str):
        source_paths = [source_paths]
    parts = plan_partitions(source_paths, target_rows=partition_rows or 250_000)
    # shift the fresh plan's docnum bases past the existing index
    from ..sources.corpus import Partition

    parts = [Partition(p.path, p.row_groups, p.base + base, p.rows) for p in parts]
    seg_no = len(manifest.segments)
    seg = _build_segment(
        f"seg-{seg_no:05d}a{manifest.generation + 1}",
        parts,
        index_dir,
        manifest.schema,
        num_shards or shard_count(sum(p.rows for p in parts), shard_cap(manifest)),
    )
    manifest.segments.append(seg)
    manifest.segments.sort(key=lambda s: s.doc_base)
    commit_manifest(index_dir, manifest)
    return manifest


def _partition_key_matches(part, unique_fields, incoming) -> np.ndarray:
    """Inside one Ray task (``_rayutil.remote_task``): read ONLY the key
    columns of one source partition, hash-match against the broadcast
    incoming keys (vectorized composite hash), exact-verify the (small)
    candidate set against the incoming key tuples, and return the matching
    docnums."""
    from ..functions.partition import composite_key_hash
    from ..sources.corpus import read_partition

    tbl = read_partition(part, columns=list(unique_fields))
    h = composite_key_hash(tbl, unique_fields)
    mask = np.isin(h, incoming["hashes"])
    if not mask.any():
        return np.empty(0, np.uint64)
    cand_idx = np.flatnonzero(mask)
    docs = (np.uint64(part.base) + cand_idx.astype(np.uint64))
    # collision guard: exact tuple check on candidates only (|candidates|
    # ~ |incoming ∩ partition|, tiny next to the partition)
    inc_tbl: pa.Table = incoming["table"]
    inc_keys = set(zip(*[inc_tbl[f].to_pylist() for f in unique_fields]))
    cand = tbl.take(storage.from_numpy(cand_idx))
    keep = np.fromiter(
        (k in inc_keys for k in zip(*[cand[f].to_pylist() for f in unique_fields])),
        dtype=bool,
        count=cand_idx.size,
    )
    return docs[keep]


def update_documents(
    index_dir: str,
    source_path: str,
    unique_fields=("conv_id", "turn_idx"),
    partition_rows: int | None = None,
    num_shards: int | None = None,
) -> Manifest:
    """Replace docs whose unique-key tuple matches an incoming row, then
    append the incoming rows (reference update_document semantics:
    delete-by-unique-terms then add, writing.py:439-502).  The appended
    segment's shard count, and where it is built, follow
    ``append_documents``: ``num_shards`` as given, or sized by its rows,
    and a plan of one partition and one shard built in this process.

    The delete side is a DISTRIBUTED broadcast semi-join: the incoming key
    tuples are hashed once and ``ray.put`` once; one Ray task per source
    partition reads only that partition's key columns, masks vectorized,
    and returns matching docnums.  The driver never materializes a
    segment's key columns (at 10^12 turns that read is the whole corpus)."""
    import ray

    from ..functions.partition import composite_key_hash

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest in {index_dir}")
    incoming = storage.parquet_file(source_path).read(columns=list(unique_fields))
    dels = np.empty(0, np.uint64)
    if incoming.num_rows and manifest.segments:
        payload_ref = ray.put(
            {
                "hashes": np.unique(composite_key_hash(incoming, unique_fields)),
                "table": incoming,
            }
        )
        task = remote_task(_partition_key_matches)
        futs = [
            task.remote(p, tuple(unique_fields), payload_ref)
            for seg in manifest.segments
            for p in seg.partitions
        ]
        parts = ray.get(futs)
        dels = np.concatenate(parts) if parts else dels
    if dels.size:
        manifest = _write_tombstones(index_dir, manifest, dels.astype(np.uint64))
    return append_documents(index_dir, source_path, partition_rows, num_shards)
