"""Tiered segment merge — the reference's MERGE_SMALL policy, on plain Ray tasks.

Policy (behavioral parity with the reference's merge heuristic,
writing.py:74-109 MERGE_SMALL): sort segments by ascending doc count,
accumulate; a segment is a merge victim while the cumulative doc total stays
under ``fib(i + 5)`` — small segments merge eagerly, big ones are left
alone (LSM-style tiering).

Mechanism (BETTER than the reference's full rewrite): our posting blocks
are self-contained — each block row stores its first docnum absolute, its
own stats (doc_min/doc_max/max_weight/min_len_byte) and its own wflag — so
merging K segments' postings for a shard is a pure BLOCK-ROW CONCATENATION
sorted by (field, term, doc_min): no decode, no re-encode, no docnum remap
(docnums are globally dense from the partition plan).  Terminfo rows
re-aggregate with exact associative stats; doclens rows concatenate.  Each
shard merges independently in one plain Ray task, made by
``_rayutil.remote_task`` like build's map and write tasks, so a merge of
any size runs with shard-level parallelism and bounded memory.

The merged segment's partition lineage is the union of the victims' — its
docnum ranges may be non-contiguous, which SegmentReader handles via the
partition map (query/exec.py dense_index/all_docnums).
"""

from __future__ import annotations

import logging
from functools import lru_cache

import pyarrow as pa
import pyarrow.compute as pc

from .._rayutil import consume_fault_flag, remote_task
from ..stages.segment_write import DOCLENS_FILE, POSTINGS_FILE, TERMINFO_FILE, _atomic_write
from ..state.manifest import Manifest, SegmentMeta, clean_files, commit_manifest, load_manifest

logger = logging.getLogger(__name__)


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """Fibonacci (reference util/__init__.py:102-110, used by the merge
    heuristic)."""
    if n <= 2:
        return n
    return fib(n - 1) + fib(n - 2)


def select_merge_small(segments: list) -> tuple[list, list]:
    """Pick merge victims per the reference MERGE_SMALL fib heuristic
    (writing.py:74-109): scanning segments in ascending doc-count order and
    accumulating doc counts, the MERGE POINT is the first index i with
    ``i > 3 and total_docs < fib(i + 5)``; everything up to and including it
    merges, the rest stay.  No qualifying point -> no merge.

    Returns (victims, keep)."""
    sorted_segs = sorted(segments, key=lambda s: s.doc_count)
    total = 0
    victims: list = []
    for i, seg in enumerate(sorted_segs):
        if seg.doc_count > 0:
            total += seg.doc_count
        victims.append(seg)
        if i > 3 and total < fib(i + 5):
            # i > 3 guarantees victims has >= 5 entries here
            return victims, sorted_segs[i + 1 :]
    return [], segments


def _merge_shard(index_dir: str, seg_names: list, new_name: str, shard: int) -> dict:
    """Merge one shard across victim segments: block-row concat + terminfo
    re-aggregation + doclens concat.  Returns {n_terms, n_postings}.

    A task of its own (``merge_segments``): every write is atomic and the
    output byte-deterministic, so Ray's retry after a worker death rewrites
    the same files."""
    from ..state import storage

    # fault-injection hook (tests only; see _rayutil.consume_fault_flag): a
    # flag file at the index root crashes exactly one merge task's worker
    consume_fault_flag(storage.join(index_dir, ".fault_crash_merger"))

    out_dir = storage.join(index_dir, new_name)

    def paths(tmpl):
        ps = [storage.join(index_dir, s, tmpl.format(shard=shard)) for s in seg_names]
        return [p for p in ps if storage.exists(p)]

    stats = {"n_terms": 0, "n_postings": 0}

    post_files = paths(POSTINGS_FILE)
    if post_files:
        blocks = pa.concat_tables([storage.read_parquet(p) for p in post_files])
        order = pc.sort_indices(
            blocks,
            sort_keys=[("field", "ascending"), ("term", "ascending"), ("doc_min", "ascending")],
        )
        blocks = blocks.take(order)
        _atomic_write(blocks, storage.join(out_dir, POSTINGS_FILE.format(shard=shard)))
        stats["n_postings"] = int(pc.sum(blocks["count"]).as_py() or 0)

    ti_files = paths(TERMINFO_FILE)
    if ti_files:
        ti = pa.concat_tables([storage.read_parquet(p) for p in ti_files])
        agg = ti.group_by(["field", "term"]).aggregate(
            [
                ("doc_freq", "sum"),
                ("weight_sum", "sum"),
                ("max_weight", "max"),
                ("doc_min", "min"),
                ("doc_max", "max"),
                ("min_len_byte", "min"),
                ("max_len_byte", "max"),
            ]
        )
        agg = agg.rename_columns(
            ["field", "term", "doc_freq", "weight_sum", "max_weight",
             "doc_min", "doc_max", "min_len_byte", "max_len_byte"]
        )
        # restore the writer's exact column types + (field, term) sort order
        agg = agg.set_column(4, "max_weight", pc.cast(agg["max_weight"], pa.float32()))
        agg = agg.set_column(7, "min_len_byte", pc.cast(agg["min_len_byte"], pa.uint8()))
        agg = agg.set_column(8, "max_len_byte", pc.cast(agg["max_len_byte"], pa.uint8()))
        agg = agg.take(
            pc.sort_indices(agg, sort_keys=[("field", "ascending"), ("term", "ascending")])
        )
        _atomic_write(agg, storage.join(out_dir, TERMINFO_FILE.format(shard=shard)))
        stats["n_terms"] = agg.num_rows

    dl_files = paths(DOCLENS_FILE)
    if dl_files:
        dl = pa.concat_tables([storage.read_parquet(p) for p in dl_files])
        dl = dl.take(
            pc.sort_indices(dl, sort_keys=[("docnum", "ascending"), ("field", "ascending")])
        )
        _atomic_write(dl, storage.join(out_dir, DOCLENS_FILE.format(shard=shard)))

    return stats


def merge_segments(index_dir: str, victims: list, new_name: str) -> SegmentMeta:
    """Merge victim segments (equal num_shards) into one new segment, one
    ``_merge_shard`` task per shard; returns the new SegmentMeta (not yet
    committed)."""
    import ray

    num_shards = victims[0].num_shards
    assert all(s.num_shards == num_shards for s in victims)
    from ..state import storage

    storage.makedirs(storage.join(index_dir, new_name))
    names = [s.name for s in victims]

    task = remote_task(_merge_shard)
    summary = ray.get([task.remote(index_dir, names, new_name, k) for k in range(num_shards)])

    parts = sorted((p for s in victims for p in s.partitions), key=lambda p: p.base)
    field_lengths: dict = {}
    for s in victims:
        for f, ln in s.field_lengths.items():
            field_lengths[f] = field_lengths.get(f, 0) + ln
    return SegmentMeta(
        name=new_name,
        doc_base=min(s.doc_base for s in victims),
        doc_count=sum(s.doc_count for s in victims),
        num_shards=num_shards,
        partitions=parts,
        field_lengths=field_lengths,
        n_terms=sum(st["n_terms"] for st in summary),
        n_postings=sum(st["n_postings"] for st in summary),
    )


def maybe_merge(index_dir: str, policy=select_merge_small, optimize: bool = False) -> Manifest:
    """Apply the merge policy (or merge everything when ``optimize=True``,
    the reference's OPTIMIZE) and commit a new manifest generation.

    Old segment dirs become unreferenced and are GC'd by ``clean_files``
    (readers pinned to an older generation keep working until then)."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest in {index_dir}")
    # only segments sharing a shard count can block-concat; merge the
    # largest same-shard-count group
    by_shards: dict = {}
    for s in manifest.segments:
        by_shards.setdefault(s.num_shards, []).append(s)
    group = max(by_shards.values(), key=len)
    others = [s for s in manifest.segments if s not in group]

    if optimize:
        victims, keep = (group, []) if len(group) > 1 else ([], group)
    else:
        victims, keep = policy(group)
    if not victims:
        return manifest

    new_name = f"seg-{manifest.generation + 1:05d}-merged"
    logger.info("merging %d segments -> %s", len(victims), new_name)
    merged = merge_segments(index_dir, victims, new_name)
    manifest.segments = sorted(keep + others + [merged], key=lambda s: s.doc_base)
    commit_manifest(index_dir, manifest)
    clean_files(index_dir)
    return manifest
