"""Tiered segment merge — the reference's MERGE_SMALL policy, on plain Ray tasks.

Policy (behavioral parity with the reference's merge heuristic,
writing.py:74-109 MERGE_SMALL): sort segments by ascending doc count,
accumulate; a segment is a merge victim while the cumulative doc total stays
under ``fib(i + 5)`` — small segments merge eagerly, big ones are left
alone (LSM-style tiering).

Mechanism: posting blocks are self-contained — each block row stores its
first docnum absolute, its own stats (doc_min/doc_max/max_weight/
min_len_byte) and its own wflag — so merging K segments' postings for a
shard CONCATENATES their block rows, sorted by (field, term, doc_min):
no decode, no re-encode, no docnum remap (docnums are globally dense from
the partition plan).  Each victim's last block of a term stays as it was,
partial blocks included, so a term merged from K segments may hold up to
K short blocks (where whoosh's full rewrite re-cuts them).  Terminfo rows
re-aggregate with exact associative stats; doclens rows concatenate.

The merged segment gets ``build.shard_count`` of its rows (at most the
index's configured count), so victims of any shard counts merge.  Each
output shard merges in one plain Ray task, made by
``_rayutil.remote_task`` like build's map and write tasks.  A victim with
the output's shard count gives that task its own shard file; one with
another count gives the rows of all its files that the output's routing
sends to the task's shard (a term by ``_shard_of(field, term)``, one
crc32 per distinct term; a doc-length row by docnum), still without a
decode.

The merged segment's partition lineage is the union of the victims' — its
docnum ranges may be non-contiguous, which SegmentReader handles via the
partition map (query/exec.py dense_index/all_docnums).
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._rayutil import consume_fault_flag, counters, remote_task, sum_counters
from .build import shard_cap, shard_count
from ..stages.segment_write import (
    DOCLENS_FILE,
    POSTINGS_FILE,
    TERMINFO_FILE,
    _atomic_write,
    _write_sorted,
)
from ..stages.tokenize import _shards_of
from ..state import storage
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


def _term_shards(t: pa.Table, num_shards: int) -> np.ndarray:
    """``_shard_of(field, term, num_shards)`` of each row of a table with
    (field, term) columns: one crc32 per distinct term of each field, as
    ``Tokenizer._route`` routes them."""
    out = np.empty(t.num_rows, dtype=np.int32)
    fields = pc.dictionary_encode(t["field"].combine_chunks())
    fcodes = storage.as_numpy(fields.indices)
    for code, field in enumerate(storage.string_list(fields.dictionary)):
        rows = np.flatnonzero(fcodes == code)
        terms = pc.dictionary_encode(t["term"].take(storage.from_numpy(rows)).combine_chunks())
        shards = _shards_of(field, storage.string_list(terms.dictionary), num_shards)
        out[rows] = shards[storage.as_numpy(terms.indices)]
    return out


def _doc_shards(t: pa.Table, num_shards: int) -> np.ndarray:
    """The shard of each doclens row: its docnum modulo ``num_shards``, as
    ``Tokenizer._route`` routes a doc-length row."""
    return storage.as_numpy(t["docnum"]) % num_shards


def _aggregate_terminfo(ti: pa.Table) -> pa.Table:
    """One terminfo row per (field, term) of the victims' rows ``ti``, in
    (field, term) order: doc frequencies and weight sums added up in the
    victims' order, one add per victim as Arrow's grouped sum adds them (so
    float weight sums round as they did), bounds taken by min or max.  In
    numpy: Arrow's ``group_by`` loads ``pyarrow.dataset``, which imports
    pandas into the merge task's worker."""
    # a stable sort keeps each term's rows in victim order
    ti = ti.take(pc.sort_indices(ti, sort_keys=[("field", "ascending"), ("term", "ascending")]))
    n = ti.num_rows
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for key in ("field", "term"):
        codes = storage.as_numpy(pc.dictionary_encode(ti[key].combine_chunks()).indices)
        change[1:] |= codes[1:] != codes[:-1]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.append(starts, n))

    def col(name):
        return storage.as_numpy(ti[name])

    weights, weight_sum = col("weight_sum"), np.zeros(starts.size)
    for k in range(int(sizes.max())):
        has = sizes > k
        weight_sum[has] += weights[starts[has] + k]
    at = storage.from_numpy(starts)
    return pa.table({
        "field": ti["field"].take(at),
        "term": ti["term"].take(at),
        "doc_freq": storage.from_numpy(np.add.reduceat(col("doc_freq"), starts)),
        "weight_sum": storage.from_numpy(weight_sum),
        "max_weight": storage.from_numpy(np.maximum.reduceat(col("max_weight"), starts)),
        "doc_min": storage.from_numpy(np.minimum.reduceat(col("doc_min"), starts)),
        "doc_max": storage.from_numpy(np.maximum.reduceat(col("doc_max"), starts)),
        "min_len_byte": storage.from_numpy(np.minimum.reduceat(col("min_len_byte"), starts)),
        "max_len_byte": storage.from_numpy(np.maximum.reduceat(col("max_len_byte"), starts)),
    })


def _merge_shard(index_dir: str, victims: list, new_name: str, shard: int, num_shards: int) -> dict:
    """Merge shard ``shard`` of a ``num_shards``-shard output across the
    victim segments: block-row concat + terminfo re-aggregation + doclens
    concat.  ``victims`` holds each victim's (name, ``SegmentMeta.files``,
    num_shards).  A victim with ``num_shards`` shards gives its own file
    of this shard; one with another count gives the rows of all its files
    that the output's routing sends here (``_term_shards``,
    ``_doc_shards``).  A listed file is read, so a lost one raises rather
    than merging as an empty shard; a victim without the list (an older
    manifest) reads the files it has.  A shard no row routes to writes no
    file.  Returns {n_terms, n_postings}, the names of the files it wrote
    and the task's counters (postings written, file bytes).

    A task of its own (``merge_segments``): every write is atomic and the
    output byte-deterministic, so Ray's retry after a worker death rewrites
    the same files."""
    # fault-injection hook (tests only; see _rayutil.consume_fault_flag): a
    # flag file at the index root crashes exactly one merge task's worker
    consume_fault_flag(storage.join(index_dir, ".fault_crash_merger"))
    t0 = time.perf_counter()

    out_dir = storage.join(index_dir, new_name)

    def read(tmpl, route):
        tables = []
        for name, files, n in victims:
            for k in [shard] if n == num_shards else range(n):
                fname = tmpl.format(shard=k)
                p = storage.join(index_dir, name, fname)
                if not (storage.exists(p) if files is None else fname in files):
                    continue
                t = storage.read_parquet(p)
                if n != num_shards:
                    t = t.filter(storage.from_numpy(route(t, num_shards) == shard))
                if t.num_rows:
                    tables.append(t)
        return pa.concat_tables(tables) if tables else None

    stats = {"n_terms": 0, "n_postings": 0}
    nbytes = 0
    files = []

    blocks = read(POSTINGS_FILE, _term_shards)
    if blocks is not None:
        order = pc.sort_indices(
            blocks,
            sort_keys=[("field", "ascending"), ("term", "ascending"), ("doc_min", "ascending")],
        )
        blocks = blocks.take(order)
        nbytes += _write_sorted(blocks, storage.join(out_dir, POSTINGS_FILE.format(shard=shard)))
        files.append(POSTINGS_FILE.format(shard=shard))
        stats["n_postings"] = int(pc.sum(blocks["count"]).as_py() or 0)

    ti = read(TERMINFO_FILE, _term_shards)
    if ti is not None:
        agg = _aggregate_terminfo(ti)
        nbytes += _write_sorted(agg, storage.join(out_dir, TERMINFO_FILE.format(shard=shard)))
        files.append(TERMINFO_FILE.format(shard=shard))
        stats["n_terms"] = agg.num_rows

    dl = read(DOCLENS_FILE, _doc_shards)
    if dl is not None:
        dl = dl.take(
            pc.sort_indices(dl, sort_keys=[("docnum", "ascending"), ("field", "ascending")])
        )
        nbytes += _atomic_write(dl, storage.join(out_dir, DOCLENS_FILE.format(shard=shard)))
        files.append(DOCLENS_FILE.format(shard=shard))

    return {**stats, "files": files, "counters": counters(stats["n_postings"], nbytes, t0)}


def merge_segments(index_dir: str, victims: list, new_name: str, cap: int) -> SegmentMeta:
    """Merge victim segments, of any shard counts, into one new segment of
    ``shard_count`` of their rows, at most ``cap`` shards, one
    ``_merge_shard`` task per output shard; returns the new SegmentMeta
    (not yet committed)."""
    import ray

    num_shards = shard_count(sum(s.doc_count for s in victims), cap)
    storage.makedirs(storage.join(index_dir, new_name))
    args = [(s.name, s.files, s.num_shards) for s in victims]

    task = remote_task(_merge_shard)
    summary = ray.get(
        [task.remote(index_dir, args, new_name, k, num_shards) for k in range(num_shards)]
    )

    parts = sorted((p for s in victims for p in s.partitions), key=lambda p: p.base)
    field_lengths: dict = {}
    for s in victims:
        for f, ln in s.field_lengths.items():
            field_lengths[f] = field_lengths.get(f, 0) + ln
    merge = sum_counters(st["counters"] for st in summary)
    return SegmentMeta(
        name=new_name,
        doc_base=min(s.doc_base for s in victims),
        doc_count=sum(s.doc_count for s in victims),
        num_shards=num_shards,
        partitions=parts,
        field_lengths=field_lengths,
        n_terms=sum(st["n_terms"] for st in summary),
        n_postings=sum(st["n_postings"] for st in summary),
        files=sorted(f for st in summary for f in st["files"]),
        metrics={"index_bytes": merge["bytes"], "merge": merge},
    )


def maybe_merge(index_dir: str, policy=select_merge_small, optimize: bool = False) -> Manifest:
    """Apply the merge policy to every segment, whatever its shard count
    (or merge everything when ``optimize=True``, the reference's
    OPTIMIZE, which leaves one segment), and commit a new manifest
    generation.  The merged segment's shard count is ``shard_count`` of
    its rows, capped at the index's configured count (``shard_cap``).

    Old segment dirs become unreferenced and are GC'd by ``clean_files``
    (readers pinned to an older generation keep working until then)."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest in {index_dir}")
    segments = manifest.segments
    if optimize:
        victims, keep = (segments, []) if len(segments) > 1 else ([], segments)
    else:
        victims, keep = policy(segments)
    if not victims:
        return manifest

    new_name = f"seg-{manifest.generation + 1:05d}-merged"
    logger.info("merging %d segments -> %s", len(victims), new_name)
    merged = merge_segments(index_dir, victims, new_name, shard_cap(manifest))
    manifest.segments = sorted(keep + [merged], key=lambda s: s.doc_base)
    commit_manifest(index_dir, manifest)
    clean_files(index_dir)
    return manifest
