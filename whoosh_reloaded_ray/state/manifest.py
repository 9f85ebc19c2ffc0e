"""Manifest = the reference's generation-numbered TOC (index.py:576-728).

The manifest JSON is the ONLY source of truth for what belongs to the index:
segment files not named by the committed manifest are invisible (partial
writes from a killed run are simply ignored, then overwritten by the
resumed run's atomic renames).  Commit protocol: write
``manifest-<gen>.json.tmp`` then ``os.replace`` — same temp+rename
discipline as the reference's ``_write_toc``.

Per-segment lineage records exactly which input partitions (file + row
groups + docnum base) produced it — a resumed build skips segments whose
lineage is already committed, and hit lookup maps docnums back to source
rows through it.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass, field

from ..schema import IndexSchema
from ..sources.corpus import Partition

MANIFEST_RE = re.compile(r"manifest-(\d+)\.json$")


@dataclass
class SegmentMeta:
    name: str  # e.g. "seg-00000"
    doc_base: int  # first docnum covered
    doc_count: int  # docs in segment (docnums are [doc_base, doc_base+doc_count))
    num_shards: int
    partitions: list  # list[Partition] lineage
    field_lengths: dict  # field -> total TRUE token count (for avgfl)
    n_terms: int = 0
    n_postings: int = 0
    # the counters its tasks returned, summed per stage ("map" and "write",
    # or "merge"): rows, bytes and busy seconds; and "index_bytes", the
    # bytes of its files (north-rule: per-partition lineage AND metrics)
    metrics: dict = field(default_factory=dict)
    # names of the shard files its tasks wrote (an empty shard writes
    # none): a listed file that is missing is an error, not an empty
    # shard.  None in manifests written before the list.
    files: list | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "doc_base": self.doc_base,
            "doc_count": self.doc_count,
            "num_shards": self.num_shards,
            "partitions": [p.to_dict() for p in self.partitions],
            "field_lengths": self.field_lengths,
            "n_terms": self.n_terms,
            "n_postings": self.n_postings,
            "metrics": self.metrics,
            "files": self.files,
        }

    @staticmethod
    def from_dict(d: dict) -> "SegmentMeta":
        d = dict(d)
        d["partitions"] = [Partition.from_dict(p) for p in d["partitions"]]
        # manifests from builds that split hot terms over several shards:
        # read with one shard per term, their split terms would miss postings
        if d.pop("salted_terms", None):
            raise ValueError(
                f"segment {d['name']} was built with hot-term salting, which "
                "this version cannot read; rebuild the index"
            )
        d.setdefault("metrics", {})
        return SegmentMeta(**d)


@dataclass
class Manifest:
    schema: IndexSchema
    generation: int = 0
    segments: list = field(default_factory=list)  # list[SegmentMeta]
    version: int = 1
    # tombstone sidecar: parquet file (docnum:uint64) of deleted docs, or
    # None.  Mirrors the reference's per-segment deleted-doc sets
    # (codec/whoosh3.py W3Segment._deleted) as one global docnum set; kept
    # as a parquet sidecar so it scales past JSON (at 10^12 docs it becomes
    # per-segment bitset files keyed the same way).
    tombstones: str | None = None
    # partition-plan parameters of the ORIGINAL build (partition_rows,
    # rows_per_segment, num_shards): a resumed build must re-derive the
    # identical plan or no lineage key matches and every segment rebuilds
    # under its old name over still-referenced files
    build_config: dict = field(default_factory=dict)

    # ---- global stats (parity: searcher-level doc_count_all / field_length)
    @property
    def doc_count(self) -> int:
        return sum(s.doc_count for s in self.segments)

    def field_length(self, fieldname: str) -> int:
        return sum(s.field_lengths.get(fieldname, 0) for s in self.segments)

    def avg_field_length(self, fieldname: str) -> float:
        # reference searching.py:277-280: field_length / (doccount or 1)
        return self.field_length(fieldname) / (self.doc_count or 1)

    @property
    def partitions(self) -> list:
        out = []
        for s in self.segments:
            out.extend(s.partitions)
        return out

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "generation": self.generation,
            "schema": self.schema.to_dict(),
            "segments": [s.to_dict() for s in self.segments],
            "tombstones": self.tombstones,
            "build_config": self.build_config,
        }

    @staticmethod
    def from_dict(d: dict) -> "Manifest":
        return Manifest(
            schema=IndexSchema.from_dict(d["schema"]),
            generation=d["generation"],
            segments=[SegmentMeta.from_dict(s) for s in d["segments"]],
            version=d.get("version", 1),
            tombstones=d.get("tombstones"),
            build_config=d.get("build_config", {}),
        )

    def load_tombstones(self, index_dir: str):
        """Deleted docnums as a sorted uint64 numpy array (empty if none)."""
        import numpy as np

        if not self.tombstones:
            return np.empty(0, dtype=np.uint64)
        from . import storage

        path = storage.join(index_dir, self.tombstones)
        return storage.as_numpy(storage.read_parquet(path)["docnum"]).astype(np.uint64)


def latest_generation(index_dir: str) -> int:
    from . import storage

    gens = [
        int(m.group(1))
        for name in storage.listdir(index_dir)
        if (m := MANIFEST_RE.search(name))
    ]
    return max(gens) if gens else -1


def load_manifest(index_dir: str) -> Manifest | None:
    from . import storage

    gen = latest_generation(index_dir)
    if gen < 0:
        return None
    return Manifest.from_dict(
        storage.read_json(storage.join(index_dir, f"manifest-{gen}.json"))
    )


def commit_manifest(index_dir: str, manifest: Manifest) -> int:
    """Atomically write the next generation; returns the generation number."""
    from . import storage

    storage.makedirs(index_dir)
    gen = latest_generation(index_dir) + 1
    manifest.generation = gen
    path = storage.join(index_dir, f"manifest-{gen}.json")
    storage.write_text_atomic(path, json.dumps(manifest.to_dict(), indent=1))
    return gen


def clean_files(index_dir: str, keep_generations: int = 2):
    """GC segment dirs not referenced by the latest manifests (reference
    index.py:373-402 clean_files): old generations' manifests beyond
    ``keep_generations`` are removed, then unreferenced seg-* dirs."""
    from . import storage

    names = storage.listdir(index_dir)
    gens = sorted(
        int(m.group(1)) for name in names if (m := MANIFEST_RE.search(name))
    )
    keep = set(gens[-keep_generations:])
    referenced = set()
    live_tombstones = set()
    for g in keep:
        d = storage.read_json(storage.join(index_dir, f"manifest-{g}.json"))
        referenced.update(s["name"] for s in d["segments"])
        if d.get("tombstones"):
            live_tombstones.add(d["tombstones"])
    for g in gens:
        if g not in keep:
            storage.remove(storage.join(index_dir, f"manifest-{g}.json"))
    for name in names:
        if name.startswith("seg-") and name not in referenced:
            storage.rmtree(storage.join(index_dir, name))
        if (
            name.startswith("tombstones-")
            and name.endswith(".parquet")
            and name not in live_tombstones
        ):
            storage.remove(storage.join(index_dir, name))
