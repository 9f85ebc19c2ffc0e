"""Corpus source: Parquet partitions with deterministic dense docnums.

Docnum assignment (the reference assigns dense per-segment docnums in
insertion order, writing.py:748-822; MultiReader offsets them globally,
reading.py:1013-1017): we read each input file's FOOTER on the driver (row
counts per row group — cheap metadata, no data I/O), prefix-sum the counts,
and have each build map task attach ``docnum = base + arange(rows)``.  This is
deterministic, shuffle-free, and reproducible on retry — the partition plan
IS the docnum->(file, row) mapping, so stored fields never need to be copied
into the index (hit lookup reads the source row range back).

Scale note: at 10^12 turns the plan is one descriptor per row-group
(~128MB), read by one map task each within its segment's bounded exchange;
footers for ~1M files can be fetched in parallel if driver-side planning
ever dominates.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state import storage


@dataclass(frozen=True)
class Partition:
    """One unit of input lineage: a contiguous run of row groups in a file."""

    path: str
    row_groups: tuple  # tuple[int, ...]
    base: int  # first docnum in this partition
    rows: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["row_groups"] = list(self.row_groups)
        return d

    @staticmethod
    def from_dict(d: dict) -> "Partition":
        return Partition(d["path"], tuple(d["row_groups"]), d["base"], d["rows"])


def plan_partitions(paths, target_rows: int = 250_000) -> list:
    """Plan partitions from parquet footers; assign docnum bases by prefix sum.

    Consecutive row groups of one file are coalesced up to ``target_rows``
    per partition; a row group is never split (keeps the docnum<->row
    mapping trivial).  A partition never spans files, so every file is at
    least one partition whatever ``target_rows`` says: many small files
    make as many map tasks.  Coalescing small files across files is
    ROADMAP item 6, step 2."""
    parts = []
    base = 0
    for path in sorted(paths):
        md = pq.ParquetFile(path).metadata
        cur_rgs, cur_rows = [], 0
        for rg in range(md.num_row_groups):
            n = md.row_group(rg).num_rows
            if cur_rows and cur_rows + n > target_rows:
                parts.append(Partition(path, tuple(cur_rgs), base, cur_rows))
                base += cur_rows
                cur_rgs, cur_rows = [], 0
            cur_rgs.append(rg)
            cur_rows += n
        if cur_rgs:
            parts.append(Partition(path, tuple(cur_rgs), base, cur_rows))
            base += cur_rows
    return parts


def read_partition(part: Partition, columns=None) -> pa.Table:
    """Read one partition's rows and attach the ``docnum`` column."""
    f = pq.ParquetFile(part.path)
    # single-threaded decode: this runs inside a num_cpus=1 Ray task whose
    # concurrency IS the parallelism — arrow's default all-cores thread
    # pool would oversubscribe the host (and silently un-bound the
    # ray.init(num_cpus=N) scaling legs)
    tbl = f.read_row_groups(list(part.row_groups), columns=columns, use_threads=False)
    docnums = np.arange(part.base, part.base + tbl.num_rows, dtype=np.uint64)
    return tbl.append_column("docnum", storage.from_numpy(docnums))


@functools.lru_cache(maxsize=4096)
def _file_schema(path: str, mtime_ns: int, size: int) -> pa.Schema:
    return pq.ParquetFile(path).schema_arrow


def _schema_of(path: str) -> pa.Schema:
    # footer read once per file version: a file rewritten at the same path
    # has a new (mtime, size) key
    st = os.stat(path)
    return _file_schema(path, st.st_mtime_ns, st.st_size)


def source_schema(partitions, columns=None) -> pa.Schema:
    """The schema that reads every partition back into one table.

    Each commit writes its own source file, and commits may disagree on a
    column: absent from older files (a field or a ``_stored_<f>`` override
    first written later), a narrower number type, or a STORED column that
    held ints in one commit and strings in another.  A column's type is the
    permissive promotion of its type in every distinct file (null fills,
    int64 -> double); where that fails it reads back as strings, the rule a
    mixed-type STORED buffer gets within one commit (compat writer
    ``commit``).  ``columns`` selects and orders the result; a column no
    file has is null-typed.
    """
    schemas = [_schema_of(path) for path in dict.fromkeys(p.path for p in partitions)]
    try:
        schema = pa.unify_schemas(schemas, promote_options="permissive")
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        fields = {}
        for f in (f for s in schemas for f in s):
            prev = fields.setdefault(f.name, f)
            try:
                fields[f.name] = pa.unify_schemas(
                    [pa.schema([prev]), pa.schema([f])], promote_options="permissive"
                ).field(0)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                fields[f.name] = pa.field(f.name, pa.string())
        schema = pa.schema(list(fields.values()))
    if columns is None:
        return schema
    return pa.schema(
        [schema.field(c) if c in schema.names else pa.field(c, pa.null()) for c in columns]
    )


def _conform(tbl: pa.Table, schema: pa.Schema) -> pa.Table:
    """One partition's rows cast to ``schema`` (plus ``docnum``)."""
    cols = []
    for f in schema:
        if f.name not in tbl.column_names:
            cols.append(pa.nulls(tbl.num_rows, f.type))
            continue
        col = tbl.column(f.name)
        if col.type != f.type:
            if pa.types.is_string(f.type) and not pa.types.is_null(col.type):
                # commits disagree on this column's type: str() per value
                col = pa.array(
                    [None if v is None else str(v) for v in col.to_pylist()], pa.string()
                )
            else:
                col = col.cast(f.type)
        cols.append(col)
    cols.append(tbl.column("docnum"))
    return pa.table(cols, names=[*schema.names, "docnum"])


def fetch_rows(partitions, docnums, columns=None, schema=None) -> pa.Table:
    """Driver-side point lookup: fetch source rows for a small set of
    docnums via the partition plan (used for hit stored-field display —
    the index itself stores no document content).  Rows from commits that
    disagree on a column are read back as one table (``source_schema``);
    pass ``schema`` when ``partitions`` are only part of the index."""
    docnums = np.asarray(sorted(int(d) for d in docnums), dtype=np.int64)
    if docnums.size == 0:
        return None
    bases = np.array([p.base for p in partitions], dtype=np.int64)
    idx = np.searchsorted(bases, docnums, side="right") - 1
    # typed from every commit's file, not just the fetched ones, so a
    # document reads back the same whatever it is fetched with
    schema = schema or source_schema(partitions, columns)
    out = []
    for pi in np.unique(idx):
        part = partitions[int(pi)]
        local = docnums[idx == pi] - part.base
        avail = set(_schema_of(part.path).names)
        tbl = read_partition(part, columns=[c for c in schema.names if c in avail])
        out.append(_conform(tbl.take(pa.array(local)), schema))
    return pa.concat_tables(out)


# ---------------------------------------------------------------------------
# Deterministic transcripts derivation (for the driver's sf_dir tables).
#
# The engine's native input is a transcripts table (conv_id, turn_idx, role,
# text, tool, ts).  The sandbox's sf dirs ship a `documents` table instead,
# so we derive transcripts from it with a pure deterministic mapping that is
# also expressible as a DuckDB CTE (see __ray_entry__.oracle_sql):
#   conv_id  = source || '-' || (doc_id % 11)
#   turn_idx = rank of doc_id within conv_id (0-based)
#   role     = lang
#   tool     = 'tool_' || (doc_id % 5)
#   ts       = TIMESTAMP '2026-01-01' + doc_id seconds
# Rows are ordered by (conv_id, turn_idx) — the stable turn ordering the
# docnum assignment relies on.
# ---------------------------------------------------------------------------

TRANSCRIPTS_CTE = """
SELECT
    source || '-' || CAST(doc_id % 11 AS VARCHAR) AS conv_id,
    CAST(ROW_NUMBER() OVER (
        PARTITION BY source || '-' || CAST(doc_id % 11 AS VARCHAR)
        ORDER BY doc_id) - 1 AS INTEGER) AS turn_idx,
    lang AS role,
    text,
    'tool_' || CAST(doc_id % 5 AS VARCHAR) AS tool,
    TIMESTAMP '2026-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND AS ts,
    doc_id
FROM documents
ORDER BY conv_id, turn_idx
"""


def derive_transcripts(sf_dir: str, out_dir: str | None = None) -> str:
    """Materialize the deterministic transcripts parquet for an sf dir.

    Cached under /tmp keyed by the sf dir name; returns the parquet path."""
    import duckdb

    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = out_dir or f"/tmp/wrr_transcripts/{tag}"
    out_path = os.path.join(out_dir, "transcripts.parquet")
    src = os.path.join(sf_dir, "documents.parquet")
    if os.path.exists(out_path) and os.path.getmtime(out_path) >= os.path.getmtime(src):
        return out_path
    os.makedirs(out_dir, exist_ok=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{src}')")
    tbl = con.sql(TRANSCRIPTS_CTE).arrow()
    tmp = out_path + ".tmp"
    pq.write_table(tbl, tmp, row_group_size=4096)
    os.replace(tmp, out_path)
    return out_path


# ---------------------------------------------------------------------------
# Synthetic multi-turn transcript generator (bench / stress corpus).
# Deterministic (seeded numpy), zipfian vocabulary so term frequencies are
# realistically skewed (hot terms exercise the skew handling).
# ---------------------------------------------------------------------------

_ROLES = np.array(["user", "assistant", "system", "tool"])
_TOOLS = np.array(["", "search", "bash", "editor", "browser", "python"])


def _vocab(n=8000, seed=7):
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = set()
    while len(words) < n:
        ln = int(rng.integers(3, 10))
        words.add("".join(rng.choice(alphabet, ln)))
    return np.array(sorted(words))


def generate_transcripts(
    out_path: str,
    n_turns: int = 100_000,
    avg_turn_words: int = 40,
    seed: int = 42,
    rows_per_file: int | None = None,
) -> str:
    """Write a deterministic synthetic transcripts parquet corpus.

    Vocabulary is zipf-distributed (skewed hot terms); conversations have
    2-40 turns with alternating user/assistant roles and occasional tool
    turns."""
    rng = np.random.default_rng(seed)
    vocab = _vocab()
    v = len(vocab)
    # zipf ranks over the vocab
    zipf_w = 1.0 / np.arange(1, v + 1) ** 1.1
    zipf_w /= zipf_w.sum()

    conv_ids, turn_idxs, roles, texts, tools, tss = [], [], [], [], [], []
    turn = 0
    conv = 0
    ts0 = np.datetime64("2026-01-01T00:00:00", "us")
    while turn < n_turns:
        n_in_conv = int(rng.integers(2, 41))
        cid = f"conv-{conv:08d}"
        for ti in range(min(n_in_conv, n_turns - turn)):
            nwords = max(1, int(rng.normal(avg_turn_words, avg_turn_words / 2)))
            words = vocab[rng.choice(v, size=nwords, p=zipf_w)]
            conv_ids.append(cid)
            turn_idxs.append(ti)
            role = _ROLES[ti % 2] if rng.random() > 0.1 else _ROLES[int(rng.integers(2, 4))]
            roles.append(str(role))
            texts.append(" ".join(words))
            tools.append(str(_TOOLS[int(rng.integers(0, len(_TOOLS)))]) if role == "tool" else "")
            tss.append(ts0 + np.timedelta64(turn, "s"))
            turn += 1
        conv += 1

    tbl = pa.table(
        {
            "conv_id": pa.array(conv_ids),
            "turn_idx": pa.array(np.array(turn_idxs, dtype=np.int32)),
            "role": pa.array(roles),
            "text": pa.array(texts),
            "tool": pa.array(tools),
            "ts": pa.array(np.array(tss), type=pa.timestamp("us")),
        }
    )
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    tmp = out_path + ".tmp"
    pq.write_table(tbl, tmp, row_group_size=rows_per_file or 25_000)
    os.replace(tmp, out_path)
    return out_path


def _gen_chunk_table(
    n_turns: int,
    avg_turn_words: int,
    seed: int,
    conv_prefix: str,
    base_turn: int,
) -> pa.Table:
    """Fully vectorized chunk of the synthetic transcript corpus.

    Same schema and the same zipf vocabulary as :func:`generate_transcripts`
    but every random draw is one batched numpy call (word sampling is a
    single ``rng.choice`` over the whole chunk), so a chunk generates at
    ~1M turns/min/core instead of the sequential generator's ~7k/s.
    Deterministic in (seed, n_turns, avg_turn_words) alone."""
    rng = np.random.default_rng(seed)
    vocab = _vocab()
    v = len(vocab)
    zipf_w = 1.0 / np.arange(1, v + 1) ** 1.1
    zipf_w /= zipf_w.sum()

    # conversation lengths 2..40 until they cover the chunk
    approx = n_turns // 2 + 64
    lens = rng.integers(2, 41, size=approx)
    while lens.sum() < n_turns:
        lens = np.concatenate([lens, rng.integers(2, 41, size=approx)])
    cut = int(np.searchsorted(np.cumsum(lens), n_turns)) + 1
    lens = lens[:cut]
    lens[-1] -= int(lens.sum() - n_turns)
    if lens[-1] == 0:
        lens = lens[:-1]
    starts = np.cumsum(lens) - lens
    conv_local = np.repeat(np.arange(lens.size), lens)
    turn_idx = (np.arange(n_turns) - np.repeat(starts, lens)).astype(np.int32)

    nwords = np.maximum(
        1, rng.normal(avg_turn_words, avg_turn_words / 2, size=n_turns).astype(np.int64)
    )
    widx = rng.choice(v, size=int(nwords.sum()), p=zipf_w)
    words = vocab[widx]
    texts = [" ".join(w) for w in np.split(words, np.cumsum(nwords)[:-1])]

    special = rng.random(n_turns) <= 0.1
    role_idx = np.where(special, rng.integers(2, 4, size=n_turns), turn_idx % 2)
    roles = _ROLES[role_idx]
    tool_pick = _TOOLS[rng.integers(0, len(_TOOLS), size=n_turns)]
    tools = np.where(roles == "tool", tool_pick, "")

    conv_names = np.array([f"{conv_prefix}-{i:08d}" for i in range(lens.size)])
    ts0 = np.datetime64("2026-01-01T00:00:00", "us")
    tss = ts0 + np.timedelta64(1, "s") * (base_turn + np.arange(n_turns))

    return pa.table(
        {
            "conv_id": pa.array(conv_names[conv_local]),
            "turn_idx": pa.array(turn_idx),
            "role": pa.array(roles),
            "text": pa.array(texts),
            "tool": pa.array(tools),
            "ts": pa.array(tss, type=pa.timestamp("us")),
        }
    )


def generate_transcripts_distributed(
    out_dir: str,
    n_turns: int,
    n_chunks: int = 64,
    avg_turn_words: int = 40,
    seed: int = 42,
    rows_per_file: int = 8192,
) -> list:
    """Generate a large deterministic transcript corpus in parallel.

    One Ray task per chunk; chunk ``i`` derives its rng from
    ``seed + 1000003*i`` and writes ``out_dir/part-{i:04d}.parquet``
    atomically (tmp + rename), so a rerun regenerates only missing files —
    the resumable-output contract the 100 TB path needs.  Conv ids are
    chunk-prefixed (globally unique) and ts stays globally monotone via the
    per-chunk base_turn offset.  Returns the sorted file list."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    per = n_turns // n_chunks
    sizes = [per + (1 if i < n_turns - per * n_chunks else 0) for i in range(n_chunks)]
    bases = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    @ray.remote(num_cpus=1)
    def _write(i: int, chunk_turns: int, base_turn: int) -> str:
        path = os.path.join(out_dir, f"part-{i:04d}.parquet")
        if os.path.exists(path):
            return path
        t = _gen_chunk_table(
            chunk_turns, avg_turn_words, seed + 1000003 * i, f"c{i:04d}", base_turn
        )
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(t, tmp, row_group_size=rows_per_file)
        os.replace(tmp, path)
        return path

    refs = [
        _write.remote(i, int(sizes[i]), int(bases[i]))
        for i in range(n_chunks)
        if sizes[i] > 0
    ]
    return sorted(ray.get(refs))
