"""Second-corpus pipeline: full-text index over the sandbox `events` table.

Demonstrates schema generality — the same build/search engine over a
completely different table shape (numeric ids, categorical type, JSON-ish
props payload) with a custom IndexSchema, exactly like declaring a new
reference Schema (fields.py Schema) for a new corpus:

    event_id:int64, ts:timestamp, user_id:int64, event_type:varchar,
    value:double, props:varchar(JSON)

`props` is the analyzed TEXT field; `event_type` an ID field; ts/user_id/
value stay columnar for vectorized range predicates.
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..query import And, NumericRange, Term
from ..schema import IndexSchema, id_field, numeric_field, text_field
from ..sources.corpus import fetch_rows
from ..state.manifest import load_manifest
from ..state.searcher import IndexSearcher
from .fulltext import TOKENIZE_SQL, _stops_sql

_searchers: dict = {}


def events_schema() -> IndexSchema:
    return IndexSchema(
        fields=[
            numeric_field("event_id"),
            numeric_field("ts", kind="datetime"),
            numeric_field("user_id"),
            id_field("event_type"),
            numeric_field("value"),
            text_field("props"),
        ]
    )


def get_events_searcher(sf_dir: str) -> IndexSearcher:
    key = os.path.normpath(sf_dir)
    s = _searchers.get(key)
    if s is not None:
        return s
    src = os.path.join(sf_dir, "events.parquet")
    index_dir = f"/tmp/wrr_events_index/{os.path.basename(key)}"
    man = load_manifest(index_dir)
    if man is None or os.path.getmtime(src) > _mtime(index_dir):
        from .build import build_index

        build_index(
            [src], index_dir, schema=events_schema(), num_shards=8,
            partition_rows=100_000,
        )
    s = IndexSearcher(index_dir)
    _searchers[key] = s
    return s


def _mtime(index_dir: str) -> float:
    from ..state import storage

    if storage.is_uri(index_dir):
        # no portable mtime over pyarrow.fs; key the cache on the
        # manifest generation instead (monotonic per commit)
        from ..state.manifest import latest_generation

        return float(latest_generation(index_dir))
    import glob

    files = glob.glob(os.path.join(index_dir, "manifest-*.json"))
    return max((os.path.getmtime(f) for f in files), default=-1.0)


def _event_ids(s: IndexSearcher, res: pa.Table) -> pa.Table:
    if res.num_rows == 0:
        return pa.table({"event_id": pa.array([], pa.int64())})
    rows = fetch_rows(
        s.manifest.partitions, res["docnum"].to_pylist(), columns=["event_id"]
    )
    return pa.table({"event_id": rows["event_id"]}).sort_by("event_id")


# ---------------------------------------------------------------------------
# Gate queries + oracles
# ---------------------------------------------------------------------------


def events_search_props(sf_dir: str) -> pa.Table:
    """Error events whose props payload tokenizes to contain '69'."""
    s = get_events_searcher(sf_dir)
    q = And([Term("props", "69"), Term("event_type", "error")])
    return _event_ids(s, s.search(q, limit=None, scored=False))


def oracle_events_search_props() -> str:
    toks = TOKENIZE_SQL.format(stops=_stops_sql()).replace("(text,", "(props,")
    return f"""
SELECT event_id FROM events
WHERE list_contains({toks}, '69') AND event_type = 'error'
ORDER BY event_id
"""


def events_value_hist(sf_dir: str) -> pa.Table:
    """RangeFacet histogram: click events bucketed by value in [0, 50)
    with gap 10."""
    s = get_events_searcher(sf_dir)
    counts = s.facet_counts_range(Term("event_type", "click"), "value", 0.0, 50.0, 10.0)
    los = sorted(counts)
    return pa.table(
        {
            "bucket_lo": pa.array([float(lo) for lo, _ in los], pa.float64()),
            "n": pa.array([counts[k] for k in los], pa.int64()),
        }
    )


def oracle_events_value_hist() -> str:
    return """
SELECT FLOOR(value / 10) * 10 AS bucket_lo, COUNT(*)::BIGINT AS n
FROM events
WHERE event_type = 'click' AND value >= 0 AND value < 50
GROUP BY bucket_lo ORDER BY bucket_lo
"""


def events_recent_by_user(sf_dir: str) -> pa.Table:
    """Events for low user ids in the first simulated hour (columnar
    NumericRange over user_id + datetime range over ts)."""
    import numpy as np

    s = get_events_searcher(sf_dir)
    q = And(
        [
            NumericRange("user_id", 0, 9),
            NumericRange("ts", np.datetime64("2024-01-01T00:00:00"),
                         np.datetime64("2024-01-01T01:00:00"), endexcl=True),
        ]
    )
    return _event_ids(s, s.search(q, limit=None, scored=False))


def oracle_events_recent_by_user() -> str:
    return """
SELECT event_id FROM events
WHERE user_id BETWEEN 0 AND 9
  AND ts >= TIMESTAMP '2024-01-01 00:00:00' AND ts < TIMESTAMP '2024-01-01 01:00:00'
ORDER BY event_id
"""
