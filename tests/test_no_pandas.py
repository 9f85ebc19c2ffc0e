"""The query path and the write path never import pandas.

pyarrow's ``to_numpy()``, ``pa.array(...)`` and ``pa.scalar(...)`` import
pandas on first use, about 0.37 s, which a fresh segment actor would pay
inside its first query, and a plain client inside its first append.
``state/storage.py``'s converters (``as_numpy``, ``string_list``,
``binary_values``, ``from_numpy``, ``from_strings``) read and build the
Arrow buffers instead.  Here: they equal pyarrow's own conversions; a
fresh local process and fresh segment actors answer every query kind, a
sorted search and a facet search with pandas never imported; a fresh
process appends a 512-row batch (read, tokenized and written in that
process) and deletes a term with pandas never imported; and query/,
state/, stages/ and the write modules (pipelines/build.py, merge.py and
write_ops.py) call no pandas-backed conversion outside the converters, nor
Arrow's ``group_by`` or ``pq.read_table``, which load ``pyarrow.dataset``
and with it pandas.  Segment actors also
leave the query-string parser unimported: ``query/__init__.py`` loads it
on first use."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from whoosh_reloaded_ray.state import storage

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(REPO, "whoosh_reloaded_ray")


# ---- the converters equal pyarrow's conversions ------------------------------

def _cases():
    ints = pa.array(np.arange(10, dtype=np.int64))
    strs = pa.array(["alpha", "", "ß€→", None, "日本語", "", "z"])
    return {
        "int64 sliced": ints.slice(3, 5),
        "int64 nulls": pa.array([1, None, 3], pa.int64()),
        "int64 nulls sliced": pa.array([None, 1, None, 3, 4], pa.int64()).slice(1, 3),
        "uint8": pa.array([0, 7, 255], pa.uint8()),
        "uint8 nulls": pa.array([0, None, 255], pa.uint8()),
        "uint64": pa.array([0, 2**63 + 5], pa.uint64()),
        "float32": pa.array([1.5, np.nan, -2.0], pa.float32()),
        "float32 nulls": pa.array([1.5, None], pa.float32()),
        "float64 sliced": pa.array([0.5, 1.5, np.nan, 3.5]).slice(1),
        "float64 nulls": pa.array([None, 2.5, np.nan]),
        "bool": pa.array([True, False, True, True, False, False, True, False, True, True]),
        "bool sliced": pa.array([True, False, True, True, False, False, True, False, True]).slice(3, 5),
        "bool nulls": pa.array([True, None, False]),
        "string": strs,
        "string sliced": strs.slice(2, 4),
        "string empty values": pa.array(["", "", ""]),
        "string with NUL": pa.array(["a\x00b", "", "c"]),
        "large_string": pa.array(["x", None, "ÿz"], pa.large_string()),
        "binary": pa.array([b"\x00\x01", b"", None, b"\xff"]),
        "large_binary sliced": pa.array([b"ab", b"\x00", b"cd"], pa.large_binary()).slice(1),
        "timestamp nulls": pa.array([1, None, 3], pa.timestamp("us")),
        "timestamp tz": pa.array([1, 2], pa.timestamp("ms", tz="UTC")),
        "date32 nulls": pa.array([1, None], pa.date32()),
        "duration": pa.array([5, None], pa.duration("s")),
        "empty int64": pa.array([], pa.int64()),
        "empty string": pa.array([], pa.string()),
        "multi-chunk int64": pa.chunked_array([ints.slice(0, 4), ints.slice(6)]),
        "multi-chunk nulls": pa.chunked_array([pa.array([1, 2]), pa.array([None, 4])]),
        "multi-chunk strings": pa.chunked_array([strs.slice(0, 3), strs.slice(3)]),
        "multi-chunk bool nulls": pa.chunked_array([pa.array([True]), pa.array([None, False])]),
        "no chunks int64": pa.chunked_array([], pa.int64()),
        "no chunks string": pa.chunked_array([], pa.string()),
        "one chunk": pa.chunked_array([ints.slice(2, 3)]),
        "dictionary (pyarrow's path)": pa.array(["a", "b", "a"]).dictionary_encode(),
    }


CASES = _cases()


@pytest.mark.parametrize("name", list(CASES))
def test_as_numpy_equals_to_numpy(name):
    col = CASES[name]
    want = col.to_numpy(zero_copy_only=False)
    got = storage.as_numpy(col)
    assert got.dtype == want.dtype
    # the same read-only flags too, so no caller that writes into a
    # converted array (or relied on a copy) sees a change
    assert got.flags.writeable == want.flags.writeable
    if want.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", [n for n, c in CASES.items() if storage._is_text(c.type)])
def test_string_list_and_binary_values_equal_pyarrow(name):
    col = CASES[name]
    assert storage.string_list(col) == col.to_pylist()
    values = [v for v in col.to_pylist() if v is not None]
    joined = b"".join(v.encode("utf-8") if isinstance(v, str) else v for v in values)
    assert storage.binary_values(col).tobytes() == joined


@pytest.mark.parametrize("values", [
    np.arange(5, dtype=np.uint64),
    np.array([1.5, np.nan, -0.0]),
    np.array([3, -4], dtype=np.int32),
    np.array([True, False, True, False, True, True, False, False, True]),
    np.array(["2026-01-01T00:00:00", "NaT"], dtype="datetime64[us]"),
    np.array([5, 7], dtype="timedelta64[ms]"),
    np.array(["alpha", None, "", "ß€→"], dtype=object),
    np.array([None, None], dtype=object),
    np.empty(0, dtype=object),
    np.empty(0, dtype=np.float64),
    np.arange(10, dtype=np.int64)[::3],
], ids=lambda v: str(v.dtype))
def test_from_numpy_equals_pa_array(values):
    want, got = pa.array(values), storage.from_numpy(values)
    assert got.type == want.type
    assert got.to_pylist() == want.to_pylist() or (
        want.type == pa.float64() and np.array_equal(got.to_pylist(), want.to_pylist(), equal_nan=True)
    )
    got.validate(full=True)


@pytest.mark.parametrize("values,typ", [
    (["alpha", "", "ß€→", "日本語"], pa.string()),
    (["a\x00b", "", "c"], pa.string()),
    (["alpha", None, ""], pa.string()),
    ([None, None], pa.string()),
    ([""], pa.string()),
    ([], pa.string()),
    ([b"\x00\x01", b"", None, b"\xff"], pa.binary()),
    ([b"ab"], pa.binary()),
    ([], pa.binary()),
], ids=repr)
def test_from_strings_equals_pa_array(values, typ):
    want, got = pa.array(values, typ), storage.from_strings(values, typ)
    got.validate(full=True)
    assert got.type == want.type and got.equals(want)


# ---- field_docs without pd.isna ---------------------------------------------

def test_field_docs_of_unscored_columns_skip_none_empty_and_nan(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.query import Every
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, numeric_field, text_field
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    tags = ["red", None, "", "blue", None, "", "green", "red"]
    rating = [1.5, np.nan, None, 0.0, 2.5, None, np.nan, 4.0]
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "body": pa.array(["alfa bravo"] * len(tags)),
        "tag": pa.array(tags, pa.string()),
        "rating": pa.array(rating, pa.float64(), from_pandas=False),
    }), path)
    schema = IndexSchema(fields=[
        text_field("body"), id_field("tag"), numeric_field("rating", numtype="float"),
    ])
    d = str(tmp_path / "idx")
    build_index([path], d, schema=schema, num_shards=2, partition_rows=4)
    s = IndexSearcher(d)
    (r,) = s.local.readers
    assert r.field_docs("tag").tolist() == [0, 3, 6, 7]
    # a null reads as NaN, so NaN and null are both missing
    assert r.field_docs("rating").tolist() == [0, 3, 4, 7]
    for field in ("tag", "rating"):
        got = storage.as_numpy(s.search(Every(field), limit=None)["docnum"])
        assert sorted(got.tolist()) == r.field_docs(field).tolist()


# ---- no pandas on the query path ---------------------------------------------

@pytest.fixture(scope="module")
def idx_dir(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts

    d = tmp_path_factory.mktemp("nopdcorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=600, avg_turn_words=20, seed=13, rows_per_file=150)
    idx = str(tmp_path_factory.mktemp("nopdidx"))
    build_index([path], idx, num_shards=2, partition_rows=150, rows_per_segment=300)
    return idx


def _queries(idx_dir) -> list:
    """One query string of each perfbench kind, over the index's words."""
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    vocab = IndexSearcher(idx_dir).lexicon("text")
    w = [t for t in vocab if len(t) >= 5][:3]
    return [
        w[0],  # term
        f"{w[0]} AND {w[1]}",  # and
        f"{w[0]} OR {w[1]} OR {w[2]}",  # or
        f'"{w[0]} {w[1]}"',  # phrase
        f"{w[0]} AND NOT {w[1]}",  # not
        w[0][:3] + "*",  # prefix
        w[0][0] + "?" + w[0][2:4] + "*",  # wildcard
        f"[{w[0][:3]} TO {w[0][:2]}z]",  # range
    ]


# Runs every query kind, a sorted search and facet searches on a searcher
# ``s``, leaving the hit counts in ``hits``.  Shared by the local and the
# actor checks.
_SEARCHES = """
import json
from whoosh_reloaded_ray.query import QueryParser
from whoosh_reloaded_ray.schema import transcript_schema
qp = QueryParser("text", transcript_schema())
hits = [s.search(qp.parse(q), limit=10).num_rows for q in QUERIES]
hits.append(s.search_sorted(qp.parse(QUERIES[2]), ["role", "turn_idx"], limit=10).num_rows)
hits.append(len(s.facet_counts(qp.parse(QUERIES[2]), "role")))
hits.append(len(s.facet_counts(qp.parse(QUERIES[2]), "turn_idx")))
"""


def test_local_searches_never_import_pandas(idx_dir):
    script = (
        f"import sys\nQUERIES = {_queries(idx_dir)!r}\n"
        "from whoosh_reloaded_ray.state.searcher import IndexSearcher\n"
        f"s = IndexSearcher({idx_dir!r})\n" + _SEARCHES
        + "print(json.dumps([hits, 'pandas' in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        cwd=REPO, env={**os.environ, "PYTHONPATH": REPO},
    )
    assert out.returncode == 0, out.stderr
    hits, imported = json.loads(out.stdout.strip().splitlines()[-1])
    assert hits[0] > 0 and hits[-3] > 0 and hits[-1] > 0, hits
    assert not imported


def test_fresh_process_appends_without_importing_pandas(ray_session, tmp_path):
    """A tiny index, then a 512-row append and a delete in a fresh
    process: the append is one partition and one shard, so the process
    reads, tokenizes and writes it itself; the delete searches and writes
    tombstones; neither imports pandas."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts

    base, batch = str(tmp_path / "base.parquet"), str(tmp_path / "batch.parquet")
    generate_transcripts(base, n_turns=200, avg_turn_words=20, seed=3, rows_per_file=100)
    generate_transcripts(batch, n_turns=512, avg_turn_words=20, seed=4, rows_per_file=512)
    idx = str(tmp_path / "idx")
    build_index([base], idx, num_shards=2, partition_rows=100)
    # "abcv" occurs in 81 of the batch's 512 turns
    script = (
        "import json, sys\n"
        "from whoosh_reloaded_ray.pipelines import write_ops\n"
        f"man = write_ops.append_documents({idx!r}, [{batch!r}])\n"
        f"deleted = write_ops.delete_by_term({idx!r}, 'text', 'abcv')\n"
        "print(json.dumps([man.doc_count, man.segments[-1].num_shards, deleted > 0,\n"
        "                  'pandas' in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        cwd=REPO, env={**os.environ, "PYTHONPATH": REPO},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [712, 1, True, False]


def test_segment_actors_never_import_pandas(idx_dir):
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    queries = _queries(idx_dir)
    s = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    try:
        exec(_SEARCHES, {"s": s, "QUERIES": queries})
        loaded = s._ray.get([
            w.__ray_call__.remote(lambda _: "pandas" in sys.modules) for w in s.workers
        ])
        assert len(loaded) == 2 and not any(loaded)
    finally:
        s.close()


def test_segment_actors_never_import_the_query_parser(idx_dir):
    """Actors evaluate parsed queries: after one query of each perfbench
    kind, neither has imported the query-string parser."""
    from whoosh_reloaded_ray.query import QueryParser
    from whoosh_reloaded_ray.schema import transcript_schema
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    qp = QueryParser("text", transcript_schema())
    s = IndexSearcher(idx_dir, executor="ray", num_actors=2)
    try:
        hits = [s.search(qp.parse(q), limit=10).num_rows for q in _queries(idx_dir)]
        assert hits[0] > 0, hits
        loaded = s._ray.get([
            w.__ray_call__.remote(lambda _: "whoosh_reloaded_ray.query.parser" in sys.modules)
            for w in s.workers
        ])
        assert len(loaded) == 2 and not any(loaded)
    finally:
        s.close()


# ---- the static rule ------------------------------------------------------------

# the converters that fall back to pyarrow's own path for other types
_CONVERTERS = {"_chunk_numpy", "from_numpy"}


def _violations(path: str) -> list:
    tree = ast.parse(open(path).read(), path)
    out = []

    def visit(node, fn=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        allowed = path.endswith(os.path.join("state", "storage.py")) and fn in _CONVERTERS
        bad = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and not allowed:
            if node.func.attr in ("to_numpy", "to_pandas_dtype", "group_by", "read_table"):
                bad = node.func.attr
            elif node.func.attr in ("array", "scalar") and _is_name(node.func.value, "pa"):
                bad = f"pa.{node.func.attr}"
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "pandas" for a in node.names):
                bad = "import pandas"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "pandas":
                bad = "from pandas import"
        if bad:
            out.append(f"{os.path.relpath(path, REPO)}:{node.lineno}: {bad}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree)
    return out


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def test_read_and_write_paths_convert_only_through_storage():
    paths = [
        os.path.join(PKG, "pipelines", name) for name in ("build.py", "merge.py", "write_ops.py")
    ]
    for sub in ("query", "state", "stages"):
        paths += [
            os.path.join(PKG, sub, name)
            for name in sorted(os.listdir(os.path.join(PKG, sub))) if name.endswith(".py")
        ]
    assert [v for path in paths for v in _violations(path)] == []


def test_static_rule_catches_a_violation(tmp_path):
    p = tmp_path / "bad.py"
    p.write_text(
        "import pandas as pd\nimport pyarrow as pa\ndef f(t):\n"
        "    return t['x'].to_numpy(), t.type.to_pandas_dtype(), pa.array([1]), pa.scalar(1)\n"
        "def g(t, pq):\n    return t.group_by('x'), pq.read_table('p')\n"
    )
    assert len(_violations(str(p))) == 7
