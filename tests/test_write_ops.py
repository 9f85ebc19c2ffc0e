"""Delete / append / update lifecycle: tombstone masking with unchanged
collection stats (whoosh deletion parity), append docnum continuity, and
update-by-unique-key semantics.  A small append (one partition, one shard)
is built in the calling process: it runs with Ray never initialized, and
the index still ranks as the oracle does after three of them, a delete
and an optimize."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.pipelines import write_ops
from whoosh_reloaded_ray.query import And, Not, Or, Term
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture()
def corpus(tmp_path):
    path = str(tmp_path / "transcripts.parquet")
    generate_transcripts(path, n_turns=500, avg_turn_words=20, seed=41, rows_per_file=125)
    return path


@pytest.fixture()
def idx(corpus, ray_session, tmp_path):
    from whoosh_reloaded_ray.pipelines.build import build_index

    idx_dir = str(tmp_path / "idx")
    build_index([corpus], idx_dir, num_shards=4, partition_rows=125)
    return idx_dir


def _terms(corpus, n=2):
    from whoosh_reloaded_ray.functions.analysis import make_analyzer, standard_analyzer

    analyze = make_analyzer(standard_analyzer())
    ctr = Counter()
    for t in pq.read_table(corpus, columns=["text"])["text"].to_pylist():
        ctr.update(tok for tok, _ in analyze(t))
    ordered = [w for w, _ in ctr.most_common()]
    return ordered[5], ordered[len(ordered) // 4]


def test_delete_parity_with_whoosh(corpus, idx, whoosh, tmp_path):
    t1, t2 = _terms(corpus)
    from whoosh import fields, index
    from whoosh.query import Term as WT

    schema = fields.Schema(
        conv_id=fields.ID(stored=True),
        turn_idx=fields.NUMERIC(int, stored=True),
        text=fields.TEXT,
    )
    wdir = str(tmp_path / "whooshidx")
    import os

    os.makedirs(wdir)
    ix = index.create_in(wdir, schema)
    w = ix.writer(limitmb=128)
    for row in pq.read_table(corpus).to_pylist():
        w.add_document(conv_id=row["conv_id"], turn_idx=row["turn_idx"], text=row["text"])
    w.commit()

    n_ours = write_ops.delete_by_term(idx, "text", t1)
    w = ix.writer()
    n_theirs = w.delete_by_term("text", t1)
    w.commit()
    assert n_ours == n_theirs > 0

    s = IndexSearcher(idx)
    for q, wq in [
        (Term("text", t2), WT("text", t2)),
        (Or([Term("text", t1), Term("text", t2)]), WT("text", t1) | WT("text", t2)),
        (
            And([Term("text", t2), Not(Term("text", t1))]),
            __import__("whoosh.query", fromlist=["And", "Not"]).And(
                [WT("text", t2), __import__("whoosh.query", fromlist=["Not"]).Not(WT("text", t1))]
            ),
        ),
    ]:
        ours = s.search(q, limit=20)
        with ix.searcher() as ws:
            theirs = [(h.docnum, h.score) for h in ws.search(wq, limit=20)]
        assert ours["docnum"].to_pylist() == [d for d, _ in theirs]
        np.testing.assert_allclose(
            ours["score"].to_pylist(), [sc for _, sc in theirs], atol=1e-6
        )


def test_delete_then_append_and_update(corpus, idx, ray_session, tmp_path):
    s0 = IndexSearcher(idx)
    n0 = s0.manifest.doc_count

    # append 100 new turns mentioning a unique marker word
    extra = str(tmp_path / "extra.parquet")
    tbl = pq.read_table(corpus).slice(0, 100)
    texts = [t + " zzmarkerzz" for t in tbl["text"].to_pylist()]
    conv = [f"newconv-{i:04d}" for i in range(100)]
    out = pa.table(
        {
            "conv_id": pa.array(conv),
            "turn_idx": tbl["turn_idx"],
            "role": tbl["role"],
            "text": pa.array(texts),
            "tool": tbl["tool"],
            "ts": tbl["ts"],
        }
    )
    pq.write_table(out, extra, row_group_size=50)

    # a write option the engine does not take is an error, not ignored
    with pytest.raises(TypeError):
        write_ops.append_documents(idx, extra, writer_concurrency=2)
    write_ops.append_documents(idx, extra, partition_rows=50)
    s1 = IndexSearcher(idx)
    assert s1.manifest.doc_count == n0 + 100
    hits = s1.search(Term("text", "zzmarkerzz"), limit=None)
    assert hits.num_rows == 100
    assert int(hits["docnum"].to_numpy().min()) >= n0  # appended docnums follow

    # update: replace 50 of the appended docs by unique (conv_id, turn_idx)
    upd = str(tmp_path / "upd.parquet")
    sub = out.slice(0, 50)
    sub = sub.set_column(3, "text", pa.array([t.replace("zzmarkerzz", "qqreplacedqq") for t in sub["text"].to_pylist()]))
    pq.write_table(sub, upd, row_group_size=50)
    write_ops.update_documents(idx, upd, unique_fields=("conv_id", "turn_idx"), partition_rows=50)

    s2 = IndexSearcher(idx)
    assert s2.search(Term("text", "qqreplacedqq"), limit=None).num_rows == 50
    # the replaced rows no longer match the old marker
    assert s2.search(Term("text", "zzmarkerzz"), limit=None).num_rows == 50


def test_bulk_update_single_pass(corpus, ray_session, tmp_path):
    """A bulk update deletes all matched keys in ONE key-column pass (no
    per-row queries) and the updated rows win subsequent searches."""
    import time

    from whoosh_reloaded_ray.pipelines.build import build_index

    idx_dir = str(tmp_path / "bulkidx")
    build_index([corpus], idx_dir, num_shards=4, partition_rows=125)

    src = pq.read_table(corpus)
    n_upd = 200
    upd = src.slice(0, n_upd)
    texts = ["freshly updated bulk row"] * n_upd
    upd = upd.set_column(
        upd.schema.get_field_index("text"), "text", pa.array(texts)
    )
    upd_path = str(tmp_path / "upd.parquet")
    pq.write_table(upd, upd_path)

    t0 = time.perf_counter()
    write_ops.update_documents(idx_dir, upd_path)
    elapsed = time.perf_counter() - t0

    s = IndexSearcher(idx_dir)
    res = s.search(And([Term("text", "freshly"), Term("text", "bulk")]), limit=None)
    assert res.num_rows == n_upd
    # old versions of the updated keys are tombstoned
    keys = set(zip(upd["conv_id"].to_pylist(), upd["turn_idx"].to_pylist()))
    from whoosh_reloaded_ray.sources.corpus import fetch_rows

    rows = fetch_rows(
        s.manifest.partitions, res["docnum"].to_pylist(), columns=["conv_id", "turn_idx"]
    )
    assert set(zip(rows["conv_id"].to_pylist(), rows["turn_idx"].to_pylist())) == keys
    # single-pass: 200 updates must not cost 200 searches (~sub-minute even
    # on a loaded machine; the old per-row loop took O(rows) searches)
    assert elapsed < 60


def test_add_remove_field_between_commits(corpus, ray_session, tmp_path):
    """Schema mutation between commits (reference writing.py:279-296):
    add_field indexes in segments appended AFTER the change; remove_field
    hides the field from schema/stats."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.schema import text_field
    from whoosh_reloaded_ray.state.manifest import load_manifest

    idx = str(tmp_path / "schemamut")
    build_index([corpus], idx, num_shards=4, partition_rows=250)

    # add a field; append docs that carry it
    write_ops.add_field(idx, text_field("notes"))
    m = load_manifest(idx)
    assert "notes" in m.schema.by_name

    extra = pa.table(
        {
            "conv_id": pa.array(["x0", "x1"]),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": pa.array(["user", "assistant"]),
            "text": pa.array(["alpha beta", "gamma delta"]),
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([0, 1], pa.timestamp("us")),
            "notes": pa.array(["zzyzx remark", "plain remark"]),
        }
    )
    extra_path = str(tmp_path / "extra.parquet")
    pq.write_table(extra, extra_path)
    write_ops.append_documents(idx, extra_path, partition_rows=10)

    s = IndexSearcher(idx)
    res = s.search(Term("notes", "zzyzx"), limit=None)
    assert res.num_rows == 1
    assert s.manifest.field_length("notes") == 4  # two 2-token notes

    # remove it again: schema + stats stop exposing it
    write_ops.remove_field(idx, "notes")
    s2 = IndexSearcher(idx)
    assert "notes" not in s2.manifest.schema.by_name
    assert s2.manifest.field_length("notes") == 0


def test_dynamic_glob_fields(ray_session, tmp_path):
    """Glob templates (reference fields.py:1550-1556): source columns
    matching 'meta_*' get indexed with the template spec."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field

    tbl = pa.table(
        {
            "conv_id": pa.array(["a", "b"]),
            "text": pa.array(["hello world", "more text"]),
            "meta_tags": pa.array(["urgent customer", "internal"]),
            "meta_notes": pa.array(["follow up quickly", "done already"]),
            "other_col": pa.array(["skip me", "not indexed"]),
        }
    )
    src = str(tmp_path / "glob.parquet")
    pq.write_table(tbl, src)
    schema = IndexSchema(
        fields=[id_field("conv_id"), text_field("text")],
        dynamic=[("meta_*", text_field("__template__"))],
    )
    idx = str(tmp_path / "globidx")
    build_index([src], idx, schema=schema, num_shards=2, partition_rows=10)
    s = IndexSearcher(idx)
    assert {"meta_tags", "meta_notes"} <= set(s.manifest.schema.by_name)
    assert "other_col" not in s.manifest.schema.by_name
    assert s.search(Term("meta_tags", "urgent"), limit=None).num_rows == 1
    assert s.search(Term("meta_notes", "quickly"), limit=None).num_rows == 1


def test_update_no_driver_key_scan(idx, corpus, ray_session, tmp_path, monkeypatch):
    """update_documents must never materialize segment key columns on the
    driver: the key match is a broadcast semi-join inside Ray tasks.  Any
    driver-side SegmentReader.column() here is the O(corpus) anti-pattern."""
    from whoosh_reloaded_ray.query import exec as qexec

    src = pq.read_table(corpus)
    n = 30
    upd = src.slice(0, n)
    upd = upd.set_column(
        upd.schema.get_field_index("text"), "text", pa.array(["nodriverscan row"] * n)
    )
    upd_path = str(tmp_path / "upd_noscan.parquet")
    pq.write_table(upd, upd_path)

    def boom(self, field):  # Ray tasks run in worker processes, unaffected
        raise AssertionError("driver-side SegmentReader.column() during update")

    monkeypatch.setattr(qexec.SegmentReader, "column", boom)
    write_ops.update_documents(idx, upd_path, unique_fields=("conv_id", "turn_idx"))

    s = IndexSearcher(idx)
    assert s.search(Term("text", "nodriverscan"), limit=None).num_rows == n
    # single-field path too (conv_id alone matches every turn of those convs)
    upd2 = src.slice(60, 10)
    upd2_path = str(tmp_path / "upd_noscan2.parquet")
    pq.write_table(upd2, upd2_path)
    write_ops.update_documents(idx, upd2_path, unique_fields=("conv_id",))


def test_stale_searcher_raises_once_its_segments_are_collected(corpus, idx, ray_session, tmp_path):
    # ``clean_files`` keeps two manifest generations: after three append +
    # optimize cycles, the segment directories an old searcher was opened
    # on are deleted.  A term it has not read yet must raise, naming the
    # segment, instead of answering 0 hits
    from whoosh_reloaded_ray.pipelines.merge import maybe_merge
    from whoosh_reloaded_ray.query.exec import _LRU

    old = IndexSearcher(idx)
    # one that has read every terminfo file, then lost the row groups from
    # its cache, keeps the footers and reads those files again
    warm = IndexSearcher(idx)
    for r in warm.local.readers:
        assert r.expand_terms("text")
        r._row_groups = _LRU(0)
    for i in range(3):
        extra = str(tmp_path / f"more-{i}.parquet")
        generate_transcripts(extra, n_turns=60, avg_turn_words=20, seed=70 + i, rows_per_file=60)
        write_ops.append_documents(idx, extra)
        maybe_merge(idx, optimize=True)
    fresh = IndexSearcher(idx)
    for term in _terms(corpus):
        assert fresh.search(Term("text", term), limit=None).num_rows > 0
        for s in (old, warm):
            with pytest.raises(FileNotFoundError, match=r"segment seg-\d+"):
                s.search(Term("text", term), limit=None)


def test_never_read_searcher_alone_raises_once_its_segments_are_collected(corpus, idx, ray_session, tmp_path):
    # the same cycles with one searcher that never read a file as the only
    # one open: no other searcher warms or shares its readers
    from whoosh_reloaded_ray.pipelines.merge import maybe_merge

    old = IndexSearcher(idx)
    for i in range(3):
        extra = str(tmp_path / f"more-{i}.parquet")
        generate_transcripts(extra, n_turns=60, avg_turn_words=20, seed=70 + i, rows_per_file=60)
        write_ops.append_documents(idx, extra)
        maybe_merge(idx, optimize=True)
    for term in _terms(corpus):
        with pytest.raises(FileNotFoundError, match=r"segment seg-\d+"):
            old.search(Term("text", term), limit=None)


def test_writes_run_without_ray_data(corpus, ray_session, tmp_path, monkeypatch):
    """Build, append, update and merge run on plain Ray tasks: with Ray
    Data's entry points made to raise, every write still succeeds and the
    merged index answers like the written rows say."""
    import ray.data

    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.pipelines.merge import maybe_merge

    def refuse(*args, **kwargs):
        raise AssertionError("a write ran through Ray Data")

    monkeypatch.setattr(ray.data, "from_items", refuse)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", refuse)

    idx_dir = str(tmp_path / "plainidx")
    build_index([corpus], idx_dir, num_shards=4, partition_rows=125, rows_per_segment=250)
    src = pq.read_table(corpus).slice(0, 50)
    extra = str(tmp_path / "extra.parquet")
    pq.write_table(src.set_column(
        src.schema.get_field_index("text"), "text", pa.array(["zzappendedzz"] * 50)
    ), extra)
    write_ops.append_documents(idx_dir, extra)
    upd = str(tmp_path / "upd.parquet")
    pq.write_table(src.slice(0, 10).set_column(
        src.schema.get_field_index("text"), "text", pa.array(["qqupdatedqq"] * 10)
    ), upd)
    write_ops.update_documents(idx_dir, upd)
    man = maybe_merge(idx_dir, optimize=True)

    assert len(man.segments) == 1
    s = IndexSearcher(idx_dir)
    assert s.manifest.doc_count == 500 + 50 + 10
    assert s.search(Term("text", "qqupdatedqq"), limit=None).num_rows == 10
    # the update's keys are the first 10 source rows: their originals and
    # their appended copies are deleted, the other 40 copies stay
    assert s.search(Term("text", "zzappendedzz"), limit=None).num_rows == 40


def _marked_batch(corpus: str, path: str, rows: int, marker: str, start: int = 0) -> list:
    """Turns [start, start + rows) of ``corpus`` under new conversation
    ids, ``marker`` appended to each text, written to ``path``; returns
    the texts."""
    t = pq.read_table(corpus).slice(start, rows)
    texts = [f"{x} {marker}" for x in t["text"].to_pylist()]
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts))
    conv = pa.array([f"{marker}-{i:04d}" for i in range(rows)])
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv)
    pq.write_table(t, path, row_group_size=rows)
    return texts


def test_append_shard_count_is_sized_unless_given(corpus, idx, ray_session, tmp_path, monkeypatch):
    """Without ``num_shards`` an appended segment gets ``shard_count`` of
    its rows, capped at the build's count (4 here); an explicit count is
    used as given, above the cap too.  ``update_documents`` follows."""
    from whoosh_reloaded_ray.pipelines import build
    from whoosh_reloaded_ray.state.manifest import load_manifest

    def append(marker, **kw):
        path = str(tmp_path / f"{marker}.parquet")
        _marked_batch(corpus, path, 100, marker)
        write_ops.append_documents(idx, [path], **kw)
        return max(load_manifest(idx).segments, key=lambda s: s.doc_base)

    seg = append("zzsizedaa")
    assert seg.num_shards == 1
    assert seg.files == ["doclens-0000.parquet", "postings-0000.parquet", "terminfo-0000.parquet"]
    monkeypatch.setattr(build, "ROWS_PER_SHARD", 40)
    assert append("zzsizedbb").num_shards == 3
    monkeypatch.setattr(build, "ROWS_PER_SHARD", 10)
    assert append("zzsizedcc").num_shards == 4
    assert append("zzsizeddd", num_shards=3).num_shards == 3
    assert append("zzsizedee", num_shards=6).num_shards == 6

    upd = str(tmp_path / "upd.parquet")
    _marked_batch(corpus, upd, 100, "zzsizedaa")
    monkeypatch.setattr(build, "ROWS_PER_SHARD", 50)
    write_ops.update_documents(idx, upd)
    seg = max(load_manifest(idx).segments, key=lambda s: s.doc_base)
    assert seg.num_shards == 2

    s = IndexSearcher(idx)
    for marker in ("zzsizedaa", "zzsizedbb", "zzsizedcc", "zzsizeddd", "zzsizedee"):
        hits = s.search(Term("text", marker), limit=None)
        assert hits.num_rows == 100, marker
    # the update replaced the first batch's rows
    assert int(s.search(Term("text", "zzsizedaa"), limit=None)["docnum"].to_numpy().min()) >= 1000


def test_score_cache_keeps_one_array_per_list_across_appends(corpus, ray_session, tmp_path):
    """Each append changes the doc count, and so every term's idf; a posting
    list of a long-lived segment keeps only the newest scores, one array,
    and the answers stay the oracle's after each of 5 appends."""
    from perfbench.oracle import Oracle
    from perfbench.workloads import QueryStream, parser, stopwords_of
    from test_oracle_gate import _wrong_answers

    from whoosh_reloaded_ray.pipelines.build import build_index

    idx_dir = str(tmp_path / "idx5")
    build_index([corpus], idx_dir, num_shards=4, partition_rows=125)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()
    batches = [
        _marked_batch(corpus, str(tmp_path / f"c{i}.parquet"), 50, f"zzcycle{i}x")
        for i in range(5)
    ]
    every = texts + [t for b in batches for t in b]
    stop = stopwords_of(every)
    oracle = Oracle(stop)
    oracle.add(texts)
    stream = QueryStream(texts, stop, [3, 1], kinds=("term", "and", "or", "not"))
    queries = [stream.next() for _ in range(12)]
    qp = parser()
    ndocs = len(texts)
    searchers = [IndexSearcher(idx_dir)]  # held open: the readers live on
    assert _wrong_answers(searchers[0], qp, oracle, queries, ndocs, frozenset()) == []
    for i, b in enumerate(batches):
        write_ops.append_documents(idx_dir, [str(tmp_path / f"c{i}.parquet")])
        oracle.add(b)
        ndocs += len(b)
        searchers.append(IndexSearcher(idx_dir))
        assert _wrong_answers(searchers[-1], qp, oracle, queries, ndocs, frozenset()) == [], i
    reader = searchers[-1]._local_worker().readers[0]
    plists = [p for rg, _ in reader._row_groups._d.values() for p in rg.plists.values()]
    plists += [p for p, _ in reader._postings._d.values()]
    cached = [p._score_cache for p in plists if p._score_cache is not None]
    assert cached, "no scores cached on the first segment's lists"
    for key, scores in cached:
        assert isinstance(scores, np.ndarray)
        assert key[-1] == ndocs  # the newest generation's doc count


def test_small_append_runs_without_ray_initialized(idx, tmp_path):
    """A fresh process appends 512 rows, one partition and one shard, with
    Ray never initialized, and leaves it so."""
    path = str(tmp_path / "fresh.parquet")
    generate_transcripts(path, n_turns=512, avg_turn_words=20, seed=43, rows_per_file=512)
    script = (
        "import json, ray\n"
        "from whoosh_reloaded_ray.pipelines import write_ops\n"
        f"man = write_ops.append_documents({idx!r}, [{path!r}])\n"
        "print(json.dumps([ray.is_initialized(), man.segments[-1].num_shards]))\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        cwd=repo, env={**os.environ, "PYTHONPATH": repo},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [False, 1]
    assert IndexSearcher(idx).manifest.doc_count == 500 + 512


def test_in_process_appends_delete_and_optimize_match_oracle(ray_session, tmp_path, monkeypatch):
    """Three appends built in process, a delete and ``maybe_merge(optimize=
    True)``: both executors rank as the brute-force oracle does."""
    from perfbench.oracle import Oracle
    from perfbench.workloads import KIND_CYCLE, QueryStream, make_corpus, parser, stopwords_of
    from test_oracle_gate import _wrong_answers

    from whoosh_reloaded_ray.pipelines import build, merge
    from whoosh_reloaded_ray.pipelines.build import build_index

    corpus = str(tmp_path / "corpus.parquet")
    generate_transcripts(corpus, n_turns=768, seed=9, rows_per_file=256)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()
    paths = [str(tmp_path / f"b{i}.parquet") for i in range(3)]
    batches = [make_corpus(p, 128, 20 + i, f"mkinproc{i}x") for i, p in enumerate(paths)]
    stop = stopwords_of(texts + [t for b in batches for t in b])
    oracle = Oracle(stop)
    oracle.add(texts)
    stream = QueryStream(texts, stop, [9, 1])
    queries = [stream.next() for _ in range(2 * len(KIND_CYCLE))]
    idx_dir = str(tmp_path / "idx")
    build_index([corpus], idx_dir, num_shards=4, partition_rows=256)

    built_here = []
    build_in_process = build._build_in_process

    def counted(name, *args):
        built_here.append(name)
        return build_in_process(name, *args)

    monkeypatch.setattr(build, "_build_in_process", counted)
    ndocs = len(texts)
    for i, (path, batch) in enumerate(zip(paths, batches)):
        write_ops.append_documents(idx_dir, [path])
        oracle.add(batch)
        ndocs += len(batch)
        queries.append(("term", f"mkinproc{i}x", [f"mkinproc{i}x"]))
    assert len(built_here) == 3
    rare = next(w for w in stream.vocab if 2 <= stream.counts[w] <= 4)
    assert write_ops.delete_by_term(idx_dir, "text", rare) > 0
    deleted = frozenset(oracle.docs_with(rare, ndocs)[0].tolist())
    queries.append(("or", f"mkinproc1x OR {rare}", ["mkinproc1x", rare]))
    assert len(merge.maybe_merge(idx_dir, optimize=True).segments) == 1

    qp = parser()
    for executor in ("local", "ray"):
        with IndexSearcher(idx_dir, executor=executor, num_actors=1) as s:
            assert _wrong_answers(s, qp, oracle, queries, ndocs, deleted) == [], executor
