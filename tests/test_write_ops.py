"""Delete / append / update lifecycle: tombstone masking with unchanged
collection stats (whoosh deletion parity), append docnum continuity, and
update-by-unique-key semantics."""

from __future__ import annotations

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
