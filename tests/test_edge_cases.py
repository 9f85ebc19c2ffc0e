"""Edge-case robustness: empty corpora, null-only queries, empty results."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.query import And, Every, Not, Or, Phrase, Prefix, Term
from whoosh_reloaded_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def tiny(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field

    d = tmp_path_factory.mktemp("edgecorpus")
    path = str(d / "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "key": pa.array(["a", "b", "c"]),
                "body": pa.array(["only one doc has words", None, ""]),
            }
        ),
        path,
    )
    idx = str(tmp_path_factory.mktemp("edgeidx"))
    build_index(
        [path], idx,
        schema=IndexSchema(fields=[id_field("key"), text_field("body")]),
        num_shards=2, partition_rows=8,
    )
    return IndexSearcher(idx)


def test_build_with_empty_shards(ray_session, tmp_path):
    """More shards than terms: most write tasks get no rows and return no
    summary row; the segment still counts every term and posting."""
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field

    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"key": ["a", "b"], "body": ["two words", "words"]}), path)
    schema = IndexSchema(fields=[id_field("key"), text_field("body")])
    segs = [
        build_index([path], str(tmp_path / f"idx{n}"), schema=schema, num_shards=n).segments
        for n in (1, 64)
    ]
    assert [(s.n_terms, s.n_postings, s.field_lengths) for s in segs[0]] == [
        (s.n_terms, s.n_postings, s.field_lengths) for s in segs[1]
    ]
    hits = IndexSearcher(str(tmp_path / "idx64")).search(Term("body", "words"), limit=None)
    assert hits.num_rows == 2


def test_null_and_empty_texts(tiny):
    assert tiny.doc_count_all() == 3
    assert tiny.search(Term("body", "words"), limit=None).num_rows == 1
    # Every(body): only the doc with actual terms
    assert tiny.search(Every("body"), limit=None, scored=False).num_rows == 1
    # unfielded Every: all 3 (null/empty rows still exist as docs)
    assert tiny.search(Every(), limit=None, scored=False).num_rows == 3


def test_empty_results_everywhere(tiny):
    empty_q = [
        Term("body", "zzznope"),
        And([Term("body", "only"), Term("body", "zzznope")]),
        Or([]),
        Phrase("body", ["zzznope", "words"]),
        Prefix("body", "zzz"),
        And([Term("body", "only"), Not(Term("body", "only"))]),
    ]
    for q in empty_q:
        res = tiny.search(q, limit=10)
        assert res.num_rows == 0, q
        res2 = tiny.search(q, limit=None, scored=False)
        assert res2.num_rows == 0, q


def test_empty_result_apis(tiny):
    q = Term("body", "zzznope")
    assert tiny.search_sorted(q, "key").num_rows == 0
    assert tiny.facet_counts(q, "key") == {}
    assert tiny.search_grouped(q, "key") == {}
    assert tiny.search_collapsed(q, "key").num_rows == 0
    assert tiny.suggest("body", "zzzygote") == []
    assert tiny.key_terms([1], "body") == []  # doc with null text


def test_single_doc_phrase_and_wand(tiny):
    # phrase on the only real doc
    res = tiny.search(Phrase("body", ["one", "doc"]), limit=5)
    assert res.num_rows == 1
    # wand path with k > matches
    res = tiny.search(Or([Term("body", "only"), Term("body", "words")]), limit=50)
    assert res.num_rows == 1
