"""SegmentReader's read path: each shard file row group is read once per
reader and then answered from memory; a term a segment lacks reads no
postings file; a shard file of several row groups is read only where the
term can be; and the answers equal a parquet filter's over the same files.

Reads are counted by wrapping ``storage.read_parquet``, the one function
every index data read goes through."""

from __future__ import annotations

import collections
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.query.exec import SegmentReader, _decode_posting_columns
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.stages.tokenize import _shard_of
from whoosh_reloaded_ray.state import storage
from whoosh_reloaded_ray.state.manifest import load_manifest

SHARDS = 2


@pytest.fixture()
def reads(monkeypatch):
    """Every ``storage.read_parquet`` call, as (file name, row groups)."""
    log = []
    read = storage.read_parquet

    def counting(path, *args, **kw):
        log.append((path.rsplit("/", 1)[-1], kw.get("row_groups")))
        return read(path, *args, **kw)

    monkeypatch.setattr(storage, "read_parquet", counting)
    return log


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("srcorpus") / "t.parquet")
    generate_transcripts(path, n_turns=1_500, avg_turn_words=20, seed=23, rows_per_file=500)
    return path


@pytest.fixture(scope="module")
def index(corpus, ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("sridx") / "idx")
    build_index([corpus], d, num_shards=SHARDS, partition_rows=500)
    return d


def _reader(index_dir: str) -> SegmentReader:
    (seg,) = load_manifest(index_dir).segments
    return SegmentReader(index_dir, seg)


def _filtered(seg_dir: str, name: str, filters, columns=None) -> pa.Table:
    """What a parquet filter on the file returns: the reference answer."""
    return pq.read_table(os.path.join(seg_dir, name), columns=columns, filters=filters)


def _text_terms(seg_dir: str, shard: int) -> list:
    t = _filtered(seg_dir, f"terminfo-{shard:04d}.parquet", [("field", "=", "text")])
    return t["term"].to_pylist()


def test_many_lookups_read_each_shard_file_once(index, reads):
    r = _reader(index)
    terms = _text_terms(r.dir, 0)[::7][:40]
    assert len(terms) == 40
    for term in terms:
        filters = [("field", "=", "text"), ("term", "=", term)]
        info = _filtered(r.dir, "terminfo-0000.parquet", filters).to_pylist()
        assert [r.terminfo("text", term)] == info
        want = _decode_posting_columns(_filtered(r.dir, "postings-0000.parquet", filters))
        plist = r.postings("text", term)
        np.testing.assert_array_equal(plist.docs, want[0])
        np.testing.assert_array_equal(plist.weights, want[1])
        assert r.block_meta("text", term)["count"].sum() == info[0]["doc_freq"]
        assert r.postings("text", term, need_positions=True).positions_for(0).size > 0
    assert collections.Counter(name for name, _ in reads) == {
        "terminfo-0000.parquet": 1, "postings-0000.parquet": 1,
    }


def test_absent_term_reads_no_postings_file(index, reads):
    r = _reader(index)
    term = "zzabsentzz"
    assert r.terminfo("text", term) is None
    assert r.postings("text", term) is None
    assert r.block_meta("text", term) is None
    assert reads == [(f"terminfo-{_shard_of('text', term, SHARDS):04d}.parquet", [0])]


def test_expand_terms_and_prefix_match_a_parquet_filter(index, reads):
    r = _reader(index)
    vocab = sorted(t for s in range(SHARDS) for t in _text_terms(r.dir, s))
    lo, hi = vocab[len(vocab) // 4], vocab[len(vocab) // 2]
    assert r.expand_terms("text") == vocab
    assert r.expand_terms("text", lo, hi) == [t for t in vocab if lo <= t <= hi]
    assert r.expand_terms("text", lo, hi, True, True) == [t for t in vocab if lo < t < hi]
    assert r.expand_terms("nosuchfield") == []
    prefix = vocab[len(vocab) // 3][:2]
    want = {}
    for s in range(SHARDS):
        t = _filtered(r.dir, f"terminfo-{s:04d}.parquet", [
            ("field", "=", "text"), ("term", ">=", prefix), ("term", "<", prefix + "\uffff"),
        ])
        for term, w, df in zip(*(t[c].to_pylist() for c in ("term", "weight_sum", "doc_freq"))):
            want[term] = (w, df)
    assert want and r.terminfo_prefix("text", prefix) == want
    assert len(r.terminfo_prefix("text")) == len(vocab)
    # every call above is answered from the two terminfo files, read once
    assert sorted(name for name, _ in reads) == [
        f"terminfo-{s:04d}.parquet" for s in range(SHARDS)
    ]


def test_doclens_and_field_docs_match_a_parquet_filter(index, reads):
    r = _reader(index)
    docs, lens = [], np.zeros(r.seg.doc_count, dtype=np.uint8)
    for s in range(SHARDS):
        t = _filtered(r.dir, f"doclens-{s:04d}.parquet", [("field", "=", "text")])
        docs += t.filter(pc.greater(t["length"], 0))["docnum"].to_pylist()
        lens[t["docnum"].to_numpy()] = t["len_byte"].to_numpy()
    assert r.field_docs("text").tolist() == sorted(docs)
    np.testing.assert_array_equal(r.doclens("text"), lens)
    assert len(reads) == SHARDS


def test_file_uri_index_reads_the_same(corpus, ray_session, tmp_path, index):
    uri = "file://" + str(tmp_path / "viafs")
    build_index([corpus], uri, num_shards=SHARDS, partition_rows=500)
    plain, via = _reader(index), _reader(uri)
    for term in _text_terms(plain.dir, 1)[::50]:
        assert via.terminfo("text", term) == plain.terminfo("text", term)
        np.testing.assert_array_equal(
            via.postings("text", term).docs, plain.postings("text", term).docs
        )
    assert via.expand_terms("text") == plain.expand_terms("text")
    np.testing.assert_array_equal(via.doclens("text"), plain.doclens("text"))


def _distinct_words(path: str, n_turns: int, prefix="a", extra=lambda i: "") -> list:
    """A corpus of ``n_turns`` turns, turn i's text the distinct word
    ``{prefix}{i:05d}`` followed by ``extra(i)``; returns the texts."""
    generate_transcripts(path, n_turns=n_turns, avg_turn_words=2, seed=5, rows_per_file=n_turns)
    t = pq.read_table(path)
    texts = [f"{prefix}{i:05d} {extra(i)}".strip() for i in range(t.num_rows)]
    pq.write_table(t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts)), path)
    return texts


def test_large_shard_reads_only_row_groups_holding_the_term(ray_session, tmp_path, reads):
    # 9,000 turns of one distinct word each, one shard: the shard's
    # terminfo and postings files hold more than one 8,192-row row group
    path = str(tmp_path / "distinct.parquet")
    _distinct_words(path, 9_000)
    d = str(tmp_path / "idx")
    build_index([path], d, num_shards=1, partition_rows=9_000)
    r = _reader(d)
    pf = pq.ParquetFile(os.path.join(r.dir, "postings-0000.parquet"))
    assert pf.metadata.num_row_groups > 1
    holding = [
        i for i in range(pf.num_row_groups)
        if "a00000" in pf.read_row_group(i, columns=["term"])["term"].to_pylist()
    ]
    reads.clear()
    assert r.postings("text", "a00000").docs.tolist() == [0]
    # the later row groups' term statistics start above "a00000", so a
    # parquet filter would skip them too
    assert [rg for name, rg in reads if name.startswith("postings")] == [holding]
    # a second lookup in a row group already read reads nothing
    reads.clear()
    assert r.postings("text", "a00001").docs.tolist() == [1]
    assert reads == []
    assert r.postings("text", "a08999").docs.tolist() == [8999]


def test_term_across_row_groups_reads_in_doc_order(ray_session, tmp_path):
    """A term's block rows that span two row groups of its shard's postings
    file come back in doc order with no re-sort, in a fresh build and after
    an optimize merge: the writer and the merge both sort block rows by
    (field, term, doc_min).  With a text-only schema the hot term's block
    rows follow the 8,151 words below it, across the first 8,192-row row
    group's end."""
    from whoosh_reloaded_ray.pipelines import merge, write_ops
    from whoosh_reloaded_ray.schema import IndexSchema, text_field

    hot = "a08150h"

    def extra(i):
        return hot if i % 3 else ""

    path, batch = str(tmp_path / "distinct.parquet"), str(tmp_path / "batch.parquet")
    texts = _distinct_words(path, 9_000, extra=extra)
    d = str(tmp_path / "idx")
    schema = IndexSchema(fields=[text_field("text")])
    build_index([path], d, schema=schema, num_shards=1, partition_rows=9_000)

    def check():
        r = _reader(d)
        pf = pq.ParquetFile(os.path.join(r.dir, "postings-0000.parquet"))
        holding = [
            i for i in range(pf.num_row_groups)
            if hot in pf.read_row_group(i, columns=["term"])["term"].to_pylist()
        ]
        assert len(holding) == 2 and len(r._block_runs("text", hot)) == 2
        doc_min = r.block_meta("text", hot)["doc_min"].astype(np.int64)
        assert np.all(np.diff(doc_min) >= 0)
        want = [doc for doc, text in enumerate(texts) if hot in text.split()]
        assert r.postings("text", hot).docs.tolist() == want

    check()
    # the batch's own words sort above the hot term, so the merged file's
    # row group boundary still falls inside the hot term's block rows
    texts += _distinct_words(batch, 1_000, prefix="b", extra=extra)
    write_ops.append_documents(d, [batch])
    merge.maybe_merge(d, optimize=True)
    check()


def test_missing_postings_file_raises(index, tmp_path):
    """A shard whose terminfo holds a term but whose postings file is gone
    raises, naming the file, instead of answering with no postings."""
    import shutil

    from whoosh_reloaded_ray.query import Term
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    d = str(tmp_path / "idx")
    shutil.copytree(index, d)
    seg_dir = _reader(d).dir
    os.remove(os.path.join(seg_dir, "postings-0001.parquet"))
    held = _text_terms(seg_dir, 1)[0]
    intact = _text_terms(seg_dir, 0)[0]
    s = IndexSearcher(d)
    assert s.search(Term("text", intact), limit=None).num_rows > 0
    with pytest.raises(FileNotFoundError, match="postings-0001.parquet"):
        s.search(Term("text", held), limit=None)
