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

    # two fields holding the same 9,000 words, one shard: the 18,000-row
    # files have three row groups, the middle one holding the end of
    # "role" and the start of "text", so its column statistics span both
    # fields and every word.  The row groups' first and last (field, term)
    # keys let a lookup read only the row group that holds its term.
    from whoosh_reloaded_ray.schema import IndexSchema, text_field

    path2 = str(tmp_path / "two_fields.parquet")
    texts = _distinct_words(path2, 9_000)
    t = pq.read_table(path2)
    pq.write_table(t.set_column(t.schema.get_field_index("role"), "role", pa.array(texts)), path2)
    d2 = str(tmp_path / "idx2")
    schema = IndexSchema(fields=[text_field("role"), text_field("text")])
    build_index([path2], d2, schema=schema, num_shards=1, partition_rows=9_000)

    def holding_groups(reader, name, field, term):
        pf = pq.ParquetFile(os.path.join(reader.dir, name))
        assert pf.metadata.num_row_groups == 3
        out = []
        for i in range(pf.num_row_groups):
            g = pf.read_row_group(i, columns=["field", "term"])
            if (field, term) in set(zip(g["field"].to_pylist(), g["term"].to_pylist())):
                out.append(i)
        return out

    lookups = [("role", "a00005"), ("role", "a08500"), ("text", "a00005"), ("text", "a08500")]
    for field, term in lookups:
        r2 = _reader(d2)
        reads.clear()
        doc = int(term[1:])
        assert r2.postings(field, term).docs.tolist() == [doc]
        for name in ("terminfo-0000.parquet", "postings-0000.parquet"):
            want = holding_groups(r2, name, field, term)
            assert len(want) == 1
            got = [rg for n, rgs in reads if n == name for rg in rgs]
            assert got == want, (field, term, name)

    # a file without the keys (an older writer's) falls back to the column
    # statistics: the same answers, the middle row group read as well
    for name in ("terminfo-0000.parquet", "postings-0000.parquet"):
        f = os.path.join(r2.dir, name)
        pq.write_table(pq.read_table(f).replace_schema_metadata(None), f, row_group_size=8192)
    for field, term in lookups:
        assert _reader(d2).postings(field, term).docs.tolist() == [int(term[1:])]
    reads.clear()
    assert _reader(d2).postings("role", "a00005").docs.tolist() == [5]
    assert [rg for n, rgs in reads if n == "postings-0000.parquet" for rg in rgs] == [0, 1]


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


@pytest.mark.parametrize("executor", ["local", "ray"])
@pytest.mark.parametrize("kind", ["postings", "terminfo", "doclens"])
def test_lost_shard_file_raises(index, tmp_path, executor, kind):
    """Every shard file a segment lists in ``SegmentMeta.files`` must be
    there: a deleted postings, terminfo or doclens file makes the next
    search that needs it raise, naming the file, on either executor,
    rather than read as an empty shard."""
    import shutil

    from whoosh_reloaded_ray.query import Every, Term
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    d = str(tmp_path / "idx")
    shutil.copytree(index, d)
    (seg,) = load_manifest(d).segments
    name = f"{kind}-0001.parquet"
    assert name in seg.files
    seg_dir = _reader(d).dir
    # a term held in shard 1 needs its terminfo and postings; Every needs
    # every shard's doclens
    q = Every("text") if kind == "doclens" else Term("text", _text_terms(seg_dir, 1)[0])
    os.remove(os.path.join(seg_dir, name))
    with IndexSearcher(d, executor=executor, num_actors=1) as s:
        with pytest.raises(FileNotFoundError, match=name):
            s.search(q, limit=None)


def test_unlisted_shard_files_read_as_empty(index, tmp_path, reads):
    """A shard file ``SegmentMeta.files`` does not list is an empty shard,
    answered without a read; a manifest without the list (written before
    it) reads a missing shard file as empty, as it always did."""
    import shutil

    from whoosh_reloaded_ray.query import Term
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    d = str(tmp_path / "idx")
    shutil.copytree(index, d)
    man = load_manifest(d)
    (seg,) = man.segments
    seg_dir = _reader(d).dir
    term = _text_terms(seg_dir, 1)[0]
    hits = IndexSearcher(d).search(Term("text", term), limit=None).num_rows
    assert hits > 0

    seg.files = [f for f in seg.files if not f.endswith("-0001.parquet")]
    r = SegmentReader(d, seg)
    del reads[:]
    assert r.terminfo("text", term) is None
    assert reads == []

    seg.files = None
    os.remove(os.path.join(seg_dir, "terminfo-0001.parquet"))
    s = IndexSearcher(d, manifest=man)
    assert s.search(Term("text", term), limit=None).num_rows == 0
