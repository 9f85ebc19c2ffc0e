"""A postings row group is decoded once, whole, when a ``SegmentReader``
reads it, and each term's posting list is a read-only slice of that
decode.  For every term of a fresh build, a merged segment, a shard file
of several row groups and a row group mixing float32 and varint weight
blocks, the slice must equal ``_decode_posting_columns`` run on the term's
own block rows (read back with pyarrow), and positional queries must still
match the corpus."""

from __future__ import annotations

import collections
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from test_segment_reader import _distinct_words
from whoosh_reloaded_ray import compat as wrr
from whoosh_reloaded_ray.functions.analysis import make_analyzer, standard_analyzer
from whoosh_reloaded_ray.functions.varint import decode_varints
from whoosh_reloaded_ray.pipelines import merge, write_ops
from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.query import Phrase
from whoosh_reloaded_ray.query.exec import SegmentReader, _decode_posting_columns
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.stages.segment_write import WEIGHTS_FLOAT32, WEIGHTS_VARINT
from whoosh_reloaded_ray.state.manifest import load_manifest
from whoosh_reloaded_ray.state.searcher import IndexSearcher


def _term_rows(table):
    """((field, term), first row, end row) of each term's block rows."""
    keys = list(zip(table["field"].to_pylist(), table["term"].to_pylist()))
    out, lo = [], 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[lo]:
            out.append((keys[lo], lo, i))
            lo = i
    return out


def _loop_weights(table) -> np.ndarray:
    """Block rows' weights decoded one block at a time, by its wflag: the
    reference for the vectorized mixed-encoding decode."""
    out = []
    for flag, blob, n in zip(*(table[c].to_pylist() for c in ("wflag", "weights", "count"))):
        if flag == WEIGHTS_VARINT:
            out.append(decode_varints(blob, count=n).astype(np.float64))
        else:
            out.append(np.frombuffer(blob, dtype="<f4").astype(np.float64))
    return np.concatenate(out)


def _check_every_term(index_dir: str) -> dict:
    """Compare every term's posting list with a decode of its own block
    rows; returns {(segment, shard): wflags per row group} of the files."""
    wflags = {}
    for seg in load_manifest(index_dir).segments:
        r = SegmentReader(index_dir, seg)
        for shard in range(seg.num_shards):
            path = os.path.join(r.dir, f"postings-{shard:04d}.parquet")
            if not os.path.exists(path):
                continue
            pf = pq.ParquetFile(path)
            wflags[seg.name, shard] = [
                set(pf.read_row_group(i, columns=["wflag"])["wflag"].to_pylist())
                for i in range(pf.num_row_groups)
            ]
            table = pf.read()
            for (field, term), lo, hi in _term_rows(table):
                rows = table.slice(lo, hi - lo)
                want = _decode_posting_columns(rows)
                np.testing.assert_array_equal(want[1], _loop_weights(rows))
                plist = r.postings(field, term)
                got = (plist.docs, plist.weights, plist.len_bytes, plist.block_starts, plist.block_counts)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w, err_msg=f"{seg.name} {field}:{term}")
                    assert not g.flags.writeable
                assert r.postings(field, term) is plist
        for rg, _ in r._row_groups._d.values():
            if rg.postings is not None:
                assert not any(a.flags.writeable for a in rg.postings)
    return wflags


def _phrases_match(index_dir: str, texts: list, n: int = 40) -> None:
    """Phrase searches over adjacent word pairs equal a scan of the texts."""
    an = make_analyzer(standard_analyzer())
    toks = [[w for w, _ in an(t)] for t in texts]
    pairs = collections.Counter(
        (a, b) for ts in toks for a, b in zip(ts, ts[1:])
    )
    s = IndexSearcher(index_dir)
    for (a, b), _ in pairs.most_common(n):
        want = [d for d, ts in enumerate(toks) if any(p == (a, b) for p in zip(ts, ts[1:]))]
        got = s.search(Phrase("text", [a, b]), limit=None, scored=False)["docnum"].to_pylist()
        assert sorted(got) == want, (a, b)


def test_fresh_build_and_merged_segment(ray_session, tmp_path):
    corpus, extra = str(tmp_path / "c.parquet"), str(tmp_path / "e.parquet")
    generate_transcripts(corpus, n_turns=600, avg_turn_words=20, seed=41, rows_per_file=150)
    generate_transcripts(extra, n_turns=200, avg_turn_words=20, seed=42, rows_per_file=200)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()
    d = str(tmp_path / "idx")
    build_index([corpus], d, num_shards=2, rows_per_segment=300, partition_rows=150)
    _check_every_term(d)
    _phrases_match(d, texts)
    write_ops.append_documents(d, [extra])
    man = merge.maybe_merge(d, optimize=True)
    assert len(man.segments) == 1 and man.segments[0].name.endswith("-merged")
    _check_every_term(d)
    _phrases_match(d, texts + pq.read_table(extra, columns=["text"])["text"].to_pylist())


def test_term_across_row_groups(ray_session, tmp_path):
    # test_segment_reader's multi-row-group index: the hot term's block
    # rows span the first postings row group's end
    from whoosh_reloaded_ray.schema import IndexSchema, text_field

    hot = "a08150h"
    path = str(tmp_path / "distinct.parquet")
    _distinct_words(path, 9_000, extra=lambda i: hot if i % 3 else "")
    d = str(tmp_path / "idx")
    build_index([path], d, schema=IndexSchema(fields=[text_field("text")]), num_shards=1,
                partition_rows=9_000)
    (seg,) = load_manifest(d).segments
    r = SegmentReader(d, seg)
    assert len(r._block_runs("text", hot)) == 2
    assert [len(v) for v in _check_every_term(d).values()] == [2]
    # a term across row groups is a copy, positions included
    plist = r.postings("text", hot, need_positions=True)
    assert plist.docs.tolist() == [i for i in range(9_000) if i % 3]
    assert all(plist.positions_for(i).tolist() == [1] for i in (0, plist.docs.size - 1))


@pytest.fixture()
def mixed_weights(ray_session, tmp_path):
    """One shard whose merged row group holds a varint-weight segment's
    blocks and a float-weight segment's (DelimitedAttributeFilter boosts
    become posting weights)."""
    from whoosh_reloaded_ray.analysis import DelimitedAttributeFilter, RegexTokenizer

    ana = RegexTokenizer(r"\S+") | DelimitedAttributeFilter()
    schema = wrr.Schema(f=wrr.TEXT(analyzer=ana), g=wrr.TEXT())
    d = str(tmp_path / "mixed")
    ix = wrr.create_in(d, schema)
    words = [f"w{i:02d}" for i in range(40)]
    rng = np.random.default_rng(9)
    for weighted in (False, True):
        w = ix.writer(num_shards=1, partition_rows=64)
        for i in range(300):
            ws = rng.choice(words, 6)
            f = " ".join(f"{x}^{rng.integers(1, 8) / 4}" if weighted else x for x in ws)
            w.add_document(f=f, g=" ".join(rng.choice(words, 4)))
        w.commit(merge=False)
    ix.optimize()
    return d


def test_float_and_varint_blocks_in_one_row_group(mixed_weights):
    wflags = _check_every_term(mixed_weights)
    assert {WEIGHTS_FLOAT32, WEIGHTS_VARINT} in [f for fs in wflags.values() for f in fs]
    (seg,) = load_manifest(mixed_weights).segments
    weights = SegmentReader(mixed_weights, seg).postings("f", "w00").weights
    assert (weights != np.round(weights)).any() and (weights == np.round(weights)).any()
