"""Results are filtered against sorted, unique docnum arrays (tombstones,
a search's ``mask`` and ``filter`` doc sets, an And's NOT children) by one
``searchsorted`` (``exec._sorted_isin``) rather than ``np.isin``.  The masks
must equal ``np.isin``'s, and every search path must drop exactly the
deleted docs: deleted docs at a segment's first and last docnum, a
tombstone past the last segment, and no tombstones at all, on the WAND
path, the full-evaluation path and the collector path (``_matches``), on
both executors."""

from __future__ import annotations

import collections
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.functions.analysis import make_analyzer, standard_analyzer
from whoosh_reloaded_ray.pipelines.build import build_index
from whoosh_reloaded_ray.pipelines.write_ops import _write_tombstones
from whoosh_reloaded_ray.query import And, Not, Or, Term
from whoosh_reloaded_ray.query.exec import _sorted_isin
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.state.manifest import load_manifest
from whoosh_reloaded_ray.state.searcher import IndexSearcher

TURNS, PER_SEGMENT = 600, 300


@pytest.fixture(scope="module")
def base(ray_session, tmp_path_factory):
    """A two-segment index, its turn texts and each segment's (first, last)
    docnum."""
    tmp = tmp_path_factory.mktemp("sortedfilter")
    corpus = str(tmp / "corpus.parquet")
    generate_transcripts(corpus, n_turns=TURNS, avg_turn_words=20, seed=31, rows_per_file=150)
    texts = pq.read_table(corpus, columns=["text"])["text"].to_pylist()
    idx = str(tmp / "idx")
    build_index([corpus], idx, num_shards=2, rows_per_segment=PER_SEGMENT, partition_rows=150)
    segs = load_manifest(idx).segments
    assert len(segs) == 2
    bounds = [(s.doc_base, s.doc_base + s.doc_count - 1) for s in segs]
    return idx, texts, bounds


def _cases(bounds) -> dict:
    (f0, l0), (f1, l1) = bounds
    return {
        "none": [],
        "segment_ends": [f0, l0, f1, l1],
        "past_last_segment": [l1 + 1, l1 + 7],
        "mixed": [f0, l0 - 3, l1, l1 + 2],
    }


def _queries(texts, bounds):
    """Term, Or-of-Terms (WAND), And and And-NOT queries over words the
    segment-end docs hold, so their postings start and end at the deleted
    docs."""
    an = make_analyzer(standard_analyzer())
    counts = collections.Counter(w for t in texts for w, _ in an(t))
    words = []
    for d in (b for pair in bounds for b in pair):
        ws = sorted({w for w, _ in an(texts[d])}, key=lambda w: (-counts[w], w))
        words += [w for w in ws[:2] if w not in words]
    terms = [Term("text", w) for w in words]
    return {
        "term": terms[0],
        "or": Or(terms),
        "and": And(terms[:2]),
        "and_not": And([terms[0], Not(terms[1])]),
    }


def _expected(full, deleted, limit):
    docs = full["docnum"].to_numpy()
    keep = ~np.isin(docs, np.asarray(deleted, dtype=np.uint64))
    docs, scores = docs[keep], full["score"].to_numpy()[keep]
    return (docs, scores) if limit is None else (docs[:limit], scores[:limit])


def test_sorted_membership_equals_isin(base):
    idx, _, bounds = base
    every = np.arange(bounds[1][1] + 1, dtype=np.uint64)
    rng = np.random.default_rng(3)
    cands = [every, np.sort(rng.choice(every, 50, replace=False)), every[:0]]
    for deleted in _cases(bounds).values():
        table = np.asarray(deleted, dtype=np.uint64)
        for cand in cands:
            np.testing.assert_array_equal(_sorted_isin(cand, table), np.isin(cand, table))


@pytest.mark.parametrize("executor", ["local", "ray"])
def test_deleted_docs_are_dropped_on_every_path(base, tmp_path, executor):
    idx, texts, bounds = base
    queries = _queries(texts, bounds)
    reference = IndexSearcher(idx)
    full = {name: reference.search(q, limit=None) for name, q in queries.items()}
    # the Or matches every segment-end doc, so each deletion shows
    assert np.isin([b for pair in bounds for b in pair], full["or"]["docnum"].to_numpy()).all()
    for case, deleted in _cases(bounds).items():
        d = str(tmp_path / case)
        shutil.copytree(idx, d)
        if deleted:
            _write_tombstones(d, load_manifest(d), np.asarray(deleted, dtype=np.uint64))
        with IndexSearcher(d, executor=executor, num_actors=2 if executor == "ray" else None) as s:
            for name, q in queries.items():
                # limit=None evaluates fully; a limit takes the WAND path
                # for the term and Or queries, top-k of the full path else
                for limit in (None, 10, 10_000):
                    want_docs, want_scores = _expected(full[name], deleted, limit)
                    got = s.search(q, limit=limit)
                    np.testing.assert_array_equal(
                        got["docnum"].to_numpy(), want_docs, err_msg=f"{case} {name} {limit}"
                    )
                    np.testing.assert_allclose(got["score"].to_numpy(), want_scores)
                # the collector path: every match, grouped on the workers
                groups = s.search_grouped(q, "role", maptype="ordered")
                got = np.sort(np.array([x for ds in groups.values() for x in ds], dtype=np.uint64))
                np.testing.assert_array_equal(got, np.sort(_expected(full[name], deleted, None)[0]))
            # mask and filter doc sets arrive in score order (an unscored
            # Or scores a doc by its matching terms); the search sorts them
            # before the workers filter by sorted search
            sets = Or(queries["or"].subqueries[:3])
            matched = reference.search(sets, limit=None, scored=False)["docnum"].to_numpy()
            assert (np.diff(matched.astype(np.int64)) < 0).any()
            for name in ("term", "or", "and"):
                docs = _expected(full[name], deleted, None)[0]
                inside = np.isin(docs, matched)
                got = s.search(queries[name], limit=None, mask=sets)["docnum"].to_numpy()
                np.testing.assert_array_equal(got, docs[~inside])
                got = s.search(queries[name], limit=10, filter=sets)["docnum"].to_numpy()
                np.testing.assert_array_equal(got, docs[inside][:10])
