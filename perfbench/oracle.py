"""Brute-force reference answers for the benchmark's queries.

Scores every document by scanning the generated corpus text, with no use of
the engine's index, query evaluation or scoring code.  BM25F follows the
formula the engine documents (B=0.75, K1=1.2, idf = log(N / (df + 1)) + 1,
document length taken through the one-byte length quantization of
``functions.quant``); phrase matches are found by string search, and
prefix / wildcard / term-range matches by testing every corpus word.

Deletes are tombstones in the engine: deleted documents stay in the
collection statistics and only leave result sets, so every check takes the
number of documents indexed so far and the deleted docnums at query time.
"""

from __future__ import annotations

import fnmatch
import math

import numpy as np

from whoosh_reloaded_ray.functions.quant import bytes_to_lengths, lengths_to_bytes

B = 0.75
K1 = 1.2
SCORE_TOL = 1e-6
NOT_SCORE = 1.0  # a Not clause's per-doc score: 1.0 * its boost of 1


class Oracle:
    def __init__(self, stopwords: set):
        self.stopwords = stopwords
        self.padded: list = []  # per docnum: " tok tok ... " after stopping
        self.lengths = np.empty(0, np.int64)
        self.words: set = set()  # every token indexed so far
        self._postings: dict = {}  # term -> (docs, tfs) over docs scanned so far
        self._scanned: dict = {}  # term -> number of docs scanned for it

    def add(self, texts) -> None:
        """Append documents; their docnums continue from the current count."""
        toks = [[w for w in t.split() if w not in self.stopwords] for t in texts]
        self.padded.extend(" " + " ".join(t) + " " for t in toks)
        self.words.update(w for t in toks for w in t)
        self.lengths = np.concatenate(
            [self.lengths, np.array([len(t) for t in toks], np.int64)]
        )

    def docs_with(self, term: str, ndocs: int) -> tuple:
        """(docnums, term frequencies) of ``term`` among the first ``ndocs``."""
        start = self._scanned.get(term, 0)
        if start < len(self.padded):
            docs, tfs = self._postings.get(term, ([], []))
            docs, tfs = list(docs), list(tfs)
            needle = f" {term} "
            for d in range(start, len(self.padded)):
                s = self.padded[d]
                if needle in s:
                    docs.append(d)
                    tfs.append(s.split().count(term))
            self._postings[term] = (np.array(docs, np.int64), np.array(tfs, np.float64))
            self._scanned[term] = len(self.padded)
        docs, tfs = self._postings[term]
        keep = docs < ndocs
        return docs[keep], tfs[keep]

    def bm25(self, kind: str, terms: list, ndocs: int, deleted) -> dict:
        """{docnum: score} of a ``term`` / ``and`` / ``or`` query over the
        first ``ndocs`` documents, deleted docs removed.  ``not`` is
        ``terms[0] AND NOT terms[1]``: the And sums its left side's score and
        the constant 1.0 the engine documents for a Not clause."""
        lengths = self.lengths[:ndocs]
        avgfl = lengths.sum() / ndocs
        qlen = bytes_to_lengths(lengths_to_bytes(lengths)).astype(np.float64)
        scored = terms[:1] if kind == "not" else terms
        scores: dict = {}
        counts: dict = {}
        for term in scored:
            docs, tf = self.docs_with(term, ndocs)
            idf = math.log(ndocs / (docs.size + 1)) + 1
            fl = qlen[docs]
            s = idf * (tf * (K1 + 1.0)) / (tf + K1 * ((1.0 - B) + B * fl / avgfl))
            for d, v in zip(docs.tolist(), s.tolist()):
                scores[d] = scores.get(d, 0.0) + v
                counts[d] = counts.get(d, 0) + 1
        if kind == "and":
            scores = {d: v for d, v in scores.items() if counts[d] == len(terms)}
        drop = set(deleted)
        if kind == "not":
            scores = {d: v + NOT_SCORE for d, v in scores.items()}
            drop |= set(self.docs_with(terms[1], ndocs)[0].tolist())
        return {d: v for d, v in scores.items() if d not in drop}

    def doc_set(self, kind: str, words: list, ndocs: int, deleted) -> set:
        """Docnums matching a ``phrase`` of ``words``, or a ``prefix``,
        ``wildcard`` or ``range`` (``words`` = [low, high], both inclusive)
        over single words, among the first ``ndocs``, deleted docs removed."""
        if kind == "phrase":
            needle = " " + " ".join(words) + " "
            found = {d for d in range(ndocs) if needle in self.padded[d]}
            return found - set(deleted)
        if kind == "prefix":
            match = lambda w: w.startswith(words[0])  # noqa: E731
        elif kind == "wildcard":
            match = lambda w: fnmatch.fnmatchcase(w, words[0])  # noqa: E731
        else:
            match = lambda w: words[0] <= w <= words[1]  # noqa: E731
        found = set()
        for w in self.words:
            if match(w):
                found.update(self.docs_with(w, ndocs)[0].tolist())
        return found - set(deleted)


def check_ranked(expected: dict, docs: np.ndarray, scores: np.ndarray, limit: int) -> bool:
    """True if (docs, scores) is a valid top-``limit`` of ``expected``: the
    right number of hits, every hit scored as the oracle scores it, and the
    score at each rank equal to the oracle's (ties may order either way)."""
    want = sorted(expected.values(), reverse=True)[:limit]
    if len(docs) != len(want) or len(set(docs.tolist())) != len(docs):
        return False
    for d, s, w in zip(docs.tolist(), scores.tolist(), want):
        if d not in expected or abs(expected[d] - s) > SCORE_TOL or abs(s - w) > SCORE_TOL:
            return False
    return True
