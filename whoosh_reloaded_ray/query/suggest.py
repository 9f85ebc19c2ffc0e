"""Spelling suggestions — behavioral parity with the reference's
ReaderCorrector (spelling.py:46-115).

The reference intersects a Levenshtein NFA (automata/lev.py: insert /
delete / substitute, NO transposition) with the sorted term dictionary,
then ranks candidates by ``score = -(maxdist + 0.5/frequency)`` — i.e. BY
COLLECTION FREQUENCY descending (the distance term is the constant
``maxdist``!), ties alphabetically.  We reproduce exactly that: candidate
terms come from the segment term dictionaries (pruned by the prefix bound
and a +-maxdist length filter — the sorted-parquet analogue of the DFA
intersection), verified with a banded edit-distance DP.
"""

from __future__ import annotations

import numpy as np


def levenshtein_within(a: str, b: str, k: int) -> bool:
    """True iff editdistance(a, b) <= k (row DP with early exit)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur = [i]
        best = i
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            cur.append(v)
            if v < best:
                best = v
        if best > k:
            return False
        prev = cur
    return prev[lb] <= k


def suggest(searcher, field: str, text: str, limit: int = 5, maxdist: int = 2, prefix: int = 0):
    """Reference Corrector.suggest: up to ``limit`` in-vocabulary words
    within ``maxdist`` edits (sharing a ``prefix``), ranked by frequency
    desc then alphabetically.  The checked word itself is excluded."""
    lo = text[:prefix] if prefix else None
    hi = (text[:prefix] + "￿") if prefix else None
    cands = set()
    spec = (field, lo, hi, False, False)
    for term in searcher._expand([spec])[spec]:
        if term != text and levenshtein_within(text, term, maxdist):
            cands.add(term)
    if not cands:
        return []
    freqs = searcher.frequencies([(field, t) for t in cands])
    items = [(-(maxdist + 0.5 / (freqs[(field, t)] or 1)), t) for t in cands]
    # the reference keeps a bounded heap of the LARGEST (score, text) tuples
    # (ties at the cut prefer lexicographically later text), then displays
    # sorted by (-score, text) — replicate both phases exactly
    items.sort(reverse=True)
    items = items[:limit]
    items.sort(key=lambda x: (-x[0], x[1]))
    return [t for _, t in items]


def _rank(items, limit: int):
    """Reference Corrector.suggest selection (spelling.py:46-73): bounded
    heap of the LARGEST (score, text) tuples, displayed by (-score, text)."""
    import heapq

    heap: list = []
    for item in items:
        if len(heap) < limit:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
    return [s for _, s in sorted(heap, key=lambda x: (-x[0], x[1]))]


class ListCorrector:
    """Suggestions from a plain word list (reference ListCorrector,
    spelling.py:117-151): score = -(smallest automaton distance >= 1), so
    ranking is distance ascending, ties alphabetical.  Like the reference,
    the checked word itself is NOT excluded (a distance-1 automaton accepts
    its center word)."""

    def __init__(self, wordlist):
        self.wordlist = list(wordlist)

    def _suggestions(self, text: str, maxdist: int, prefix: int):
        pre = text[:prefix]
        for w in self.wordlist:
            if prefix and not w.startswith(pre):
                continue
            for mxd in range(1, maxdist + 1):
                if levenshtein_within(text, w, mxd):
                    yield (-mxd, w)
                    break

    def suggest(self, text: str, limit: int = 5, maxdist: int = 2, prefix: int = 0):
        return _rank(self._suggestions(text, maxdist, prefix), limit)


class MultiCorrector:
    """Merges sub-correctors' suggestions, combining duplicate scores with
    ``op`` (reference MultiCorrector, spelling.py:154-172)."""

    def __init__(self, correctors, op=max):
        self.correctors = correctors
        self.op = op

    def _suggestions(self, text: str, maxdist: int, prefix: int):
        seen: dict = {}
        for corr in self.correctors:
            for score, sug in corr._suggestions(text, maxdist, prefix):
                seen[sug] = self.op(seen[sug], score) if sug in seen else score
        return ((score, sug) for sug, score in seen.items())

    def suggest(self, text: str, limit: int = 5, maxdist: int = 2, prefix: int = 0):
        return _rank(self._suggestions(text, maxdist, prefix), limit)


class Correction:
    """Corrected version of a user query (reference spelling.py:178-237):
    ``query`` / ``string`` are the corrected forms, ``original_query`` /
    ``original_string`` the inputs, ``tokens`` the corrected words with
    char spans into the original string.  ``format_string(formatter)``
    re-renders the original string with corrected words substituted and
    formatter-emphasized."""

    def __init__(self, q, qstring, corr_q, tokens):
        self.original_query = q
        self.query = corr_q
        self.original_string = qstring
        self.tokens = tokens
        self.string = (
            self.format_string(_null_formatter()) if qstring else ""
        )

    def __repr__(self):
        return f"{self.__class__.__name__}({self.query!r}, {self.string!r})"

    def format_string(self, formatter):
        if not self.original_string:
            return ""
        from .highlight import Fragment

        if isinstance(formatter, type):
            formatter = formatter()
        frag = Fragment(
            self.original_string, self.tokens, 0, len(self.original_string)
        )
        return formatter.format_fragment(frag, replace=True)


def _null_formatter():
    from .highlight import NullFormatter

    return NullFormatter()


def correct_query(
    searcher,
    q,
    qstring: str | None,
    correctors: dict | None = None,
    terms=None,
    maxdist: int = 2,
    prefix: int = 0,
    aliases: dict | None = None,
) -> Correction:
    """Reference Searcher.correct_query (searching.py:863-978): corrects
    query words that do not appear in the index (or exactly the given
    ``terms``), taking each word's FIRST suggestion — per-field suggestion
    sources come from the index, overridable via ``correctors``
    (Corrector objects) and ``aliases`` (query field -> suggestion field).

    The reference patches the query string via parser token char offsets;
    our parser is offset-free, so occurrences are located by
    case-insensitive whole-word match in ``qstring`` — identical output
    for ordinary query strings."""
    import dataclasses
    import re as _re

    from . import ast
    from .highlight import Token

    aliases = aliases or {}
    correctors = dict(correctors or {})

    # candidate terms: Term leaves + Phrase words
    qterms = list(dict.fromkeys(q.terms()))
    if terms is None:
        dfs = searcher._doc_freqs(qterms) if qterms else {}
        termset = {t for t in qterms if dfs.get(t, 0) == 0}
    else:
        termset = set(terms)

    replacements: dict = {}
    for f, text in qterms:
        if (f, text) not in termset:
            continue
        aname = aliases.get(f, f)
        corr = correctors.get(aname)
        sugs = (
            corr.suggest(text, maxdist=maxdist, prefix=prefix)
            if corr is not None
            else searcher.suggest(aname, text, maxdist=maxdist, prefix=prefix)
        )
        if sugs:
            replacements[(f, text)] = sugs[0]

    def fix(node):
        if isinstance(node, ast.Term):
            new = replacements.get((node.field, node.text))
            return dataclasses.replace(node, text=new) if new else node
        if isinstance(node, ast.Phrase):
            words = tuple(
                replacements.get((node.field, w), w) for w in node.words
            )
            return dataclasses.replace(node, words=words) if words != node.words else node
        kids = node.children()
        if not kids:
            return node
        if isinstance(node, (ast.And, ast.Or, ast.DisMax, ast.Sequence, ast.SpanOr)):
            return dataclasses.replace(node, subqueries=tuple(fix(c) for c in kids))
        if isinstance(node, (ast.AndNot, ast.AndMaybe, ast.Require, ast.Otherwise,
                             ast.SpanNot, ast.SpanBefore, ast.SpanContains,
                             ast.SpanCondition)):
            return dataclasses.replace(node, a=fix(node.a), b=fix(node.b))
        if isinstance(node, ast.Not):
            return dataclasses.replace(node, subquery=fix(node.subquery))
        if isinstance(node, (ast.SpanFirst, ast.ConstantScoreQuery)):
            return dataclasses.replace(node, child=fix(node.child))
        return node

    corr_q = fix(q)

    tokens = []
    if qstring:
        for (f, orig), new in replacements.items():
            for m in _re.finditer(
                r"(?<!\w)" + _re.escape(orig) + r"(?!\w)", qstring, _re.IGNORECASE
            ):
                tokens.append(Token(new, 0, m.start(), m.end(), matched=True))
        tokens.sort(key=lambda t: t.startchar)
    return Correction(q, qstring, corr_q, tokens)


class ReaderCorrector:
    """Suggestions from a field's indexed vocabulary (reference
    spelling.ReaderCorrector, spelling.py:89-115): candidates come from
    the field's spelling vocabulary (``spell_<field>`` when the field
    separates spelling), scored ``-(maxdist + 0.5/frequency)`` — so
    ranking is frequency desc, ties alphabetical.  Unlike
    ``Searcher.suggest``, the checked word itself IS eligible (the
    reference class does not exclude it)."""

    def __init__(self, reader, fieldname: str, fieldobj=None):
        # accepts the compat Reader / Searcher or an IndexSearcher
        self._s = getattr(reader, "_s", reader)
        self.fieldname = fieldname

    def _suggestions(self, text: str, maxdist: int, prefix: int):
        s = self._s
        sugfield = (
            s.spelling_fieldname(self.fieldname)
            if hasattr(s, "spelling_fieldname")
            else self.fieldname
        )
        cands = [
            t
            for t in s.lexicon(sugfield, prefix=text[:prefix] if prefix else "")
            if levenshtein_within(text, t, maxdist)
        ]
        freqs = s.frequencies([(self.fieldname, t) for t in cands])
        for t in cands:
            f = freqs.get((self.fieldname, t), 0) or 1
            yield (-(maxdist + 0.5 / f), t)

    def suggest(self, text: str, limit: int = 5, maxdist: int = 2, prefix: int = 0):
        return _rank(self._suggestions(text, maxdist, prefix), limit)


def levenshtein(a: str, b: str) -> int:
    """Plain Levenshtein distance (reference support/levenshtein.py)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * lb
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[lb]
