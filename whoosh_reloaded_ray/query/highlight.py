"""Highlighting — behavioral parity with the reference highlight module
(highlight.py: set_matched_filter -> fragmenter -> top_fragments ->
formatter pipeline).  Implemented fragmenters: Whole, Context; scorer:
BasicFragmentScorer (boost sum x 100·distinct-terms); formatters:
Uppercase, Html, Null.  Char-offset tokens come from a chars-aware run of
the field's analyzer with stop words RETAINED (the reference calls the
analyzer with removestops=False so context lengths include stopped
tokens)."""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dfield

DEFAULT_CHARLIMIT = 2**15


@dataclass
class Token:
    text: str
    pos: int
    startchar: int
    endchar: int
    matched: bool = False
    boost: float = 1.0
    fieldname: str | None = None  # set by Query.all_tokens


@dataclass
class Fragment:
    text: str
    matches: list
    startchar: int = 0
    endchar: int = 0

    @property
    def matched_terms(self):
        return {t.text for t in self.matches}

    def __len__(self):
        return self.endchar - self.startchar


def analyze_with_chars(spec, text: str):
    """Char-offset token stream for highlighting: regex tokens with the
    ORIGINAL char spans but the INDEXED token text (lowered / charset-
    folded / stemmed), so matched-term decisions line up with parsed
    query terms on stemming fields (the reference's Token keeps raw
    spans while StemFilter mutates the text).  Stops kept."""
    from ..functions.analysis import charmap_table, resolve_stemmer

    pat = re.compile(spec.pattern, re.UNICODE)
    if spec.kind == "ngramwords":
        # gram tokens with char spans INSIDE each word (reference NGRAMWORDS
        # highlighting uppercases the matched gram spans, test_highlighting
        # test_highlight_ngrams); index-mode gram set
        gmin, gmax, at = spec.ngram_min, spec.ngram_max, spec.ngram_at
        toks = []
        for pos, m in enumerate(pat.finditer(text)):
            w = m.group(0).lower()
            base = m.start()
            if len(w) < gmin:
                continue
            if at == "start":
                for size in range(gmin, min(gmax, len(w)) + 1):
                    toks.append(Token(w[:size], pos, base, base + size))
            elif at == "end":
                for i in range(max(0, len(w) - gmax), len(w) - gmin + 1):
                    toks.append(Token(w[i:], pos, base + i, base + len(w)))
            else:
                for start in range(0, len(w) - gmin + 1):
                    for size in range(gmin, gmax + 1):
                        if start + size <= len(w):
                            toks.append(
                                Token(w[start : start + size], pos,
                                      base + start, base + start + size)
                            )
        return toks
    if spec.kind == "ngram":
        # char grams over the raw lowered text
        gmin, gmax = spec.ngram_min, spec.ngram_max
        low = text.lower()
        toks = []
        pos = 0
        for start in range(0, max(0, len(low) - gmin + 1)):
            for size in range(gmin, gmax + 1):
                if start + size <= len(low):
                    toks.append(Token(low[start : start + size], pos, start, start + size))
                    pos += 1
        return toks
    stem = resolve_stemmer(spec) if spec.kind == "stemming" else None
    cmap = (
        charmap_table(spec.charmap) if getattr(spec, "charmap", None) else None
    )
    toks = []
    for i, m in enumerate(pat.finditer(text)):
        t = m.group(0)
        if spec.lowercase:
            t = t.lower()
        if cmap is not None:
            t = t.translate(cmap)
        if stem is not None:
            t = stem(t)
        toks.append(Token(t, i, m.start(), m.end()))
    return toks


# ---- fragmenters -----------------------------------------------------------


class WholeFragmenter:
    def __init__(self, charlimit=DEFAULT_CHARLIMIT):
        self.charlimit = charlimit

    def fragment_tokens(self, text, tokens):
        matches = []
        for t in tokens:
            if self.charlimit and t.endchar > self.charlimit:
                break
            if t.matched:
                matches.append(t)
        return [Fragment(text, matches, 0, len(text))]


class ContextFragmenter:
    """Aggregates matched terms with surrounding context (reference
    ContextFragmenter state machine, highlight.py:429-516)."""

    def __init__(self, maxchars=200, surround=20, charlimit=DEFAULT_CHARLIMIT):
        self.maxchars = maxchars
        self.surround = surround
        self.charlimit = charlimit

    def fragment_tokens(self, text, tokens):
        from collections import deque

        maxchars, surround, charlimit = self.maxchars, self.surround, self.charlimit
        first = None
        firsts = deque()
        countdown = -1
        tks: list = []
        endchar = None
        currentlen = 0
        out = []

        for t in tokens:
            startchar, endchar = t.startchar, t.endchar
            tlength = endchar - startchar
            if charlimit and endchar > charlimit:
                break
            if countdown < 0 and not t.matched:
                firsts.append(startchar)
                while firsts and endchar - firsts[0] > surround:
                    firsts.popleft()
            elif currentlen + tlength > maxchars:
                countdown = 0
            elif t.matched:
                countdown = surround
                if first is None:
                    if firsts:
                        first = firsts[0]
                    else:
                        first = startchar
                        countdown += surround
                tks.append(t)
            if countdown >= 0:
                currentlen += tlength
                countdown -= tlength
                if countdown <= 0:
                    out.append(Fragment(text, tks, first, endchar))
                    tks = []
                    firsts = deque()
                    first = None
                    currentlen = 0
        if tks:
            out.append(Fragment(text, tks, first, endchar))
        return out


class SentenceFragmenter:
    """Breaks on sentence-end punctuation right after a token's endchar
    (reference SentenceFragmenter, highlight.py:355-425; a '..'/'...' run
    does not end the sentence; only sentences containing matches and
    within maxchars are yielded)."""

    def __init__(self, maxchars=200, sentencechars=".!?", charlimit=DEFAULT_CHARLIMIT):
        self.maxchars = maxchars
        self.sentencechars = frozenset(sentencechars)
        self.charlimit = charlimit

    def fragment_tokens(self, text, tokens):
        textlen = len(text)
        first = None
        tks: list = []
        endchar = None
        currentlen = 0
        out = []
        for t in tokens:
            startchar, endchar = t.startchar, t.endchar
            if self.charlimit and endchar > self.charlimit:
                break
            if first is None:
                first = startchar
                currentlen = 0
            currentlen += endchar - startchar
            if t.matched:
                tks.append(t)
            if endchar < textlen and text[endchar] in self.sentencechars:
                if endchar + 1 < textlen and text[endchar + 1] in self.sentencechars:
                    continue  # "..." is not a sentence end
                if tks and currentlen <= self.maxchars:
                    out.append(Fragment(text, tks, first, endchar))
                tks = []
                first = None
                currentlen = 0
        if tks:
            out.append(Fragment(text, tks, first, endchar))
        return out


class PinpointFragmenter:
    """NON-RETOKENIZING fragmenter building fragments around runs of
    matched tokens with ``surround`` chars of context (reference
    PinpointFragmenter, highlight.py:517-607, incl. the _autotrim
    word-boundary trim)."""

    def __init__(self, maxchars=200, surround=20, autotrim=False, charlimit=DEFAULT_CHARLIMIT):
        self.maxchars = maxchars
        self.surround = surround
        self.autotrim = autotrim
        self.charlimit = charlimit

    @staticmethod
    def _trim(fragment: Fragment):
        text, startchar, endchar = fragment.text, fragment.startchar, fragment.endchar
        firstspace = text.find(" ", startchar, endchar)
        if firstspace > 0:
            startchar = firstspace + 1
        lastspace = text.rfind(" ", startchar, endchar)
        if lastspace > 0:
            endchar = lastspace
        if fragment.matches:
            startchar = min(startchar, fragment.matches[0].startchar)
            endchar = max(endchar, fragment.matches[-1].endchar)
        fragment.startchar, fragment.endchar = startchar, endchar

    def fragment_tokens(self, text, tokens):
        matched = [t for t in tokens if t.matched]
        out = []
        j = -1
        for i, t in enumerate(matched):
            if j >= i:
                continue
            j = i
            left, right = t.startchar, t.endchar
            if self.charlimit and right > self.charlimit:
                break
            currentlen = right - left
            while j < len(matched) - 1 and currentlen < self.maxchars:
                nxt = matched[j + 1]
                ec = nxt.endchar
                if ec - right <= self.surround and ec - left <= self.maxchars:
                    j += 1
                    right = ec
                    currentlen += ec - nxt.startchar
                else:
                    break
            left = max(0, left - self.surround)
            right = min(len(text), right + self.surround)
            frag = Fragment(text, matched[i : j + 1], left, right)
            if self.autotrim:
                self._trim(frag)
            out.append(frag)
        return out


# ---- scoring / selection ---------------------------------------------------


def basic_fragment_score(f: Fragment) -> float:
    score = sum(t.boost for t in f.matches)
    score *= (len(f.matched_terms) * 100) or 1
    return score


def FIRST(f: Fragment):
    return f.startchar


def LONGER(f: Fragment):
    return -len(f)


def SHORTER(f: Fragment):
    return len(f)


def top_fragments(fragments, count, scorer, order, minscore=1):
    # selection replicates the reference's heapq.nlargest over
    # (score, fragment) with Fragment.__lt__ comparing startchar: ties on
    # score prefer the LATER fragment (larger startchar), then input order
    scored = sorted(
        ((scorer(f), f.startchar or 0, i, f) for i, f in enumerate(fragments)),
        key=lambda x: (-x[0], -x[1], x[2]),
    )[:count]
    best = [f for s, _, _, f in scored if s >= minscore]
    best.sort(key=order)
    return best


# ---- formatters ------------------------------------------------------------


class Formatter:
    between = "..."

    def _text(self, text: str) -> str:
        """Hook for transforming plain (non-match) text — HtmlFormatter
        escapes here (reference Formatter._text)."""
        return text

    @staticmethod
    def _token_text(text, token, replace: bool) -> str:
        """replace=True substitutes the token's (corrected) .text for the
        original span — the reference's format_fragment(replace=True) used
        by Correction.format_string (highlight.py Formatter._text)."""
        return token.text if replace else text[token.startchar : token.endchar]

    def format_token(self, text, token, replace=False):
        raise NotImplementedError

    def format_fragment(self, fragment: Fragment, replace=False) -> str:
        output = []
        index = fragment.startchar
        text = fragment.text
        for t in sorted(
            fragment.matches, key=lambda t: (t.startchar, -(t.endchar - t.startchar))
        ):
            if t.startchar < index:
                continue
            if t.startchar > index:
                output.append(self._text(text[index : t.startchar]))
            output.append(self.format_token(text, t, replace))
            index = t.endchar
        output.append(self._text(text[index : fragment.endchar]))
        return "".join(output)

    def format(self, fragments) -> str:
        return self.between.join(self.format_fragment(f) for f in fragments)


class NullFormatter(Formatter):
    def format_token(self, text, token, replace=False):
        return self._token_text(text, token, replace)


class UppercaseFormatter(Formatter):
    def __init__(self, between="..."):
        self.between = between

    def format_token(self, text, token, replace=False):
        return self._token_text(text, token, replace).upper()


class HtmlFormatter(Formatter):
    """``<strong class="match term0">text</strong>`` markup with a stable
    per-term class index recycled modulo ``maxclasses``; plain text is
    HTML-escaped without quote escaping (reference HtmlFormatter)."""

    def __init__(self, tagname="strong", between="...", classname="match",
                 termclass="term", maxclasses=5, attrquote='"'):
        self.tagname = tagname
        self.between = between
        self.classname = classname
        self.termclass = termclass
        self.maxclasses = maxclasses
        self.attrquote = attrquote
        self.seen: dict = {}

    def _text(self, text: str) -> str:
        import html

        return html.escape(text, quote=False)

    def format_token(self, text, token, replace=False):
        ttxt = self._text(self._token_text(text, token, replace))
        if ttxt in self.seen:
            termnum = self.seen[ttxt]
        else:
            termnum = len(self.seen) % self.maxclasses
            self.seen[ttxt] = termnum
        q = self.attrquote
        return (
            f'<{self.tagname} class={q}{self.classname} '
            f'{self.termclass}{termnum}{q}>{ttxt}</{self.tagname}>'
        )

    def clean(self):
        self.seen = {}


class _GenshiAttrs(tuple):
    """Structural stand-in for genshi.core.Attrs (a tuple of (QName,
    value) pairs) when genshi isn't installed."""


class _GenshiStream(list):
    """Structural stand-in for genshi.core.Stream: an iterable event
    list (supports the ``list += stream`` concatenation the reference's
    GenshiFormatter.format relies on)."""


class GenshiFormatter(Formatter):
    """Genshi event stream around matched terms (reference
    highlight.py:850-914).  Imports genshi.core when available; without
    it, structurally equivalent stand-ins (event kinds as plain strings,
    Attrs/Stream as tuple/list subclasses) keep the event layout
    identical — genshi's own kinds are str subclasses, so downstream
    comparisons behave the same.

    Reference parity notes:
      * ``format_token`` wraps the token text in START/TEXT/END events;
      * ``format_fragment`` replicates the reference's quirk of appending
        the RAW ``(fragment_text, token, replace)`` triple per match
        (highlight.py:899) rather than the wrapped events — preserved
        exactly, quirks included;
      * ``_add_text`` merges adjacent TEXT events;
      * trailing text is bounded by ``len(text)``, not
        ``fragment.endchar`` (reference highlight.py:901-903)."""

    def __init__(self, qname="strong", between="..."):
        self.qname = qname
        self.between = between
        try:
            from genshi.core import END, START, TEXT, Attrs, Stream
        except ImportError:
            START, END, TEXT = "START", "END", "TEXT"
            Attrs, Stream = _GenshiAttrs, _GenshiStream
        self.START, self.END, self.TEXT = START, END, TEXT
        self.Attrs, self.Stream = Attrs, Stream

    def _add_text(self, text, output):
        if output and output[-1][0] == self.TEXT:
            output[-1] = (self.TEXT, output[-1][1] + text, output[-1][2])
        else:
            output.append((self.TEXT, text, (None, -1, -1)))

    def format_token(self, text, token, replace=False):
        qn = self.qname
        txt = self._token_text(text, token, replace)
        return self.Stream(
            [
                (self.START, (qn, self.Attrs()), (None, -1, -1)),
                (self.TEXT, txt, (None, -1, -1)),
                (self.END, qn, (None, -1, -1)),
            ]
        )

    def format_fragment(self, fragment: Fragment, replace=False):
        output: list = []
        index = fragment.startchar
        text = fragment.text
        for t in fragment.matches:
            if t.startchar > index:
                self._add_text(text[index : t.startchar], output)
            output.append((text, t, replace))
            index = t.endchar
        if index < len(text):
            self._add_text(text[index:], output)
        return self.Stream(output)

    def format(self, fragments, replace=False):
        output: list = []
        first = True
        for fragment in fragments:
            if not first:
                self._add_text(self.between, output)
            output += self.format_fragment(fragment, replace=replace)
            first = False
        return self.Stream(output)


# ---- top-level -------------------------------------------------------------


def _phrase_matched_indices(words: list, phrases) -> set:
    """Whitespace-word indices covered by strict phrase matches —
    replicates the reference set_matched_filter_phrases scan
    (highlight.py:179-266) including its raw ``text.split()`` alignment
    and the last-occurrence slop walk."""
    matches: set = set()
    for ph in phrases:
        pw = list(ph.words)
        n, slop = len(pw), ph.slop
        i = 0
        while i < len(words):
            if pw[0] != words[i]:
                i += 1
                continue
            if slop == 1:
                if words[i + 1 : i + n] == pw[1:]:
                    matches.update(range(i, i + n))
                    i += n  # skip past the match (overlaps ignored, like
                    # the reference)
                else:
                    i += 1
                continue
            # slop walk: take the LAST occurrence of each next word inside
            # the slop window so later words stay reachable
            cur = last = i
            chain = [i]
            ok = True
            for w in pw[1:]:
                sub = words[cur + 1 : cur + 1 + slop][::-1]
                if w not in sub:
                    i += 1
                    ok = False
                    break
                nxt = len(sub) - sub.index(w) - 1
                last = cur + nxt + 1
                chain.append(last)
                cur = last
            if ok:
                i = last
                matches.update(chain)
    return matches


def _strict_phrase_matches(raw_text: str, q) -> set:
    """Matched whitespace-word indices for strict-phrase highlighting:
    phrase chains plus individual term words (reference quirk kept: the
    scan is over ``text.split()`` and is field-agnostic)."""
    terms, phrases = q.phrases()
    words = raw_text.split()
    matches = _phrase_matched_indices(words, phrases)
    termtexts = {t.text for t in terms}
    for i, w in enumerate(words):
        if w in termtexts:
            matches.add(i)
    return matches


def highlight(
    text: str,
    terms,
    spec,
    fragmenter=None,
    formatter=None,
    top=3,
    scorer=basic_fragment_score,
    minscore=1,
    order=FIRST,
    strict_phrase_q=None,
):
    """Reference highlight() pipeline over a text + query term set.
    ``strict_phrase_q``: mark matches with the reference's strict-phrase
    token filter over this query's phrases instead of the plain term-set
    membership (Hit.highlights(strict_phrase=True))."""
    fragmenter = fragmenter or ContextFragmenter()
    formatter = formatter or UppercaseFormatter()
    termset = frozenset(terms)
    tokens = analyze_with_chars(spec, text)
    if strict_phrase_q is not None:
        matches = _strict_phrase_matches(text, strict_phrase_q)
        for i, t in enumerate(tokens):
            t.matched = i in matches
    else:
        for t in tokens:
            t.matched = t.text in termset
    fragments = fragmenter.fragment_tokens(text, tokens)
    fragments = top_fragments(fragments, top, scorer, order, minscore)
    return formatter.format(fragments)


def highlight_hit(searcher, docnum: int, fieldname: str, q, **kwargs) -> str:
    """Highlight a hit's field text (fetched via partition lineage) against
    the query's terms in that field.

    When the field stores Characters payloads (FieldSpec.chars=True),
    matched spans come straight from the INDEX postings — char-accurate
    even when the index-time analyzer isn't reconstructible from the text
    (stemming, synonyms); otherwise tokens are re-analyzed and matched by
    text (the reference's default pipeline)."""
    from ..sources.corpus import fetch_rows

    rows = fetch_rows(searcher.manifest.partitions, [docnum], columns=[fieldname])
    text = rows[fieldname][0].as_py() or ""
    # multiterm leaves (Prefix/Wildcard/Regex/Fuzzy/Variations) highlight
    # their EXPANDED terms (reference Hit.highlights runs expanded_terms);
    # the searcher rewrite exposes them as Term / ConstantTerms leaves
    from . import ast as _ast

    rq = searcher._rewrite(q)
    terms = {t for (f, t) in rq.terms() if f == fieldname}
    for leaf in rq.leaves():
        if isinstance(leaf, _ast.ConstantTerms) and leaf.field == fieldname:
            terms.update(leaf.termlist)
    fspec = next(f for f in searcher.manifest.schema.fields if f.name == fieldname)
    strict = kwargs.pop("strict_phrase", False)
    if strict:
        # strict phrase mode always retokenizes (the reference's strict
        # branch bypasses pinpoint char payloads too)
        return highlight(text, terms, fspec.analyzer, strict_phrase_q=q, **kwargs)
    if getattr(fspec, "chars", False):
        spans = payload_spans(searcher, docnum, fieldname, terms)
        if spans is not None:
            return highlight_with_spans(text, spans, fspec.analyzer, **kwargs)
    return highlight(text, terms, fspec.analyzer, **kwargs)


def payload_spans(searcher, docnum: int, fieldname: str, terms) -> set | None:
    """Union of (startchar, endchar) spans of ``terms`` in one doc, read
    from the Characters posting payloads of the owning segment."""
    spans: set = set()
    found_reader = False
    for r in searcher._local_worker().readers:
        seg = r.seg
        if not (seg.doc_base <= docnum < seg.doc_base + seg.doc_count):
            continue
        found_reader = True
        for t in terms:
            for s, e in r.char_spans(fieldname, t, docnum).tolist():
                spans.add((int(s), int(e)))
    return spans if found_reader else None


def highlight_with_spans(
    text: str,
    spans: set,
    spec,
    fragmenter=None,
    formatter=None,
    top=3,
    scorer=basic_fragment_score,
    minscore=1,
    order=FIRST,
):
    """highlight() with match decisions taken from index char spans instead
    of re-analyzed token text."""
    fragmenter = fragmenter or ContextFragmenter()
    formatter = formatter or UppercaseFormatter()
    tokens = analyze_with_chars(spec, text)
    for t in tokens:
        t.matched = (t.startchar, t.endchar) in spans
    fragments = fragmenter.fragment_tokens(text, tokens)
    fragments = top_fragments(fragments, top, scorer, order, minscore)
    return formatter.format(fragments)


def SCORE(f: Fragment):
    """Order marker: highest-scored passages first (reference
    highlight.py:626 — returns a constant so the score-descending
    pre-sort of top_fragments is left untouched)."""
    return 1


class FragmentScorer:
    """Base scorer (reference highlight.py:607)."""

    def __call__(self, f: Fragment) -> float:
        raise NotImplementedError


class BasicFragmentScorer(FragmentScorer):
    """Sum of matched-term boosts x 100x distinct-term diversity
    (reference highlight.py:611-619)."""

    def __call__(self, f: Fragment) -> float:
        return basic_fragment_score(f)


# deprecated alias kept by the reference (whole text as one fragment)
NullFragmeter = WholeFragmenter


class Highlighter:
    """Reusable highlighting configuration (reference
    highlight.py:961-1050): bundles fragmenter/scorer/formatter/order
    and highlights hits on demand.  Payload (Characters) spans are used
    automatically when the field stores them — the engine-side analog
    of can_load_chars()."""

    def __init__(self, fragmenter=None, scorer=None, formatter=None,
                 always_retokenize=False, order=FIRST):
        self.fragmenter = fragmenter or ContextFragmenter()
        self.scorer = scorer or BasicFragmentScorer()
        self.formatter = formatter or HtmlFormatter(tagname="b")
        self.order = order
        self.always_retokenize = always_retokenize

    def highlight_hit(self, hit, fieldname, text=None, top=3, minscore=1):
        """``hit`` is a compat Hit (carries its search context)."""
        return hit.highlights(
            fieldname, text=text, top=top, minscore=minscore,
            fragmenter=self.fragmenter, formatter=self.formatter,
            scorer=self.scorer, order=self.order,
        )
