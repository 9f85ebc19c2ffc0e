"""Whoosh-style convenience API over the Ray-Data engine.

Lets a user of the reference keep their ergonomic workflow
(``create_in -> writer.add_document -> commit -> searcher.search`` with
``Results``/``Hit`` objects and a query parser) while everything underneath
runs the Ray Data pipelines:

    from whoosh_reloaded_ray import compat as wrr

    schema = wrr.Schema(title=wrr.ID(stored=True), body=wrr.TEXT())
    ix = wrr.create_in("/tmp/myindex", schema)
    w = ix.writer()
    w.add_document(title="a", body="hello world")
    w.commit()
    with ix.searcher() as s:
        for hit in s.search(s.parse("hello"), limit=10):
            print(hit["title"], hit.score)

Documents buffer into a Parquet generation on ``commit()`` and index via
the standard build (or append) pipeline — the compat layer stores nothing
itself; it is schema translation + result shaping (mirrors the reference
API surface: index.create_in/open_dir, writing.IndexWriter.add_document,
searching.Searcher/Results/Hit).
"""

from __future__ import annotations

import glob as _glob
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .functions.analysis import (
    DEFAULT_TOKEN_PATTERN,
    STOP_WORDS,
    AnalyzerSpec,
    fancy_analyzer,
    id_analyzer,
    keyword_analyzer,
    language_analyzer,
    ngram_analyzer,
    ngramwords_analyzer,
    simple_analyzer,
    standard_analyzer,
    stemming_analyzer,
)
from .pipelines.build import build_index
from .pipelines.merge import maybe_merge
from .query.parser import QueryParser
from .schema import FieldSpec, IndexSchema, id_field, numeric_field, text_field
from .state.manifest import load_manifest
from .state.searcher import IndexSearcher


# ---- whoosh-named analyzer constructors (reference analysis/analyzers.py) --
# Each returns an AnalyzerSpec, accepted by TEXT(analyzer=...); whoosh's
# compiled-pattern arguments are unwrapped to their pattern strings.


def _pattern_of(expression) -> str:
    if expression is None:
        return DEFAULT_TOKEN_PATTERN
    pat = getattr(expression, "pattern", expression)
    flags = getattr(expression, "flags", 0)
    if flags:
        # keep a compiled pattern's flags (e.g. url_pattern is VERBOSE)
        # through the serializable string form via an inline flag group
        inline = "".join(
            ch for bit, ch in ((re.IGNORECASE, "i"), (re.MULTILINE, "m"),
                               (re.DOTALL, "s"), (re.VERBOSE, "x"))
            if flags & bit
        )
        if inline:
            pat = f"(?{inline}:{pat})"
    return pat


def _stops_of(stoplist):
    return None if stoplist is None else frozenset(stoplist)


def IDAnalyzer(lowercase=False):
    return id_analyzer(lowercase=lowercase)


def KeywordAnalyzer(lowercase=False, commas=False):
    return keyword_analyzer(lowercase=lowercase, commas=commas)


def RegexAnalyzer(expression=None, gaps=False):
    from dataclasses import replace

    return replace(
        simple_analyzer(), pattern=_pattern_of(expression), gaps=gaps,
        lowercase=False,
    )


def SimpleAnalyzer(expression=None, gaps=False):
    from dataclasses import replace

    return replace(
        simple_analyzer(), pattern=_pattern_of(expression), gaps=gaps
    )


def StandardAnalyzer(expression=None, stoplist=STOP_WORDS, minsize=2,
                     maxsize=None, gaps=False):
    from dataclasses import replace

    return replace(
        standard_analyzer(
            stopwords=_stops_of(stoplist), minsize=minsize, maxsize=maxsize
        ),
        pattern=_pattern_of(expression),
        gaps=gaps,
    )


def StemmingAnalyzer(expression=None, stoplist=STOP_WORDS, minsize=2,
                     maxsize=None, gaps=False, ignore=None,
                     cachesize=50000):
    from dataclasses import replace

    return replace(
        stemming_analyzer(
            stopwords=_stops_of(stoplist), minsize=minsize, maxsize=maxsize
        ),
        pattern=_pattern_of(expression),
        gaps=gaps,
    )


def FancyAnalyzer(expression=None, stoplist=STOP_WORDS, minsize=2,
                  gaps=False, mergewords=False, mergenums=False):
    return fancy_analyzer(
        stopwords=_stops_of(stoplist), minsize=minsize,
        mergewords=mergewords, mergenums=mergenums,
    )


def NgramAnalyzer(minsize, maxsize=None):
    return ngram_analyzer(minsize=minsize, maxsize=maxsize or minsize)


def NgramWordAnalyzer(minsize, maxsize=None, at=None):
    return ngramwords_analyzer(minsize=minsize, maxsize=maxsize, at=at)


def LanguageAnalyzer(lang, expression=None, gaps=False, cachesize=50000):
    from dataclasses import replace

    return replace(
        language_analyzer(lang, gaps=gaps), pattern=_pattern_of(expression)
    )


# ---- whoosh pipe-DSL analysis chain (reference analysis composition) -------
# ``RegexTokenizer() | LowercaseFilter() | StopFilter() | StemFilter()``
# compiles to an AnalyzerSpec; chains the spec can't represent raise a
# NameError-free, actionable TypeError instead of silently mis-analyzing.


class CompositionError(TypeError):
    """Raised for invalid analyzer compositions (reference
    analysis/acore.py CompositionError), e.g. a tokenizer mid-chain."""


class Token:
    """Mutable analysis token (reference analysis/acore.py Token).  The
    pipe-DSL __call__ path yields these so ported/user filters can mutate
    text/pos/boost/startchar/endchar in place.  All attributes are always
    present (a superset of what the reference sets conditionally)."""

    __slots__ = ("text", "pos", "startchar", "endchar", "boost", "mode",
                 "positions", "chars", "stopped", "original")

    def __init__(self, text="", pos=0, startchar=None, endchar=None,
                 boost=1.0, mode="", positions=False, chars=False,
                 stopped=False, original=None):
        self.text = text
        self.pos = pos
        self.startchar = startchar
        self.endchar = endchar
        self.boost = boost
        self.mode = mode
        self.positions = positions
        self.chars = chars
        self.stopped = stopped
        self.original = original if original is not None else text

    def copy(self):
        t = Token.__new__(Token)
        for name in Token.__slots__:
            setattr(t, name, getattr(self, name))
        return t

    def __repr__(self):
        return f"Token({self.text!r}, pos={self.pos})"


def _is_tokenizer(obj) -> bool:
    from .functions.analysis import AnalyzerSpec as _Spec

    return hasattr(obj, "_base_spec") or hasattr(obj, "_tokens") or isinstance(obj, _Spec)


class _AnalysisComponent:
    """Base for pipe-composable tokenizers/filters."""

    def __or__(self, other):
        return CompositeAnalyzer((self,)) | other

    def __ror__(self, other):
        # AnalyzerSpec | component is handled by AnalyzerSpec.__or__;
        # anything else piping into a component is a composition error
        raise CompositionError(f"cannot compose {other!r} | {self!r}")

    def __call__(self, value, **kw):
        return CompositeAnalyzer((self,))(value, **kw)

    def to_spec(self) -> AnalyzerSpec:
        return CompositeAnalyzer((self,)).to_spec()

    def _filter_tokens(self, tokens, mode=""):
        raise TypeError(f"{type(self).__name__} has no token-stream path")


class CompositeAnalyzer:
    """CompositeAnalyzer (reference analysis/analyzers.py): a tokenizer
    head followed by filters.  ``to_spec()`` compiles to the serializable
    AnalyzerSpec used by the Ray index pipeline; calling the chain runs
    the reference-style generator protocol over Token objects."""

    def __init__(self, parts):
        flat = []
        for p in parts:
            if isinstance(p, CompositeAnalyzer):
                flat.extend(p.parts)
            else:
                flat.append(p)
        for p in flat[1:]:
            if _is_tokenizer(p):
                raise CompositionError(
                    f"tokenizer/analyzer {p!r} cannot appear mid-chain"
                )
        self.parts = tuple(flat)

    def __or__(self, other):
        from .functions.analysis import AnalyzerSpec as _Spec

        if isinstance(other, (CompositeAnalyzer, _AnalysisComponent, _Spec)):
            return CompositeAnalyzer(self.parts + (other,))
        return NotImplemented

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)

    def to_spec(self) -> AnalyzerSpec:
        from .functions.analysis import AnalyzerSpec as _Spec

        parts = list(self.parts)
        head, rest = parts[0], parts[1:]
        if isinstance(head, _Spec):
            spec = head
        elif hasattr(head, "_base_spec"):
            spec = head._base_spec()
        else:
            raise TypeError(
                f"chain must start with a tokenizer, got {head!r}"
            )
        for f in rest:
            if not isinstance(f, _AnalysisComponent):
                raise TypeError(f"not an analysis component: {f!r}")
            spec = f._apply(spec)
        return spec

    def __call__(self, value, positions=False, chars=False, mode="",
                 start_pos=0, **kw):
        from .functions.analysis import AnalyzerSpec as _Spec

        head, rest = self.parts[0], self.parts[1:]
        if isinstance(head, _Spec):
            gen = _spec_tokens(head, value, mode, start_pos)
        elif hasattr(head, "_tokens"):
            gen = head._tokens(value, mode=mode, start_pos=start_pos,
                               positions=positions, chars=chars)
        else:
            # tokenizers without a bespoke char-aware path run through
            # their compiled spec (no startchar/endchar)
            gen = _spec_tokens(head._base_spec(), value, mode, start_pos)
        for f in rest:
            gen = f._filter_tokens(gen, mode=mode)
        return gen

    def _filter_tokens(self, tokens, mode=""):
        # filter-only chains (e.g. a TeeFilter branch built by piping two
        # filters) fold over the incoming token stream
        for f in self.parts:
            tokens = f._filter_tokens(tokens, mode=mode)
        return tokens


# internal alias kept for older imports
_AnalysisChain = CompositeAnalyzer
# legacy internal alias (older tests/modules referred to _CompatToken)
_CompatToken = Token


def _spec_tokens(spec, value, mode="", start_pos=0):
    """Token stream from a compiled AnalyzerSpec (no char offsets — spec
    analyzers are the indexing path; chains needing startchar/endchar use
    explicit tokenizer components)."""
    from .functions.analysis import make_analyzer

    fn = make_analyzer(spec, mode or "index")
    for tup in fn(value):
        boost = tup[2] if len(tup) > 2 else 1.0
        yield Token(tup[0], tup[1] + start_pos, boost=boost, mode=mode)


class RegexTokenizer(_AnalysisComponent):
    def __init__(self, expression=None, gaps=False):
        self.expression = expression
        self.gaps = gaps

    def _base_spec(self):
        from dataclasses import replace

        return replace(
            simple_analyzer(), pattern=_pattern_of(self.expression),
            gaps=self.gaps, lowercase=False,
        )

    def _tokens(self, value, mode="", start_pos=0, **kw):
        import re as _re

        pat = _re.compile(_pattern_of(self.expression), _re.UNICODE)
        pos = start_pos
        if self.gaps:
            prevend = 0
            for m in pat.finditer(value):
                if m.start() > prevend:
                    yield Token(value[prevend:m.start()], pos,
                                prevend, m.start(), mode=mode)
                    pos += 1
                prevend = m.end()
            if prevend < len(value):
                yield Token(value[prevend:], pos, prevend, len(value),
                            mode=mode)
            return
        for m in pat.finditer(value):
            yield Token(m.group(0), pos, m.start(), m.end(), mode=mode)
            pos += 1


class IDTokenizer(_AnalysisComponent):
    def _base_spec(self):
        return id_analyzer(lowercase=False)

    def _tokens(self, value, mode="", start_pos=0, **kw):
        # reference IDTokenizer pos quirk: start_pos + 1
        # (analysis/tokenizers.py:70)
        yield Token(value, start_pos + 1, 0, len(value), mode=mode)


class PathTokenizer(_AnalysisComponent):
    """Progressive path-prefix tokens (reference PathTokenizer,
    analysis/tokenizers.py:318-339): "/a/b/c" -> /a, /a/b, /a/b/c."""

    def __init__(self, expression="[^/]+"):
        self.expression = expression

    def _base_spec(self):
        from dataclasses import replace

        return replace(
            simple_analyzer(), kind="path", pattern=self.expression,
            lowercase=False, stopwords=None, minsize=0,
        )

    def _tokens(self, value, mode="", start_pos=0, **kw):
        import re as _re

        pat = _re.compile(self.expression, _re.UNICODE)
        for i, m in enumerate(pat.finditer(value)):
            yield Token(value[: m.end()], start_pos + i, 0, m.end(),
                        mode=mode)


class CharsetTokenizer(_AnalysisComponent):
    """Tokenize by charmap translation: falsy-mapped chars break tokens
    (reference CharsetTokenizer, analysis/tokenizers.py:239-315; the
    final-token raw-slice quirk is replicated in charset_tokenize)."""

    def __init__(self, charmap):
        self.charmap = dict(charmap)

    def _base_spec(self):
        raise CompositionError(
            "CharsetTokenizer has no serializable spec; index with a "
            "RegexTokenizer | CharsetFilter chain instead"
        )

    def _tokens(self, value, mode="", start_pos=0, **kw):
        from .functions.analysis import charset_tokenize

        for text, pos in charset_tokenize(value, self.charmap):
            yield Token(text, pos + start_pos, mode=mode)


class SpaceSeparatedTokenizer(_AnalysisComponent):
    commas = False

    def _base_spec(self):
        return keyword_analyzer(lowercase=False, commas=self.commas)

    def _tokens(self, value, mode="", start_pos=0, **kw):
        import re as _re

        pos = start_pos
        if self.commas:
            for m in _re.finditer(r"[^,]+", value):
                text = m.group(0).strip()
                if text:
                    lead = len(m.group(0)) - len(m.group(0).lstrip())
                    sc = m.start() + lead
                    yield Token(text, pos, sc, sc + len(text), mode=mode)
                    pos += 1
            return
        for m in _re.finditer(r"[^ \t\r\n]+", value):
            yield Token(m.group(0), pos, m.start(), m.end(), mode=mode)
            pos += 1


class CommaSeparatedTokenizer(SpaceSeparatedTokenizer):
    commas = True


class LowercaseFilter(_AnalysisComponent):
    def _apply(self, spec):
        from dataclasses import replace

        return replace(spec, lowercase=True)

    def _filter_tokens(self, tokens, mode=""):
        for t in tokens:
            t.text = t.text.lower()
            yield t


class StopFilter(_AnalysisComponent):
    def __init__(self, stoplist=STOP_WORDS, minsize=2, maxsize=None,
                 renumber=True, lang=None):
        self.stoplist = stoplist
        self.minsize = minsize
        self.maxsize = maxsize
        self.renumber = renumber
        self.lang = lang

    def _apply(self, spec):
        from dataclasses import replace

        from .functions.lang_stopwords import STOPLISTS

        stops = frozenset(self.stoplist) if self.stoplist else frozenset()
        if self.lang is not None:
            # reference StopFilter adds the language list to stoplist
            stops = stops | frozenset(STOPLISTS.get(self.lang, ()))
        return replace(
            spec, stopwords=stops or None, minsize=self.minsize,
            maxsize=self.maxsize, renumber=self.renumber,
        )

    def _filter_tokens(self, tokens, mode=""):
        from .functions.lang_stopwords import STOPLISTS

        stops = frozenset(self.stoplist) if self.stoplist else frozenset()
        if self.lang is not None:
            stops = stops | frozenset(STOPLISTS.get(self.lang, ()))
        minsize, maxsize = self.minsize, self.maxsize
        pos = None
        for t in tokens:
            text = t.text
            if (len(text) < minsize
                    or (maxsize is not None and len(text) > maxsize)
                    or text in stops):
                continue
            if self.renumber:
                pos = t.pos if pos is None else pos + 1
                t.pos = pos
            yield t


class StemFilter(_AnalysisComponent):
    """Porter by default; ``lang=`` picks the snowball/ISRI family
    like the reference's PyStemmer-backed path.  ``stemfn=`` accepts the
    named stemmer functions this package ships (reference
    ``StemFilter(stemfn=lovins.stem)`` etc.): porter, porter2, lovins,
    paicehusk — passed as the function or its name string."""

    _FN_NAMES = {
        "porter": "porter", "porter2": "porter2", "lovins": "lovins",
        "paicehusk": "paicehusk",
        "lovins_stem": "lovins", "lovins_stem_cached": "lovins",
        "paicehusk_stem": "paicehusk", "paicehusk_stem_cached": "paicehusk",
        "stem": "porter",
    }

    def __init__(self, stemfn=None, lang=None, ignore=None, cachesize=50000):
        self.lang = lang
        if stemfn is None:
            self.stemfn = None
        else:
            name = stemfn if isinstance(stemfn, str) else getattr(stemfn, "__name__", "")
            try:
                self.stemfn = self._FN_NAMES[name]
            except KeyError:
                raise ValueError(
                    f"unknown stemfn {stemfn!r}; use one of "
                    f"{sorted(set(self._FN_NAMES.values()))}"
                ) from None

    def _apply(self, spec):
        from dataclasses import replace

        if self.stemfn is not None:
            stemmer = self.stemfn
        elif self.lang is None:
            stemmer = "porter"
        else:
            la = language_analyzer(self.lang)
            stemmer = la.stemmer or "porter"
        return replace(spec, kind="stemming", stemmer=stemmer)

    def _filter_tokens(self, tokens, mode=""):
        import types as _types

        from .functions.analysis import resolve_stemmer

        if self.stemfn is not None:
            name = self.stemfn
        elif self.lang is None:
            name = "porter"
        else:
            name = language_analyzer(self.lang).stemmer or "porter"
        stem = resolve_stemmer(_types.SimpleNamespace(stemmer=name))
        for t in tokens:
            t.text = stem(t.text)
            yield t


class CharsetFilter(_AnalysisComponent):
    """Accent/case folding via a str.translate() map (reference
    CharsetFilter; pass e.g. whoosh.support.charset's accent_map or
    functions.analysis.accent_fold_map()).  Applied after lowercasing,
    before stop/size filtering."""

    def __init__(self, charmap):
        self.charmap = dict(charmap)

    def _apply(self, spec):
        from dataclasses import replace

        from .functions.analysis import charmap_key

        return replace(spec, charmap=charmap_key(self.charmap))

    def _filter_tokens(self, tokens, mode=""):
        cmap = self.charmap
        for t in tokens:
            t.text = t.text.translate(cmap)
            yield t


class NgramFilter(_AnalysisComponent):
    def __init__(self, minsize, maxsize=None, at=None):
        self.minsize = minsize
        self.maxsize = maxsize
        self.at = at

    def _apply(self, spec):
        from dataclasses import replace

        base = ngramwords_analyzer(
            minsize=self.minsize, maxsize=self.maxsize, at=self.at
        )
        return replace(
            base, pattern=spec.pattern, gaps=spec.gaps,
            lowercase=spec.lowercase,
        )

    def _filter_tokens(self, tokens, mode=""):
        gmin = self.minsize
        gmax = self.maxsize or gmin
        at = self.at
        for t in tokens:
            w = t.text
            n = len(w)
            if n < gmin:
                continue
            base = t.startchar or 0
            if mode == "query":
                # single gram size per word (reference NgramFilter query
                # branch, analysis/ngrams.py:180-198)
                size = min(gmax, n)
                starts = ([0] if at == "start" else [n - size]
                          if at == "end" else range(0, n - size + 1))
                for s in starts:
                    nt = t.copy()
                    nt.text = w[s:s + size]
                    nt.startchar, nt.endchar = base + s, base + s + size
                    yield nt
                continue
            if at == "start":
                for size in range(gmin, min(gmax, n) + 1):
                    nt = t.copy()
                    nt.text = w[:size]
                    nt.startchar, nt.endchar = base, base + size
                    yield nt
            elif at == "end":
                for start in range(max(0, n - gmax), n - gmin + 1):
                    nt = t.copy()
                    nt.text = w[start:]
                    nt.startchar, nt.endchar = base + start, base + n
                    yield nt
            else:
                for start in range(0, n - gmin + 1):
                    for size in range(gmin, gmax + 1):
                        if start + size <= n:
                            nt = t.copy()
                            nt.text = w[start:start + size]
                            nt.startchar = base + start
                            nt.endchar = base + start + size
                            yield nt


class _PostFilter(_AnalysisComponent):
    """Base for filters that append a serializable entry to
    AnalyzerSpec.post_filters (the field then takes the loop tokenize
    path; chars payloads are unavailable on such fields)."""

    name = ""

    def _kwargs(self) -> tuple:
        return ()

    def _apply(self, spec):
        from dataclasses import replace

        return replace(
            spec, post_filters=spec.post_filters + ((self.name, self._kwargs()),)
        )

    def _filter_tokens(self, tokens, mode=""):
        # generic token path: run the registered list-function over
        # (text, pos) pairs; text-reshaping filters invalidate char spans
        from .functions.analysis import _post_filter_registry

        fn = _post_filter_registry()[self.name]
        toks = list(tokens)
        proto = toks[0] if toks else None
        for tup in fn([(t.text, t.pos) for t in toks], **dict(self._kwargs())):
            t = proto.copy() if proto is not None else Token()
            t.text, t.pos = tup[0], tup[1]
            t.startchar = t.endchar = None
            if len(tup) > 2:
                t.boost = tup[2]
            yield t


class StripFilter(_PostFilter):
    name = "strip"

    def _filter_tokens(self, tokens, mode=""):
        for t in tokens:
            t.text = t.text.strip()
            yield t


class ReverseTextFilter(_PostFilter):
    name = "reverse"

    def _filter_tokens(self, tokens, mode=""):
        for t in tokens:
            t.text = t.text[::-1]
            yield t


class SubstitutionFilter(_PostFilter):
    name = "substitution"

    def __init__(self, pattern, replacement):
        self.pattern = getattr(pattern, "pattern", pattern)
        self.replacement = replacement

    def _kwargs(self):
        return (("pattern", self.pattern), ("replacement", self.replacement))

    def _filter_tokens(self, tokens, mode=""):
        import re as _re

        pat = _re.compile(self.pattern)
        for t in tokens:
            t.text = pat.sub(self.replacement, t.text)
            yield t


class BiWordFilter(_PostFilter):
    name = "biword"

    def __init__(self, sep="-"):
        self.sep = sep

    def _kwargs(self):
        return (("sep", self.sep),)

    def _filter_tokens(self, tokens, mode=""):
        # char-aware pairs; a lone token passes through unchanged
        # (reference BiWordFilter, analysis/filters.py)
        prev = None
        pos = None
        emitted = False
        for t in tokens:
            if prev is not None:
                pos = prev.pos if pos is None else pos + 1
                bt = prev.copy()
                bt.text = prev.text + self.sep + t.text
                bt.pos = pos
                bt.endchar = t.endchar
                emitted = True
                yield bt
            prev = t
        if not emitted and prev is not None:
            yield prev


class ShingleFilter(_PostFilter):
    name = "shingle"

    def __init__(self, size=2, sep="-"):
        self.size = size
        self.sep = sep

    def _kwargs(self):
        return (("size", self.size), ("sep", self.sep))

    def _filter_tokens(self, tokens, mode=""):
        # char-aware sliding window; fewer tokens than ``size`` emit the
        # lone tokens unchanged (mirrors BiWordFilter's lone-token rule)
        buf = []
        pos = None
        emitted = False
        for t in tokens:
            buf.append(t)
            if len(buf) == self.size:
                pos = buf[0].pos if pos is None else pos + 1
                st = buf[0].copy()
                st.text = self.sep.join(x.text for x in buf)
                st.pos = pos
                st.endchar = buf[-1].endchar
                emitted = True
                yield st
                buf.pop(0)
        if not emitted:
            for t in buf:
                yield t


class CompoundWordFilter(_PostFilter):
    name = "compound"

    def __init__(self, wordset, keep_compound=True):
        self.wordset = frozenset(wordset)
        self.keep_compound = keep_compound

    def _kwargs(self):
        return (("wordset", self.wordset), ("keep_compound", self.keep_compound))


class DoubleMetaphoneFilter(_PostFilter):
    """Phonetic expansion (reference DoubleMetaphoneFilter).  The
    reference's primary/secondary boost parameters are accepted but
    not carried — this engine's token stream has no per-token boost;
    texts and positions match the reference."""

    name = "dmetaphone"

    def __init__(self, primary_boost=1.0, secondary_boost=0.5, combine=False):
        self.combine = combine
        self.primary_boost = primary_boost
        self.secondary_boost = secondary_boost

    def _kwargs(self):
        return (("combine", self.combine),)

    def _filter_tokens(self, tokens, mode=""):
        # boost-carrying token path (reference DoubleMetaphoneFilter,
        # analysis/morph.py: primary_boost / secondary_boost)
        from .functions.dmetaphone import double_metaphone

        for t in tokens:
            if self.combine:
                yield t.copy()
            primary, secondary = double_metaphone(t.text)
            if primary:
                nt = t.copy()
                nt.text, nt.boost = primary, self.primary_boost
                yield nt
            if secondary:
                nt = t.copy()
                nt.text, nt.boost = secondary, self.secondary_boost
                yield nt


class DelimitedAttributeFilter(_PostFilter):
    """Trailing ``^value`` payload -> per-token boost (reference
    DelimitedAttributeFilter, filters.py:419-482).  Term weight becomes
    the summed token boost; with ``FieldSpec(boosts=True)`` the
    per-position boosts are stored as a posting payload (reference
    PositionBoosts/CharacterBoosts formats) and readable via
    ``searcher.position_boosts(docnum, field, term)``."""

    name = "delimited_attribute"

    def __init__(self, delimiter="^", attribute="boost", default=1.0, type=float):
        if attribute != "boost":
            raise ValueError("only the boost attribute is supported")
        self.delimiter = delimiter
        self.default = default
        self.type = type

    def _kwargs(self):
        typ_name = {float: "float", int: "int", str: "str"}.get(self.type, "float")
        return (
            ("delimiter", self.delimiter),
            ("default", self.default),
            ("typ", typ_name),
        )

    def _filter_tokens(self, tokens, mode=""):
        delim = self.delimiter
        for t in tokens:
            text = t.text
            i = text.rfind(delim)
            if i >= 0:
                try:
                    t.boost = self.type(text[i + len(delim):])
                    t.text = text[:i]
                except (TypeError, ValueError):
                    t.boost = self.default
            else:
                t.boost = self.default
            yield t


class PassFilter(_AnalysisComponent):
    def _apply(self, spec):
        return spec

    def _filter_tokens(self, tokens, mode=""):
        return tokens


class LoggingFilter(PassFilter):
    """No-op here (the reference logs each token to a logger)."""


class PyStemmerFilter(_AnalysisComponent):
    """Maps onto the built-in clean-room stemmer family (the reference
    delegates to the PyStemmer C extension).  Raises for languages
    neither ships."""

    def __init__(self, lang="english", ignore=None, cachesize=10000):
        self.lang = lang

    def _apply(self, spec):
        from dataclasses import replace

        la = language_analyzer(self.lang)
        if la.stemmer is None:
            raise TypeError(f"no stemmer available for {self.lang!r}")
        return replace(spec, kind="stemming", stemmer=la.stemmer)


class NgramTokenizer(_AnalysisComponent):
    def __init__(self, minsize, maxsize=None):
        self.minsize = minsize
        self.maxsize = maxsize

    def _base_spec(self):
        return ngram_analyzer(
            minsize=self.minsize, maxsize=self.maxsize or self.minsize
        )


class Filter(_AnalysisComponent):
    """User-extensible token filter (reference analysis/acore.py
    Composable/Filter): subclass and override ``__call__(tokens)`` as a
    generator over Token objects, then pipe it into a chain.  Custom
    filters participate in the __call__ token path only; they have no
    serializable AnalyzerSpec form, so an index-time analyzer must use
    the built-in filter classes."""

    def __call__(self, tokens):
        raise NotImplementedError

    def _filter_tokens(self, tokens, mode=""):
        return self.__call__(tokens)

    def _apply(self, spec):
        raise CompositionError(
            f"{type(self).__name__} is a runtime token filter with no "
            "serializable index-analyzer form"
        )


class MultiFilter(Filter):
    """Mode-dispatched filter bundle (reference MultiFilter,
    analysis/filters.py:130-160): picks the sub-filter named by the
    analysis call's ``mode`` argument, PassFilter otherwise."""

    default_filter = PassFilter()

    def __init__(self, **filters):
        self.filters = filters

    def _filter_tokens(self, tokens, mode=""):
        chosen = self.filters.get(mode, self.default_filter)
        return chosen._filter_tokens(tokens, mode=mode)

    def _apply(self, spec):
        # index-time spec uses the "index"-mode sub-filter; the schema's
        # separate query_analyzer covers the query side (schema.py:62)
        chosen = self.filters.get("index")
        if chosen is None:
            return spec
        return chosen._apply(spec)


class TeeFilter(Filter):
    """Clone the stream through n filter branches and interleave their
    outputs round-robin (reference TeeFilter, analysis/filters.py:184-236)."""

    def __init__(self, *filters):
        if len(filters) < 2:
            raise CompositionError("TeeFilter requires two or more filters")
        self.filters = filters

    def _filter_tokens(self, tokens, mode=""):
        toks = list(tokens)
        branches = [
            list(f._filter_tokens(iter([t.copy() for t in toks]), mode=mode))
            for f in self.filters
        ]
        i = 0
        while any(branches):
            b = branches[i % len(branches)]
            if b:
                yield b.pop(0)
            i += 1


class IntraWordFilter(Filter):
    """Split words on case/letter-number transitions and delimiters,
    optionally merging runs back together (reference IntraWordFilter,
    analysis/intraword.py:221-509).  Char-span-aware: subword tokens carry
    their slice of the parent span; a merged run spans first-to-last part.
    The ``delims`` parameter is accepted for signature parity but the
    reference's default delimiter set is always used."""

    def __init__(self, delims=None, splitwords=True, splitnums=True,
                 mergewords=False, mergenums=False):
        self.splitwords = splitwords
        self.splitnums = splitnums
        self.mergewords = mergewords
        self.mergenums = mergenums

    def _filter_tokens(self, tokens, mode=""):
        from .functions.analysis import _iw_merge, _iw_split

        newpos = None
        for tk in tokens:
            text = tk.text
            if newpos is None:
                newpos = tk.pos
            if ((text.isalpha() and (text.islower() or text.isupper()))
                    or text.isdigit()):
                t = tk.copy()
                t.pos = newpos
                newpos += 1
                yield t
                continue
            base = tk.startchar or 0
            ranges = list(_iw_split(text, self.splitwords, self.splitnums))
            parts = [
                (text[sc:ec], newpos + i, base + sc, base + ec)
                for i, (sc, ec) in enumerate(ranges)
            ]
            if len(parts) > 1 and (self.mergewords or self.mergenums):
                _iw_merge(parts, self.mergewords, self.mergenums)
            for ptext, ppos, sc, ec in parts:
                t = tk.copy()
                t.text, t.pos, t.startchar, t.endchar = ptext, ppos, sc, ec
                yield t
            if parts:
                newpos = parts[-1][1] + 1

    def _apply(self, spec):
        # index path: FancyAnalyzer's spec covers the split-only default;
        # merge modes are __call__-path only
        from dataclasses import replace

        if self.mergewords or self.mergenums:
            raise CompositionError(
                "IntraWordFilter merge modes have no serializable "
                "index-analyzer form; use FancyAnalyzer or the __call__ path"
            )
        return replace(spec, kind="fancy")


# the reference's URL-preserving token pattern (analysis/filters.py:79-90)
url_pattern = re.compile(
    r"""
    (
        [A-Za-z+]+://          # URL protocol
        \S+?                   # URL body
        (?=\s|[.]\s|$|[.]$)    # stop at space/end, or a dot then space/end
    ) | (
        \w+([:.]?\w+)*         # word chars, with optional internal colons/dots
    )
    """,
    re.VERBOSE | re.UNICODE,
)

# default RegexTokenizer pattern, importable like the reference's
# analysis.default_pattern (tokenizers.py:31)
default_pattern = re.compile(DEFAULT_TOKEN_PATTERN, re.UNICODE)

# base-class/exception names from the reference analysis namespace
Composable = _AnalysisComponent
Analyzer = _AnalysisComponent
Tokenizer = _AnalysisComponent


def _coerce_analyzer(analyzer):
    """Accept AnalyzerSpec, a pipe chain, or a bare component."""
    if analyzer is None or isinstance(analyzer, AnalyzerSpec):
        return analyzer
    if isinstance(analyzer, (CompositeAnalyzer, _AnalysisComponent)):
        return analyzer.to_spec()
    raise TypeError(f"unsupported analyzer: {analyzer!r}")


# ---- field constructors (reference fields.py surface) ----------------------


class _FieldDecl(tuple):
    """Field-constructor result: the (kind, options) pair Schema consumes,
    plus the reference FieldType.process_text hook (fields.py:178-190 —
    yields analyzed token TEXTS for a query/index string)."""

    def process_text(self, qstring, mode="", **kwargs):
        from .functions.analysis import AnalyzerSpec, make_analyzer

        ana = self[1].get("analyzer") or standard_analyzer()
        if isinstance(ana, AnalyzerSpec):
            fn = make_analyzer(ana, mode or "index")
            return (tup[0] for tup in fn(qstring))
        return (t.text for t in ana(qstring, mode=mode, **kwargs))

    def index(self, value, **kwargs):
        """Reference FieldType.index: per-term postings for one value.
        Numeric fields validate the declared bits/signed range
        (fields.py NUMERIC.prepare_number raising ValueError) and return
        the int64 sortable; text fields return sorted
        (term, doc_freq, summed_weight) triples — the packed value bytes
        of the reference's format are a codec detail this engine stores
        as Parquet columns instead."""
        kind, opts = self
        if kind == "numeric":
            bits = opts.get("bits", 64)
            signed = opts.get("signed", True)
            if isinstance(value, int):
                lo = -(1 << (bits - 1)) if signed else 0
                hi = (1 << (bits - 1 if signed else bits)) - 1
                if value < lo or value > hi:
                    raise ValueError(
                        f"{value} out of range for {bits}-bit "
                        f"{'signed' if signed else 'unsigned'} field"
                    )
            return [(int(value),)]
        if kind not in ("text", "keyword"):
            raise TypeError(f"index() unsupported for field kind {kind!r}")
        agg: dict = {}
        for t in self._analyze_tokens(value):
            freq, weight = agg.get(t.text, (0, 0.0))
            agg[t.text] = (freq + 1, weight + t.boost)
        return sorted((text, fw[0], fw[1]) for text, fw in agg.items())

    def _analyze_tokens(self, value, mode=""):
        from .functions.analysis import AnalyzerSpec

        ana = self[1].get("analyzer") or standard_analyzer()
        if isinstance(ana, AnalyzerSpec):
            return ana(value, mode=mode)
        return ana(value, mode=mode)


def TEXT(stored=True, analyzer=None, phrase=True, field_boost=1.0, spelling=False,
         chars=False, boosts=False, format=None, sortable=False,
         multitoken_query="default"):
    """``format=`` names a USER-REGISTERED posting Format codec (the
    reference's custom Format subclass plug point, formats.py:51-135; see
    whoosh_reloaded_ray/formats.py).  ``sortable=True`` keeps the original
    value readable per document (the reference adds a codec column; here
    every value is already a native Parquet column, so it simply marks the
    field stored-for-readback).

    Deliberate deviation: ``stored`` defaults True (the reference defaults
    False because storing large text costs codec space; here every value
    already lives in the source Parquet, so readback is free).  The
    reference's FIRST positional arg is ``analyzer`` — a non-bool first
    positional (``TEXT(StemmingAnalyzer())``) is therefore accepted as the
    analyzer for drop-in compatibility."""
    if stored is not True and stored is not False and not isinstance(stored, int):
        stored, analyzer = True, stored
    return _FieldDecl((
        "text",
        {
            "analyzer": analyzer,
            "stored": stored or sortable,
            "positions": phrase,
            "field_boost": field_boost,
            "spelling": spelling,
            "chars": chars,
            "boosts": boosts,
            "format": format,
            "multitoken_query": multitoken_query,
        },
    ))


def ID(stored=True, unique=False, sortable=False, field_boost=1.0):
    # sortable=True keeps the value readable per doc (native Parquet
    # column here, like the reference's sortable column)
    return ("id", {"stored": stored or sortable, "unique": unique,
                   "field_boost": field_boost})


def KEYWORD(stored=True, lowercase=False, commas=False, scorable=False,
            unique=False, field_boost=1.0, sortable=False):
    return ("keyword", {"stored": stored or sortable, "lowercase": lowercase,
                        "commas": commas, "scorable": scorable,
                        "unique": unique, "field_boost": field_boost})


def NUMERIC(numtype=int, stored=True, unique=False, decimal_places=0,
            bits=64, signed=True, sortable=False):
    """Reference fields.NUMERIC: ``numtype`` may be int, float, or
    decimal.Decimal (with ``decimal_places``) — Decimal values are stored
    as value*10^places int64 and descaled on readback.  ``bits``/``signed``
    are accepted for signature parity (storage is always int64/float64
    Parquet columns)."""
    import decimal as _decimal

    if numtype is _decimal.Decimal:
        return _FieldDecl((
            "numeric",
            {"stored": stored, "numtype": "int", "unique": unique,
             "decimal_places": int(decimal_places),
             "bits": bits, "signed": signed},
        ))
    return _FieldDecl((
        "numeric",
        {"stored": stored, "numtype": "float" if numtype is float else "int",
         "unique": unique,
         # the reference also accepts NUMERIC(int, decimal_places=n)
         "decimal_places": int(decimal_places),
         "bits": bits, "signed": signed},
    ))


def DATETIME(stored=True, unique=False, sortable=False):
    return _FieldDecl(("datetime", {"stored": stored or sortable,
                                    "unique": unique}))


def BOOLEAN(stored=True):
    return ("boolean", {"stored": stored})


def STORED():
    return ("stored", {})


def NGRAM(stored=False, minsize=2, maxsize=4, field_boost=1.0,
          queryor=False, phrase=False):
    """Character n-gram field (reference fields.NGRAM)."""
    return (
        "text",
        {
            "analyzer": ngram_analyzer(minsize=minsize, maxsize=maxsize),
            "stored": stored,
            "positions": phrase,
            "field_boost": field_boost,
        },
    )


def NGRAMWORDS(minsize=2, maxsize=4, stored=False, field_boost=1.0,
               tokenizer=None, at=None, queryor=False, sortable=False):
    """Word-wise n-gram field (reference fields.NGRAMWORDS)."""
    return (
        "text",
        {
            "analyzer": ngramwords_analyzer(
                minsize=minsize, maxsize=maxsize, at=at
            ),
            "stored": stored,
            "positions": False,
            "field_boost": field_boost,
        },
    )


def IDLIST(stored=False, unique=False, expression=None, field_boost=1.0):
    """Multiple-ID field split on the expression (reference
    fields.IDLIST; default separator set matches its
    ``[^\\r\\n\\t ,;]+``)."""
    from dataclasses import replace

    spec = replace(
        simple_analyzer(),
        pattern=getattr(expression, "pattern", expression)
        or r"[^\r\n\t ,;]+",
        lowercase=False,
    )
    return ("idlist", {"analyzer": spec, "stored": stored})


def COLUMN(columnobj=None):
    """Per-document stored value for sorting/faceting (reference
    fields.COLUMN).  Columns here are native Parquet: the value is
    stored and served through the stored-field/facet paths, so the
    codec-level column object has no analog and is ignored."""
    return ("stored", {})


class FieldConfigurationError(Exception):
    """Reference fields.FieldConfigurationError."""


class UnknownFieldError(KeyError):
    """Reference fields.UnknownFieldError."""


class MetaSchema(type):
    def __new__(mcs, name, bases, attrs):
        cls = super().__new__(mcs, name, bases, attrs)
        fields = {}
        for base in reversed(cls.__mro__):
            for k, v in vars(base).items():
                if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str):
                    fields[k] = v
                elif callable(v) and getattr(v, "__name__", "").isupper():
                    # bare field type (``content = fields.TEXT``) — the
                    # reference instantiates it (fields.py MetaSchema)
                    fields[k] = v()
        cls._declared_fields = fields
        return cls

    def schema(cls) -> "Schema":
        return Schema(**cls._declared_fields)


class SchemaClass(metaclass=MetaSchema):
    """Declarative schema base (reference fields.SchemaClass)::

        class MySchema(SchemaClass):
            title = TEXT(stored=True)
            body = TEXT()

        ix = create_in(dirname, MySchema)

    Instantiating the class (``MySchema()``) builds the Schema, like the
    reference's ``ix = storage.create_index(MySchema())``."""

    def __new__(cls, *args, **kwargs):
        return Schema(**cls._declared_fields)


class Schema:
    """Field-name -> field-constructor schema (reference fields.Schema,
    incl. add/copy/eq/getitem/contains and the names() method)."""

    def __init__(self, **fields):
        self._decls: dict = {}
        for name, spec in fields.items():
            self._put(name, spec)
        self._rebuild()

    def _put(self, name, spec):
        if name.startswith("_") or " " in name:
            raise FieldConfigurationError(f"invalid field name {name!r}")
        if callable(spec):
            # reference Schema instantiates bare field types
            # (fields.py Schema.add: "if isinstance(fieldtype, type)")
            spec = spec()
        self._decls[name] = spec

    def add(self, name, spec):
        """Reference Schema.add (fields.py): validates the name,
        instantiates bare field-type callables."""
        self._put(name, spec)
        self._rebuild()

    def copy(self):
        s = Schema.__new__(Schema)
        s._decls = dict(self._decls)
        s._rebuild()
        return s

    def names(self) -> list:
        """Sorted field names (reference Schema.names)."""
        return [f.name for f in self.index_schema.fields]

    def __contains__(self, name) -> bool:
        return name in self._decls

    def __getitem__(self, name):
        for f in self.index_schema.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def __eq__(self, other):
        return (
            isinstance(other, Schema)
            and self.index_schema.fields == other.index_schema.fields
        )

    def _rebuild(self):
        specs = []
        for name in sorted(self._decls):  # reference sorts field names
            spec = self._decls[name]
            kind, opts = spec
            if kind == "text":
                specs.append(
                    text_field(
                        name,
                        analyzer=_coerce_analyzer(opts.get("analyzer"))
                        or standard_analyzer(),
                        positions=opts.get("positions", True),
                        boost=opts.get("field_boost", 1.0),
                        spelling=opts.get("spelling", False),
                        chars=opts.get("chars", False),
                        boosts=opts.get("boosts", False),
                        format=opts.get("format"),
                        stored=opts.get("stored", True),
                        multitoken_query=opts.get("multitoken_query", "default"),
                    )
                )
            elif kind == "id":
                specs.append(id_field(name, unique=opts.get("unique", False),
                                      stored=opts.get("stored", True)))
            elif kind == "keyword":
                specs.append(
                    FieldSpec(
                        name=name,
                        kind="keyword",
                        analyzer=keyword_analyzer(
                            lowercase=opts.get("lowercase", False),
                            commas=opts.get("commas", False),
                        ),
                        scorable=opts.get("scorable", False),
                        positions=False,
                        unique=opts.get("unique", False),
                        boost=opts.get("field_boost", 1.0),
                        stored=opts.get("stored", True),
                    )
                )
            elif kind == "numeric":
                specs.append(
                    numeric_field(
                        name, numtype=opts.get("numtype", "int"),
                        unique=opts.get("unique", False),
                        stored=opts.get("stored", True),
                        decimal_places=opts.get("decimal_places", 0),
                    )
                )
            elif kind == "datetime":
                specs.append(numeric_field(
                    name, kind="datetime",
                    unique=opts.get("unique", False),
                    stored=opts.get("stored", True),
                ))
            elif kind == "boolean":
                from .schema import boolean_field

                specs.append(boolean_field(name))
            elif kind == "idlist":
                specs.append(
                    FieldSpec(
                        name=name,
                        kind="keyword",
                        analyzer=opts["analyzer"],
                        scorable=False,
                        positions=False,
                    )
                )
            elif kind == "stored":
                specs.append(
                    FieldSpec(name=name, kind="stored", analyzer=None, scorable=False, positions=False)
                )
            else:
                raise ValueError(f"unknown field kind {kind!r}")
        self.index_schema = IndexSchema(fields=specs)

    def stored_names(self) -> list:
        """Names of stored fields in name order (reference
        fields.Schema.stored_names)."""
        return [f.name for f in self.index_schema.fields if f.stored]


# ---- facet objects (reference sorting.py surface) --------------------------


def _docset_query(docnums):
    """Pre-resolved doc set as a filter query (reference accepts
    Results / plain sets for filter=/mask=)."""
    import numpy as _np

    from .query.ast import DocSet

    return DocSet(_np.array(sorted(int(d) for d in docnums), dtype=_np.uint64))


class FacetMap:
    """Marker base for group-map types (reference sorting.FacetMap)."""


class OrderedList(FacetMap):
    """Docnums per key in score order (the default map)."""


class UnorderedList(FacetMap):
    """Docnums per key in docnum order."""


class Count(FacetMap):
    """Match count per key."""


class Best(FacetMap):
    """Highest-scoring docnum per key."""


def _maptype_name(mt):
    """Normalize a maptype spec (string | FacetMap class | instance |
    None) to the engine's string form."""
    if mt is None or isinstance(mt, str):
        return mt
    cls = mt if isinstance(mt, type) else type(mt)
    return {
        "OrderedList": "ordered",
        "UnorderedList": "unordered",
        "Count": "count",
        "Best": "best",
    }.get(cls.__name__, "ordered")


class FieldFacet:
    """Sort/group by a field's native column value (reference
    sorting.FieldFacet, sorting.py:190).  ``allow_overlap=True`` groups a
    doc under EVERY token of its field value (reference overlapping
    categorizers)."""

    def __init__(self, fieldname: str, reverse: bool = False,
                 allow_overlap: bool = False, maptype=None):
        self.fieldname = fieldname
        self.reverse = reverse
        self.allow_overlap = allow_overlap
        self.maptype = maptype


class ScoreFacet:
    """Sort by score (reference sorting.ScoreFacet) — the default search
    order; as a sortedby spec it simply means 'scored order'."""


class FunctionFacet:
    """Arbitrary key function ``fn(searcher, docnum)`` (reference
    sorting.FunctionFacet, sorting.py:593-628).  The function closes over
    the GLOBAL searcher object, so keys are computed on the driver over
    the match set — the same single-process categorizer semantics as the
    reference; for a distributable custom key use :class:`TranslateFacet`
    over field facets (column-backed)."""

    def __init__(self, fn, maptype=None):
        self.fn = fn
        self.maptype = maptype


class TranslateFacet:
    """Apply ``fn`` to the key(s) produced by one or more wrapped facets
    (reference sorting.TranslateFacet, sorting.py:631-686).  Wrapped
    FieldFacet keys come from distributed segment column reads; ``fn``
    runs on the driver over the match-aligned key vectors."""

    def __init__(self, fn, *facets):
        self.fn = fn
        self.facets = facets
        self.maptype = None


class MultiFacet:
    """Compound facet: sort/group by multiple fields in sequence
    (reference sorting.MultiFacet, sorting.py:520)."""

    def __init__(self, items=None):
        self.facets = []
        for it in items or []:
            self.add_field(it) if isinstance(it, str) else self.facets.append(it)

    def add_field(self, fieldname: str, reverse: bool = False):
        self.facets.append(FieldFacet(fieldname, reverse=reverse))
        return self

    def fieldnames(self):
        return [f.fieldname for f in self.facets]


class RangeFacet:
    """Numeric bucket facet [start + i*gap, start + (i+1)*gap) (reference
    sorting.RangeFacet, sorting.py:414).  Used with groupedby; groups()
    returns {(lo, hi): count}."""

    def __init__(self, fieldname: str, start, end, gap):
        self.fieldname = fieldname
        self.start, self.end, self.gap = start, end, gap


class DateRangeFacet(RangeFacet):
    """RangeFacet over datetime bounds with a timedelta gap (reference
    sorting.DateRangeFacet, sorting.py:477)."""


class QueryFacet:
    """Facets results by a dict of named queries (reference
    sorting.QueryFacet, sorting.py:402-445): each doc is keyed by the
    FIRST bucket query (dict order) matching it, else ``other``.
    Evaluated as distributed per-bucket sub-searches with
    prior-bucket exclusion — no driver-side doc sets for counts."""

    def __init__(self, querydict, other=None, allow_overlap=False,
                 maptype=None):
        self.querydict = dict(querydict)
        self.other = other
        self.allow_overlap = allow_overlap
        self.maptype = maptype


class StoredFieldFacet:
    """Group by a stored (possibly unindexed) field's value (reference
    sorting.StoredFieldFacet, sorting.py:688-737).  ``allow_overlap``
    splits the value into multiple keys with ``split_fn`` (default
    str.split)."""

    def __init__(self, fieldname, allow_overlap=False, split_fn=None,
                 maptype=None):
        self.fieldname = fieldname
        self.allow_overlap = allow_overlap
        self.split_fn = split_fn
        self.maptype = maptype


class Facets:
    """Named collection of facets (reference sorting.Facets): search
    with ``groupedby=Facets(...)`` computes one group map per entry;
    ``results.groups(name)`` selects by name."""

    def __init__(self, x=None):
        self.facets = dict(x) if x else {}

    def add_field(self, fieldname, allow_overlap=False):
        self.facets[fieldname] = FieldFacet(fieldname, allow_overlap=allow_overlap)
        return self

    def add_query(self, name, querydict, **kwargs):
        self.facets[name] = QueryFacet(querydict, **kwargs)
        return self

    def add_facet(self, name, facet):
        self.facets[name] = facet
        return self

    def items(self):
        return self.facets.items()


def _sortedby_fields(spec):
    """Normalize a sortedby spec (str | FieldFacet | MultiFacet | list)
    to a list of (fieldname, reverse) pairs — per-FIELD reverse, like
    the reference's FieldFacet(reverse=True) inside a MultiFacet."""
    if isinstance(spec, str):
        return [(spec, False)]
    if isinstance(spec, FieldFacet):
        return [(spec.fieldname, spec.reverse)]
    if isinstance(spec, ScoreFacet):
        # score as a SECONDARY sort key degrades to the docnum tiebreak
        # here (sorted search is unscored); as the primary spec it is
        # handled upstream (plain scored search)
        return []
    if isinstance(spec, MultiFacet):
        out = []
        for f in spec.facets:
            out.extend(_sortedby_fields(f))
        return out
    if isinstance(spec, (list, tuple)):
        out = []
        for s in spec:
            out.extend(_sortedby_fields(s))
        return out
    raise TypeError(f"unsupported sortedby spec {spec!r}")


# ---- writing-module surface (reference writing.py) -------------------------


class _MergePolicy:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<merge policy {self.name}>"


#: skip the post-commit merge pass
NO_MERGE = _MergePolicy("NO_MERGE")
#: the default fib-heuristic small-segment merge
MERGE_SMALL = _MergePolicy("MERGE_SMALL")
#: full merge to one segment
OPTIMIZE = _MergePolicy("OPTIMIZE")
#: drop the existing index, keep only this commit's documents
CLEAR = _MergePolicy("CLEAR")


class IndexingError(Exception):
    """Reference writing.IndexingError."""


class LockError(Exception):
    """Reference store.LockError (no file locks here — commits are
    whole batch jobs — kept for except-clause compatibility)."""


class EmptyIndexError(IndexError):
    """Reference index.EmptyIndexError (index.py:78, an IndexError)."""


# ---- index object ----------------------------------------------------------


def create_in(dirname: str, schema: Schema) -> "Index":
    if isinstance(schema, type) and issubclass(schema, SchemaClass):
        schema = schema.schema()  # declarative SchemaClass accepted
    if not isinstance(schema, (Schema, IndexSchema)):
        # reference index.create_in via Schema coercion raises
        # FieldConfigurationError for non-schema arguments
        raise FieldConfigurationError(f"not a schema: {schema!r}")
    os.makedirs(dirname, exist_ok=True)
    return Index(dirname, schema)


def exists_in(dirname: str) -> bool:
    """True if a committed index lives in the directory (reference
    index.exists_in)."""
    return load_manifest(dirname) is not None


def _merge(dirname: str, optimize: bool = False) -> None:
    """``maybe_merge`` for the compat writers: an index created but never
    committed has no segments to merge, so there is nothing to do."""
    if exists_in(dirname):
        maybe_merge(dirname, optimize=optimize)


def open_dir(dirname: str) -> "Index":
    man = load_manifest(dirname)
    if man is None:
        raise EmptyIndexError(f"no index in {dirname}")
    return Index(dirname, None)


class Index:
    def __init__(self, dirname: str, schema: Schema | None):
        self.dirname = dirname
        self._schema = schema

    @property
    def schema(self) -> IndexSchema:
        """Current schema (reference Index.schema)."""
        return self.index_schema

    @property
    def index_schema(self) -> IndexSchema:
        # prefer the COMMITTED schema: add_field/remove_field between
        # commits must be visible to later writers (reference
        # Index.schema reads the current TOC)
        man = load_manifest(self.dirname)
        if man is not None:
            return man.schema
        return self._schema.index_schema

    def writer(self, **kwargs) -> "Writer":
        return Writer(self, **kwargs)

    def searcher(self, **kwargs) -> "CompatSearcher":
        return CompatSearcher(self, **kwargs)

    def _empty_manifest(self):
        """Zero-segment manifest for searching a created-but-never-
        committed index (the reference's create_in writes an empty
        generation-0 TOC; we synthesize it at open)."""
        from .state.manifest import Manifest

        if self._schema is None:
            raise FileNotFoundError(f"no committed manifest in {self.dirname}")
        return Manifest(schema=self._schema.index_schema)

    def reader(self) -> "Reader":
        man = load_manifest(self.dirname)
        if man is None:
            return Reader(IndexSearcher(self.dirname, manifest=self._empty_manifest()))
        return Reader(IndexSearcher(self.dirname))

    def optimize(self):
        _merge(self.dirname, optimize=True)

    def doc_count(self) -> int:
        """UNDELETED doc count (reference Index.doc_count)."""
        man = load_manifest(self.dirname)
        if man is None:
            return 0
        return man.doc_count - int(man.load_tombstones(self.dirname).size)

    def doc_count_all(self) -> int:
        """Total docs including deleted (reference doc_count_all)."""
        man = load_manifest(self.dirname)
        return man.doc_count if man else 0

    def is_empty(self) -> bool:
        """True when the index holds no documents (reference
        Index.is_empty, index.py)."""
        return self.doc_count_all() == 0

    def _segments(self) -> list:
        """Committed segment metas (reference Index._segments; used by its
        own tests to assert generation counts)."""
        man = load_manifest(self.dirname)
        return list(man.segments) if man else []

    def delete_by_term(self, fieldname: str, text: str) -> int:
        """One-shot delete+commit (reference Index.delete_by_term,
        index.py convenience wrapper around a writer)."""
        w = self.writer()
        n = w.delete_by_term(fieldname, text)
        w.commit(merge=False)
        return n

    def delete_by_query(self, q) -> int:
        """One-shot delete+commit (reference Index.delete_by_query)."""
        from .pipelines.write_ops import delete_by_query as _del

        return _del(self.dirname, q)

    def add_field(self, fieldname: str, fieldtype) -> None:
        """Add a schema field between commits (reference Index.add_field);
        indexed only in segments committed afterwards."""
        from .pipelines.write_ops import add_field as _add

        spec = Schema(**{fieldname: fieldtype}).index_schema.fields[0]
        _add(self.dirname, spec)

    def remove_field(self, fieldname: str) -> None:
        """Drop a schema field (reference Index.remove_field): it stops
        being searchable/stored; postings GC with future merges."""
        from .pipelines.write_ops import remove_field as _rm

        _rm(self.dirname, fieldname)


class Writer:
    """Buffers ``add_document`` rows; ``commit()`` writes a Parquet
    generation and runs the Ray build/append pipeline."""

    def __init__(self, index: Index, num_shards: int = 8, partition_rows: int = 100_000):
        self.index = index
        self.num_shards = num_shards
        self.partition_rows = partition_rows
        self.rows: list = []

    def cancel(self):
        """Discard buffered (uncommitted) documents and deletes (reference
        IndexWriter.cancel)."""
        self.rows = []
        self._deletes = []

    def delete_document(self, docnum: int):
        """Buffer a by-docnum delete, applied at commit (reference
        IndexWriter.delete_document; raises IndexingError for a docnum
        outside the committed index, like the reference)."""
        from .state.manifest import load_manifest

        man = load_manifest(self.index.dirname)
        total = man.doc_count if man else 0
        if not (0 <= int(docnum) < total):
            raise IndexingError(f"No document ID {docnum} in this index")
        if not hasattr(self, "_deletes"):
            self._deletes = []
        self._deletes.append(int(docnum))

    def add_document(self, **fields):
        """Reference IndexWriter.add_document (writing.py:388-402),
        including the ``_boost`` (whole-doc) and ``_<fieldname>_boost``
        write-time weight multipliers."""
        schema = self.index.index_schema
        names = {f.name for f in schema.fields}
        unknown = {
            k
            for k in fields
            if k not in names
            and k != "_boost"
            and not (k.startswith("_") and k.endswith("_boost") and k[1:-6] in names)
            and not (k.startswith("_stored_") and k[len("_stored_"):] in names)
        }
        if unknown:
            raise ValueError(f"unknown fields {sorted(unknown)}")
        import decimal as _decimal

        for f in schema.fields:
            v = fields.get(f.name)
            if (
                isinstance(v, _decimal.Decimal)
                and f.kind == "numeric"
                and not getattr(f, "decimal_places", 0)
            ):
                # reference NUMERIC.prepare_number (fields.py:706-712)
                raise TypeError(
                    "Can't index a Decimal object unless you specified "
                    "decimal_places on the field"
                )
        self.rows.append(fields)

    def commit(self, optimize: bool = False, mergetype=None, merge: bool = True):
        """``mergetype`` accepts the reference writing-module policies:
        NO_MERGE (skip the post-commit merge pass), MERGE_SMALL (the
        default fib-heuristic pass), OPTIMIZE (full merge), CLEAR
        (drop the existing index before committing the buffer).
        ``merge=False`` is the reference's commit(merge=False) shorthand
        for NO_MERGE (writing.py IndexWriter.commit).  Setting
        ``writer.optimize = True`` before commit forces a full merge like
        the reference writer attribute."""
        optimize = optimize or getattr(self, "optimize", False)
        if not merge and mergetype is None:
            mergetype = NO_MERGE
        if getattr(self, "_deletes", None):
            import numpy as _np

            from .pipelines.write_ops import delete_by_query
            from .query.ast import DocSet as _DocSet

            delete_by_query(
                self.index.dirname,
                _DocSet(_np.array(sorted(set(self._deletes)), dtype=_np.uint64)),
            )
            self._deletes = []
        if mergetype is CLEAR:
            import shutil as _shutil

            for p in _glob.glob(os.path.join(self.index.dirname, "*")):
                (_shutil.rmtree if os.path.isdir(p) else os.remove)(p)
        if mergetype is OPTIMIZE:
            optimize = True
        if self.rows:
            schema = self.index.index_schema
            cols = {}
            for f in schema.fields:
                vals = [r.get(f.name) for r in self.rows]
                if f.kind == "numeric":
                    if getattr(f, "decimal_places", 0):
                        from .schema import decimal_to_sortable

                        vals = [
                            None if v is None
                            else decimal_to_sortable(v, f.decimal_places)
                            for v in vals
                        ]
                    cols[f.name] = pa.array(
                        vals,
                        pa.float64() if f.numtype == "float" else pa.int64(),
                    )
                elif f.kind == "boolean":
                    # the reference BOOLEAN accepts "true"/"yes"/"1"-style
                    # strings at add_document (fields.py BOOLEAN.index)
                    trues = {"t", "true", "yes", "1"}
                    vals = [
                        None if v is None
                        else (v.lower() in trues if isinstance(v, str) else bool(v))
                        for v in vals
                    ]
                    cols[f.name] = pa.array(vals, pa.bool_())
                elif f.kind == "datetime":
                    cols[f.name] = pa.array(vals, pa.timestamp("us"))
                elif f.kind == "stored":
                    # STORED keeps the native value type (reference stored
                    # fields round-trip Python values); mixed-type buffers
                    # degrade to strings.  A column whose type differs
                    # between commits reads back as strings the same way
                    # (sources.corpus.source_schema).
                    try:
                        arr = pa.array(vals)
                        if pa.types.is_null(arr.type):
                            arr = pa.array(vals, pa.string())
                        cols[f.name] = arr
                    except (pa.ArrowInvalid, pa.ArrowTypeError):
                        cols[f.name] = pa.array(
                            [None if v is None else str(v) for v in vals],
                            pa.string(),
                        )
                else:
                    cols[f.name] = pa.array(
                        [None if v is None else str(v) for v in vals], pa.string()
                    )
            extra_keys = sorted({k for r in self.rows for k in r if k.startswith("_")})
            for k in extra_keys:
                if k.startswith("_stored_"):
                    # alternate stored value (reference add_document
                    # ``_stored_<fieldname>``, writing.py:404-415); NULL =
                    # no override for that row
                    cols[k] = pa.array(
                        [str(r[k]) if k in r else None for r in self.rows], pa.string()
                    )
                else:
                    # rows that didn't pass the boost kwarg stay NULL — the
                    # tokenizer falls back per row (_<field>_boost ->
                    # _boost -> 1.0)
                    cols[k] = pa.array(
                        [float(r[k]) if k in r else None for r in self.rows], pa.float64()
                    )
            tbl = pa.table(cols)
            gen = len(_glob.glob(os.path.join(self.index.dirname, "docs-*.parquet")))
            path = os.path.join(self.index.dirname, f"docs-{gen:05d}.parquet")
            pq.write_table(tbl, path, row_group_size=max(1024, len(self.rows)))
            man = load_manifest(self.index.dirname)
            if man is None:
                build_index(
                    [path], self.index.dirname, schema=schema,
                    num_shards=self.num_shards, partition_rows=self.partition_rows,
                )
            else:
                from .pipelines.write_ops import append_documents

                append_documents(
                    self.index.dirname, path,
                    num_shards=self.num_shards, partition_rows=self.partition_rows,
                )
            self.rows = []
        if optimize:
            _merge(self.index.dirname, optimize=True)
        elif mergetype is MERGE_SMALL:
            _merge(self.index.dirname)

    def group(self):
        """Reference IndexWriter.group() (writing.py:240-278): docs added
        inside the block get CONTIGUOUS docnums, the contract NestedParent
        /NestedChildren block joins rely on.  This writer assigns docnums
        in add order within a commit, so contiguity holds by construction
        — the context manager documents (and scopes) the intent."""
        import contextlib

        @contextlib.contextmanager
        def _grp():
            yield self

        return _grp()

    def delete_by_term(self, fieldname: str, text: str) -> int:
        from .pipelines.write_ops import delete_by_term

        return delete_by_term(self.index.dirname, fieldname, text)

    def delete_by_query(self, q) -> int:
        """Reference IndexWriter.delete_by_query (writing.py:334-342)."""
        from .pipelines.write_ops import delete_by_query

        return delete_by_query(self.index.dirname, q)

    def add_field(self, fieldname: str, fieldtype) -> None:
        """Reference IndexWriter.add_field (writing.py:279-287)."""
        self.index.add_field(fieldname, fieldtype)

    def remove_field(self, fieldname: str) -> None:
        """Reference IndexWriter.remove_field (writing.py:289-297)."""
        self.index.remove_field(fieldname)

    def update_document(self, **fields):
        """Reference IndexWriter.update_document (writing.py:439-502):
        delete every COMMITTED doc matching any given unique field's
        value, then buffer the add.  Like the reference, docs added
        earlier to this same uncommitted writer are not seen by the
        delete — BufferedWriter covers that case."""
        schema = self.index.index_schema
        uniques = [
            f for f in schema.fields
            if getattr(f, "unique", False) and fields.get(f.name) is not None
        ]
        if not uniques:
            raise ValueError(
                "update_document requires a value for at least one unique field"
            )
        if load_manifest(self.index.dirname) is not None:
            for f in uniques:
                self.delete_by_term(f.name, str(fields[f.name]))
        self.add_document(**fields)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.commit()


# ---- searcher / results ----------------------------------------------------


class ResultsPage:
    """One page of a results set (reference searching.py:1620-1710):
    ``len()`` is the TOTAL hit count, iteration yields this page's
    hits, ``pagenum`` clamps to the last page, ``pagelen`` shrinks on
    the final partial page."""

    def __init__(self, results: Results, pagenum: int, pagelen: int = 10):
        import math as _math

        self.results = results
        self.total = len(results)
        if pagenum < 1:
            raise ValueError("pagenum must be >= 1")
        self.pagecount = int(_math.ceil(self.total / pagelen))
        self.pagenum = min(self.pagecount, pagenum)
        offset = (self.pagenum - 1) * pagelen
        if (offset + pagelen) > self.total:
            pagelen = self.total - offset
        self.offset = offset
        self.pagelen = pagelen

    def __getitem__(self, n):
        offset = self.offset
        if isinstance(n, slice):
            start, stop, step = n.indices(self.pagelen)
            return self.results[start + offset : stop + offset : step]
        return self.results[n + offset]

    def __iter__(self):
        return iter(self.results[self.offset : self.offset + self.pagelen])

    def __len__(self):
        return self.total

    def scored_length(self):
        return self.results.scored_length()

    def score(self, n):
        return self.results.score(n + self.offset)

    def docnum(self, n):
        return self.results.docnum(n + self.offset)

    def is_last_page(self):
        return self.pagecount == 0 or self.pagenum == self.pagecount


class AsyncWriter(Writer):
    """Reference writing.AsyncWriter veneer: the reference wraps a
    writer to avoid lock contention; commits here are whole batch jobs
    with no file locks, so it IS the plain writer."""


class BufferedWriter:
    """Reference writing.BufferedWriter (writing.py:1149-1326): buffers
    add/update calls, auto-flushing every ``limit`` docs or ``period``
    seconds; ``searcher()``/``reader()`` see buffered docs immediately
    (quasi-real-time), and ``update_document`` DOES see docs added
    earlier to the same buffer.

    DESIGN DEVIATION (declared, TODO.md): the reference keeps buffered
    docs in a RAM codec segment and unions readers without committing;
    here a flush IS a (tiny) durable segment append + fib merge — the
    micro-segment is this engine's RAM-segment equivalent.  Observable
    search results match; the difference is durability/IO profile
    (buffered docs become durable once flushed or searched)."""

    def __init__(self, index, period=60, limit=10, writerargs=None,
                 commitargs=None):
        import threading

        self.index = index
        self.period = period
        self.limit = limit
        self.writerargs = writerargs or {}
        self.commitargs = commitargs or {}
        self.lock = threading.RLock()
        self._threading = threading
        self._buf: list = []
        self._timer = None
        self._start_timer()

    def _start_timer(self):
        if self.period:
            self._timer = self._threading.Timer(self.period, self.commit)
            self._timer.daemon = True
            self._timer.start()

    @property
    def schema(self):
        return self.index.index_schema

    @property
    def bufferedcount(self) -> int:
        return len(self._buf)

    def add_document(self, **fields):
        with self.lock:
            self._buf.append(("add", fields))
            if len(self._buf) >= self.limit:
                self.commit()

    def update_document(self, **fields):
        with self.lock:
            self._buf.append(("update", fields))
            if len(self._buf) >= self.limit:
                self.commit()

    def delete_by_term(self, fieldname, text) -> int:
        # flush so the delete sees buffered docs too
        self.commit()
        w = self.index.writer(**self.writerargs)
        return w.delete_by_term(fieldname, text)

    def commit(self, restart: bool = True):
        with self.lock:
            if self._timer is not None:
                self._timer.cancel()
            buf, self._buf = self._buf, []
            if buf:
                w = self.index.writer(**self.writerargs)
                for op, fields in buf:
                    if op == "update":
                        # make earlier SAME-BUFFER adds visible to the
                        # unique-key delete (the reference's RAM segment
                        # gives BufferedWriter exactly this property)
                        if w.rows:
                            w.commit(**self.commitargs)
                            w = self.index.writer(**self.writerargs)
                        w.update_document(**fields)
                    else:
                        w.add_document(**fields)
                w.commit(**self.commitargs)
            if restart:
                self._start_timer()

    def reader(self, **kwargs):
        self.commit()
        return self.index.reader()

    def searcher(self, **kwargs):
        self.commit()
        return self.index.searcher(**kwargs)

    def close(self):
        self.commit(restart=False)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


BatchWriter = BufferedWriter  # reference's deprecated alias (writing.py:1326)


class Hit:
    def __init__(self, docnum: int, score: float, fields: dict):
        self.docnum = docnum
        self.score = score
        self._fields = fields
        self._matched_terms = None  # set by search(terms=True)
        self._searcher = None  # back-refs set by _hits_to_results
        self._q = None

    # dict-style access (reference Hit mapping API)
    def fields(self) -> dict:
        return self._fields

    def keys(self):
        return self._fields.keys()

    def values(self):
        return self._fields.values()

    def items(self):
        return self._fields.items()

    iterkeys = keys
    itervalues = values
    iteritems = items

    def __contains__(self, k):
        return k in self._fields

    def __iter__(self):
        return iter(self._fields)

    def __eq__(self, other):
        # reference Hit.__eq__ (searching.py:1562-1566): stored-field
        # dict equality, also against a plain dict
        if isinstance(other, Hit):
            return self._fields == other._fields
        if isinstance(other, dict):
            return self._fields == other
        return NotImplemented

    def __hash__(self):
        return hash(self.docnum)

    def more_like_this(self, fieldname, limit=10, numterms=5, model=None):
        """Docs similar to this hit (reference Hit.more_like_this ->
        Searcher.more_like)."""
        if self._searcher is None:
            raise ValueError("hit has no search context")
        return self._searcher.more_like(
            self.docnum, fieldname, limit=limit, numterms=numterms, model=model
        )

    def highlights(
        self,
        fieldname: str,
        text: str | None = None,
        top: int = 3,
        minscore: int = 1,
        fragmenter=None,
        formatter=None,
        scorer=None,
        order=None,
        strict_phrase: bool = False,
    ) -> str:
        """Highlighted snippets of this hit for the search's query terms
        (reference Hit.highlights, searching.py:1232-1283).  ``text``
        overrides the stored value (the reference's use for unstored
        fields)."""
        if self._searcher is None or self._q is None:
            raise ValueError("hit has no search context for highlighting")
        from .query.highlight import highlight, highlight_hit

        res = getattr(self, "_results", None)
        kw = {"top": top, "minscore": minscore}
        if strict_phrase:
            kw["strict_phrase"] = True
        for name, override in (
            ("fragmenter", fragmenter), ("formatter", formatter),
            ("scorer", scorer), ("order", order),
        ):
            v = override if override is not None else (
                getattr(res, name, None) if res is not None else None
            )
            if v is not None:
                kw[name] = v
        if "formatter" not in kw:
            # the reference routes Hit.highlights through Results'
            # default Highlighter, whose formatter is HtmlFormatter("b")
            # (highlight.py Highlighter.__init__) — NOT the bare
            # highlight() default of UppercaseFormatter
            from .query.highlight import HtmlFormatter

            kw["formatter"] = HtmlFormatter(tagname="b")
        if text is not None:
            terms = {t for (f, t) in self._q.terms() if f == fieldname}
            fspec = next(
                f for f in self._searcher.manifest.schema.fields if f.name == fieldname
            )
            if kw.pop("strict_phrase", False):
                kw["strict_phrase_q"] = self._q
            return highlight(text, terms, fspec.analyzer, **kw)
        spec = self._searcher.manifest.schema.by_name.get(fieldname)
        if spec is not None and not spec.stored:
            # reference Highlighter.highlight_hit contract: unstored field
            # without a ``text=`` override raises (our source parquet could
            # serve it, but drop-in callers rely on the KeyError)
            raise KeyError(f"Field {fieldname!r} is not stored.")
        return highlight_hit(self._searcher, self.docnum, fieldname, self._q, **kw)

    def __getitem__(self, k):
        return self._fields[k]

    def get(self, k, default=None):
        return self._fields.get(k, default)

    def matched_terms(self):
        """(field, text) pairs of query terms present in this doc —
        reference Hit.matched_terms with the TermsCollector wrapper
        (collectors.py TermsCollector; enable via search(terms=True)).
        Our terms are str, not the reference's utf-8 bytes."""
        if self._matched_terms is None:
            raise ValueError("search() was not run with terms=True")
        return sorted(self._matched_terms)

    def __repr__(self):
        return f"<Hit {self.docnum} {self.score:.4f} {self._fields}>"


class Results:
    def __init__(self, hits: list, total: int | None = None, total_fn=None):
        self.hits = hits
        self._total = total
        self._total_fn = total_fn
        self._groups = None

    # highlight configuration consumed by Hit.highlights — reference-style
    # Results.highlighter object with fragmenter/formatter/scorer/order
    # property forwarding (searching.py Results highlight setters).  The
    # Highlighter is created lazily with unset (None) pieces so an
    # untouched Results keeps the engine's own highlight defaults.
    _highlighter = None

    @property
    def highlighter(self):
        if self._highlighter is None:
            from .query.highlight import Highlighter

            hl = Highlighter()
            hl.fragmenter = hl.formatter = hl.scorer = hl.order = None
            self._highlighter = hl
        return self._highlighter

    @highlighter.setter
    def highlighter(self, hl):
        self._highlighter = hl

    @property
    def fragmenter(self):
        return self._highlighter.fragmenter if self._highlighter else None

    @fragmenter.setter
    def fragmenter(self, v):
        self.highlighter.fragmenter = v

    @property
    def formatter(self):
        return self._highlighter.formatter if self._highlighter else None

    @formatter.setter
    def formatter(self, v):
        self.highlighter.formatter = v

    @property
    def scorer(self):
        return self._highlighter.scorer if self._highlighter else None

    @scorer.setter
    def scorer(self, v):
        self.highlighter.scorer = v

    @property
    def order(self):
        return self._highlighter.order if self._highlighter else None

    @order.setter
    def order(self, v):
        self.highlighter.order = v

    @property
    def top_n(self) -> list:
        """(score, docnum) pairs of the collected hits (reference
        Results.top_n)."""
        return [(h.score, h.docnum) for h in self.hits]

    @property
    def total(self):
        """EXACT number of matching documents (reference len(Results)):
        computed lazily via a distributed count when the search was
        truncated by ``limit``."""
        if self._total is None:
            self._total = (
                self._total_fn() if self._total_fn else len(self.hits)
            )
        return self._total

    @total.setter
    def total(self, v):
        self._total = v

    def groups(self, name=None):
        """Facet groups from a search(groupedby=...) (reference
        Results.groups, searching.py:1043-1076).  With a Facets
        groupedby, ``name`` selects the entry (first entry if None)."""
        if self._groups is None:
            raise KeyError("search was not run with groupedby")
        if isinstance(self._groups, dict) and self._groups.get("__facets__"):
            maps = self._groups["maps"]
            if name is None:
                return next(iter(maps.values()))
            return maps[name]
        return self._groups

    def __iter__(self):
        return iter(self.hits)

    def __len__(self):
        return self.total  # exact match count (reference semantics)

    def __getitem__(self, i):
        return self.hits[i]

    def scored_length(self):
        return len(self.hits)

    # -- reference Results API fillers (searching.py:960-1170) --
    def is_empty(self) -> bool:
        return not self.hits

    def docnum(self, n: int) -> int:
        return self.hits[n].docnum

    def score(self, n: int) -> float:
        return self.hits[n].score

    def fields(self, n: int) -> dict:
        return self.hits[n].fields()

    def items(self):
        return ((h.docnum, h.score) for h in self.hits)

    def has_exact_length(self) -> bool:
        return True  # totals here are always exact

    def estimated_length(self) -> int:
        return self.total

    def estimated_min_length(self) -> int:
        return self.total

    def copy(self) -> "Results":
        out = Results(list(self.hits), self._total, self._total_fn)
        out._groups = self._groups
        out._searcher = getattr(self, "_searcher", None)
        out._q = getattr(self, "_q", None)
        out._highlighter = self._highlighter
        return out

    def facet_names(self):
        if self._groups is None:
            return []
        if isinstance(self._groups, dict) and self._groups.get("__facets__"):
            return list(self._groups["maps"].keys())
        return [None]

    def has_matched_terms(self) -> bool:
        return any(h._matched_terms is not None for h in self.hits)

    @property
    def termdocs(self) -> dict:
        """{(field, term): [docnum, ...]} over the collected hits for
        search(terms=True) (reference TermsCollector.termdocs)."""
        from collections import defaultdict

        out = defaultdict(list)
        for h in self.hits:
            for ft in (h._matched_terms or ()):
                out[ft].append(h.docnum)
        return dict(out)

    @property
    def docterms(self) -> dict:
        """{docnum: [(field, term), ...]} (reference
        TermsCollector.docterms)."""
        return {
            h.docnum: sorted(h._matched_terms)
            for h in self.hits
            if h._matched_terms is not None
        }

    def matched_terms(self) -> set:
        out: set = set()
        for h in self.hits:
            if h._matched_terms:
                out |= set(h._matched_terms)
        return out

    def query_terms(self, expand=False, fieldname=None):
        q = getattr(self, "_q", None)
        if q is None:
            return []
        return [
            (f, t) for f, t in q.terms() if fieldname is None or f == fieldname
        ]

    def key_terms(self, fieldname, docs: int = 10, numterms: int = 5, **kw):
        docnums = [h.docnum for h in self.hits[:docs]]
        if not docnums:
            return []  # reference answers [] on empty results
        s = getattr(self, "_searcher", None)
        if s is None:
            raise ValueError("results have no search context")
        return s.key_terms(docnums, fieldname, numterms=numterms, **kw)

    # ---- combination ops (reference searching.py:1327-1396) --------------

    def docs(self) -> set:
        return {h.docnum for h in self.hits}

    def extend(self, results: "Results"):
        """Append the other results' hits not already present, after ours."""
        docs = self.docs()
        self.hits.extend(h for h in results.hits if h.docnum not in docs)
        self.total = len(docs | results.docs())

    def filter(self, results: "Results"):
        """Keep only hits that also appear in the other results (no-op when
        the other results are empty, like the reference)."""
        if not len(results):
            return
        other = results.docs()
        self.hits = [h for h in self.hits if h.docnum in other]
        self.total = len(self.hits)

    def upgrade(self, results: "Results", reverse: bool = False):
        """Raise hits that also appear in the other results above the rest,
        keeping relative order within each group (``reverse`` lowers them)."""
        if not len(results):
            return
        other = results.docs()
        arein = [h for h in self.hits if h.docnum in other]
        notin = [h for h in self.hits if h.docnum not in other]
        self.hits = notin + arein if reverse else arein + notin

    def upgrade_and_extend(self, results: "Results"):
        """upgrade() then extend() in one pass."""
        if not len(results):
            return
        docs = self.docs()
        other = results.docs()
        arein = [h for h in self.hits if h.docnum in other]
        notin = [h for h in self.hits if h.docnum not in other]
        extra = [h for h in results.hits if h.docnum not in docs]
        self.hits = arein + notin + extra
        self.total = len(docs | other)


def _stored_fields_many(s: IndexSearcher, docnums: list) -> list:
    """Stored fields of ``docnums`` (in that order; unknown docnums are
    dropped), read from the source parquet the commits wrote."""
    from .sources.corpus import fetch_rows, source_schema

    schema = s.manifest.schema
    stored = [f.name for f in schema.fields if f.stored]
    parts = s.manifest.partitions
    # _stored_<field> columns override the indexed value for display
    # (reference add_document ``_stored_<fieldname>``, writing.py:404); the
    # first one may come in any commit, so look in every commit's file
    src_cols = set(source_schema(parts).names) if parts else set()
    overrides = [f"_stored_{n}" for n in stored if f"_stored_{n}" in src_cols]
    rows = fetch_rows(parts, docnums, columns=stored + overrides)
    if rows is None:
        return []
    decimal_fields = {
        f.name: f.decimal_places
        for f in schema.fields
        if f.kind == "numeric" and getattr(f, "decimal_places", 0)
    }
    by_doc = {}
    for r in rows.to_pylist():
        d = {k: v for k, v in r.items() if k != "docnum" and not k.startswith("_stored_")}
        for ov in overrides:
            if r.get(ov) is not None:
                d[ov[len("_stored_"):]] = r[ov]
        for name, places in decimal_fields.items():
            if d.get(name) is not None:
                from .schema import sortable_to_decimal

                d[name] = sortable_to_decimal(d[name], places)
        by_doc[r["docnum"]] = d
    return [by_doc[d] for d in docnums if d in by_doc]


class CompatSearcher:
    def __init__(self, index: Index, weighting=None, **searcher_kwargs):
        from .scoring import weighting_kwargs

        self.index = index
        if load_manifest(index.dirname) is None:
            searcher_kwargs = dict(searcher_kwargs,
                                   manifest=index._empty_manifest())
        self._s = IndexSearcher(
            index.dirname, **weighting_kwargs(weighting), **searcher_kwargs
        )
        self._schema = self._s.manifest.schema
        self._parser = None
        # reference use_final hook (scoring.WeightingModel.final,
        # scoring.py: collectors call final(searcher, docnum, score) per
        # collected doc and rank by the ADJUSTED score)
        w = weighting() if isinstance(weighting, type) else weighting
        self._final = (
            w.final if w is not None and getattr(w, "use_final", False) else None
        )
        self.weighting = w

    # context manager like the reference's `with ix.searcher() as s:`
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def parse(self, qstring: str, default_field: str | None = None):
        if self._parser is None or default_field:
            df = default_field or next(
                (f.name for f in self._schema.fields if f.kind == "text"),
                self._schema.fields[0].name,
            )
            self._parser = QueryParser(df, self._schema)
        return self._parser.parse(qstring)

    def search(
        self,
        q,
        limit: int = 10,
        terms: bool = False,
        sortedby=None,
        reverse: bool = False,
        groupedby=None,
        maptype: str = "ordered",
        collapse: str | None = None,
        collapse_limit: int = 1,
        collapse_order=None,
        **kw,
    ) -> Results:
        """Reference Searcher.search kwargs (searching.py:671-765):
        ``sortedby``/``reverse`` order by field values (scores are None,
        like the reference's sorted search), ``groupedby`` attaches facet
        groups readable via ``Results.groups()``, ``collapse``/
        ``collapse_limit`` keep the best N per collapse key.  All three
        route to the distributed segment-partial implementations."""
        if isinstance(q, str):
            q = self.parse(q)
        # the reference's filter/mask accept Results objects and plain
        # docnum sets as well as queries
        for key in ("filter", "mask"):
            v = kw.get(key)
            if isinstance(v, Results):
                kw[key] = _docset_query(d for d in v.docs())
            elif isinstance(v, (set, frozenset, list)):
                kw[key] = _docset_query(v)
        # the EXACT len(Results) count must respect filter/mask — compose
        # them into the lazily-counted query (reference counts collected
        # docs, which the collector filter already restricted)
        from .query.ast import AndNot as _AndNot
        from .query.ast import Require as _Require

        count_q = q
        if kw.get("filter") is not None:
            count_q = _Require(count_q, kw["filter"])
        if kw.get("mask") is not None:
            count_q = _AndNot(count_q, kw["mask"])
        stored = [f.name for f in self._schema.fields if f.stored]
        # every DERIVED search below (sorted / collapsed / group maps /
        # key-facet sorts) evaluates count_q — the query with filter/mask
        # composed in — because the reference applies filter at the
        # collector, which all of those paths share
        if isinstance(sortedby, (FunctionFacet, TranslateFacet, StoredFieldFacet)):
            return self._search_sorted_by_keys(
                count_q, sortedby, limit, reverse, groupedby, maptype
            )
        if (
            sortedby is not None
            and collapse is not None
            and not isinstance(sortedby, ScoreFacet)
        ):
            # sortedby + collapse composition (reference CollapseCollector
            # wrapping a sorting collector): keep the per-key best under
            # collapse_order — or under the sort order itself when no
            # explicit collapse_order — then order survivors by sortedby.
            # Distributed: the keyed keep happens in segment partials
            # (search_collapsed), the survivor re-sort is a second bounded
            # pass (n_keys x collapse_limit docs).  Keep-rank uses the
            # PRIMARY sort key (single-key order_spec at the partial).
            pairs = _sortedby_fields(sortedby)
            if isinstance(collapse, FieldFacet):
                collapse = collapse.fieldname
            if isinstance(collapse_order, FieldFacet):
                collapse_order = (collapse_order.fieldname, collapse_order.reverse)
            keep_order = collapse_order
            if keep_order is None and pairs:
                keep_order = (pairs[0][0], bool(pairs[0][1]) ^ bool(reverse))
            kept = self._s.search_collapsed(
                count_q, collapse, limit=None,
                collapse_limit=collapse_limit, collapse_order=keep_order,
            )
            kept_docs = kept["docnum"].to_pylist()
            t = self._s.search_sorted(
                _docset_query(kept_docs), pairs, limit=limit, reverse=reverse
            )
            docnums = t["docnum"].to_pylist()
            rows = self.stored_fields_many(docnums) if docnums else []
            hits = [Hit(d, None, r) for d, r in zip(docnums, rows)]
            out = Results(hits, len(kept_docs))
            out._searcher, out._q = self._s, q
            for h in hits:
                h._searcher, h._q, h._results = self._s, q, out
            if groupedby is not None:
                out._groups = self._groups_for(count_q, groupedby, limit, maptype)
            return out
        if sortedby is not None and not isinstance(sortedby, ScoreFacet):
            pairs = _sortedby_fields(sortedby)
            t = self._s.search_sorted(count_q, pairs, limit=limit, reverse=reverse)
            docnums = t["docnum"].to_pylist()
            rows = self.stored_fields_many(docnums) if docnums else []
            hits = [Hit(d, None, r) for d, r in zip(docnums, rows)]
            if limit is not None:
                from .query.collectors import CountCollector

                out = Results(
                    hits,
                    total_fn=lambda: self._s.search_with_collector(
                        count_q, CountCollector()
                    ),
                )
            else:
                out = Results(hits, len(hits))
            out._searcher, out._q = self._s, q
            for h in hits:
                h._searcher, h._q, h._results = self._s, q, out
            if groupedby is not None:
                out._groups = self._groups_for(count_q, groupedby, limit, maptype)
            return out
        total_fn = None
        if collapse is not None:
            if isinstance(collapse, FieldFacet):
                collapse = collapse.fieldname
            if isinstance(collapse_order, FieldFacet):
                collapse_order = (collapse_order.fieldname, collapse_order.reverse)
            res = self._s.search_collapsed(
                count_q, collapse, limit=limit, collapse_limit=collapse_limit,
                collapse_order=collapse_order,
            )
            # len(Results) counts collapse SURVIVORS (the reference's
            # CollapseCollector removes collapsed docs from the count);
            # the survivor set is bounded by n_keys x collapse_limit
            _ck, _cl, _co = collapse, collapse_limit, collapse_order
            total_fn = lambda: self._s.search_collapsed(  # noqa: E731
                count_q, _ck, limit=None, collapse_limit=_cl,
                collapse_order=_co,
            ).num_rows
        elif self._final is not None:
            # rank by final()-adjusted scores: evaluate unlimited, adjust
            # per doc on the driver (the reference's collector is equally
            # per-doc), re-rank, truncate
            res = self._s.search(q, limit=None, **kw)
            docs = res["docnum"].to_numpy()
            scores = np.fromiter(
                (
                    float(self._final(self, int(d), float(s0)))
                    for d, s0 in zip(docs, res["score"].to_numpy())
                ),
                dtype=np.float64,
                count=docs.size,
            )
            order = np.lexsort((docs, -scores))
            if limit is not None:
                order = order[:limit]
            res = pa.table(
                {
                    "docnum": pa.array(docs[order], pa.uint64()),
                    "score": pa.array(scores[order], pa.float64()),
                }
            )
        else:
            res = self._s.search(q, limit=limit, **kw)
        if groupedby is not None:
            out = self._hits_to_results(
                res, stored, q, terms, truncated=limit is not None,
                count_q=count_q, total_fn=total_fn,
            )
            out._groups = self._groups_for(count_q, groupedby, limit, maptype)
            return out
        return self._hits_to_results(
            res, stored, q, terms, truncated=limit is not None,
            count_q=count_q, total_fn=total_fn,
        )

    def _facet_keys(self, facet, sorted_docs) -> list:
        """Key per doc (aligned to ``sorted_docs``) for the Python-key
        facet family (Function/Translate and whatever they wrap)."""
        if isinstance(facet, FieldFacet):
            return self._s._doc_values(facet.fieldname, sorted_docs).tolist()
        if isinstance(facet, FunctionFacet):
            return [facet.fn(self, int(d)) for d in sorted_docs]
        if isinstance(facet, TranslateFacet):
            cols = [self._facet_keys(f, sorted_docs) for f in facet.facets]
            return [facet.fn(*vals) for vals in zip(*cols)]
        if isinstance(facet, MultiFacet):
            cols = [self._facet_keys(f, sorted_docs) for f in facet.facets]
            return list(zip(*cols))
        if isinstance(facet, StoredFieldFacet):
            rows = self.stored_fields_many([int(d) for d in sorted_docs])
            return [(row or {}).get(facet.fieldname) for row in rows]
        raise TypeError(f"unsupported facet for key computation: {facet!r}")

    def _search_sorted_by_keys(self, q, facet, limit, reverse, groupedby, maptype):
        """``sortedby=FunctionFacet/TranslateFacet``: Python key callables
        can't ship to segment workers, so the driver orders the full match
        docnum set by computed keys — the reference's categorizer is
        equally single-process (sorting.py:593-686).  The match set and
        any wrapped-FieldFacet key columns still come from the distributed
        search; only the final keyed sort is driver-side."""
        res = self._s.search(q, limit=None)
        docs = np.sort(res["docnum"].to_numpy())
        keys = self._facet_keys(facet, docs)
        order = sorted(
            range(docs.size),
            key=lambda i: (keys[i], int(docs[i])),
            reverse=reverse,
        )
        if limit is not None:
            order = order[:limit]
        docnums = [int(docs[i]) for i in order]
        rows = self.stored_fields_many(docnums) if docnums else []
        hits = [Hit(d, None, r) for d, r in zip(docnums, rows)]
        out = Results(hits, res.num_rows)
        out._searcher, out._q = self._s, q
        for h in hits:
            h._searcher, h._q, h._results = self._s, q, out
        if groupedby is not None:
            out._groups = self._groups_for(q, groupedby, limit, maptype)
        return out

    def _function_facet_groups(self, q, facet, limit, maptype):
        """groupedby=FunctionFacet/TranslateFacet: keys per collected doc
        (score order), grouped per the map type."""
        res = self._s.search(q, limit=limit)
        docs = res["docnum"].to_numpy()
        sorted_docs = np.sort(docs)
        keys = dict(zip(sorted_docs.tolist(), self._facet_keys(facet, sorted_docs)))
        groups: dict = {}
        for d in docs.tolist():  # score order
            k = keys[d]
            if maptype == "count":
                groups[k] = groups.get(k, 0) + 1
            elif maptype == "best":
                groups.setdefault(k, d)
            else:
                groups.setdefault(k, []).append(d)
        return groups

    def _groups_for(self, q, groupedby, limit, maptype):
        """groupedby spec -> group map: field name(s) via the distributed
        grouped search; Range/DateRange facets via segment-side bucket
        counts ({(lo, hi): n}, the Count map).  A facet's own ``maptype``
        overrides the search-level argument (reference FacetType.maptype);
        UnorderedList re-sorts each group's doc list by docnum."""
        fmt = getattr(groupedby, "maptype", None)
        if fmt is not None:
            maptype = fmt
        maptype = _maptype_name(maptype)
        unordered = maptype == "unordered"
        if unordered:
            maptype = "ordered"
        # group maps cover EVERY matched doc — the reference's facet
        # collector observes all matches; the search limit only truncates
        # the returned top-n hit list
        g = self._groups_for_inner(q, groupedby, None, maptype)
        if unordered and isinstance(g, dict) and not g.get("__facets__"):
            g = {k: sorted(v) for k, v in g.items()}
        return g

    def _groups_for_inner(self, q, groupedby, limit, maptype):
        if isinstance(groupedby, dict):
            # the reference accepts {"name": facet} dicts
            fs = Facets()
            for name, f in groupedby.items():
                fs.add_facet(name, f)
            groupedby = fs
        if isinstance(groupedby, Facets):
            return {
                "__facets__": True,
                "maps": {
                    name: self._groups_for(q, f, limit, maptype)
                    for name, f in groupedby.items()
                },
            }
        if isinstance(groupedby, (FunctionFacet, TranslateFacet)):
            return self._function_facet_groups(q, groupedby, limit, maptype)
        if isinstance(groupedby, QueryFacet):
            return self._query_facet_groups(q, groupedby, maptype)
        if isinstance(groupedby, StoredFieldFacet):
            return self._stored_field_groups(q, groupedby, limit, maptype)
        if isinstance(groupedby, RangeFacet):
            scalar_gap = not isinstance(groupedby.gap, (list, tuple))
            if maptype == "count" and scalar_gap:
                # distributed segment-side bucket counts (no match
                # materialization) — the scale path
                return self._s.facet_counts_range(
                    q, groupedby.fieldname, groupedby.start, groupedby.end,
                    groupedby.gap,
                )
            return self._range_facet_groups(q, groupedby, maptype)
        if isinstance(groupedby, FieldFacet):
            if groupedby.allow_overlap:
                return self._overlap_field_groups(q, groupedby, maptype)
            groupedby = groupedby.fieldname
        elif isinstance(groupedby, MultiFacet):
            groupedby = groupedby.fieldnames()
        return self._s.search_grouped(q, groupedby, limit=limit, maptype=maptype)

    def _overlap_field_groups(self, q, facet: FieldFacet, maptype):
        """FieldFacet(allow_overlap=True): one group per TOKEN of the
        doc's field value (reference sorting.py overlapping categorizer);
        docs listed in score order like the plain grouped map."""
        from .functions.analysis import make_analyzer

        res = self._s.search(q, limit=None)
        docs = res["docnum"].to_pylist()
        sorted_docs = np.sort(np.array(docs, dtype=np.uint64))
        vals = self._s._doc_values(facet.fieldname, sorted_docs)
        val_of = dict(zip(sorted_docs.tolist(), list(vals)))
        spec = self._s.manifest.schema.by_name.get(facet.fieldname)

        def toks(v):
            if v is None:
                return [None]  # missing bucket (reference overlap facets)
            if spec is not None and spec.analyzer is not None:
                return [t for t, _ in make_analyzer(spec.analyzer)(str(v))]
            return str(v).split()

        groups: dict = {}
        for d in docs:  # score order
            for t in toks(val_of.get(d)):
                if maptype == "count":
                    groups[t] = groups.get(t, 0) + 1
                elif maptype == "best":
                    groups.setdefault(t, d)
                else:
                    groups.setdefault(t, []).append(d)
        return groups

    def _range_facet_groups(self, q, rf: RangeFacet, maptype):
        """Reference RangeFacet map semantics: doc lists in score order
        per bucket, variable-width gap lists (last width repeats), a
        ``None`` bucket for missing/out-of-range values."""
        res = self._s.search(q, limit=None)
        docs = res["docnum"].to_pylist()
        sorted_docs = np.sort(np.array(docs, dtype=np.uint64))
        vals = self._s._doc_values(rf.fieldname, sorted_docs)
        val_of = dict(zip(sorted_docs.tolist(), list(vals)))
        gaps = (
            list(rf.gap) if isinstance(rf.gap, (list, tuple)) else [rf.gap]
        )
        import datetime as _dt

        def _advance(lo, g):
            # month/year-granular gaps (reference DateRangeFacet accepts
            # relativedelta): duck-typed on .months/.years/.days
            months = getattr(g, "months", None)
            years = getattr(g, "years", None)
            if months is not None or years is not None:
                m = lo.month - 1 + (months or 0) + 12 * (years or 0)
                y = lo.year + m // 12
                return lo.replace(year=y, month=m % 12 + 1) + _dt.timedelta(
                    days=getattr(g, "days", 0) or 0
                )
            return lo + g

        edges = []
        lo, gi = rf.start, 0
        while lo < rf.end:
            g = gaps[min(gi, len(gaps) - 1)]
            hi_edge = _advance(lo, g)
            edges.append((lo, hi_edge))
            lo, gi = hi_edge, gi + 1
        is_dt = isinstance(rf.start, _dt.datetime)

        def _as_dt(v):
            # datetime columns surface as int64 micros / np.datetime64 —
            # align to python datetime for the bucket comparison
            if isinstance(v, _dt.datetime):
                return v
            if isinstance(v, (int, np.integer)):
                return np.datetime64(int(v), "us").item()
            if isinstance(v, np.datetime64):
                return v.astype("datetime64[us]").item()
            return v

        groups: dict = {}
        for d in docs:  # score order
            v = val_of.get(d)
            if v is not None and is_dt:
                v = _as_dt(v)
            key = None
            if v is not None and not (isinstance(v, float) and v != v):
                for a, b in edges:
                    if a <= v < b:
                        key = (a, b)
                        break
            if maptype == "count":
                groups[key] = groups.get(key, 0) + 1
            elif maptype == "best":
                groups.setdefault(key, d)
            else:
                groups.setdefault(key, []).append(d)
        return groups

    def _query_facet_groups(self, q, qf: QueryFacet, maptype):
        """QueryFacet via distributed per-bucket sub-searches with
        prior-bucket exclusion (first-match dict-order semantics); the
        count map never materializes doc lists on the driver."""
        from .query.ast import And as _And
        from .query.ast import Not as _Not
        from .query.collectors import CountCollector

        groups: dict = {}
        prior: list = []

        def one(key, bucket_q):
            # allow_overlap: a doc may land in EVERY bucket it matches
            # (reference QueryFacet(allow_overlap=True)); default is
            # first-match via prior-bucket exclusion
            excl = [] if qf.allow_overlap else [_Not(p) for p in prior]
            sub = _And([q] + ([bucket_q] if bucket_q is not None else [])
                       + excl)
            if maptype == "count":
                n = self._s.search_with_collector(sub, CountCollector())
                if n:
                    groups[key] = n
            elif maptype == "best":
                r = self._s.search(sub, limit=1)
                if r.num_rows:
                    groups[key] = int(r["docnum"][0].as_py())
            else:
                r = self._s.search(sub, limit=None)
                if r.num_rows:
                    groups[key] = r["docnum"].to_pylist()

        for name, bq in qf.querydict.items():
            one(name, bq)
            prior.append(bq)
        if qf.other is not None:
            one(qf.other, None)
        return groups

    def _stored_field_groups(self, q, sf: StoredFieldFacet, limit, maptype):
        """StoredFieldFacet: group hits by a stored field's value
        (optionally split into overlapping keys)."""
        res = self._s.search(q, limit=limit)
        docs = res["docnum"].to_pylist()
        rows = self.stored_fields_many(docs)
        split = sf.split_fn or (lambda v: v.split())
        groups: dict = {}
        for d, row in zip(docs, rows):
            v = (row or {}).get(sf.fieldname)
            if v is None:
                continue
            keys = split(v) if sf.allow_overlap else [v]
            for k in keys:
                if maptype == "count":
                    groups[k] = groups.get(k, 0) + 1
                elif maptype == "best":
                    groups.setdefault(k, d)
                else:
                    groups.setdefault(k, []).append(d)
        return groups

    def _hits_to_results(self, res, stored, q, terms: bool,
                         truncated: bool = False, count_q=None,
                         total_fn=None) -> Results:
        if truncated:
            # the reference's len(Results) is the EXACT hit count even
            # when limit pruned collection; count lazily on demand.
            # ``count_q`` carries filter/mask composed in (they restrict
            # the reference collector's count too); an explicit
            # ``total_fn`` overrides (collapse: count SURVIVORS)
            from .query.collectors import CountCollector

            cq = count_q if count_q is not None else q
            total = None
            if total_fn is None:
                total_fn = (
                    lambda: self._s.search_with_collector(cq, CountCollector())
                )
        else:
            total, total_fn = res.num_rows, None
        if res.num_rows == 0:
            return Results([], total, total_fn)
        docnums = res["docnum"].to_pylist()
        rows = self.stored_fields_many(docnums)
        hits = []
        for d, s, r in zip(docnums, res["score"].to_pylist(), rows):
            h = Hit(d, s, r)
            h._searcher, h._q = self._s, q
            hits.append(h)
        if terms:
            self._attach_matched_terms(q, hits)
        out = Results(hits, total, total_fn)
        out._searcher, out._q = self._s, q
        for h in hits:
            h._results = out
        return out

    def _attach_matched_terms(self, q, hits):
        """TermsCollector equivalent (reference collectors.py:600-656 via
        search(terms=True)): for each Term leaf of the expanded query,
        record which hit docs contain it."""
        from .query import ast

        rq = self._s._rewrite(q)
        leaves = set(rq.terms())
        for leaf in rq.leaves():  # constant-score multiterm expansions
            if isinstance(leaf, ast.ConstantTerms):
                leaves.update((leaf.field, t) for t in leaf.termlist)
        leaves = sorted(leaves)
        for h in hits:
            h._matched_terms = set()
        by_doc = {h.docnum: h for h in hits}
        for f, t in leaves:
            res = self._s.search(ast.Term(f, t), limit=None, scored=False)
            for d in res["docnum"].to_pylist():
                hit = by_doc.get(d)
                if hit is not None:
                    hit._matched_terms.add((f, t))

    def search_page(self, q, pagenum: int, pagelen: int = 10, **kwargs) -> "ResultsPage":
        """Reference search_page (searching.py:617-669 + ResultsPage)."""
        if pagenum < 1:
            raise ValueError("pagenum must be >= 1")
        return ResultsPage(
            self.search(q, limit=pagenum * pagelen, **kwargs), pagenum, pagelen
        )

    def collector(self, limit: int = 10, sortedby=None, reverse: bool = False,
                  groupedby=None, maptype: str = "ordered", **kw) -> "CollectorSpec":
        """Reference Searcher.collector (searching.py:671-716): returns a
        reusable collector handle for search_with_collector.  Here the
        handle records the search kwargs; wrapping collectors
        (collectors.CollapseCollector) layer their own kwargs on top, and
        search_with_collector runs the equivalent distributed search."""
        return CollectorSpec(
            self, limit=limit, sortedby=sortedby, reverse=reverse,
            groupedby=groupedby, maptype=maptype, **kw,
        )

    def search_with_collector(self, q, collector):
        """Reference Searcher.search_with_collector (searching.py:718-740).
        Accepts either a handle from :meth:`collector` (optionally wrapped
        in collectors.CollapseCollector) — results readable via
        ``collector.results()`` — or this engine's VectorCollector
        segment-partial protocol (forwarded to the distributed executor)."""
        spec = collector
        extra: dict = {}
        while isinstance(spec, CollapseCollector):
            extra = dict(
                collapse=spec._collapse, collapse_limit=spec._limit,
                collapse_order=spec._order, **extra,
            )
            spec = spec._child
        if isinstance(spec, CollectorSpec):
            kwargs = dict(spec._kwargs)
            kwargs.update(extra)
            spec._results = self.search(q, **kwargs)
            if isinstance(collector, CollapseCollector):
                collector._results = spec._results
            return spec._results
        return self._s.search_with_collector(q, collector)

    def document_numbers(self, **kw):
        """Docnums of documents whose fields contain the given terms
        (reference Searcher.document_numbers, searching.py:410-426: one
        Term per keyword, And-ed; no kwargs -> every document).  Values
        are matched as TERMS, exactly like the reference — pass analyzed
        text for analyzed fields."""
        from .query import ast

        known = {f.name for f in self._schema.fields}
        for k in kw:
            if k not in known:
                raise KeyError(k)  # reference raises for unknown fields
        q = ast.And([ast.Term(k, v) for k, v in kw.items()]) if kw else ast.Every()
        res = self._s.search(q, limit=None, scored=False)
        return res["docnum"].to_pylist()

    def document_number(self, **kw):
        nums = self.document_numbers(**kw)
        return nums[0] if nums else None

    def documents(self, **kw):
        """Generator of stored-field dicts for matching documents
        (reference Searcher.documents, searching.py:376-393)."""
        docnums = self.document_numbers(**kw)
        if not docnums:
            return iter([])
        return iter(self.stored_fields_many(docnums))

    def document(self, **kw):
        """First matching stored-field dict or None (reference
        Searcher.document, searching.py:352-374)."""
        for d in self.documents(**kw):
            return d
        return None

    def reader(self) -> "Reader":
        return Reader(self._s)

    def iter_docs(self):
        """(docnum, stored_fields) pairs (reference Searcher.iter_docs)."""
        return self.reader().iter_docs()

    # -- reference Searcher API fillers (searching.py:60-720) --
    def find(self, defaultfield: str, querystring: str, **kwargs) -> Results:
        """Parse and search in one call (reference Searcher.find)."""
        q = QueryParser(defaultfield, self._schema).parse(querystring)
        return self.search(q, **kwargs)

    def doc_count(self) -> int:
        return self.reader().doc_count()

    def doc_frequency(self, fieldname: str, text: str) -> int:
        """Reference Searcher.doc_frequency (delegates to the reader)."""
        return self._s.doc_frequency(fieldname, text)

    def postings(self, fieldname: str, text: str) -> "PostingReader":
        """Matcher-style cursor over one term's merged postings
        (reference Searcher.postings): id()/weight()/score()/next()/
        is_active()/all_ids()."""
        return PostingReader(self._s, fieldname, text)

    def frequency(self, fieldname: str, text: str) -> float:
        """Reference Searcher.frequency (total term weight)."""
        return self._s.frequencies([(fieldname, text)]).get((fieldname, text), 0)

    def doc_count_all(self) -> int:
        return self._s.doc_count_all()

    def field_length(self, fieldname: str) -> int:
        return self._s.manifest.field_length(fieldname)

    def avg_field_length(self, fieldname: str, default=None) -> float:
        try:
            return self._s.avg_field_length(fieldname)
        except KeyError:
            return default

    def idf(self, fieldname: str, text: str) -> float:
        return self._s.idf(fieldname, text)

    def key_terms_from_text(self, fieldname, text, numterms=5, **kw):
        return self._s.key_terms_from_text(fieldname, text, numterms=numterms, **kw)

    def docs_for_query(self, q):
        """Docnums matching a query, unscored (reference
        Searcher.docs_for_query)."""
        t = self._s.search(q, limit=None, scored=False)
        yield from t["docnum"].to_pylist()

    def refresh(self) -> "CompatSearcher":
        """Fresh searcher over the latest committed generation."""
        return CompatSearcher(self.index)

    def up_to_date(self) -> bool:
        cur = load_manifest(self.index.dirname)
        return cur is not None and cur.generation == self._s.manifest.generation

    def close(self):
        pass

    def stored_fields(self, docnum: int) -> dict:
        """Stored fields of one document (reference reader.stored_fields)."""
        rows = self.stored_fields_many([docnum])
        if not rows:
            raise KeyError(docnum)
        return rows[0]

    def stored_fields_many(self, docnums: list) -> list:
        return _stored_fields_many(self._s, docnums)

    def all_stored_fields(self):
        """Stored fields of every LIVE document in docnum order (reference
        Searcher.all_stored_fields skips deleted docs)."""
        return iter(self.reader().all_stored_fields())

    def more_like(self, docnum, fieldname, limit=10, numterms=5, model=None,
                  text=None):
        """Docs similar to the given doc as hit Results (reference
        Searcher.more_like, searching.py:561-616); ``text=`` supplies the
        source text instead of reading the doc (unstored fields)."""
        from .query import expand as _expand

        model = model or _expand.Bo1Model
        if text is not None:
            kts = _expand.key_terms_from_text(
                self._s, fieldname, text, numterms=numterms, model=model
            )
            from .query.ast import Or as _Or
            from .query.ast import Term as _Term

            q = _Or([_Term(fieldname, t, boost=w) for t, w in kts])
            res = self._s.search(q, limit=(limit + 1) if limit else None)
            import numpy as _np

            mask = res["docnum"].to_numpy() != _np.uint64(docnum)
            res = res.filter(pa.array(mask)).slice(0, limit)
        else:
            res = self._s.more_like(
                docnum, fieldname, limit=limit, numterms=numterms, model=model
            )
        stored = [f.name for f in self._schema.fields if f.stored]
        return self._hits_to_results(res, stored, None, False, truncated=False)

    def suggest(self, fieldname, text, **kw):
        return self._s.suggest(fieldname, text, **kw)

    def key_terms(self, docnums, fieldname, **kw):
        return self._s.key_terms(docnums, fieldname, **kw)

    def doc_count_all(self):
        return self._s.doc_count_all()


def _add_searcher_passthroughs():
    """Expose round-1 searcher APIs on the compat veneer (reference
    Searcher surface): correct_query, lexicon, most_frequent_terms,
    most_distinctive_terms, facet/group helpers."""
    for name in (
        "correct_query",
        "lexicon",
        "most_frequent_terms",
        "most_distinctive_terms",
        "facet_counts",
        "facet_counts_range",
        "search_grouped",
        "search_sorted",
        "search_collapsed",
        "more_like",
        "vector",
        "position_boosts",
        "payload",
        "search_with_collector",
        "parent_search",
        "spelling_fieldname",
    ):
        def make(n):
            def fwd(self, *a, **kw):
                return getattr(self._s, n)(*a, **kw)

            fwd.__name__ = n
            return fwd

        if not hasattr(CompatSearcher, name):
            setattr(CompatSearcher, name, make(name))


_add_searcher_passthroughs()


class CollectorSpec:
    """Handle returned by Searcher.collector() (reference collectors.py
    Collector family): records search kwargs; search_with_collector runs
    the distributed search and stores the Results here."""

    def __init__(self, searcher, **kwargs):
        self._searcher = searcher
        self._kwargs = kwargs
        self._results = None

    def results(self) -> "Results":
        if self._results is None:
            raise ValueError("collector has not been run yet")
        return self._results


class CollapseCollector:
    """Reference collectors.CollapseCollector: wraps a collector handle,
    keeping the ``limit`` best docs per ``keyfacet`` value (best under
    ``order`` if given, else under the wrapped collector's own order).
    Runs as segment-partial keyed keeps + a bounded driver merge — see
    Searcher.search(collapse=...)."""

    def __init__(self, child, keyfacet, limit: int = 1, order=None):
        self._child = child
        self._collapse = keyfacet
        self._limit = limit
        self._order = order
        self._results = None

    def results(self) -> "Results":
        if self._results is not None:
            return self._results
        if isinstance(self._child, (CollectorSpec, CollapseCollector)):
            return self._child.results()
        raise ValueError("collector has not been run yet")


# ---- IndexReader veneer (reference reading.py surface) ----------------------


class PostingReader:
    """Minimal cursor over one term's postings across every segment,
    doc-sorted (the reference's LeafMatcher surface used by
    Searcher.postings): exact BM25 scores come from the same per-posting
    scorer as search."""

    def __init__(self, s, fieldname: str, text: str):
        import numpy as _np

        from .query import ast as _ast
        from .query.exec import term_scores

        self._field, self._text = fieldname, text
        ctx = s._context(_ast.Term(fieldname, text))
        docs, weights, scores, srcs = [], [], [], []
        for r in s._local_worker().readers:
            pl = r.postings(fieldname, text)
            if pl is None:
                continue
            docs.append(pl.docs)
            weights.append(pl.weights)
            scores.append(term_scores(pl, fieldname, text, ctx))
            srcs.extend((r, i) for i in range(pl.docs.size))
        if docs:
            d = _np.concatenate(docs)
            order = _np.argsort(d, kind="stable")
            self._docs = d[order]
            self._weights = _np.concatenate(weights)[order]
            self._scores = _np.concatenate(scores)[order]
            self._srcs = [srcs[i] for i in order]
        else:
            self._docs = _np.empty(0, _np.uint64)
            self._weights = _np.empty(0, _np.float64)
            self._scores = _np.empty(0, _np.float64)
            self._srcs = []
        self._i = 0

    def is_active(self) -> bool:
        return self._i < self._docs.size

    def id(self) -> int:
        return int(self._docs[self._i])

    def weight(self) -> float:
        return float(self._weights[self._i])

    def score(self) -> float:
        return float(self._scores[self._i])

    def next(self):
        self._i += 1

    def value_as(self, astype: str):
        """Decoded per-posting payload at the cursor (reference
        Matcher.value_as): "positions" -> list[int] of term positions in
        the current doc (requires the field to store positions)."""
        if astype != "positions":
            raise ValueError(f"unsupported value_as type: {astype!r}")
        r, idx = self._srcs[self._i]
        pl = r.postings(self._field, self._text, need_positions=True)
        return [int(p) for p in pl.positions_for(idx)]

    def all_ids(self):
        yield from (int(d) for d in self._docs)


class TermInfo:
    """Collection statistics of one term (reference reading.TermInfo,
    reading.py:90-180): total weight, doc frequency, and — when built from
    a full terminfo row — min/max stored field length (lossy byte
    quantization, exactly the reference's byte_to_length(length_to_byte)),
    max per-doc weight, and min/max matching docnum."""

    __slots__ = ("_weight", "_df", "_extra")

    def __init__(self, weight: float, df: int, extra: dict | None = None):
        self._weight = weight
        self._df = df
        self._extra = extra or {}

    def weight(self) -> float:
        return self._weight

    def doc_frequency(self) -> int:
        return self._df

    def _x(self, key):
        if key not in self._extra:
            raise ValueError(f"TermInfo built without {key!r}")
        return self._extra[key]

    def min_length(self) -> int:
        from .functions.quant import BYTE_TO_LENGTH

        return int(BYTE_TO_LENGTH[int(self._x("min_len_byte"))])

    def max_length(self) -> int:
        from .functions.quant import BYTE_TO_LENGTH

        return int(BYTE_TO_LENGTH[int(self._x("max_len_byte"))])

    def max_weight(self) -> float:
        return float(self._x("max_weight"))

    def min_id(self) -> int:
        return int(self._x("doc_min"))

    def max_id(self) -> int:
        return int(self._x("doc_max"))


class Reader:
    """Whoosh-style IndexReader over the engine searcher (reference
    reading.IndexReader API subset; term texts are str, not the
    reference's encoded bytes).  Obtain via ``ix.reader()`` or
    ``searcher.reader()``."""

    def __init__(self, searcher: IndexSearcher):
        self._s = searcher

    @property
    def schema(self):
        """The index schema (reference IndexReader.schema)."""
        return self._s.manifest.schema

    # -- collection stats --
    def doc_count_all(self) -> int:
        return self._s.doc_count_all()

    def _tombstones(self):
        return self._s._local_worker().excluded

    def doc_count(self) -> int:
        return self._s.doc_count_all() - int(self._tombstones().size)

    def has_deletions(self) -> bool:
        return bool(self._tombstones().size)

    def is_deleted(self, docnum: int) -> bool:
        import numpy as _np

        return bool(_np.isin(docnum, self._tombstones()))

    # -- term stats --
    def doc_frequency(self, fieldname: str, text: str) -> int:
        return self._s.doc_frequency(fieldname, text)

    def frequency(self, fieldname: str, text: str) -> float:
        return self._s.frequencies([(fieldname, text)]).get((fieldname, text), 0)

    def term_info(self, fieldname: str, text: str) -> TermInfo:
        info = self._s.term_info_full(fieldname, text)
        if info is None:
            raise KeyError((fieldname, text))
        return TermInfo(float(info["weight_sum"]), int(info["doc_freq"]), info)

    def min_field_length(self, fieldname: str) -> int:
        return self._s.field_length_bounds(fieldname)[0]

    def max_field_length(self, fieldname: str) -> int:
        return self._s.field_length_bounds(fieldname)[1]

    def lexicon(self, fieldname: str):
        return iter(self._s.lexicon(fieldname))

    def field_terms(self, fieldname: str):
        return self.lexicon(fieldname)

    def expand_prefix(self, fieldname: str, prefix: str):
        return iter(self._s.lexicon(fieldname, prefix))

    def iter_prefix(self, fieldname: str, prefix: str = ""):
        """(term, TermInfo) from the first term >= ``prefix`` to the END
        of the field — the reference iterates ONWARD from the seek point
        (reading.py iter_prefix/iter_from), it does not filter by
        prefix."""
        stats = self._s._term_stats(fieldname, "")
        for term in sorted(stats):
            if term < prefix:
                continue
            w, df = stats[term]
            yield term, TermInfo(w, df)

    def iter_field(self, fieldname: str, prefix: str = ""):
        return self.iter_prefix(fieldname, prefix)

    def all_terms(self):
        for f in self._s.manifest.schema.fields:
            if f.kind in ("text", "id", "keyword", "ngram"):
                for t in self._s.lexicon(f.name):
                    yield f.name, t

    def __iter__(self):
        """((fieldname, text), TermInfo) over every indexed term in field
        then term order — the reference IndexReader.__iter__ surface (our
        terms are str, not the reference's utf-8 bytes)."""
        for f in self._s.manifest.schema.fields:
            if f.kind in ("text", "id", "keyword", "ngram"):
                for term, ti in self.iter_field(f.name):
                    yield (f.name, term), ti

    def indexed_field_names(self):
        return [
            f.name
            for f in self._s.manifest.schema.fields
            if f.kind in ("text", "id", "keyword", "ngram")
        ]

    def most_frequent_terms(self, fieldname: str, number: int = 5, prefix: str = ""):
        return self._s.most_frequent_terms(fieldname, number, prefix)

    def most_distinctive_terms(self, fieldname: str, number: int = 5, prefix: str = ""):
        return self._s.most_distinctive_terms(fieldname, number, prefix)

    # -- lengths --
    def field_length(self, fieldname: str) -> int:
        return self._s.manifest.field_length(fieldname)

    def doc_field_length(self, docnum: int, fieldname: str, default: int = 0) -> int:
        return self._s.doc_field_length(docnum, fieldname, default)

    # -- documents --
    def stored_fields(self, docnum: int) -> dict:
        """Stored fields from the source parquet (incl. ``_stored_<f>``
        display overrides) — same path as the searcher veneer."""
        rows = _stored_fields_many(self._s, [docnum])
        if not rows:
            raise KeyError(docnum)
        return rows[0]

    def all_doc_ids(self):
        excluded = set(self._tombstones().tolist())
        for d in range(self._s.doc_count_all()):
            if d not in excluded:
                yield d

    def __contains__(self, term) -> bool:
        """``("field", "text") in reader`` (reference IndexReader
        __contains__); accepts bytes text like the reference.  A field
        removed from the schema answers False even while its postings
        await merge GC (the reference reader consults its schema)."""
        f, t = term
        if f not in self._s.manifest.schema.by_name:
            return False
        if isinstance(t, bytes):
            t = t.decode("utf-8")
        return self._s.doc_frequency(f, t) > 0

    def iter_docs(self):
        """(docnum, stored_fields) pairs for all live docs (reference
        reading.IndexReader.iter_docs)."""
        for d in self.all_doc_ids():
            yield d, self.stored_fields(d)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def all_stored_fields(self):
        for d in self.all_doc_ids():
            yield self.stored_fields(d)

    def first_id(self, fieldname: str, text) -> int:
        """Lowest live docnum containing the term (reference
        reading.IndexReader.first_id); KeyError when absent."""
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        info = self._s.term_info_full(fieldname, text)
        if info is None:
            raise KeyError((fieldname, text))
        tombs = self._tombstones()
        if not tombs.size:
            return int(info["doc_min"])
        excluded = set(tombs.tolist())
        for d in PostingReader(self._s, fieldname, text).all_ids():
            if d not in excluded:
                return d
        raise KeyError((fieldname, text))

    def cursor(self, fieldname: str) -> "TermCursor":
        """Seekable cursor over one field's term dictionary (reference
        codec TermCursor surface via reader.cursor: first/next/find/
        text/term_info/is_valid).  DECLARED DEVIATION: the reference's
        MultiReader raises NotImplementedError on multi-segment indexes;
        ours merges the per-segment lexicons and always works."""
        return TermCursor(self, fieldname)

    # -- vectors / spelling --
    def vector(self, docnum: int, fieldname: str):
        return self._s.vector(docnum, fieldname)

    def vector_as(self, astype: str, docnum: int, fieldname: str):
        """Per-doc term vector values (reference reader.vector_as);
        "weight"/"frequency" supported — the vector stores weights."""
        if astype not in ("weight", "frequency"):
            raise ValueError(f"unsupported vector_as type {astype!r}")
        pairs = self._s.vector(docnum, fieldname)
        if astype == "frequency":
            return iter((t, int(w)) for t, w in pairs)
        return iter(pairs)

    def corrector(self, fieldname: str):
        from .query.suggest import ReaderCorrector

        return ReaderCorrector(self._s, fieldname)

    def terms_within(self, fieldname: str, text: str, maxdist: int,
                     prefix: int = 0):
        """Field terms within ``maxdist`` edits of ``text``, in lexicon
        order (reference reading.IndexReader.terms_within)."""
        from .query.suggest import levenshtein_within

        pre = text[:prefix] if prefix else ""
        return [
            t for t in self._s.lexicon(fieldname, prefix=pre)
            if levenshtein_within(text, t, maxdist)
        ]

    def close(self):
        pass


class TermCursor:
    """Seekable term-dictionary cursor (reference codec/base.py TermCursor
    via reader.cursor(field)): first()/next()/find(term)/text()/
    term_info()/is_valid().  Terms are str (this engine's term type);
    find() accepts bytes like the reference."""

    def __init__(self, reader: Reader, fieldname: str):
        self._r = reader
        self._field = fieldname
        self._terms = list(reader.lexicon(fieldname))
        self._i = 0

    def is_valid(self) -> bool:
        return self._i < len(self._terms)

    def text(self):
        return self._terms[self._i] if self.is_valid() else None

    def first(self):
        self._i = 0
        return self.text()

    def next(self):
        if not self.is_valid():
            raise Exception("cursor is exhausted")
        self._i += 1
        return self.text()

    def find(self, term):
        """Seek to the first term >= ``term``; returns the landed text
        (None past the end)."""
        if isinstance(term, bytes):
            term = term.decode("utf-8")
        import bisect

        self._i = bisect.bisect_left(self._terms, term)
        return self.text()

    def term_info(self) -> TermInfo:
        if not self.is_valid():
            raise Exception("cursor is exhausted")
        return self._r.term_info(self._field, self._terms[self._i])


class _EmptyManifest:
    def __init__(self, schema: IndexSchema):
        self.schema = schema
        self.segments: list = []
        self.doc_count = 0
        self.partitions: list = []

    def field_length(self, fieldname: str) -> int:
        return 0


class EmptyReader:
    """Null reader over a schema with no documents (reference
    reading.EmptyReader): every stat answers zero/empty.  Duck-compatible
    with classify.Expander and the Reader term surface."""

    def __init__(self, schema):
        if isinstance(schema, Schema):
            schema = schema.index_schema
        self.manifest = _EmptyManifest(schema)

    def doc_count(self) -> int:
        return 0

    def doc_count_all(self) -> int:
        return 0

    def frequencies(self, terms: list) -> dict:
        return {}

    def doc_frequency(self, fieldname: str, text: str) -> int:
        return 0

    def frequency(self, fieldname: str, text: str) -> float:
        return 0

    def lexicon(self, fieldname: str):
        return iter(())

    field_terms = lexicon

    def all_terms(self):
        return iter(())

    def __iter__(self):
        return iter(())

    def __contains__(self, term) -> bool:
        return False

    def all_stored_fields(self):
        return iter(())

    def close(self):
        pass
