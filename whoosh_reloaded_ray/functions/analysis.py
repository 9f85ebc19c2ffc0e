"""Analysis chain: tokenizers/filters/analyzers with whoosh-parity semantics.

Semantics replicated (behavior only, from reading the reference):
  - RegexTokenizer default pattern ``[\\w\\*]+(\\.?[\\w\\*]+)*`` with
    ``re.UNICODE`` (reference: src/whoosh/analysis/tokenizers.py:31,79-198).
  - LowercaseFilter: per-token ``str.lower()`` applied AFTER tokenization
    (tokenizing the original text, then lowering each token — lowering first
    can change offsets for some unicode chars).
  - StopFilter: drop tokens with ``len < minsize`` (default 2), ``len >
    maxsize`` (default None) or in the stoplist; with ``renumber=True`` the
    FIRST surviving token keeps its ORIGINAL position and subsequent
    survivors get consecutive positions (reference:
    src/whoosh/analysis/filters.py:277-362).
  - StandardAnalyzer = RegexTokenizer | LowercaseFilter | StopFilter
    (reference: src/whoosh/analysis/analyzers.py:175-198).

Analyzers are *config-as-data*: an :class:`AnalyzerSpec` is a plain
dataclass shipped to Ray workers; :func:`make_analyzer` compiles it once per
worker into a fast callable ``text -> list[(term, pos)]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

# Default English stop words — same *data* as the reference's
# analysis/filters.py STOP_WORDS (a published word list, required bit-for-bit
# for rank parity with the reference).
STOP_WORDS = frozenset(
    (
        "a and are as at be by can for from have if in is it may not of on "
        "or tbd that the this to us we when will with yet you your an"
    ).split()
)

# Default token pattern: word chars and '*', optionally joined by single dots
# (so "foo.bar.baz" is one token). Non-capturing group so findall() returns
# whole matches.
DEFAULT_TOKEN_PATTERN = r"[\w\*]+(?:\.?[\w\*]+)*"

Token = tuple  # (term: str, pos: int)
AnalyzeFn = Callable[[str], list]



def _findall(pat, text: str) -> list:
    """Whole-match findall even when the pattern has capture groups (the
    reference tokenizes with finditer, so group-bearing patterns like its
    url_pattern must yield full matches, not group tuples)."""
    if pat.groups:
        return [m.group(0) for m in pat.finditer(text)]
    return pat.findall(text)

def _gap_split(pat, text: str) -> list:
    """Texts BETWEEN pattern matches (reference RegexTokenizer gaps=True,
    analysis/tokenizers.py:160-197): empty gaps are skipped, the tail after
    the last match is a final token."""
    toks = []
    prevend = 0
    for m in pat.finditer(text):
        if m.start() > prevend:
            toks.append(text[prevend : m.start()])
        prevend = m.end()
    if prevend < len(text):
        toks.append(text[prevend:])
    return toks


@dataclass(frozen=True)
class AnalyzerSpec:
    """Serializable analyzer configuration (shipped to Ray workers).

    Composes with the compat pipe DSL like a reference analyzer object:
    ``StandardAnalyzer() | CharsetFilter(map)`` lifts the spec into an
    analysis chain, and calling a spec on text yields reference-style
    Token objects (reference analyzers are callable, analysis/acore.py)."""

    def __or__(self, other):
        from ..compat import CompositeAnalyzer

        return CompositeAnalyzer((self,)) | other

    def __call__(self, value, **kw):
        from ..compat import CompositeAnalyzer

        return CompositeAnalyzer((self,))(value, **kw)

    kind: str = "standard"  # standard | simple | id | keyword | ngram | stemming
    pattern: str = DEFAULT_TOKEN_PATTERN
    # gaps=True SPLITS on the pattern instead of matching it (reference
    # RegexTokenizer(gaps=True), analysis/tokenizers.py:88,160-197): tokens
    # are the non-empty texts between matches, plus the tail after the
    # last match
    gaps: bool = False
    lowercase: bool = True
    stopwords: Optional[frozenset] = STOP_WORDS  # None => no stop filtering
    minsize: int = 2
    maxsize: Optional[int] = None
    renumber: bool = True
    # stemming analyzer: which stemmer ("porter" = reference StemFilter
    # default; "porter2" = snowball english, what StemFilter(lang="en")
    # resolves to — LanguageAnalyzer's choice)
    stemmer: Optional[str] = None
    # keyword analyzer
    commas: bool = False
    # ngram analyzer
    ngram_min: int = 2
    ngram_max: int = 4
    # fancy analyzer (IntraWordFilter merge options)
    mergewords: bool = False
    mergenums: bool = False
    # ngramwords: take n-grams only from the 'start'/'end' of each word
    ngram_at: Optional[str] = None
    # charset folding (reference CharsetFilter): hashable form of a
    # str.translate() map, applied after lowercasing and before
    # stop/size filtering; build with charmap_key()
    charmap: Optional[tuple] = None
    # trailing token-stream filters applied after the core chain, as
    # (registry_name, kwargs_items) tuples — serializable so the spec
    # still ships to Ray workers; fields using them take the loop
    # tokenize path
    post_filters: tuple = ()


def standard_analyzer(
    stopwords: Optional[frozenset] = STOP_WORDS,
    minsize: int = 2,
    maxsize: Optional[int] = None,
) -> "AnalyzerSpec":
    return AnalyzerSpec(kind="standard", stopwords=stopwords, minsize=minsize, maxsize=maxsize)


def simple_analyzer() -> "AnalyzerSpec":
    """Regex tokenize + lowercase, no stop filter."""
    return AnalyzerSpec(kind="simple", stopwords=None, minsize=0)


def id_analyzer(lowercase: bool = False) -> "AnalyzerSpec":
    """Whole value = one token (reference IDTokenizer)."""
    return AnalyzerSpec(kind="id", lowercase=lowercase, stopwords=None, minsize=0)


def keyword_analyzer(lowercase: bool = False, commas: bool = False) -> "AnalyzerSpec":
    """Space- (or comma-)separated tokens, optional lowercase, no stops."""
    return AnalyzerSpec(kind="keyword", lowercase=lowercase, commas=commas, stopwords=None, minsize=0)


def ngram_analyzer(minsize: int = 2, maxsize: int = 4) -> "AnalyzerSpec":
    """Character n-grams over the raw (lowercased) text, like NgramAnalyzer."""
    return AnalyzerSpec(kind="ngram", ngram_min=minsize, ngram_max=maxsize, stopwords=None, minsize=0)


def ngramwords_analyzer(
    minsize: int = 2, maxsize: Optional[int] = None, at: Optional[str] = None
) -> AnalyzerSpec:
    """RegexTokenizer | Lowercase | NgramFilter (reference
    NgramWordAnalyzer, analysis/ngrams.py:247-250): word-wise n-grams that
    keep each word's original position."""
    return AnalyzerSpec(
        kind="ngramwords",
        stopwords=None,
        minsize=0,
        ngram_min=minsize,
        ngram_max=maxsize or minsize,
        ngram_at=at,
    )


def stemming_analyzer(
    stopwords: Optional[frozenset] = STOP_WORDS,
    minsize: int = 2,
    maxsize: Optional[int] = None,
) -> "AnalyzerSpec":
    """RegexTokenizer | Lowercase | Stop | PorterStem (reference StemmingAnalyzer)."""
    return AnalyzerSpec(kind="stemming", stopwords=stopwords, minsize=minsize, maxsize=maxsize)


_LANG_ALIASES = {
    "ara": "ar", "dan": "da", "nld": "nl", "eng": "en", "fin": "fi",
    "fra": "fr", "deu": "de", "hun": "hu", "ita": "it", "nor": "no",
    "por": "pt", "ron": "ro", "rus": "ru", "spa": "es", "swe": "sv",
    "tur": "tr",
    # English names (the PyStemmer spelling the reference's
    # PyStemmerFilter takes) and the reference's native-name aliases
    "arabic": "ar", "danish": "da", "dutch": "nl", "english": "en",
    "finnish": "fi", "french": "fr", "german": "de", "hungarian": "hu",
    "italian": "it", "norwegian": "no", "portuguese": "pt",
    "romanian": "ro", "russian": "ru", "spanish": "es", "swedish": "sv",
    "turkish": "tr",
    "العربية": "ar", "dansk": "da", "nederlands": "nl", "suomi": "fi",
    "français": "fr", "deutsch": "de", "magyar": "hu",
    "italiano": "it", "norsk": "no", "português": "pt",
    "русский язык": "ru", "español": "es", "svenska": "sv",
    "türkçe": "tr",
}


def language_analyzer(lang: str, gaps: bool = False) -> "AnalyzerSpec":
    """Per-language analyzer (reference LanguageAnalyzer,
    analysis/analyzers.py:280-315): RegexTokenizer | Lowercase, plus a
    StopFilter when the language has a stop list (lang/stopwords data,
    minsize=2), plus a StemFilter when a stemmer is available.

    Stemmers: "en" -> porter2 (what the reference's StemFilter(lang="en")
    resolves to), "en_porter" -> the original porter, "ar" -> the ISRI
    stemmer (functions/isri), and the clean-room snowball family
    (functions/snowball) — every language the reference can stem,
    parity-fuzzed per language."""
    from . import snowball as _snowball
    from .lang_stopwords import STOPLISTS

    tlc = _LANG_ALIASES.get(lang, lang)
    if lang == "en_porter":
        stemmer = "porter"
    elif tlc == "en":
        stemmer = "porter2"
    elif tlc == "ar":
        stemmer = "isri"
    elif _snowball.stemmer_for(tlc) is not None:
        stemmer = f"snowball:{tlc}"
    else:
        stemmer = None
    stops = STOPLISTS.get("en" if lang == "en_porter" else tlc)
    if stops is not None:
        # reference StopFilter(lang=...) ADDS the language list to the
        # default English STOP_WORDS (analysis/filters.py stoplist arg)
        stops = frozenset(stops) | STOP_WORDS
    return AnalyzerSpec(
        kind="stemming" if stemmer else "standard",
        gaps=gaps,
        stopwords=stops,
        minsize=2 if stops is not None else 0,
        stemmer=stemmer,
    )


def _stop_and_renumber(
    toks: list,
    stops,
    minsize: int,
    maxsize,
    renumber: bool,
) -> list:
    """Apply stop/size filtering with whoosh's position renumbering rule."""
    out = []
    pos = None
    for i, t in enumerate(toks):
        lt = len(t)
        if lt >= minsize and (maxsize is None or lt <= maxsize) and (stops is None or t not in stops):
            if renumber:
                if pos is None:
                    pos = i  # first survivor keeps its original position
                else:
                    pos += 1
                out.append((t, pos))
            else:
                out.append((t, i))
    return out


def charmap_key(charmap: dict) -> tuple:
    """Hashable AnalyzerSpec.charmap form of a str.translate() map."""
    return tuple(sorted((int(k), v) for k, v in charmap.items()))


def charmap_table(key: tuple) -> dict:
    return dict(key)


def _post_filter_registry():
    return {
        "strip": strip_filter,
        "reverse": reverse_text_filter,
        "substitution": substitution_filter,
        "biword": biword_filter,
        "shingle": shingle_filter,
        "compound": compound_word_filter,
        "dmetaphone": dmetaphone_filter,
        # emits (text, pos, boost) 3-tuples — keep it LAST in a chain
        # (reference DelimitedAttributeFilter, filters.py:419-482)
        "delimited_attribute": delimited_attribute_filter,
    }


def make_post_filters(spec: "AnalyzerSpec"):
    """Compose spec.post_filters into one list->list function (None
    when the spec has none)."""
    if not spec.post_filters:
        return None
    reg = _post_filter_registry()
    chain = [(reg[name], dict(kw)) for name, kw in spec.post_filters]

    def apply(res):
        for fn, kw in chain:
            res = fn(res, **kw)
        return res

    return apply


def resolve_stemmer(spec: "AnalyzerSpec"):
    """Cached per-token stem callable for a stemming AnalyzerSpec —
    the ONE resolution point shared by make_analyzer and the
    vectorized/chars tokenize paths (stages/tokenize.py)."""
    if spec.stemmer == "porter2":
        from .porter2 import porter2_stem_cached

        return porter2_stem_cached
    if spec.stemmer and spec.stemmer.startswith("snowball:"):
        from .snowball import SnowballStem

        return SnowballStem(spec.stemmer.split(":", 1)[1])
    if spec.stemmer == "isri":
        from .isri import isri_stem_cached

        return isri_stem_cached
    if spec.stemmer == "lovins":
        from .lovins import lovins_stem_cached

        return lovins_stem_cached
    if spec.stemmer == "paicehusk":
        from .paicehusk import paicehusk_stem_cached

        return paicehusk_stem_cached
    return _porter_stem_cached()


def make_analyzer(spec: AnalyzerSpec, mode: str = "index") -> AnalyzeFn:
    """Compile an AnalyzerSpec into ``text -> [(term, pos), ...]``.

    Compile once per worker/actor (regex + frozenset lookups are the hot
    path); call per value.

    ``mode`` replicates the reference's Token.mode branching: n-gram
    chains emit ALL gram sizes at index time but a SINGLE size
    (min(maxsize, len)) at query time (reference analysis/ngrams.py:87-103
    tokenizer, :180-198 filter), so a query string over an NGRAM field
    expands to the right grams.  Non-ngram analyzers are mode-invariant.
    """
    kind = spec.kind
    lower = spec.lowercase
    stops = spec.stopwords
    minsize = spec.minsize
    maxsize = spec.maxsize
    renumber = spec.renumber

    cmap = charmap_table(spec.charmap) if spec.charmap else None

    post = make_post_filters(spec)

    if kind in ("standard", "simple", "stemming"):
        pat = re.compile(spec.pattern, re.UNICODE)
        stem = resolve_stemmer(spec) if kind == "stemming" else None
        gaps = spec.gaps

        def analyze(text: str) -> list:
            if not text:
                return []
            toks = _gap_split(pat, text) if gaps else _findall(pat, text)
            if lower:
                toks = [t.lower() for t in toks]
            if cmap is not None:
                toks = [t.translate(cmap) for t in toks]
            if stops is None and minsize <= 0 and maxsize is None:
                res = list(zip(toks, range(len(toks))))
            else:
                res = _stop_and_renumber(toks, stops, minsize, maxsize, renumber)
            if stem is not None:
                res = [(stem(t), p) for (t, p) in res]
            if post is not None:
                res = post(res)
                if mode == "query" and res and len(res[0]) == 3:
                    # delimited-attribute boosts are an index-time payload;
                    # the query parser consumes plain (term, pos) pairs
                    res = [(t, p) for (t, p, _b) in res]
            return res

        return analyze

    if kind == "fancy":
        return make_fancy(spec)

    if kind == "ngramwords":
        pat = re.compile(spec.pattern, re.UNICODE)
        gmin, gmax, at = spec.ngram_min, spec.ngram_max, spec.ngram_at

        def analyze_ngramwords(text: str) -> list:
            if not text:
                return []
            out = []
            for pos, w in enumerate(_findall(pat, text)):
                w = w.lower()
                if len(w) < gmin:
                    continue
                if mode == "query":
                    # one gram size per word (reference NgramFilter query
                    # branch, ngrams.py:180-198)
                    size = min(gmax, len(w))
                    if at == "start":
                        out.append((w[:size], pos))
                    elif at == "end":
                        out.append((w[-size:], pos))
                    else:
                        for start in range(0, len(w) - size + 1):
                            out.append((w[start : start + size], pos))
                elif at == "start":
                    for size in range(gmin, min(gmax, len(w)) + 1):
                        out.append((w[:size], pos))
                elif at == "end":
                    for i in range(max(0, len(w) - gmax), len(w) - gmin + 1):
                        out.append((w[i:], pos))
                else:
                    for start in range(0, len(w) - gmin + 1):
                        for size in range(gmin, gmax + 1):
                            if start + size <= len(w):
                                out.append((w[start : start + size], pos))
            return out

        return analyze_ngramwords

    if kind == "id":

        def analyze_id(text: str) -> list:
            if text is None or text == "":
                return []
            t = text.lower() if lower else text
            # reference IDTokenizer yields pos = start_pos + 1
            # (analysis/tokenizers.py:70)
            return [(t, 1)]

        return analyze_id

    if kind == "keyword":
        # commas=True: CommaSeparatedTokenizer = split on commas only, then
        # strip whitespace from each token (reference
        # analysis/tokenizers.py:330-342); else split on whitespace.
        splitter = re.compile(r"[^,]+" if spec.commas else r"[^ \t\r\n]+")
        strip = spec.commas

        def analyze_kw(text: str) -> list:
            if not text:
                return []
            toks = splitter.findall(text)
            if strip:
                toks = [t.strip() for t in toks]
            if lower:
                toks = [t.lower() for t in toks]
            if cmap is not None:
                toks = [t.translate(cmap) for t in toks]
            res = list(zip(toks, range(len(toks))))
            if post is not None:
                res = post(res)
                if mode == "query" and res and len(res[0]) == 3:
                    res = [(t, p) for (t, p, _b) in res]
            return res

        return analyze_kw

    if kind == "ngram":
        nmin, nmax = spec.ngram_min, spec.ngram_max

        def analyze_ng(text: str) -> list:
            if not text:
                return []
            t = text.lower() if lower else text
            out = []
            pos = 0
            n = len(t)
            if mode == "query":
                # single gram size = min(max, len) (reference
                # NgramTokenizer query branch, ngrams.py:87-103; note it
                # ignores minsize — a 1-char query emits a 1-gram)
                size = min(nmax, n)
                for i in range(0, n - size + 1):
                    out.append((t[i : i + size], pos))
                    pos += 1
                return out
            for size in range(nmin, nmax + 1):
                for i in range(0, n - size + 1):
                    out.append((t[i : i + size], pos))
                    pos += 1
            return out

        return analyze_ng

    if kind == "path":
        expr = spec.pattern

        def analyze_path(text: str) -> list:
            if not text:
                return []
            return path_tokenize(text, expr)

        return analyze_path

    raise ValueError(f"unknown analyzer kind: {kind!r}")


# ---------------------------------------------------------------------------
# Porter stemmer with the reference's exact semantics. The reference
# (src/whoosh/lang/porter.py) implements Porter 1980 via anchored regexes,
# which gives it some distinctive behaviors we must reproduce for term
# parity (verified against it in tests/test_analysis.py):
#   * 'y' counts as a vowel everywhere in measure/vowel tests, except a
#     leading 'y' (temporarily treated as a consonant via case-swap);
#   * the step-1b "at/bl/iz" and double-consonant rules only fire when the
#     whole stem IS "at"/"bl"/"iz" or a 2-char doubled consonant (the
#     reference uses re.match on `$`-anchored patterns, so the pattern must
#     cover the entire stem);
#   * the "cvc -> add e" test matches the WHOLE stem (cons+ vowel cons), not
#     just the last three characters.
# ---------------------------------------------------------------------------


def _porter_stem_cached(cachesize: int = 50000):
    # module-level wrapper (defined after porter_stem below) so closures
    # holding it stay picklable by reference across Ray workers
    return porter_stem_cached


# Character classes exactly as the reference uses them: the "vowel run"
# class is [aeiou] (no y) while the "consonant run" class is [^aeiouy]
# (y in neither) — so a 'y' in the wrong place makes the measure tests fail,
# and we must reproduce that.
_V = frozenset("aeiou")
_NOT_CY = frozenset("aeiouy")  # consonant run = chars NOT in this set


def _scan_run(s: str, i: int, in_v: bool) -> int:
    """Advance past a maximal run of vowel ([aeiou]) or consonant
    ([^aeiouy]) characters starting at i; returns the new index."""
    n = len(s)
    if in_v:
        while i < n and s[i] in _V:
            i += 1
    else:
        while i < n and s[i] not in _NOT_CY:
            i += 1
    return i


def _m_prefix(s: str, pairs: int) -> bool:
    """Prefix-match: optional consonant run, then `pairs` x (vowel run +
    consonant run). Implements the reference's m>0 (pairs=1) and m>1
    (pairs=2) anchored-regex tests."""
    i = _scan_run(s, 0, in_v=False)
    for _ in range(pairs):
        j = _scan_run(s, i, in_v=True)
        if j == i:
            return False
        i = _scan_run(s, j, in_v=False)
        if i == j:
            return False
    return True


def _m_eq1(s: str) -> bool:
    """Full-match: C? V+ C+ V?$ — the reference's m==1 test."""
    i = _scan_run(s, 0, in_v=False)
    j = _scan_run(s, i, in_v=True)
    if j == i:
        return False
    i = _scan_run(s, j, in_v=False)
    if i == j:
        return False
    j = _scan_run(s, i, in_v=True)
    return j == len(s)


def _has_vowel(stem: str) -> bool:
    # reference _s_v: any [aeiouy] char reachable past leading consonants
    return any(ch in _NOT_CY for ch in stem)


def _whole_cvc(stem: str) -> bool:
    """Whole stem is [^aeiouy]+ [aeiouy] [^aeiouwxy] (reference _c_v)."""
    if len(stem) < 3:
        return False
    return (
        stem[-1] not in "aeiouwxy"
        and stem[-2] in _NOT_CY
        and all(c not in _NOT_CY for c in stem[:-2])
    )


def porter_stem(w: str) -> str:
    if len(w) < 3:
        return w

    first_is_y = w[0] == "y"
    if first_is_y:
        w = "Y" + w[1:]  # leading y acts as a consonant

    # step 1a
    if w.endswith("s"):
        if w.endswith(("sses", "ies")):
            w = w[:-2]
        elif w[-2] != "s":
            w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _m_prefix(w[:-3], 1):
            w = w[:-1]
    else:
        stem = None
        if w.endswith("ed"):
            stem = w[:-2]
        elif w.endswith("ing"):
            stem = w[:-3]
        if stem is not None and _has_vowel(stem):
            w = stem
            if w in ("at", "bl", "iz"):
                w += "e"
            elif len(w) == 2 and w[0] == w[1] and w[0] not in "aeiouylsz":
                w = w[:-1]
            elif _whole_cvc(w):
                w += "e"

    # step 1c: trailing y -> i when the stem has a vowel
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # steps 2-4: longest matching suffix from each table (within each table,
    # suffix-of-suffix chains are listed longest first so `endswith` picks
    # the same winner as the reference's lazy-anchored regex)
    step2 = (
        ("ational", "ate"), ("tional", "tion"), ("ization", "ize"),
        ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
        ("biliti", "ble"), ("ousli", "ous"), ("entli", "ent"), ("aliti", "al"),
        ("iviti", "ive"), ("ation", "ate"), ("alism", "al"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("alli", "al"), ("ator", "ate"),
        ("logi", "log"), ("bli", "ble"), ("eli", "e"),
    )
    for suf, rep in step2:
        if w.endswith(suf) and len(w) > len(suf):
            if _m_prefix(w[: -len(suf)], 1):
                w = w[: -len(suf)] + rep
            break

    step3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )
    for suf, rep in step3:
        if w.endswith(suf) and len(w) > len(suf):
            if _m_prefix(w[: -len(suf)], 1):
                w = w[: -len(suf)] + rep
            break

    step4 = (
        "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
        "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
    )
    matched4 = False
    for suf in step4:
        if w.endswith(suf) and len(w) > len(suf):
            matched4 = True
            if _m_prefix(w[: -len(suf)], 2):
                w = w[: -len(suf)]
            break
    if not matched4 and w.endswith("ion") and len(w) > 4 and w[-4] in "st":
        if _m_prefix(w[:-3], 2):
            w = w[:-3]

    # step 5a
    if w.endswith("e") and len(w) > 1:
        stem = w[:-1]
        if _m_prefix(stem, 2) or (_m_eq1(stem) and not _whole_cvc(stem)):
            w = stem
    # step 5b
    if w.endswith("ll") and _m_prefix(w, 2):
        w = w[:-1]

    if first_is_y:
        w = "y" + w[1:]
    return w


# picklable-by-reference LRU wrapper (reference StemFilter cachesize=50000);
# the qualname must match the module attribute or pickle's by-reference
# lookup lands on the raw function and refuses
porter_stem_cached = lru_cache(maxsize=50000)(porter_stem)
porter_stem_cached.__qualname__ = "porter_stem_cached"
porter_stem_cached.__name__ = "porter_stem_cached"


# ---------------------------------------------------------------------------
# IntraWordFilter / FancyAnalyzer (reference analysis/intraword.py:221-509,
# analyzers.py:238-263) and the compound/biword/shingle word filters.
# Behavioral reimplementations over (text, pos) token streams.
# ---------------------------------------------------------------------------

_IW_DELIMS = "-_'\"()!@#$%^&*[]{}<>\\|;:,./?`~=+"
_IW_BETWEEN = re.compile(f"[^{re.escape(_IW_DELIMS)}]+", re.UNICODE)
# possessive 's between a letter and end/delimiter; str.isalpha-based letter
# classes match the reference's unicode tables for practical inputs
_IW_POSSESSIVE = re.compile(
    f"(?<=[^\\W\\d_])'[Ss](?=$|[{re.escape(_IW_DELIMS)}])", re.UNICODE
)


def _iw_transitions(s: str, splitwords: bool, splitnums: bool):
    """Indices of case / letter-digit transition pivots inside s."""
    out = []
    for i in range(len(s) - 1):
        a, b = s[i], s[i + 1]
        if splitwords and a.islower() and b.isupper():
            out.append(i + 1)
        elif splitnums and (
            (a.isalpha() and b.isdigit()) or (a.isdigit() and b.isalpha())
        ):
            out.append(i + 1)
    return out


def _iw_split(text: str, splitwords: bool, splitnums: bool):
    """(startchar, endchar) subword ranges (reference _split)."""
    if "'" in text:
        dispos = []
        prev = 0
        for m in _IW_POSSESSIVE.finditer(text):
            dispos.append((prev, m.start()))
            prev = m.end()
        if prev < len(text):
            dispos.append((prev, len(text)))
    else:
        dispos = ((0, len(text)),)
    splitting = splitwords or splitnums
    for sc, ec in dispos:
        for pm in _IW_BETWEEN.finditer(text, sc, ec):
            ps, pe = pm.start(), pm.end()
            if splitting:
                prev = ps
                for pivot in _iw_transitions(text[ps:pe], splitwords, splitnums):
                    yield (prev, ps + pivot)
                    prev = ps + pivot
                if prev < pe:
                    yield (prev, pe)
            else:
                yield (ps, pe)


def _iw_merge(parts, mergewords: bool, mergenums: bool):
    """In-place merged-run insertion (reference _merge) over
    (text, pos, startchar, endchar) parts: a merged run spans its first
    part's start to its last part's end."""
    last = 0
    insertat = 0
    buf = []
    pos = 0

    def insert_item(at, newpos):
        newtext = "".join(item[0] for item in buf)
        parts.insert(at, (newtext, newpos, buf[0][2], buf[-1][3]))

    for item in list(parts):
        text, pos = item[0], item[1]
        if text.isalpha():
            this = 1
        elif text.isdigit():
            this = 2
        else:
            this = None
        if buf and ((this == last == 1 and mergewords) or (this == last == 2 and mergenums)):
            buf.append(item)
        else:
            if len(buf) > 1:
                insert_item(insertat, pos - 1)
                insertat += 1
            buf = [item]
            last = this
        insertat += 1
    if len(buf) > 1:
        insert_item(len(parts), pos)


def _intraword(tokens, splitwords=True, splitnums=True, mergewords=False, mergenums=False):
    """[(text, pos, startchar, endchar)] -> expanded tokens of the same
    shape (reference __call__); a subword spans its slice of the word."""
    out = []
    newpos = None
    for text, pos, sc0, ec0 in tokens:
        if newpos is None:
            newpos = pos
        if (text.isalpha() and (text.islower() or text.isupper())) or text.isdigit():
            out.append((text, newpos, sc0, ec0))
            newpos += 1
        else:
            ranges = list(_iw_split(text, splitwords, splitnums))
            parts = [
                (text[sc:ec], i + newpos, sc0 + sc, sc0 + ec)
                for i, (sc, ec) in enumerate(ranges)
            ]
            if len(parts) > 1 and (mergewords or mergenums):
                _iw_merge(parts, mergewords, mergenums)
            out.extend(parts)
            if parts:
                newpos = parts[-1][1] + 1
    return out


def fancy_analyzer(
    stopwords: Optional[frozenset] = STOP_WORDS,
    minsize: int = 2,
    mergewords: bool = False,
    mergenums: bool = False,
) -> AnalyzerSpec:
    """Whitespace tokenize | IntraWordFilter | lowercase | stop filter
    (reference FancyAnalyzer)."""
    return AnalyzerSpec(
        kind="fancy",
        stopwords=stopwords,
        minsize=minsize,
        mergewords=mergewords,
        mergenums=mergenums,
    )


def make_fancy(spec: AnalyzerSpec, chars: bool = False) -> AnalyzeFn:
    """FancyAnalyzer's analyze function: [(text, pos)], or with ``chars``
    [(text, pos, startchar, endchar)] for the Characters payload."""
    ws = re.compile(r"\S+", re.UNICODE)
    stops = spec.stopwords
    minsize = spec.minsize
    maxsize = spec.maxsize
    mergewords = spec.mergewords
    mergenums = spec.mergenums

    def analyze(text: str) -> list:
        if not text:
            return []
        toks = _intraword(
            [(m.group(0), i, m.start(), m.end()) for i, m in enumerate(ws.finditer(text))],
            mergewords=mergewords,
            mergenums=mergenums,
        )
        # StopFilter(renumber=True) over the intraword positions: first
        # survivor keeps ITS position, the rest go consecutive
        out = []
        pos = None
        for t, p, sc, ec in toks:
            t = t.lower()
            lt = len(t)
            if lt >= minsize and (maxsize is None or lt <= maxsize) and (
                stops is None or t not in stops
            ):
                pos = p if pos is None else pos + 1
                out.append((t, pos, sc, ec) if chars else (t, pos))
        return out

    return analyze


# ---- word-combination filters over (text, pos) streams --------------------


def compound_word_filter(tokens, wordset, keep_compound=True):
    """Break run-together words present in ``wordset`` (reference
    CompoundWordFilter; subwords keep the original token's position)."""
    memo: dict = {}

    def subwords(s):
        if s in wordset:
            return [s]
        if s in memo:
            return memo[s]
        for i in range(1, len(s)):
            if s[:i] in wordset:
                rest = subwords(s[i:])
                if rest:
                    memo[s] = [s[:i]] + rest
                    return memo[s]
        return None

    out = []
    for t, p in tokens:
        subs = subwords(t)
        if subs:
            if len(subs) > 1 and keep_compound:
                out.append((t, p))
            out.extend((s, p) for s in subs)
        else:
            out.append((t, p))
    return out


def biword_filter(tokens, sep="-"):
    """Adjacent-pair tokens at the FIRST word's position (reference
    BiWordFilter; single-token streams pass through)."""
    out = []
    prev = None
    for t, p in tokens:
        if prev is not None:
            out.append((prev[0] + sep + t, prev[1]))
        prev = (t, p)
    if not out and prev is not None:
        out.append(prev)
    return out


def shingle_filter(tokens, size=2, sep="-"):
    """Sliding word n-grams at the window's first position (reference
    ShingleFilter; short streams emit one joined token)."""
    out = []
    buf = []
    for t, p in tokens:
        buf.append((t, p))
        if len(buf) == size:
            out.append((sep.join(x[0] for x in buf), buf[0][1]))
            buf.pop(0)
    if not out and buf:
        out.append((sep.join(x[0] for x in buf), buf[0][1]))
    return out


# ---- small stream filters + path tokenizer (reference analysis/filters.py
# 239-274, 419-528; tokenizers.py:345-362) ----------------------------------


def strip_filter(tokens):
    """str.strip() each token text (reference StripFilter)."""
    return [(t.strip(), p) for t, p in tokens]


def dmetaphone_filter(tokens, combine=False):
    """Double-metaphone phonetic encoding of each token (reference
    DoubleMetaphoneFilter, analysis/morph.py:218-268): each input token
    becomes its primary code, plus its secondary code when they differ;
    ``combine=True`` keeps the original token before the codes.  (Boost
    attributes ride the posting weight in our model: primary 1.0 /
    secondary 0.5 is applied by the tokenizer when weighting payloads are
    enabled; the token stream itself carries (text, pos).)"""
    from .dmetaphone import double_metaphone

    out = []
    for t, p in tokens:
        if combine:
            out.append((t, p))
        primary, secondary = double_metaphone(t)
        if primary:
            out.append((primary, p))
        if secondary:  # reference yields even a " " secondary (J-final quirk)
            out.append((secondary, p))
    return out


def reverse_text_filter(tokens):
    """Reverse each token text (reference ReverseTextFilter — used for
    leading-wildcard fields)."""
    return [(t[::-1], p) for t, p in tokens]


def substitution_filter(tokens, pattern, replacement):
    """re.sub on each token text (reference SubstitutionFilter)."""
    pat = re.compile(pattern, re.UNICODE)
    return [(pat.sub(replacement, t), p) for t, p in tokens]


def resolve_delim_typ(typ):
    """Payload type for delimited_attribute_filter: accepts the callable
    or its serializable name (specs ship to Ray workers as JSON)."""
    if isinstance(typ, str):
        return {"float": float, "int": int, "str": str}[typ]
    return typ


def delimited_attribute_filter(tokens, delimiter="^", default=1.0, typ=float):
    """Split a trailing ``^value`` payload off each token (reference
    DelimitedAttributeFilter); returns [(text, pos, value)]."""
    typ = resolve_delim_typ(typ)
    out = []
    for t, p in tokens:
        i = t.find(delimiter)
        if i >= 0:
            out.append((t[:i], p, typ(t[i + len(delimiter):])))
        else:
            out.append((t, p, default))
    return out


def path_tokenize(value: str, expression: str = "[^/]+"):
    """"/a/b/c" -> [("/a", 0), ("/a/b", 1), ("/a/b/c", 2)] (reference
    PathTokenizer)."""
    pat = re.compile(expression, re.UNICODE)
    return [(value[: m.end()], i) for i, m in enumerate(pat.finditer(value))]


def charset_filter(tokens, charmap: dict):
    """str.translate() each token with ``charmap`` (reference CharsetFilter,
    filters.py:365-416 — used for case/accent folding with a translation
    table)."""
    return [(t.translate(charmap), p) for t, p in tokens]


def accent_fold_map() -> dict:
    """A str.translate() map folding accented latin letters to their base
    letter, built from Unicode NFKD decompositions (equivalent in spirit to
    the reference's Sphinx-derived accent map; generated from unicodedata
    rather than shipping a table)."""
    import unicodedata

    out = {}
    for cp in range(0x80, 0x300):  # latin supplements + extended A/B
        ch = chr(cp)
        decomp = unicodedata.normalize("NFKD", ch)
        base = "".join(c for c in decomp if not unicodedata.combining(c))
        if base != ch and base:
            out[cp] = base
    return out


def tee_filter(tokens, *filters):
    """Round-robin interleave of two or more filter branches, each run over
    a copy of the stream (reference TeeFilter, filters.py:184-236: yields
    one token from each branch in turn until all are exhausted)."""
    if len(filters) < 2:
        raise ValueError("tee_filter requires two or more filters")
    toks = list(tokens)
    gens = [iter(f(list(toks))) for f in filters]
    out = []
    running = len(gens)
    while running:
        for i, g in enumerate(gens):
            if g is None:
                continue
            try:
                out.append(next(g))
            except StopIteration:
                gens[i] = None
                running -= 1
    return out


def _charspec(s: str) -> int:
    """'A' or 'U+1E00' -> code point (Sphinx charset-table char spec)."""
    if s.startswith("U+"):
        return int(s[2:], 16)
    if len(s) == 1:
        return ord(s)
    raise ValueError(f"bad charspec {s!r}")


_CHARSPEC = r"(U\+[0-9A-Fa-f]{4,6}|.)"
_ITEM_RE = None  # compiled lazily (module import stays cheap)


def charset_table_to_dict(tablestring: str) -> dict:
    """Parse a Sphinx charset-table string (the format of the reference's
    ``support/charset.py:1299`` ``charset_table_to_dict`` and sphinxsearch's
    ``charset_table`` config) into a {codepoint: str} translation map
    containing ONLY the declared word characters.

    Item forms (comma-separated, ``#`` comments, whitespace ignored):
    ``A->a`` single map, ``A..Z->a..z`` range map (equal lengths),
    ``a`` stray char, ``a..z`` stray range, ``A..Z/2`` checkerboard
    (odd->next even, even->itself).  Char specs are literals or ``U+hex``.

    Undeclared characters are word BREAKS in Sphinx semantics: pass the
    result to :func:`charset_tokenize` with ``strict=True``.  (The
    reference converts its working defaultdict to a plain dict on return,
    so its own CharsetTokenizer raises KeyError on undeclared input
    characters — charset.py:1378 / tokenizers.py:284; we keep the plain
    dict but make break-on-missing an explicit tokenizer mode instead.)"""
    import re as _re

    global _ITEM_RE
    if _ITEM_RE is None:
        _ITEM_RE = _re.compile(
            # one pattern, alternation ordered most- to least-specific
            f"^(?:{_CHARSPEC}\\.\\.{_CHARSPEC}(?:->{_CHARSPEC}\\.\\.{_CHARSPEC}|(/2))?"
            f"|{_CHARSPEC}(?:->{_CHARSPEC})?)$"
        )
    out: dict = {}
    for line in tablestring.splitlines():
        line = line.split("#", 1)[0] if line.lstrip().startswith("#") else line
        for item in "".join(line.split()).split(","):
            if not item:
                continue
            m = _ITEM_RE.match(item)
            if not m:
                raise ValueError(f"unparseable charset item {item!r}")
            r1, r2, d1, d2, checker, s1, s2 = m.groups()
            if r1 is not None:  # range forms
                lo, hi = _charspec(r1), _charspec(r2)
                if checker:  # A..Z/2: pairs both map to the pair's second
                    for cp in range(lo, hi + 1, 2):
                        out[cp] = out[cp + 1] = chr(cp + 1)
                elif d1 is not None:  # A..Z->a..z
                    dlo, dhi = _charspec(d1), _charspec(d2)
                    if hi - lo != dhi - dlo:
                        raise ValueError(f"range length mismatch in {item!r}")
                    for cp, dcp in zip(range(lo, hi + 1), range(dlo, dhi + 1)):
                        out[cp] = chr(dcp)
                else:  # stray range a..z
                    for cp in range(lo, hi + 1):
                        out[cp] = chr(cp)
            else:  # single forms
                cp = _charspec(s1)
                out[cp] = chr(_charspec(s2)) if s2 is not None else chr(cp)
    return out


def charset_tokenize(value: str, charmap: dict, strict: bool = False) -> list:
    """CharsetTokenizer (reference analysis/tokenizers.py:239-315):
    translate each char through ``charmap``; falsy-mapped chars are token
    breaks; others are translated in place.  Returns [(text, pos)].
    Replicates the reference loop EXACTLY, including its final-token
    quirk: the token that reaches end-of-string is emitted as the RAW
    (untranslated) slice of the input (tokenizers.py:305 uses
    value[startchar:currentchar]).  Build charmaps from
    :func:`accent_fold_map` plus case entries, or parse a Sphinx table with
    :func:`charset_table_to_dict`.  ``strict=True`` treats characters
    MISSING from the map as breaks (Sphinx semantics: only declared chars
    are word characters); the default keeps them (accent-map workflow)."""
    out = []
    text = ""
    pos = 0
    startchar = currentchar = 0
    for ch in value:
        tchar = charmap.get(ord(ch), None if strict else ch)
        if tchar:
            text += tchar
        else:
            if currentchar > startchar:
                out.append((text, pos))
                pos += 1
            startchar = currentchar + 1
            text = ""
        currentchar += 1
    if currentchar > startchar:
        out.append((value[startchar:currentchar], pos))
    return out
