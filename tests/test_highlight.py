"""Highlight parity vs the reference highlight() pipeline (fragmenters,
scorer selection, formatters) on real corpus texts."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray.functions.analysis import standard_analyzer
from whoosh_reloaded_ray.query import Or, Term
from whoosh_reloaded_ray.query import highlight as hl
from whoosh_reloaded_ray.sources.corpus import generate_transcripts


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    d = tmp_path_factory.mktemp("hlcorpus")
    path = str(d / "transcripts.parquet")
    generate_transcripts(path, n_turns=60, avg_turn_words=60, seed=83, rows_per_file=60)
    return pq.read_table(path, columns=["text"])["text"].to_pylist()


def _whoosh_highlight(whoosh, text, terms, fragmenter, formatter, top=3, minscore=1):
    from whoosh import highlight as wh
    from whoosh.analysis import StandardAnalyzer

    return wh.highlight(
        text, frozenset(terms), StandardAnalyzer(), fragmenter, formatter,
        top=top, minscore=minscore,
    )


@pytest.mark.parametrize("fragpair", ["whole", "context"])
@pytest.mark.parametrize("fmtpair", ["upper", "html"])
def test_highlight_parity(whoosh, texts, fragpair, fmtpair):
    from whoosh import highlight as wh

    spec = standard_analyzer()
    for text in texts[:20]:
        words = [w.lower() for w in text.split()[:50] if len(w) >= 4]
        if len(words) < 2:
            continue
        terms = {words[0], words[len(words) // 2]}
        if fragpair == "whole":
            ours_frag, theirs_frag = hl.WholeFragmenter(), wh.WholeFragmenter()
        else:
            ours_frag = hl.ContextFragmenter(maxchars=120, surround=15)
            theirs_frag = wh.ContextFragmenter(maxchars=120, surround=15)
        if fmtpair == "upper":
            ours_fmt, theirs_fmt = hl.UppercaseFormatter(), wh.UppercaseFormatter()
        else:
            ours_fmt, theirs_fmt = hl.HtmlFormatter(), wh.HtmlFormatter()
        ours = hl.highlight(text, terms, spec, ours_frag, ours_fmt)
        theirs = _whoosh_highlight(whoosh, text, terms, theirs_frag, theirs_fmt)
        assert ours == theirs, f"{terms}\n{ours!r}\n{theirs!r}"


def test_highlight_hit(ray_session, tmp_path_factory):
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    d = tmp_path_factory.mktemp("hlidx")
    path = str(d / "t.parquet")
    generate_transcripts(path, n_turns=100, avg_turn_words=40, seed=29, rows_per_file=100)
    idx = str(tmp_path_factory.mktemp("hlidx2"))
    build_index([path], idx, num_shards=2, partition_rows=100)
    s = IndexSearcher(idx)
    import glob

    import pyarrow as pa

    files = glob.glob(f"{idx}/seg-*/terminfo-*.parquet")
    t = pa.concat_tables(pq.read_table(f, columns=["field", "term"]) for f in files)
    t = t.filter(pa.compute.equal(t["field"], "text"))
    term = sorted(t["term"].to_pylist())[5]
    q = Term("text", term)
    res = s.search(q, limit=1)
    frag = hl.highlight_hit(s, int(res["docnum"][0].as_py()), "text", q)
    assert term.upper() in frag


def test_sentence_fragmenter_parity(whoosh, texts):
    """SentenceFragmenter parity on punctuated texts (stops retained, as
    the reference docs require for sentence highlighting)."""
    from whoosh import highlight as wh
    from whoosh.analysis import StandardAnalyzer

    spec = standard_analyzer()
    for ti, text in enumerate(texts[:12]):
        words = text.split()
        if len(words) < 10:
            continue
        # stitch sentences: period after every 7th word, '!' after every 13th
        parts = []
        for i, w in enumerate(words):
            parts.append(w)
            if i % 7 == 6:
                parts[-1] += "."
            elif i % 13 == 12:
                parts[-1] += "!"
        stext = " ".join(parts)
        terms = {words[2].lower(), words[len(words) // 2].lower()}
        ours = hl.highlight(
            stext, terms, spec, hl.SentenceFragmenter(maxchars=160), hl.UppercaseFormatter()
        )
        theirs = wh.highlight(
            stext, frozenset(terms), StandardAnalyzer(),
            wh.SentenceFragmenter(maxchars=160), wh.UppercaseFormatter(),
        )
        assert ours == theirs, f"text {ti}: {terms}\n{ours!r}\n{theirs!r}"


def test_pinpoint_fragmenter_parity(whoosh, texts):
    """PinpointFragmenter parity via the supported fragment_matches API
    (the reference's generic highlight() path hands Pinpoint a stream of
    the analyzer's single REUSED mutable token, degenerating the matched
    list — we compare against properly copied tokens instead; our
    pipeline copies tokens by construction)."""
    from whoosh import highlight as wh

    spec = standard_analyzer()
    for autotrim in (False, True):
        for text in texts[:12]:
            words = [w.lower() for w in text.split() if len(w) >= 4]
            if len(words) < 3:
                continue
            terms = {words[0], words[1], words[len(words) // 2]}
            tokens = hl.analyze_with_chars(spec, text)
            for t in tokens:
                t.matched = t.text in terms
            ours_frags = hl.PinpointFragmenter(
                maxchars=120, surround=15, autotrim=autotrim
            ).fragment_tokens(text, tokens)

            wtoks = []
            for t in tokens:
                if t.matched:
                    wt = wh.Token(
                        text=t.text, startchar=t.startchar, endchar=t.endchar
                    )
                    wt.matched = True
                    wtoks.append(wt)
            theirs_frags = list(
                wh.PinpointFragmenter(
                    maxchars=120, surround=15, autotrim=autotrim
                ).fragment_matches(text, wtoks)
            )
            ours_spans = [(f.startchar, f.endchar) for f in ours_frags]
            theirs_spans = [(f.startchar, f.endchar) for f in theirs_frags]
            assert ours_spans == theirs_spans, (autotrim, terms)
            ours_m = [[(m.startchar, m.endchar) for m in f.matches] for f in ours_frags]
            theirs_m = [
                [(m.startchar, m.endchar) for m in f.matches] for f in theirs_frags
            ]
            assert ours_m == theirs_m


def test_characters_payload(ray_session, whoosh, tmp_path):
    """Characters posting payloads (reference formats.py:344-409): stored
    char spans match whoosh TEXT(chars=True) postings, and payload-based
    highlighting marks the exact occurrences without re-analysis."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from whoosh import fields as wf, index as windex

    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.query import Term
    from whoosh_reloaded_ray.query.highlight import highlight_hit, payload_spans
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    corpus = str(tmp_path / "t.parquet")
    generate_transcripts(corpus, n_turns=300, avg_turn_words=25, seed=9, rows_per_file=100)
    schema = IndexSchema(fields=[id_field("conv_id"), text_field("text", chars=True)])
    idx = str(tmp_path / "idx")
    build_index([corpus], idx, schema=schema, num_shards=4, partition_rows=100)
    s = IndexSearcher(idx)

    wdir = str(tmp_path / "widx")
    import os

    os.makedirs(wdir)
    wschema = wf.Schema(conv_id=wf.ID, text=wf.TEXT(chars=True))
    wix = windex.create_in(wdir, wschema)
    w = wix.writer()
    rows = pq.read_table(corpus, columns=["conv_id", "text"]).to_pylist()
    for row in rows:
        w.add_document(conv_id=row["conv_id"], text=row["text"])
    w.commit()

    # pick a mid-frequency term
    from collections import Counter

    from whoosh_reloaded_ray.functions.analysis import make_analyzer, standard_analyzer

    an = make_analyzer(standard_analyzer())
    c = Counter()
    for row in rows:
        c.update({t for t, _ in an(row["text"])})
    term = c.most_common()[len(c) // 4][0]

    # whoosh oracle: per-doc char spans from the Characters payload
    want = {}
    with wix.searcher() as ws:
        m = ws.postings("text", term)
        while m.is_active():
            want[m.id()] = [(sc, ec) for _, sc, ec in m.value_as("characters")]
            m.next()

    got = {}
    hits = s.search(Term("text", term), limit=None)
    for d in hits["docnum"].to_pylist():
        for r in s.local.readers:
            if r.seg.doc_base <= d < r.seg.doc_base + r.seg.doc_count:
                got[d] = [tuple(map(int, p)) for p in r.char_spans("text", term, d).tolist()]
    assert got == want

    # payload highlighting marks exactly those spans
    d0 = hits["docnum"][0].as_py()
    text0 = next(r["text"] for i, r in enumerate(rows) if i == d0)
    spans = payload_spans(s, d0, "text", {term})
    assert set(spans) == set(want[d0])
    frag = highlight_hit(s, d0, "text", Term("text", term))
    assert term.upper() in frag


def test_characters_payload_stemming(ray_session, whoosh, tmp_path):
    """Payload highlighting on a STEMMING field: the query term is a stem
    ('run' matches 'running'), so text-match re-analysis can't find the
    spans — only the Characters payload can."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from whoosh_reloaded_ray.functions.analysis import stemming_analyzer
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.query import Term
    from whoosh_reloaded_ray.query.highlight import highlight_hit, payload_spans
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    texts = [
        "the runner was running while others ran the race",
        "jumping jumps jumped over running water",
        "nothing matching here at all",
    ]
    corpus = str(tmp_path / "st.parquet")
    pq.write_table(
        pa.table({"conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
                  "text": pa.array(texts)}),
        corpus,
    )
    schema = IndexSchema(
        fields=[id_field("conv_id"), text_field("text", analyzer=stemming_analyzer(), chars=True)]
    )
    idx = str(tmp_path / "stidx")
    build_index([corpus], idx, schema=schema, num_shards=2, partition_rows=10)
    s = IndexSearcher(idx)
    # porter: running -> "runn" (parity with the reference's porter.py);
    # re-analysis of the raw text can never produce "runn" spans — only
    # the payload can place them
    hits = s.search(Term("text", "runn"), limit=None)
    assert hits.num_rows == 2
    d0 = 0
    spans = payload_spans(s, d0, "text", {"runn"})
    got = sorted(texts[0][a:b] for a, b in spans)
    assert got == ["running"]
    frag = highlight_hit(s, d0, "text", Term("text", "runn"))
    assert "RUNNING" in frag
    # jump family collapses to one stem covering three raw surface forms
    spans1 = payload_spans(s, 1, "text", {"jump"})
    assert sorted(texts[1][a:b] for a, b in spans1) == ["jumped", "jumping", "jumps"]


def test_payload_highlight_both_executors(ray_session, tmp_path):
    """highlight_hit on a chars=True field reads the Characters payload
    on both executors, so the ray executor returns the local string.
    Re-analysis would differ: it also marks the stop word 'the', which
    the index (and so the payload) never holds."""
    import pyarrow as pa

    from whoosh_reloaded_ray.functions.analysis import stemming_analyzer
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    texts = [
        "the runner was running while others ran the race",
        "jumping jumps jumped over running water",
        "nothing matching here at all",
    ]
    corpus = str(tmp_path / "st.parquet")
    pq.write_table(
        pa.table({"conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
                  "text": pa.array(texts)}),
        corpus,
    )
    schema = IndexSchema(
        fields=[id_field("conv_id"), text_field("text", analyzer=stemming_analyzer(), chars=True)]
    )
    idx = str(tmp_path / "stidx")
    build_index([corpus], idx, schema=schema, num_shards=2, partition_rows=2)
    local = IndexSearcher(idx, executor="local")
    rays = IndexSearcher(idx, executor="ray", num_actors=2)
    runn_the = Or([Term("text", "runn"), Term("text", "the")])
    for d, q in ((0, runn_the), (1, Term("text", "runn")), (1, Term("text", "jump"))):
        assert hl.highlight_hit(rays, d, "text", q) == hl.highlight_hit(local, d, "text", q)
    frag = hl.highlight_hit(rays, 0, "text", runn_the)
    assert "RUNNING" in frag and "THE" not in frag


def test_fancy_analyzer_chars_payload_highlights(ray_session, tmp_path):
    """A chars=True field analyzed by fancy_analyzer stores the Characters
    payload, so highlight_hit marks the matched word on both executors."""
    import pyarrow as pa

    from whoosh_reloaded_ray.functions.analysis import fancy_analyzer
    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    text = "connection connected connecting connects"
    corpus = str(tmp_path / "fancy.parquet")
    pq.write_table(pa.table({"conv_id": ["c0"], "text": [text]}), corpus)
    schema = IndexSchema(
        fields=[id_field("conv_id"), text_field("text", analyzer=fancy_analyzer(), chars=True)]
    )
    idx = str(tmp_path / "fancyidx")
    build_index([corpus], idx, schema=schema, num_shards=2, partition_rows=10)
    q = Term("text", "connects")
    local = IndexSearcher(idx, executor="local")
    assert hl.payload_spans(local, 0, "text", {"connects"}) == {(32, 40)}
    rays = IndexSearcher(idx, executor="ray", num_actors=1)
    try:
        for s in (local, rays):
            assert hl.highlight_hit(s, 0, "text", q) == "connected connecting CONNECTS"
    finally:
        rays.close()


def _install_fake_genshi(monkeypatch):
    """Minimal structural genshi stand-in, injected for BOTH engines so the
    reference GenshiFormatter (which hard-imports genshi.core) and ours see
    the identical event vocabulary."""
    import sys
    import types

    core = types.ModuleType("genshi.core")

    class Attrs(tuple):
        pass

    class Stream(list):
        def __init__(self, events):
            super().__init__(events)

    core.START, core.END, core.TEXT = "START", "END", "TEXT"
    core.Attrs, core.Stream = Attrs, Stream
    pkg = types.ModuleType("genshi")
    pkg.core = core
    monkeypatch.setitem(sys.modules, "genshi", pkg)
    monkeypatch.setitem(sys.modules, "genshi.core", core)
    return core


def _norm_genshi_events(events, TEXT):
    """Streams carry (TEXT, str, pos) events and — via the reference's
    format_fragment quirk (highlight.py:899) — raw (fragment_text, token,
    replace) triples; normalize tokens to (startchar, endchar) so the two
    engines' token classes compare."""
    out = []
    for ev in events:
        if ev[0] == TEXT and isinstance(ev[1], str) and not hasattr(ev[1], "startchar"):
            out.append(("TEXT", ev[1]))
        else:
            text, tok, replace = ev
            out.append(("RAW", text, tok.startchar, tok.endchar, bool(replace)))
    return out


def test_genshi_formatter_parity(whoosh, texts, monkeypatch):
    """Event-stream parity incl. the reference's raw-tuple quirk in
    format_fragment (reference highlight.py:850-914)."""
    core = _install_fake_genshi(monkeypatch)
    from whoosh import highlight as wh

    spec = standard_analyzer()
    checked = 0
    for text in texts[:12]:
        words = [w.lower() for w in text.split()[:50] if len(w) >= 4]
        if len(words) < 2:
            continue
        terms = {words[0], words[len(words) // 2]}
        ours = hl.highlight(
            text, terms, spec, hl.ContextFragmenter(maxchars=120, surround=15),
            hl.GenshiFormatter(),
        )
        theirs = _whoosh_highlight(
            whoosh, text, terms, wh.ContextFragmenter(maxchars=120, surround=15),
            wh.GenshiFormatter(),
        )
        assert _norm_genshi_events(ours, core.TEXT) == _norm_genshi_events(
            theirs, core.TEXT
        )
        checked += 1
    assert checked >= 5


def test_genshi_format_token_events(whoosh, monkeypatch):
    """format_token wraps in START/TEXT/END with the configured QName —
    compared event-for-event against the reference class."""
    core = _install_fake_genshi(monkeypatch)
    from whoosh import highlight as wh

    class Tok:
        startchar, endchar = 4, 9
        text = "REPL"

    ours_f = hl.GenshiFormatter(qname="em")
    ref_f = wh.GenshiFormatter(qname="em")
    for replace in (False, True):
        ours = list(ours_f.format_token("the quick fox", Tok(), replace))
        theirs = list(ref_f.format_token("the quick fox", Tok(), replace))
        assert ours == theirs
        assert ours[0][0] == core.START and ours[2][0] == core.END
        assert ours[1][1] == ("REPL" if replace else "quick")


def test_genshi_formatter_without_genshi():
    """Without genshi installed the formatter still yields the identical
    event structure via the structural stand-ins."""
    f = hl.GenshiFormatter()
    frag = hl.Fragment("alpha beta gamma", [], 0, 16)
    stream = f.format([frag])
    assert list(stream) == [("TEXT", "alpha beta gamma", (None, -1, -1))]
