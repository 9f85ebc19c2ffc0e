"""Whoosh-style compat API over the Ray engine, exercised with the
reference's canonical 5-doc fixture and query set (the make_index() corpus
from tests/test_searching.py:12-41 and its expected key lists)."""

from __future__ import annotations

import pytest

from whoosh_reloaded_ray import compat as wrr
from whoosh_reloaded_ray.query import And, AndMaybe, AndNot, Not, Or, Phrase, Prefix, Term, TermRange


@pytest.fixture(scope="module")
def ix(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("compatidx"))
    schema = wrr.Schema(key=wrr.ID(stored=True), name=wrr.TEXT(), value=wrr.TEXT())
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="A", name="Yellow brown", value="Blue red green render purple?")
    w.add_document(key="B", name="Alpha beta", value="Gamma delta epsilon omega.")
    w.add_document(key="C", name="One two", value="Three rendered four five.")
    w.add_document(key="D", name="Quick went", value="Every red town.")
    w.add_document(key="E", name="Yellow uptown", value="Interest rendering outer photo!")
    w.commit()
    return ix


def _keys(ix, q):
    with ix.searcher() as s:
        return sorted(h["key"] for h in s.search(q, limit=None))


# expectations mirror the reference's test_searching.py cases
CASES = [
    (Term("name", "yellow"), ["A", "E"]),
    (Term("value", "red"), ["A", "D"]),
    (Term("value", "zeta"), []),
    (And([Term("value", "red"), Term("name", "yellow")]), ["A"]),
    (Or([Term("value", "red"), Term("name", "yellow")]), ["A", "D", "E"]),
    (Or([Term("value", "red"), Term("name", "yellow"), Term("name", "alpha")]), ["A", "B", "D", "E"]),
    (Not(Term("name", "yellow")), ["B", "C", "D"]),
    (AndNot(Term("name", "yellow"), Term("value", "purple")), ["E"]),
    (Prefix("value", "re"), ["A", "C", "D", "E"]),
    (Phrase("name", ["yellow", "brown"]), ["A"]),
    (TermRange("value", "be", "d"), ["A"]),  # verified against the reference
]


@pytest.mark.parametrize("q,target", CASES, ids=[repr(c[0])[:40] for c in CASES])
def test_reference_query_cases(ix, q, target):
    assert _keys(ix, q) == target


def test_parse_and_page(ix):
    with ix.searcher() as s:
        r = s.search(s.parse("value:red OR name:yellow"), limit=None)
        assert sorted(h["key"] for h in r) == ["A", "D", "E"]
        p1 = s.search_page(s.parse("value:red OR name:yellow"), 1, pagelen=2)
        p2 = s.search_page(s.parse("value:red OR name:yellow"), 2, pagelen=2)
        # reference ResultsPage: len() is the TOTAL; iteration is the page
        assert len(p1) == len(p2) == 3
        assert len(list(p1)) == 2 and len(list(p2)) == 1
        assert p2.is_last_page() and not p1.is_last_page()
        assert {h["key"] for h in list(p1) + list(p2)} == {"A", "D", "E"}


def test_search_kwargs_sortedby_groupedby_collapse(ix):
    """Reference search() kwargs: sortedby/reverse, groupedby ->
    Results.groups(), collapse/collapse_limit."""
    with ix.searcher() as s:
        q = s.parse("value:red OR name:yellow")  # A, D, E
        r = s.search(q, sortedby="key", limit=None)
        assert [h["key"] for h in r] == ["A", "D", "E"]
        assert all(h.score is None for h in r)
        r = s.search(q, sortedby="key", reverse=True, limit=None)
        assert [h["key"] for h in r] == ["E", "D", "A"]

        r = s.search(q, groupedby="key", maptype="count", limit=None)
        assert r.groups() == {"A": 1, "D": 1, "E": 1}
        with pytest.raises(KeyError):
            s.search(q, limit=None).groups()

        # collapse on key with limit 1 per key is a no-op here (unique keys);
        # semantics: same docs as plain search
        plain = {h.docnum for h in s.search(q, limit=None)}
        coll = {h.docnum for h in s.search(q, collapse="key", limit=None)}
        assert coll == plain


def test_text_field_boost_parity(ray_session, tmp_path_factory, whoosh):
    """TEXT(field_boost=) multiplies posting weights at write time —
    scores must match whoosh exactly (reference fields.py field_boost /
    formats word_values)."""
    from whoosh import fields as wf
    from whoosh import index as windex
    from whoosh import query as wq

    import numpy as np

    rows = [("a", "red fish swims"), ("b", "blue fish"), ("c", "red red bird")]
    d = str(tmp_path_factory.mktemp("fbidx"))
    schema = wrr.Schema(key=wrr.ID(stored=True), body=wrr.TEXT(field_boost=2.5))
    ix2 = wrr.create_in(d, schema)
    w = ix2.writer()
    for k, b in rows:
        w.add_document(key=k, body=b)
    w.commit()

    wd = str(tmp_path_factory.mktemp("fbwhoosh"))
    wix = windex.create_in(
        wd, wf.Schema(key=wf.ID(stored=True), body=wf.TEXT(field_boost=2.5))
    )
    ww = wix.writer()
    for k, b in rows:
        ww.add_document(key=k, body=b)
    ww.commit()

    with ix2.searcher() as s, wix.searcher() as ws:
        ours = [(h["key"], h.score) for h in s.search(Term("body", "red"), limit=None)]
        theirs = [
            (ws.stored_fields(h.docnum)["key"], h.score)
            for h in ws.search(wq.Term("body", "red"), limit=None)
        ]
        assert [k for k, _ in ours] == [k for k, _ in theirs]
        np.testing.assert_allclose(
            [x for _, x in ours], [x for _, x in theirs], atol=1e-6
        )


def test_doc_and_field_boost_parity(ray_session, tmp_path_factory, whoosh):
    """add_document(_boost=..., _<field>_boost=...) write-time boosts —
    rank+score parity vs whoosh (reference writing.py:392-426; the
    field-specific kwarg REPLACES the doc boost)."""
    from whoosh import fields as wf
    from whoosh import index as windex
    from whoosh import query as wq

    import numpy as np

    docs = [
        dict(key="a", name="apple pear", body="apple apple plum"),
        dict(key="b", name="apple plum", body="pear apple", _boost=3.0),
        dict(key="c", name="apple", body="apple pear", _boost=2.0, _name_boost=0.5),
    ]
    d = str(tmp_path_factory.mktemp("dbidx"))
    ix2 = wrr.create_in(
        d,
        wrr.Schema(key=wrr.ID(stored=True), name=wrr.TEXT(), body=wrr.TEXT()),
    )
    w = ix2.writer()
    for doc in docs:
        w.add_document(**doc)
    w.commit()

    wd = str(tmp_path_factory.mktemp("dbwhoosh"))
    wix = windex.create_in(
        wd, wf.Schema(key=wf.ID(stored=True), name=wf.TEXT(), body=wf.TEXT())
    )
    ww = wix.writer()
    for doc in docs:
        ww.add_document(**doc)
    ww.commit()

    for q, wqq in [
        (Term("body", "apple"), wq.Term("body", "apple")),
        (Term("name", "apple"), wq.Term("name", "apple")),
        (Or([Term("body", "pear"), Term("name", "plum")]), wq.Or([wq.Term("body", "pear"), wq.Term("name", "plum")])),
    ]:
        with ix2.searcher() as s, wix.searcher() as ws:
            ours = [(h["key"], h.score) for h in s.search(q, limit=None)]
            theirs = [
                (ws.stored_fields(h.docnum)["key"], h.score)
                for h in ws.search(wqq, limit=None)
            ]
        assert [k for k, _ in ours] == [k for k, _ in theirs], (q, ours, theirs)
        np.testing.assert_allclose(
            [x for _, x in ours], [x for _, x in theirs], atol=1e-6
        )


def test_facet_objects(ix):
    """Reference sorting.py facet objects accepted by search():
    FieldFacet (incl. reverse), MultiFacet, RangeFacet -> bucket counts."""
    with ix.searcher() as s:
        q = s.parse("value:red OR name:yellow")  # A, D, E
        r = s.search(q, sortedby=wrr.FieldFacet("key"), limit=None)
        assert [h["key"] for h in r] == ["A", "D", "E"]
        r = s.search(q, sortedby=wrr.FieldFacet("key", reverse=True), limit=None)
        assert [h["key"] for h in r] == ["E", "D", "A"]
        r = s.search(q, sortedby=wrr.MultiFacet(["key"]), limit=None)
        assert [h["key"] for h in r] == ["A", "D", "E"]
        r = s.search(q, groupedby=wrr.FieldFacet("key"), maptype="count", limit=None)
        assert r.groups() == {"A": 1, "D": 1, "E": 1}


def test_hit_highlights(ix, whoosh):
    """Hit.highlights parity vs whoosh (reference Hit.highlights routes
    through Results' default Highlighter, whose formatter is
    HtmlFormatter("b") — highlight.py:972): matched terms wrapped in
    <b class="match termN">."""
    with ix.searcher() as s:
        r = s.search(Term("value", "red"), limit=None)
        h = next(hit for hit in r if hit["key"] == "A")
        frag = h.highlights("value")
        assert '<b class="match term0">red</b>' in frag
        # text= override path
        frag2 = h.highlights("value", text="red tape red line")
        assert frag2.count('<b class="match term0">red</b>') == 2
        # explicit formatter still honored
        from whoosh_reloaded_ray.query.highlight import UppercaseFormatter

        frag3 = h.highlights("value", formatter=UppercaseFormatter())
        assert "RED" in frag3 and "<b" not in frag3


def test_stored_value_override(ray_session, tmp_path_factory):
    """add_document(_stored_<field>=...) stores a different value than the
    indexed one (reference writing.py:404-415)."""
    d = str(tmp_path_factory.mktemp("stovidx"))
    ix2 = wrr.create_in(d, wrr.Schema(key=wrr.ID(stored=True), body=wrr.TEXT(stored=True)))
    w = ix2.writer()
    w.add_document(key="a", body="searchable words here", _stored_body="DISPLAY TEXT")
    w.add_document(key="b", body="other words")
    w.commit()
    with ix2.searcher() as s:
        hits = {h["key"]: h["body"] for h in s.search(Term("body", "words"), limit=None)}
        assert hits == {"a": "DISPLAY TEXT", "b": "other words"}
        assert s.document(key="a")["body"] == "DISPLAY TEXT"


def test_document_lookup(ix):
    """document()/documents()/document_number(s) convenience lookups
    (reference searching.py:352-426)."""
    with ix.searcher() as s:
        d = s.document(key="C")
        assert d is not None and d["key"] == "C"
        assert s.document(key="ZZZ") is None
        assert sorted(r["key"] for r in s.documents(name="yellow")) == ["A", "E"]
        # no kwargs -> every document
        assert len(list(s.documents())) == s.doc_count_all()
        n = s.document_number(key="B")
        assert n is not None and s.stored_fields(n)["key"] == "B"
        assert len(s.document_numbers(name="yellow")) == 2


def test_incremental_write_and_delete(ix):
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="F", name="Yellow extra", value="Another doc entirely.")
    w.commit()
    assert _keys(ix, Term("name", "yellow")) == ["A", "E", "F"]
    w = ix.writer()
    n = w.delete_by_term("key", "F")
    assert n == 1
    assert _keys(ix, Term("name", "yellow")) == ["A", "E"]
    assert ix.doc_count() == 5  # undeleted count (reference Index.doc_count)
    assert ix.doc_count_all() == 6  # deleted doc still in the total


def test_open_dir_roundtrip(ix):
    again = wrr.open_dir(ix.dirname)
    assert _keys(again, Term("value", "red")) == ["A", "D"]


def test_results_combine_ops(ix):
    """Results.extend/filter/upgrade/upgrade_and_extend (reference
    searching.py:1327-1396; behaviors mirror tests/test_results.py:76-231)."""
    def keys(r):
        return [h["key"] for h in r]

    with ix.searcher() as s:
        yellow = s.search(Term("name", "yellow"), limit=None)        # A, E
        red = s.search(Term("value", "red"), limit=None)             # A, D
        empty = s.search(Term("value", "zeta"), limit=None)

        r = s.search(Term("name", "yellow"), limit=None)
        r.extend(red)
        assert set(keys(r)) == {"A", "E", "D"}
        assert keys(r)[:len(yellow)] == keys(yellow)  # ours first, in order

        r = s.search(Term("name", "yellow"), limit=None)
        r.filter(red)
        assert keys(r) == ["A"]
        r2 = s.search(Term("name", "yellow"), limit=None)
        r2.filter(empty)  # no-op, like the reference
        assert keys(r2) == keys(yellow)

        big = s.search(
            Or([Term("value", "red"), Term("name", "yellow"), Term("name", "alpha")]),
            limit=None,
        )
        base = keys(big)
        big.upgrade(red)
        up = keys(big)
        assert set(up) == set(base)
        assert set(up[:2]) == {"A", "D"}  # red docs raised
        big.upgrade(red, reverse=True)
        down = keys(big)
        assert set(down[-2:]) == {"A", "D"}

        r = s.search(Term("name", "yellow"), limit=None)
        r.upgrade_and_extend(red)
        assert keys(r)[0] == "A" and set(keys(r)) == {"A", "E", "D"}


def test_matched_terms(ix):
    """search(terms=True) + Hit.matched_terms (reference TermsCollector)."""
    with ix.searcher() as s:
        r = s.search(
            Or([Term("value", "red"), Term("name", "yellow")]), limit=None, terms=True
        )
        by_key = {h["key"]: h.matched_terms() for h in r}
        assert by_key["A"] == [("name", "yellow"), ("value", "red")]
        assert by_key["D"] == [("value", "red")]
        assert by_key["E"] == [("name", "yellow")]
        # multiterm expansion reports the CONCRETE terms matched
        r2 = s.search(Prefix("value", "re"), limit=None, terms=True)
        allterms = set()
        for h in r2:
            allterms.update(h.matched_terms())
        assert ("value", "red") in allterms and ("value", "rendered") in allterms


def test_boolean_field(ray_session, tmp_path_factory, whoosh):
    """BOOLEAN field parity: true/yes/1/t and false/no/0 query words."""
    from whoosh import fields as wf
    from whoosh import index as windex
    from whoosh.qparser import QueryParser as WQP

    d = str(tmp_path_factory.mktemp("boolidx"))
    schema = wrr.Schema(key=wrr.ID(stored=True), done=wrr.BOOLEAN(), body=wrr.TEXT())
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=16)
    rows = [("a", True, "red fish"), ("b", False, "blue fish"),
            ("c", True, "green fish"), ("d", False, "red bird")]
    for k, done, body in rows:
        w.add_document(key=k, done=done, body=body)
    w.commit()

    wd = str(tmp_path_factory.mktemp("boolwhoosh"))
    wix = windex.create_in(
        wd, wf.Schema(key=wf.ID(stored=True), done=wf.BOOLEAN(), body=wf.TEXT())
    )
    ww = wix.writer()
    for k, done, body in rows:
        ww.add_document(key=k, done=done, body=body)
    ww.commit()

    for qs in ("done:true", "done:yes", "done:1", "done:t",
               "done:false", "done:no", "done:0",
               "done:true AND body:red", "body:fish AND done:false"):
        with ix.searcher() as s:
            ours = sorted(h["key"] for h in s.search(s.parse(qs, default_field="body"), limit=None))
        with wix.searcher() as ws:
            wq = WQP("body", wix.schema).parse(qs)
            theirs = sorted(h["key"] for h in ws.search(wq, limit=None))
        assert ours == theirs, (qs, ours, theirs)
    assert wrr.exists_in(d) and not wrr.exists_in(str(tmp_path_factory.mktemp("empty")))


def test_named_analyzer_constructors(ray_session, tmp_path_factory, whoosh):
    """Whoosh-named analyzer constructors work end-to-end through
    TEXT(analyzer=...) — a Russian-stemmed field matches inflected
    forms the way the reference LanguageAnalyzer does."""
    import whoosh.analysis as wa

    from whoosh_reloaded_ray.functions.analysis import make_analyzer

    # spec-level parity for each constructor against the reference
    text = "The RENDERING Interest-rates of 2024 was quickly up-town"
    pairs = [
        (wrr.IDAnalyzer(), wa.IDAnalyzer()),
        (wrr.KeywordAnalyzer(lowercase=True), wa.KeywordAnalyzer(lowercase=True)),
        (wrr.SimpleAnalyzer(), wa.SimpleAnalyzer()),
        (wrr.StandardAnalyzer(), wa.StandardAnalyzer()),
        (wrr.StemmingAnalyzer(), wa.StemmingAnalyzer()),
        (wrr.FancyAnalyzer(), wa.FancyAnalyzer()),
        (wrr.LanguageAnalyzer("es"), wa.LanguageAnalyzer("es")),
    ]
    for ours, ref in pairs:
        got = [w for w, _ in make_analyzer(ours)(text)]
        want = [t.text for t in ref(text)]
        assert got == want, (ours, got, want)

    # end-to-end: Russian stemming field matches inflected query forms
    d = str(tmp_path_factory.mktemp("langidx"))
    schema = wrr.Schema(
        key=wrr.ID(stored=True),
        body=wrr.TEXT(analyzer=wrr.LanguageAnalyzer("ru")),
    )
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="1", body="быстрые лисицы прыгнули")
    w.add_document(key="2", body="медленная черепаха ползла")
    w.commit()
    with ix.searcher() as s:
        # query analyzer stems the inflected form to the same stem
        r = s.search(s.parse("body:лисица"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]
        r = s.search(s.parse("body:черепахи"), limit=None)
        assert sorted(h["key"] for h in r) == ["2"]


def test_pipe_dsl_analyzers(ray_session, tmp_path_factory, whoosh):
    """Whoosh pipe-composition DSL compiles to AnalyzerSpecs with
    reference-identical output, and unrepresentable chains fail loudly."""
    import whoosh.analysis as wa

    from whoosh_reloaded_ray.functions.analysis import make_analyzer

    text = "The RENDERING Interest-rates of 2024 went UP-town fast"
    chains = [
        (wrr.RegexTokenizer() | wrr.LowercaseFilter(),
         wa.RegexTokenizer() | wa.LowercaseFilter()),
        (wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.StopFilter(),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.StopFilter()),
        (wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.StopFilter() | wrr.StemFilter(),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.StopFilter() | wa.StemFilter()),
        (wrr.SpaceSeparatedTokenizer() | wrr.LowercaseFilter(),
         wa.SpaceSeparatedTokenizer() | wa.LowercaseFilter()),
        (wrr.CommaSeparatedTokenizer(),
         wa.CommaSeparatedTokenizer()),
        (wrr.StopFilter(lang="es") | wrr.LowercaseFilter() if False else
         wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.StopFilter(lang="es") | wrr.StemFilter(lang="es"),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.StopFilter(lang="es") | wa.StemFilter(lang="es")),
    ]
    for ours, ref in chains:
        got = [t.text for t in ours(text)]
        want = [t.text for t in ref(text)]
        assert got == want, (got, want)

    # chain objects are accepted by TEXT(analyzer=...)
    d = str(tmp_path_factory.mktemp("pipeidx"))
    schema = wrr.Schema(
        key=wrr.ID(stored=True),
        body=wrr.TEXT(
            analyzer=wrr.RegexTokenizer() | wrr.LowercaseFilter()
            | wrr.StopFilter() | wrr.StemFilter()
        ),
    )
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="1", body="The interests of rendering nations")
    w.commit()
    with ix.searcher() as s:
        r = s.search(s.parse("body:interesting"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]

    # unrepresentable chains raise instead of mis-analyzing
    with pytest.raises(TypeError):
        (wrr.LowercaseFilter() | wrr.StopFilter()).to_spec()


def test_charset_filter_field(ray_session, tmp_path_factory, whoosh):
    """CharsetFilter in the pipe DSL folds accents at index AND query
    time, matching the reference chain's analysis output."""
    import whoosh.analysis as wa
    from whoosh.support.charset import accent_map

    from whoosh_reloaded_ray.functions.analysis import make_analyzer

    text = "Café Niño naïve Zürich résumé"
    ours = (wrr.RegexTokenizer() | wrr.LowercaseFilter()
            | wrr.CharsetFilter(accent_map))
    ref = wa.RegexTokenizer() | wa.LowercaseFilter() | wa.CharsetFilter(accent_map)
    got = [t.text for t in ours(text)]
    want = [t.text for t in ref(text)]
    assert got == want == ["cafe", "nino", "naive", "zurich", "resume"]

    d = str(tmp_path_factory.mktemp("accentidx"))
    schema = wrr.Schema(key=wrr.ID(stored=True), body=wrr.TEXT(analyzer=ours))
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="1", body="Le café est délicieux")
    w.add_document(key="2", body="The plain coffee house")
    w.commit()
    with ix.searcher() as s:
        # unaccented query matches the accented document
        r = s.search(s.parse("body:cafe"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]
        # accented query folds too
        r = s.search(s.parse("body:café"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]
        r = s.search(s.parse("body:delicieux"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]


def test_pipe_dsl_extra_filters(ray_session, whoosh):
    """BiWord/Shingle/Strip/Substitution/Reverse/CompoundWord/
    DoubleMetaphone/Pass pipe components match the reference chains'
    token texts and positions."""
    import whoosh.analysis as wa

    from whoosh_reloaded_ray.functions.analysis import make_analyzer

    text = "the quick brown foxhouse jumped over seven lazy dogcat pairs"
    wordset = {"fox", "house", "dog", "cat"}
    chains = [
        ("biword",
         wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.BiWordFilter(),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.BiWordFilter()),
        ("shingle3",
         wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.ShingleFilter(3, ":"),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.ShingleFilter(3, ":")),
        ("sub",
         wrr.RegexTokenizer() | wrr.SubstitutionFilter("o", "0"),
         wa.RegexTokenizer() | wa.SubstitutionFilter("o", "0")),
        ("reverse",
         wrr.RegexTokenizer() | wrr.ReverseTextFilter(),
         wa.RegexTokenizer() | wa.ReverseTextFilter()),
        ("compound",
         wrr.RegexTokenizer() | wrr.CompoundWordFilter(wordset, keep_compound=True),
         wa.RegexTokenizer() | wa.CompoundWordFilter(wordset, keep_compound=True)),
        ("dmeta",
         wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.DoubleMetaphoneFilter(),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.DoubleMetaphoneFilter()),
        ("pass",
         wrr.RegexTokenizer() | wrr.PassFilter() | wrr.LowercaseFilter(),
         wa.RegexTokenizer() | wa.PassFilter() | wa.LowercaseFilter()),
        ("stem+biword",
         wrr.RegexTokenizer() | wrr.LowercaseFilter() | wrr.StemFilter() | wrr.BiWordFilter(),
         wa.RegexTokenizer() | wa.LowercaseFilter() | wa.StemFilter() | wa.BiWordFilter()),
    ]
    for name, ours, ref in chains:
        got = [(t.text, t.pos) for t in ours(text)]
        want = [(t.text, t.pos) for t in ref(text, positions=True)]
        assert got == want, (name, got, want)

    # PyStemmerFilter resolves to the built-in family
    spec = (wrr.RegexTokenizer() | wrr.LowercaseFilter()
            | wrr.PyStemmerFilter("spanish")).to_spec()
    assert spec.stemmer == "snowball:es"
    with pytest.raises(TypeError):
        (wrr.RegexTokenizer() | wrr.PyStemmerFilter("klingon")).to_spec()

    # NgramTokenizer head
    got = [t.text for t in wrr.NgramTokenizer(3)("hello")]
    want = [t.text for t in wa.NgramTokenizer(3)("hello")]
    assert got == want


def test_post_filter_field_end_to_end(ray_session, tmp_path_factory, whoosh):
    """A field with a trailing-filter chain (biword) builds through the
    Ray pipeline and matches biword terms at query time."""
    d = str(tmp_path_factory.mktemp("biwordidx"))
    schema = wrr.Schema(
        key=wrr.ID(stored=True),
        body=wrr.TEXT(
            analyzer=wrr.RegexTokenizer() | wrr.LowercaseFilter()
            | wrr.BiWordFilter()
        ),
    )
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="1", body="alpha beta gamma")
    w.add_document(key="2", body="beta gamma delta")
    w.commit()
    from whoosh_reloaded_ray.query import Term
    with ix.searcher() as s:
        r = s.search(Term("body", "alpha-beta"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]
        r = s.search(Term("body", "beta-gamma"), limit=None)
        assert sorted(h["key"] for h in r) == ["1", "2"]


def test_scoring_module_weighting_objects(ix, whoosh):
    """ix.searcher(weighting=scoring.X()) accepts the whoosh-named
    weighting models and changes rankings accordingly."""
    from whoosh_reloaded_ray import scoring
    from whoosh_reloaded_ray.query import Term

    q = Term("value", "red")
    with ix.searcher(weighting=scoring.TF_IDF()) as s:
        tfidf = [(h["key"], h.score) for h in s.search(q, limit=None)]
    with ix.searcher(weighting=scoring.Frequency()) as s:
        freq = [(h["key"], h.score) for h in s.search(q, limit=None)]
    with ix.searcher(weighting=scoring.BM25F(B=0.9, K1=2.0)) as s:
        bm = [(h["key"], h.score) for h in s.search(q, limit=None)]
    assert {k for k, _ in tfidf} == {k for k, _ in freq} == {k for k, _ in bm} == {"A", "D"}
    assert all(sc == 1.0 for _, sc in freq)  # tf of 'red' is 1 in both docs
    with ix.searcher(weighting=scoring.ReverseWeighting(scoring.Frequency())) as s:
        rev = [h.score for h in s.search(q, limit=None)]
    assert all(sc == -1.0 for sc in rev)
    with ix.searcher(weighting=scoring.MultiWeighting(
            scoring.BM25F(), value=scoring.Frequency())) as s:
        mw = [h.score for h in s.search(q, limit=None)]
    assert all(sc == 1.0 for sc in mw)


def test_query_stored_facets(ix, whoosh):
    """QueryFacet (first-match bucket semantics + other), Facets
    collections, and StoredFieldFacet grouping."""
    from whoosh_reloaded_ray.query import Every, Or, Term

    qd = {
        "reddish": Or([Term("value", "red"), Term("value", "purple")]),
        "rendery": Term("value", "rendered"),
    }
    with ix.searcher() as s:
        r = s.search(Every(), limit=None, groupedby=wrr.QueryFacet(qd, other="misc"),
                     maptype="count")
        g = r.groups()
        # A and D match reddish; C matches rendery; A would match both but
        # first bucket wins; B and E fall to other
        assert g == {"reddish": 2, "rendery": 1, "misc": 2}, g

        r = s.search(Every(), limit=None, groupedby=wrr.QueryFacet(qd),
                     maptype="count")
        assert r.groups() == {"reddish": 2, "rendery": 1}

        # Facets collection: one map per entry, selected by name
        fs = wrr.Facets().add_query("buckets", qd).add_field("key")
        r = s.search(Every(), limit=None, groupedby=fs, maptype="count")
        assert r.groups("buckets") == {"reddish": 2, "rendery": 1}
        assert sum(r.groups("key").values()) == 5

        # StoredFieldFacet over the stored key field
        r = s.search(Term("value", "red"), limit=None,
                     groupedby=wrr.StoredFieldFacet("key"), maptype="count")
        assert r.groups() == {"A": 1, "D": 1}


def test_highlighter_object(ix, whoosh):
    """Highlighter bundles fragmenter/formatter/scorer/order and
    highlights hits like the reference object API."""
    from whoosh_reloaded_ray.query import Term
    from whoosh_reloaded_ray.query.highlight import (
        SCORE,
        BasicFragmentScorer,
        Highlighter,
        NullFragmeter,
        UppercaseFormatter,
        WholeFragmenter,
    )

    assert NullFragmeter is WholeFragmenter
    hi = Highlighter(
        fragmenter=WholeFragmenter(),
        formatter=UppercaseFormatter(),
        scorer=BasicFragmentScorer(),
        order=SCORE,
    )
    with ix.searcher() as s:
        r = s.search(Term("value", "red"), limit=None)
        outs = {h["key"]: hi.highlight_hit(h, "value") for h in r}
    assert outs["A"] == "Blue RED green render purple?"
    assert outs["D"] == "Every RED town."


def test_field_types_ngram_idlist_schemaclass(ray_session, tmp_path_factory, whoosh):
    """NGRAM/NGRAMWORDS/IDLIST/COLUMN field constructors and declarative
    SchemaClass build and search end-to-end."""
    from whoosh_reloaded_ray.query import Term

    class MySchema(wrr.SchemaClass):
        key = wrr.ID(stored=True)
        grams = wrr.NGRAM(minsize=3, maxsize=3)
        tags = wrr.IDLIST()
        extra = wrr.COLUMN()

    d = str(tmp_path_factory.mktemp("fieldsidx"))
    ix = wrr.create_in(d, MySchema)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="1", grams="hello", tags="Alpha,beta gamma", extra="x1")
    w.add_document(key="2", grams="goodbye", tags="beta;delta", extra="x2")
    w.commit()
    with ix.searcher() as s:
        # ngram field matches substrings
        r = s.search(Term("grams", "ell"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]
        # idlist splits on , ; and space, case preserved
        r = s.search(Term("tags", "beta"), limit=None)
        assert sorted(h["key"] for h in r) == ["1", "2"]
        r = s.search(Term("tags", "Alpha"), limit=None)
        assert sorted(h["key"] for h in r) == ["1"]
        r = s.search(Term("tags", "alpha"), limit=None)  # not lowercased
        assert r.total == 0
        # COLUMN value is stored
        r = s.search(Term("tags", "delta"), limit=None)
        assert [h["extra"] for h in r] == ["x2"]


def test_writing_module_surface(ray_session, tmp_path_factory, whoosh):
    """Merge-policy constants on commit(), AsyncWriter alias, error
    classes exist."""
    from whoosh_reloaded_ray.query import Term

    d = str(tmp_path_factory.mktemp("mpidx"))
    schema = wrr.Schema(key=wrr.ID(stored=True), body=wrr.TEXT())
    ix = wrr.create_in(d, schema)
    w = wrr.AsyncWriter(ix, num_shards=2, partition_rows=16)
    w.add_document(key="1", body="first generation words")
    w.commit(mergetype=wrr.NO_MERGE)
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="2", body="second generation words")
    w.commit(mergetype=wrr.MERGE_SMALL)
    with ix.searcher() as s:
        assert sorted(h["key"] for h in s.search(Term("body", "words"), limit=None)) == ["1", "2"]
    # CLEAR drops everything indexed before this commit
    w = ix.writer(num_shards=2, partition_rows=16)
    w.add_document(key="3", body="third generation words")
    w.commit(mergetype=wrr.CLEAR)
    with ix.searcher() as s:
        assert sorted(h["key"] for h in s.search(Term("body", "words"), limit=None)) == ["3"]
    for err in (wrr.IndexingError, wrr.LockError, wrr.EmptyIndexError):
        assert issubclass(err, Exception)


def test_results_hit_api_fillers(ix, whoosh):
    """Results/Hit reference-API fillers: mapping access, items, copy,
    key_terms, more_like_this."""
    from whoosh_reloaded_ray.query import Term

    with ix.searcher() as s:
        r = s.search(Term("value", "red"), limit=None, terms=True)
        assert not r.is_empty()
        assert r.has_exact_length() and r.estimated_length() == len(r)
        assert r.docnum(0) == r[0].docnum and r.score(0) == r[0].score
        assert dict(r.items())  # (docnum, score) pairs
        assert r.fields(0) == r[0].fields()
        assert r.has_matched_terms() and ("value", "red") in r.matched_terms()
        assert ("value", "red") in r.query_terms()
        c = r.copy()
        assert [h.docnum for h in c] == [h.docnum for h in r]
        h = r[0]
        assert set(h.keys()) == set(h.fields().keys())
        assert "key" in h and dict(h.items())["key"] == h["key"]
        kt = r.key_terms("value", docs=5, numterms=3)
        assert kt  # non-empty key-term list
        ml = h.more_like_this("value", limit=5)
        assert ml is not None


def test_searcher_api_fillers(ix, whoosh):
    """find/doc_count/field_length/idf/docs_for_query/refresh/up_to_date."""
    with ix.searcher() as s:
        r = s.find("value", "red OR purple")
        assert sorted(h["key"] for h in r) == ["A", "D"]
        # the module-scoped index may have extra docs/tombstones from
        # earlier tests; assert consistency, not an absolute count
        assert s.doc_count() <= s.doc_count_all()
        assert s.doc_count_all() >= 5
        assert s.field_length("value") > 0
        assert s.avg_field_length("value") > 0
        assert s.idf("value", "red") > 0
        from whoosh_reloaded_ray.query import Term

        docs = list(s.docs_for_query(Term("value", "red")))
        assert len(docs) == 2
        assert s.up_to_date()
        s2 = s.refresh()
        assert s2.up_to_date()


def test_optimize_empty_index_is_a_noop(ray_session, tmp_path):
    """An index created but never committed has nothing to merge: the
    compat optimize paths do nothing, while the engine's ``maybe_merge``
    still raises for a directory with no committed manifest."""
    from whoosh_reloaded_ray.pipelines.merge import maybe_merge

    d = str(tmp_path)
    ix = wrr.create_in(d, wrr.Schema(key=wrr.ID(stored=True), name=wrr.TEXT()))
    ix.optimize()
    ix.writer().commit(optimize=True)
    ix.writer().commit(mergetype=wrr.MERGE_SMALL)
    assert ix.doc_count() == 0
    assert not wrr.exists_in(d)
    with pytest.raises(FileNotFoundError):
        maybe_merge(d, optimize=True)
