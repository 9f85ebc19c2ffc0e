"""Reference tests/test_fields.py ported wholesale (same names, same
inputs/assertions) against the compat API.

Declared deviations (see TODO.md):
- RamStorage/TempIndex become tmp index dirs;
- terms are str (or native values), not the reference codec's bytes —
  to_bytes asserts compare native values instead;
- DATETIME range bounds are numpy.datetime64[us] (semantically the
  reference's datetime_to_long microsecond longs);
- test_index_numeric is NOT here: numeric fields are native Parquet
  columns with columnar range masks — there is no shifted-term lexicon
  byte layout to assert (see scripts/ported_sweep.py).
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from whoosh_reloaded_ray import compat as wrr, fields, qparser
from whoosh_reloaded_ray.query import ast as query


def _mk(tmp_path_factory, schema, rows):
    d = str(tmp_path_factory.mktemp("fieldsport"))
    ix = wrr.create_in(d, schema)
    w = ix.writer(num_shards=2, partition_rows=64)
    for r in rows:
        w.add_document(**r)
    w.commit()
    return ix


def test_schema_eq():
    # ref test_fields.py:10
    a = wrr.Schema()
    b = wrr.Schema()
    assert a == b

    a = wrr.Schema(id=fields.ID)
    b = a.copy()
    assert a["id"] == b["id"]
    assert a == b

    c = wrr.Schema(id=fields.TEXT)
    assert a != c


def test_creation1():
    # ref :24 (isinstance check becomes a kind check — field constructors
    # are functions returning declarations here)
    s = wrr.Schema()
    s.add("content", fields.TEXT(phrase=True))
    s.add("title", fields.TEXT(stored=True))
    s.add("path", fields.ID(stored=True))
    s.add("tags", fields.KEYWORD(stored=True))
    s.add("quick", fields.NGRAM)
    s.add("note", fields.STORED)

    assert s.names() == ["content", "note", "path", "quick", "tags", "title"]
    assert "content" in s
    assert "buzz" not in s
    assert s["tags"].kind == "keyword"


def test_creation2():
    # ref :38
    s = wrr.Schema(
        a=fields.ID(stored=True), b=fields.ID, c=fields.KEYWORD(scorable=True)
    )
    assert s.names() == ["a", "b", "c"]
    assert "a" in s and "b" in s and "c" in s


def test_declarative(ray_session, tmp_path_factory):
    # ref :49
    class MySchema(wrr.SchemaClass):
        content = fields.TEXT
        title = fields.TEXT
        path = fields.ID
        date = fields.DATETIME

    d = str(tmp_path_factory.mktemp("decl"))
    ix = wrr.create_in(d, MySchema)
    assert ix.schema.names() == ["content", "date", "path", "title"]

    d2 = str(tmp_path_factory.mktemp("decl2"))
    ix = wrr.create_in(d2, MySchema())
    assert ix.schema.names() == ["content", "date", "path", "title"]

    with pytest.raises((wrr.FieldConfigurationError, TypeError, AttributeError)):
        wrr.create_in(str(tmp_path_factory.mktemp("decl3")), object())


def test_declarative_inherit():
    # ref :66
    class Parent(wrr.SchemaClass):
        path = fields.ID
        date = fields.DATETIME

    class Child(Parent):
        content = fields.TEXT

    class Grandchild(Child):
        title = fields.TEXT

    s = Grandchild()
    assert s.names() == ["content", "date", "path", "title"]


def test_badnames():
    # ref :80
    s = wrr.Schema()
    with pytest.raises(wrr.FieldConfigurationError):
        s.add("_test", fields.ID)
    with pytest.raises(wrr.FieldConfigurationError):
        s.add("a f", fields.ID)


def test_numeric(ray_session, tmp_path_factory):
    # ref :159
    schema = wrr.Schema(
        id=fields.ID(stored=True),
        integer=fields.NUMERIC(int),
        floating=fields.NUMERIC(float),
    )
    ix = _mk(tmp_path_factory, schema, [
        dict(id="a", integer=5820, floating=1.2),
        dict(id="b", integer=22, floating=2.3),
        dict(id="c", integer=78, floating=3.4),
        dict(id="d", integer=13, floating=4.5),
        dict(id="e", integer=9, floating=5.6),
    ])
    with ix.searcher() as s:
        qp = qparser.QueryParser("integer", schema)
        q = qp.parse("5820")
        r = s.search(q)
        assert len(r) == 1
        assert r[0]["id"] == "a"

    with ix.searcher() as s:
        r = s.search(qp.parse("floating:4.5"))
        assert len(r) == 1
        assert r[0]["id"] == "d"

    q = qp.parse("integer:*")
    assert q.__class__ == query.Every
    assert q.fieldname == "integer"

    q = qp.parse("integer:5?6")
    assert q == query.NullQuery


def test_numeric_parsing():
    # ref :205
    schema = wrr.Schema(id=fields.ID(stored=True), number=fields.NUMERIC)
    qp = qparser.QueryParser("number", schema)

    q = qp.parse("[10 to *]")
    assert q == query.NullQuery

    q = qp.parse("[to 400]")
    assert q.__class__ is query.NumericRange
    assert q.start is None
    assert q.end == 400

    q = qp.parse("[10 to]")
    assert q.__class__ is query.NumericRange
    assert q.start == 10
    assert q.end is None

    q = qp.parse("[10 to 400]")
    assert q.__class__ is query.NumericRange
    assert q.start == 10
    assert q.end == 400


def test_numeric_ranges(ray_session, tmp_path_factory):
    # ref :227
    schema = wrr.Schema(id=fields.STORED, num=fields.NUMERIC)
    ix = _mk(tmp_path_factory, schema,
             [dict(id=i, num=i) for i in range(400)])

    with ix.searcher() as s:
        qp = qparser.QueryParser("num", schema)

        def check(qs, target):
            q = qp.parse(qs)
            # stored-only fields serialize through the stored-column codec
            # as strings (declared deviation) — compare as ints
            result = [int(hit["id"]) for hit in s.search(q, limit=None)]
            assert sorted(result) == target

        check("[10 to 390]", list(range(10, 390 + 1)))
        check("[100 to]", list(range(100, 400)))
        check("[to 350]", list(range(0, 350 + 1)))
        check("[16 to 255]", list(range(16, 255 + 1)))
        check("{10 to 390]", list(range(11, 390 + 1)))
        check("[10 to 390}", list(range(10, 390)))
        check("{10 to 390}", list(range(11, 390)))
        check("{16 to 255}", list(range(17, 255)))


def test_numeric_ranges_unsigned(ray_session, tmp_path_factory):
    # ref :252
    values = [1, 10, 100, 1000, 2, 20, 200, 2000, 9, 90, 900, 9000]
    schema = wrr.Schema(num2=fields.NUMERIC(stored=True, signed=False))
    ix = _mk(tmp_path_factory, schema, [dict(num2=v) for v in values])
    with ix.searcher() as s:
        q = query.NumericRange("num2", 55, None, True, False)
        r = s.search(q, limit=None)
        assert len(r)
        for hit in r:
            assert int(hit["num2"]) >= 55


def test_numeric_errors():
    # ref :302
    f = fields.NUMERIC(int, bits=16, signed=True)
    _ = wrr.Schema(f=f)
    with pytest.raises(ValueError):
        list(f.index(-32769))
    with pytest.raises(ValueError):
        list(f.index(32768))


def test_nontext_update(ray_session, tmp_path_factory):
    # ref :359
    schema = wrr.Schema(
        id=fields.STORED,
        num=fields.NUMERIC(unique=True),
        date=fields.DATETIME(unique=True),
    )
    d = str(tmp_path_factory.mktemp("ntupd"))
    ix = wrr.create_in(d, schema)
    dt = datetime.now(tz=timezone.utc)
    w = ix.writer()
    for i in range(10):
        w.add_document(id=i, num=i, date=dt + timedelta(days=i))
    w.commit()

    w = ix.writer()
    w.update_document(num=8, id="a")
    w.update_document(num=2, id="b")
    w.update_document(num=4, id="c")
    w.update_document(date=dt + timedelta(days=5), id="d")
    w.update_document(date=dt + timedelta(days=1), id="e")
    w.update_document(date=dt + timedelta(days=7), id="f")
    w.commit()

    # updated docs replaced their unique-key predecessors
    assert ix.doc_count() == 10
    with ix.searcher() as s:
        ids = {hit["id"] for hit in s.search(query.Every(), limit=None)}
    assert {"a", "b", "c", "d", "e", "f"} <= ids


def test_stored_field_added_after_first_commit(ray_session, tmp_path_factory):
    # a STORED field added to the schema later: older commits' source
    # files lack its column, and hits from both commits read back together
    d = str(tmp_path_factory.mktemp("addstored"))
    ix = wrr.create_in(d, wrr.Schema(t=fields.TEXT(stored=True)))
    w = ix.writer()
    w.add_document(t="alpha one")
    w.commit()
    ix.add_field("n", fields.STORED)
    w = ix.writer()
    w.add_document(t="alpha two", n=5)
    w.commit()
    with ix.searcher() as s:
        hits = s.search(query.Term("t", "alpha"))
        got = sorted((h["t"], h.get("n")) for h in hits)
    assert got == [("alpha one", None), ("alpha two", 5)]


def test_stored_override_first_in_later_commit(ray_session, tmp_path_factory):
    # reference add_document ``_stored_<f>`` (writing.py:404): the display
    # override shows even when the first commit wrote no override column
    d = str(tmp_path_factory.mktemp("lateoverride"))
    ix = wrr.create_in(d, wrr.Schema(t=fields.TEXT(stored=True)))
    w = ix.writer()
    w.add_document(t="alpha one")
    w.commit()
    w = ix.writer()
    w.add_document(t="alpha two", _stored_t="shown")
    w.commit()
    with ix.searcher() as s:
        assert sorted(h["t"] for h in s.search(query.Term("t", "alpha"))) == [
            "alpha one", "shown",
        ]
        assert s.reader().stored_fields(1) == {"t": "shown"}


def test_matches_dataset_types_columns_across_commits(ray_session, tmp_path_factory):
    # commits that disagree on a STORED column's type: every exported
    # block reads it back as stored_fields does (strings), not as the
    # type of its own segment's source file
    from whoosh_reloaded_ray.pipelines.export import matches_dataset

    d = str(tmp_path_factory.mktemp("exporttypes"))
    ix = wrr.create_in(d, wrr.Schema(t=fields.TEXT, id=fields.STORED))
    for value in (1, "x"):
        w = ix.writer()
        w.add_document(t="alpha", id=value)
        w.commit()
    rows = matches_dataset(d, query.Term("t", "alpha"), columns=["id"]).take_all()
    assert sorted((r["docnum"], r["id"]) for r in rows) == [(0, "1"), (1, "x")]
    with ix.searcher() as s:
        assert [s.stored_fields(n)["id"] for n in (0, 1)] == ["1", "x"]


def test_datetime(ray_session, tmp_path_factory):
    # ref :383 (range bounds are datetime64[us], the reference's
    # datetime_to_long microsecond values)
    dtf = fields.DATETIME(stored=True)
    schema = wrr.Schema(id=fields.ID(stored=True), date=dtf)
    rows = []
    for month in range(1, 12):
        for day in range(1, 28):
            rows.append(dict(
                id=f"{month}-{day}",
                date=datetime(2010, month, day, 14, 0, 0),
            ))
    ix = _mk(tmp_path_factory, schema, rows)

    with ix.searcher() as s:
        qp = qparser.QueryParser("id", schema)

        r = s.search(qp.parse("date:20100523"))
        assert len(r) == 1
        assert r[0]["id"] == "5-23"
        got = r[0]["date"]
        # stored datetime readback (native Parquet timestamp)
        got = got if isinstance(got, datetime) else got.to_pydatetime()
        assert got.month == 5 and got.day == 23

        r = s.search(qp.parse("date:'2010 02'"))
        assert len(r) == 27

        q = qp.parse("date:[2010-05 to 2010-08]")
        assert q.__class__ is query.NumericRange
        assert q.start == np.datetime64("2010-05-01T00:00:00.000000")
        assert q.end == np.datetime64("2010-08-31T23:59:59.999999")


def test_boolean(ray_session, tmp_path_factory):
    # ref :421
    schema = wrr.Schema(id=fields.ID(stored=True),
                        done=fields.BOOLEAN(stored=True))
    ix = _mk(tmp_path_factory, schema, [
        dict(id="a", done=True), dict(id="b", done=False),
        dict(id="c", done=True), dict(id="d", done=False),
        dict(id="e", done=True),
    ])
    with ix.searcher() as s:
        qp = qparser.QueryParser("id", schema)

        r = s.search(qp.parse("done:true"))
        assert sorted([d["id"] for d in r]) == ["a", "c", "e"]
        assert all(d["done"] for d in r)

        r = s.search(qp.parse("done:yes"))
        assert sorted([d["id"] for d in r]) == ["a", "c", "e"]
        assert all(d["done"] for d in r)

        q = qp.parse("done:false")
        assert q.__class__ == query.Term
        assert q.text is False
        r = s.search(q)
        assert sorted([d["id"] for d in r]) == ["b", "d"]
        assert not any(d["done"] for d in r)

        r = s.search(qp.parse("done:no"))
        assert sorted([d["id"] for d in r]) == ["b", "d"]
        assert not any(d["done"] for d in r)


def test_boolean2(ray_session, tmp_path_factory):
    # ref :445
    schema = wrr.Schema(t=fields.TEXT(stored=True),
                        b=fields.BOOLEAN(stored=True))
    ix = _mk(tmp_path_factory, schema, [
        dict(t="some kind of text", b=False),
        dict(t="some other kind of text", b=False),
        dict(t="some more text", b=False),
        dict(t="some again", b=True),
    ])
    with ix.searcher() as s:
        qf = qparser.QueryParser("b", None).parse("f")
        qt = qparser.QueryParser("b", None).parse("t")
        r = s.search(qf)
        assert len(r) == 3
        assert [d["b"] for d in s.search(qt)] == [True]
        assert [d["b"] for d in s.search(qf)] == [False] * 3


def test_boolean3(ray_session, tmp_path_factory):
    # ref :464 (schema[b].to_bytes(True) becomes the native True value)
    schema = wrr.Schema(
        t=fields.TEXT(stored=True, field_boost=5),
        b=fields.BOOLEAN(stored=True),
        c=fields.TEXT,
    )
    ix = _mk(tmp_path_factory, schema, [
        dict(t="with hardcopy", b=True, c="alfa"),
        dict(t="no hardcopy", b=False, c="bravo"),
    ])
    with ix.searcher() as s:
        q = query.Term("b", True)
        ts = [hit["t"] for hit in s.search(q)]
        assert ts == ["with hardcopy"]


def test_idlist(ray_session, tmp_path_factory):
    # ref :596
    schema = wrr.Schema(paths=wrr.IDLIST(stored=True))
    ix = _mk(tmp_path_factory, schema, [
        dict(paths="here there everywhere"),
        dict(paths="here"),
        dict(paths="there"),
    ])
    with ix.searcher() as s:
        qp = qparser.QueryParser("paths", schema)
        q = qp.parse("here")
        r = s.search(q)
        assert sorted(hit["paths"] for hit in r) == [
            "here", "here there everywhere",
        ]


def test_missing_field(ray_session, tmp_path_factory):
    # ref :613
    schema = wrr.Schema()
    d = str(tmp_path_factory.mktemp("missing"))
    ix = wrr.create_in(d, schema)
    with ix.searcher() as s:
        with pytest.raises(KeyError):
            s.document_numbers(id="test")


def test_token_boost():
    # ref :622 (value-bytes column dropped: terms are str and the packed
    # posting value is a Parquet column, so compare (term, freq, weight))
    from whoosh_reloaded_ray.analysis import DoubleMetaphoneFilter, RegexTokenizer

    ana = RegexTokenizer() | DoubleMetaphoneFilter()
    field = fields.TEXT(analyzer=ana, phrase=False)
    results = sorted(field.index("spruce view"))
    assert results == [
        ("F", 1, 1.0),
        ("FF", 1, 0.5),
        ("SPRS", 1, 1.0),
    ]


def test_pickle_idlist(ray_session, tmp_path_factory):
    # ref :634
    schema = wrr.Schema(
        pk=fields.ID(stored=True, unique=True),
        text=fields.TEXT(),
        tags=wrr.IDLIST(stored=True),
    )
    d = str(tmp_path_factory.mktemp("pidl"))
    ix = wrr.create_in(d, schema)
    assert ix


def test_pickle_schema(ray_session, tmp_path_factory):
    # ref :644 (accent map built from unicodedata instead of vendoring
    # the Sphinx table; same folding use)
    from pickle import dumps

    from whoosh_reloaded_ray import analysis
    from whoosh_reloaded_ray.functions.analysis import accent_fold_map

    freetext_analyzer = (
        analysis.StemmingAnalyzer() | analysis.CharsetFilter(accent_fold_map())
    )
    schema = wrr.Schema(
        path=fields.ID(stored=True, unique=True),
        file_mtime=fields.DATETIME(stored=True),
        name=fields.TEXT(stored=False, field_boost=2.0),
        description=fields.TEXT(stored=False, field_boost=1.5,
                                analyzer=freetext_analyzer),
        content=fields.TEXT(analyzer=freetext_analyzer),
    )
    docs = [
        "The rain in spain falls mainly in the plain",
        "Plainly sitting on the plain",
        "Imagine a greatly improved sentence here",
    ]
    d = str(tmp_path_factory.mktemp("pksch"))
    ix = wrr.create_in(d, schema)
    with ix.writer() as w:
        for doc in docs:
            w.add_document(description=doc, content=doc)
    assert dumps(schema, 2)
    with ix.reader() as r:
        assert dumps(r.schema, 2)


def test_valid_date_string():
    # ref :668 (field.parse_query routed through the query parser; the
    # expected longs are datetime64[us] bounds here)
    schema = wrr.Schema(date=fields.DATETIME(stored=True))
    qp = qparser.QueryParser("date", schema)
    q = qp.parse("date:'2022-01-01'")
    assert isinstance(q, query.NumericRange), "Query is not a NumericRange"
    assert q.fieldname == "date", "Fieldname is not correct"
    assert q.start == np.datetime64("2022-01-01T00:00:00.000000")
    assert q.end == np.datetime64("2022-01-01T23:59:59.999999")
    assert q.boost == 1.0, "Boost value is not correct"
