"""Index schema: config-as-data field specs (reference: fields.py Schema/FieldType).

A field is either:
  * ``indexed``  — analyzed into the inverted index (TEXT/ID/KEYWORD-style);
    ``scorable`` controls whether per-doc field lengths are recorded and BM25
    length normalization applies (reference fields.py:60-373);
  * ``columnar`` — numeric/datetime/boolean fields that stay in the source
    Parquet and are queried with vectorized range predicates instead of the
    reference's tiered-precision term expansion (same result set, Arrow-native
    execution; reference fields.py:522-934).

The schema is plain data (dataclasses) so it ships to Ray workers and is
serialized into the index manifest (the reference pickles its Schema into the
TOC, index.py:707).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from typing import Optional

from .functions.analysis import AnalyzerSpec, standard_analyzer, id_analyzer


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: str = "text"  # text | id | keyword | numeric | datetime | boolean
    analyzer: Optional[AnalyzerSpec] = None  # None for columnar fields
    # numeric storage type: "int" (int64) or "float" (float64) — the
    # reference's NUMERIC(numtype=...); the columnar evaluator and
    # sort/facet readers are type-generic
    numtype: str = "int"
    # reference NUMERIC(Decimal, decimal_places=n) (fields.py NUMERIC):
    # values are stored as value*10^n int64; query values are scaled the
    # same way at rewrite time and stored-field readback descales back to
    # Decimal.  0 = plain numeric.
    decimal_places: int = 0
    scorable: bool = False  # record lengths + BM25 length normalization
    stored: bool = True  # returned with hits (fetched from source parquet)
    positions: bool = True  # index positions (needed for phrase queries)
    # store char offsets per occurrence in the posting payload (reference
    # Characters format, formats.py:344-409; whoosh TEXT(chars=True)) —
    # enables char-accurate highlighting without re-analysis
    chars: bool = False
    # store per-position boost payloads (reference PositionBoosts /
    # CharacterBoosts formats, formats.py:345-470; combined with ``chars``
    # this is the CharacterBoosts layout).  Token boosts come from a
    # ``delimited_attribute`` post filter; term weight is the SUMMED boost
    # either way, so this flag only controls payload round-trip.
    boosts: bool = False
    # unique key field (reference fields' unique=True): update_document
    # deletes committed docs matching this field's value before adding
    unique: bool = False
    boost: float = 1.0
    # index the UNSTEMMED word forms into a parallel "spell_<name>" field
    # for spelling suggestions (reference TEXT(spelling=True) +
    # separate_spelling, fields.py:296-330, 1123-1127); only meaningful
    # when the analyzer morphs terms (stemming)
    spelling: bool = False
    # Optional DIFFERENT analyzer for query strings — the config-as-data
    # equivalent of the reference's MultiFilter(index=..., query=...)
    # mode branching (analysis/filters.py:150-181).  When None, query text
    # is analyzed with ``analyzer`` in mode="query" (which only differs
    # for n-gram chains).
    query_analyzer: Optional[AnalyzerSpec] = None
    # What the query parser builds when a single query-string word analyzes
    # into SEVERAL tokens (reference FieldType.multitoken_query,
    # fields.py:85-124 + qparser/default.py:172-203): "default" = the
    # parser's group class, "and" / "or" = that compound, "phrase" = a
    # Phrase over the tokens, "first" = keep only the first token.
    multitoken_query: str = "default"
    # Name of a USER-REGISTERED posting Format codec (see
    # whoosh_reloaded_ray/formats.py — the reference's custom Format
    # subclass plug point, formats.py:51-135).  The codec's encode() runs
    # per (doc, term) in the tokenizer stage, its weight() sets the posting
    # weight, and the payload rides the exchange in the generic binary
    # ``payload`` column; None keeps the native vectorized formats.
    format: Optional[str] = None

    @property
    def indexed(self) -> bool:
        return self.analyzer is not None

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("analyzer", "query_analyzer"):
            spec = getattr(self, key)
            if spec is not None:
                d[key]["stopwords"] = (
                    sorted(spec.stopwords) if spec.stopwords is not None else None
                )
        return d

    @staticmethod
    def from_dict(d: dict) -> "FieldSpec":
        d = dict(d)
        for key in ("analyzer", "query_analyzer"):
            if d.get(key) is not None:
                a = dict(d[key])
                if a.get("stopwords") is not None:
                    a["stopwords"] = frozenset(a["stopwords"])
                d[key] = AnalyzerSpec(**a)
        return FieldSpec(**d)


def text_field(name: str, analyzer: Optional[AnalyzerSpec] = None, **kw) -> FieldSpec:
    """TEXT-equivalent: StandardAnalyzer, scorable, positions."""
    return FieldSpec(
        name=name,
        kind="text",
        analyzer=analyzer or standard_analyzer(),
        scorable=kw.pop("scorable", True),
        positions=kw.pop("positions", True),
        **kw,
    )


def id_field(name: str, **kw) -> FieldSpec:
    """ID-equivalent: whole value = one term, not scorable, no positions."""
    return FieldSpec(
        name=name,
        kind="id",
        analyzer=id_analyzer(),
        scorable=False,
        positions=kw.pop("positions", False),
        **kw,
    )


def decimal_to_sortable(v, places: int) -> int:
    """Scale a user Decimal/str/float/int value into the stored int64
    domain of a NUMERIC(Decimal, decimal_places=places) field (reference
    NUMERIC.prepare_number: value * 10^places).  Goes through
    Decimal(str(v)) so float reprs like 2.1 stay exact."""
    from decimal import Decimal

    return int(Decimal(str(v)).scaleb(places))


def sortable_to_decimal(v: int, places: int):
    """Inverse of :func:`decimal_to_sortable` for stored-field readback."""
    from decimal import Decimal

    return Decimal(int(v)).scaleb(-places)


def numeric_field(name: str, kind: str = "numeric", **kw) -> FieldSpec:
    """Columnar numeric/datetime field: range/equality via Parquet predicates."""
    return FieldSpec(name=name, kind=kind, analyzer=None, scorable=False, positions=False, **kw)


def boolean_field(name: str, **kw) -> FieldSpec:
    """BOOLEAN-equivalent (reference fields.py:937-1003): stays a columnar
    bool; query words true/yes/1/t and false/no/0/f match by equality."""
    return FieldSpec(name=name, kind="boolean", analyzer=None, scorable=False, positions=False, **kw)


@dataclass
class IndexSchema:
    fields: list  # list[FieldSpec] in declaration order
    # dynamic GLOB fields (reference Schema glob support,
    # fields.py:1550-1556): (fnmatch pattern, template FieldSpec) pairs;
    # at build time any SOURCE column matching a pattern and not already
    # declared is indexed with a copy of the template
    dynamic: list = dc_field(default_factory=list)

    def __post_init__(self):
        self.by_name = {f.name: f for f in self.fields}

    def names(self) -> list:
        """Sorted field names (reference Schema.names)."""
        return sorted(f.name for f in self.fields)

    @property
    def indexed_fields(self) -> list:
        return [f for f in self.fields if f.indexed]

    @property
    def scorable_fields(self) -> list:
        return [f for f in self.fields if f.scorable]

    def field(self, name: str) -> FieldSpec:
        return self.by_name[name]

    def add_field(self, spec: FieldSpec):
        """Add a field between commits (reference IndexWriter.add_field,
        writing.py:279-287).  Existing segments simply hold no postings
        for it; new segments index it."""
        if spec.name in self.by_name:
            raise ValueError(f"field {spec.name!r} already in schema")
        self.fields.append(spec)
        self.by_name[spec.name] = spec

    def remove_field(self, name: str):
        """Remove a field between commits (reference remove_field,
        writing.py:289-296).  Its postings stay on disk until the owning
        segments merge away, but the schema no longer exposes it."""
        if name not in self.by_name:
            raise KeyError(name)
        self.fields = [f for f in self.fields if f.name != name]
        del self.by_name[name]

    def resolve_dynamic(self, source_columns) -> "IndexSchema":
        """Expand glob templates against a source's column names; returns
        self (mutated) for chaining."""
        import dataclasses as _dc
        import fnmatch

        for col in source_columns:
            if col in self.by_name or col == "docnum":
                continue
            for pattern, template in self.dynamic:
                if fnmatch.fnmatchcase(col, pattern):
                    self.add_field(_dc.replace(template, name=col))
                    break
        return self

    def to_dict(self) -> dict:
        return {
            "fields": [f.to_dict() for f in self.fields],
            "dynamic": [[p, t.to_dict()] for p, t in self.dynamic],
        }

    @staticmethod
    def from_dict(d: dict) -> "IndexSchema":
        return IndexSchema(
            fields=[FieldSpec.from_dict(f) for f in d["fields"]],
            dynamic=[
                (p, FieldSpec.from_dict(t)) for p, t in d.get("dynamic", [])
            ],
        )


def transcript_schema() -> IndexSchema:
    """Default schema for the transcripts corpus (BASELINE.json input_hint):
    (conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
    ts:timestamp[us])."""
    return IndexSchema(
        fields=[
            id_field("conv_id"),
            numeric_field("turn_idx"),
            id_field("role"),
            text_field("text"),
            id_field("tool"),
            numeric_field("ts", kind="datetime"),
        ]
    )
