from .ast import (  # noqa: F401
    And,
    AndMaybe,
    AndNot,
    ColumnQuery,
    ConstantScoreQuery,
    DisMax,
    DocSet,
    Every,
    FuzzyTerm,
    NestedChildren,
    NestedParent,
    Not,
    NumericRange,
    Or,
    Otherwise,
    Phrase,
    Prefix,
    Query,
    Regex,
    Require,
    Sequence,
    DateRange,
    NullQuery,
    Ordered,
    QueryError,
    SpanBefore,
    SpanNear,
    SpanCondition,
    SpanContains,
    SpanFirst,
    SpanNot,
    SpanOr,
    Term,
    TermRange,
    Variations,
    Wildcard,
)
from .ast import ConstantTerms  # noqa: F401
from .ast import DisMax as DisjunctionMax  # noqa: F401 (reference name)
from .collectors import (  # noqa: F401
    CountCollector,
    FieldValuesCollector,
    StatsCollector,
    TopFieldCollector,
    VectorCollector,
)

# The reference's SpanNear2 (ordered window chain over a list of queries,
# spans.py:530-700) is exactly our Sequence node.
SpanNear2 = Sequence
# reference parser-internal Or variants (qparser uses DefaultOr etc.);
# functionally identical to Or on this engine
from .ast import Or as DefaultOr  # noqa: F401,E402
from .ast import Or as PreloadedOr  # noqa: F401,E402
from .ast import Or as SplitOr  # noqa: F401,E402


def __getattr__(name):
    # the query-string parsers load on first use: segment actors import
    # this package to evaluate parsed queries and never parse a string
    if name in ("QueryParser", "MultifieldParser"):
        from . import parser

        return getattr(parser, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
