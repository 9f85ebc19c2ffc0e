"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash);
``tests/test_driver_gates.py`` runs the same comparison.

Every gate runs through the full-text engine: a BM25 search, matcher, term
dictionary, facet or suggestion over the transcripts index
(``pipelines/fulltext.py``), or over the events index built from the same
engine with a custom schema (``pipelines/events_index.py``).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.  The driver must start Ray
with ``whoosh_reloaded_ray`` importable by the workers (this checkout on
``PYTHONPATH``, or job-level ``runtime_env={"py_modules": [...]}``): the
package is shipped to workers by reference, and the ``sys.path`` entry
below only reaches the driver's own process.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: derive the transcripts
    corpus, build the inverted index (read -> tokenize map_batches ->
    term-shard shuffle -> segment write -> manifest commit), then run a BM25
    search and return the top hits with stored fields."""
    from whoosh_reloaded_ray.pipelines.fulltext import get_searcher
    from whoosh_reloaded_ray.query import And, Or, Term

    s = get_searcher("/root/testdata/sf0.001")
    q = Or([And([Term("text", "window"), Term("text", "hash")]), Term("text", "spark", boost=1.5)])
    return s.search_with_fields(q, limit=20, columns=["conv_id", "turn_idx", "role", "doc_id"])


def queries() -> dict[str, Callable[[str], Any]]:
    from whoosh_reloaded_ray.pipelines import events_index as ev
    from whoosh_reloaded_ray.pipelines import fulltext as ft

    return {
        # transcripts index
        "search_term_top10": ft.search_term_top10,
        "search_and_top10": ft.search_and_top10,
        "search_or_top10": ft.search_or_top10,
        "search_simple_parser": ft.search_simple_parser,
        "collapsed_top_by_role": ft.collapsed_top_by_role,
        "match_phrase": ft.match_phrase,
        "match_not": ft.match_not,
        "match_and_numrange": ft.match_and_numrange,
        "match_parsed_daterange": ft.match_parsed_daterange,
        "match_parsed_nl_datetime": ft.match_parsed_nl_datetime,
        "match_gtlt": ft.match_gtlt,
        "match_regex": ft.match_regex,
        "match_span_first": ft.match_span_first,
        "nested_children_turns": ft.nested_children_turns,
        "nested_parent_convs": ft.nested_parent_convs,
        "export_matches_spark": ft.export_matches_spark,
        "term_stats_prefix": ft.term_stats_prefix,
        "top_terms_by_df": ft.top_terms_by_df,
        "doclen_quantized": ft.doclen_quantized,
        "facet_counts_match": ft.facet_counts_match,
        "facet_query_buckets": ft.facet_query_buckets,
        "sorted_by_turn": ft.sorted_by_turn,
        "suggest_misspelled": ft.suggest_misspelled,
        "conv_match_counts": ft.conv_match_counts,
        # events index: custom schema over a second table
        "events_search_props": ev.events_search_props,
        "events_recent_by_user": ev.events_recent_by_user,
        "events_value_hist": ev.events_value_hist,
    }


def oracle_sql() -> dict[str, str]:
    from whoosh_reloaded_ray.pipelines import events_index as ev
    from whoosh_reloaded_ray.pipelines import fulltext as ft

    return {
        "search_term_top10": ft.oracle_search_term_top10(),
        "search_and_top10": ft.oracle_search_and_top10(),
        "search_or_top10": ft.oracle_search_or_top10(),
        "search_simple_parser": ft.oracle_search_simple_parser(),
        "collapsed_top_by_role": ft.oracle_collapsed_top_by_role(),
        "match_phrase": ft.oracle_match_phrase(),
        "match_not": ft.oracle_match_not(),
        "match_and_numrange": ft.oracle_match_and_numrange(),
        "match_parsed_daterange": ft.oracle_match_parsed_daterange(),
        "match_parsed_nl_datetime": ft.oracle_match_parsed_nl_datetime(),
        "match_gtlt": ft.oracle_match_gtlt(),
        "match_regex": ft.oracle_match_regex(),
        "match_span_first": ft.oracle_match_span_first(),
        "nested_children_turns": ft.oracle_nested_children_turns(),
        "nested_parent_convs": ft.oracle_nested_parent_convs(),
        "export_matches_spark": ft.oracle_export_matches_spark(),
        "term_stats_prefix": ft.oracle_term_stats_prefix(),
        "top_terms_by_df": ft.oracle_top_terms_by_df(),
        "doclen_quantized": ft.oracle_doclen_quantized(),
        "facet_counts_match": ft.oracle_facet_counts_match(),
        "facet_query_buckets": ft.oracle_facet_query_buckets(),
        "sorted_by_turn": ft.oracle_sorted_by_turn(),
        "suggest_misspelled": ft.oracle_suggest_misspelled(),
        "conv_match_counts": ft.oracle_conv_match_counts(),
        "events_search_props": ev.oracle_events_search_props(),
        "events_recent_by_user": ev.oracle_events_recent_by_user(),
        "events_value_hist": ev.oracle_events_value_hist(),
    }
