"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

The driver verifies the FIRST 50 entries in dict order; round 2 shipped 73
gates, so 23 went unverified.  Round 3 folds same-domain gates into union
gates (see ``whoosh_reloaded_ray/pipelines/gates.py``): every original gate
still runs and is still oracle-verified, as a ``which``-tagged slice of a
folded gate.  Total entries now fit the window with room to spare.

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
    from whoosh_reloaded_ray.pipelines import ann
    from whoosh_reloaded_ray.pipelines import bpe
    from whoosh_reloaded_ray.pipelines import curation as cu
    from whoosh_reloaded_ray.pipelines import events_index as ev
    from whoosh_reloaded_ray.pipelines import corpus_ops as co
    from whoosh_reloaded_ray.pipelines import fulltext as ft
    from whoosh_reloaded_ray.pipelines import gates as g
    from whoosh_reloaded_ray.pipelines import relational as rel

    return {
        # full-text index + BM25 engine (folded: every round-2 gate is a
        # which-tagged slice — see gates.py docstrings for the sub-cases)
        "search_top10": g.search_top10()[0],
        "match_docsets": g.match_docsets()[0],
        "term_stats": g.term_stats()[0],
        "doclen_quantized": ft.doclen_quantized,
        "facet_buckets": g.facet_buckets()[0],
        "sorted_by_turn": ft.sorted_by_turn,
        "suggest_misspelled": ft.suggest_misspelled,
        "conv_match_counts": ft.conv_match_counts,
        # second corpus: custom schema over the events table
        "events_matches": g.events_matches()[0],
        "events_value_hist": ev.events_value_hist,
        "events_tumbling_counts": ev.events_tumbling_counts,
        "events_sliding_rate": ev.events_sliding_rate,
        "events_asof_signup": ev.events_asof_signup,
        "events_range_join": ev.events_range_join,
        "events_sessionize": ev.events_sessionize,
        "events_funnel": ev.events_funnel,
        # training-data corpus ops (documents table)
        "dedup_survivors": g.dedup_survivors()[0],
        "neardup_ngram_jaccard": co.neardup_ngram_jaccard,
        "neardup_clusters": co.neardup_clusters,
        "text_stats": co.text_stats,
        "fingerprint_docs": co.fingerprint_docs,
        "winnow": g.winnow()[0],
        "lang_id": co.lang_id,
        "stratified_sample": co.stratified_sample,
        "filter_quality": co.filter_quality,
        "unigram_logprob": bpe.unigram_logprob,
        # curation: n-gram stats / repetition / PII / keywords / packing
        "top_ngrams": cu.top_ngrams,
        "repetition_stats": cu.repetition_stats,
        "redact_pii": cu.redact_pii,
        "doc_keywords": cu.doc_keywords,
        "dup_spans": cu.dup_spans,
        "pack_sequences": cu.pack_sequences,
        # relational analytics (TPC-H-style tables)
        "lineitem_pricing_summary": rel.lineitem_pricing_summary,
        "orders_by_segment": rel.orders_by_segment,
        "top_customers_by_spend": rel.top_customers_by_spend,
        "revenue_by_nation": rel.revenue_by_nation,
        "part_type_revenue": rel.part_type_revenue,
        "supplier_revenue": rel.supplier_revenue,
        # similarity search (embeddings table)
        "ann_cosine_topk": ann.ann_cosine_topk,
        "neardup_embedding_pairs": ann.neardup_embedding_pairs,
        # multimodal: REAL PNG/PPM/WAV decode (pure numpy/stdlib; JPEG is a
        # declared scope cut) through actor-pool map_batches stages
        "multimodal_meta": g.multimodal_meta()[0],
        # seeded / iterative gates last (fixture-oracle verified)
        "sketches_approx": g.sketches_approx()[0],
        "simhash_all": g.simhash_all()[0],
        "bpe_token_counts": bpe.bpe_token_counts,
        "ann_approx_topk": g.ann_approx_topk()[0],
        "neardup_embedding_lsh": ann.neardup_embedding_pairs_lsh,
    }


def oracle_sql() -> dict[str, str]:
    from whoosh_reloaded_ray.pipelines import ann
    from whoosh_reloaded_ray.pipelines import bpe
    from whoosh_reloaded_ray.pipelines import curation as cu
    from whoosh_reloaded_ray.pipelines import events_index as ev
    from whoosh_reloaded_ray.pipelines import corpus_ops as co
    from whoosh_reloaded_ray.pipelines import fulltext as ft
    from whoosh_reloaded_ray.pipelines import gates as g
    from whoosh_reloaded_ray.pipelines import relational as rel

    return {
        "search_top10": g.search_top10()[1],
        "match_docsets": g.match_docsets()[1],
        "term_stats": g.term_stats()[1],
        "doclen_quantized": ft.oracle_doclen_quantized(),
        "facet_buckets": g.facet_buckets()[1],
        "sorted_by_turn": ft.oracle_sorted_by_turn(),
        "suggest_misspelled": ft.oracle_suggest_misspelled(),
        "conv_match_counts": ft.oracle_conv_match_counts(),
        "events_matches": g.events_matches()[1],
        "events_value_hist": ev.oracle_events_value_hist(),
        "events_tumbling_counts": ev.oracle_events_tumbling_counts(),
        "events_sliding_rate": ev.oracle_events_sliding_rate(),
        "events_asof_signup": ev.oracle_events_asof_signup(),
        "events_range_join": ev.oracle_events_range_join(),
        "events_sessionize": ev.oracle_events_sessionize(),
        "events_funnel": ev.oracle_events_funnel(),
        "dedup_survivors": g.dedup_survivors()[1],
        "neardup_ngram_jaccard": co.oracle_neardup_ngram_jaccard(),
        "neardup_clusters": co.oracle_neardup_clusters(),
        "text_stats": co.oracle_text_stats(),
        "fingerprint_docs": co.oracle_fingerprint_docs(),
        "winnow": g.winnow()[1],
        "lang_id": co.oracle_lang_id(),
        "stratified_sample": co.oracle_stratified_sample(),
        "filter_quality": co.oracle_filter_quality(),
        "unigram_logprob": bpe.oracle_unigram_logprob(),
        "top_ngrams": cu.oracle_top_ngrams(),
        "repetition_stats": cu.oracle_repetition_stats(),
        "redact_pii": cu.oracle_redact_pii(),
        "doc_keywords": cu.oracle_doc_keywords(),
        "dup_spans": cu.oracle_dup_spans(),
        "pack_sequences": cu.oracle_pack_sequences(),
        "lineitem_pricing_summary": rel.oracle_lineitem_pricing_summary(),
        "orders_by_segment": rel.oracle_orders_by_segment(),
        "top_customers_by_spend": rel.oracle_top_customers_by_spend(),
        "revenue_by_nation": rel.oracle_revenue_by_nation(),
        "part_type_revenue": rel.oracle_part_type_revenue(),
        "supplier_revenue": rel.oracle_supplier_revenue(),
        "ann_cosine_topk": ann.oracle_ann_cosine_topk(),
        "neardup_embedding_pairs": ann.oracle_neardup_embedding_pairs(),
        "multimodal_meta": g.multimodal_meta()[1],
        # round 4: simhash is now fully SQL-expressible (md5-derived word
        # hash == DuckDB md5_number_lower; banded pair search has recall 1.0
        # by pigeonhole so the all-pairs xor/bit_count oracle matches exactly)
        "simhash_all": g.simhash_all()[1],
        # round 4: fixture oracles for the non-SQL-expressible iterative /
        # seeded ops — committed parquet generated by independent naive
        # single-process implementations (scripts/gen_gate_fixtures.py),
        # freshness-guarded by tests/test_gate_fixtures.py
        "bpe_token_counts": bpe.oracle_bpe_token_counts(),
        "neardup_embedding_lsh": ann.oracle_neardup_embedding_pairs_lsh(),
        "sketches_approx": g.sketches_approx()[1],
        # round 5: ann_approx_topk joins the fixture oracles — the IVF / PQ
        # Lloyd refinement now uses fixed-point (associative) partial sums
        # and HNSW shards by splitmix64(vec_id), so all three algorithms are
        # bit-deterministic under any Ray blocking and an independent naive
        # single-process implementation reproduces every row.
        "ann_approx_topk": g.ann_approx_topk()[1],
    }
