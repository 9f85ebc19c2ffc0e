"""Key-term expansion (more-like-this) — the reference's classify module
(classify.py:40-180): Bo1 / Bo2 / KL divergence-from-randomness expansion
models scoring terms that are frequent in the top documents but rare in the
collection.  Formulas are the published Terrier DFR expansion models;
behavior matches Expander.add_text / expanded_terms exactly (score,
normalization, (-score, term) ordering).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict


class Bo1Model:
    def __init__(self, doc_count: int, field_length: int):
        self.N = doc_count
        self.collection_total = field_length

    def normalizer(self, maxweight, top_total):
        if not maxweight:
            return maxweight
        f = maxweight / self.N
        return (maxweight * math.log((1.0 + f) / f) + math.log(1.0 + f)) / math.log(2.0)

    def score(self, weight_in_top, weight_in_collection, top_total):
        f = weight_in_collection / self.N
        return weight_in_top * math.log((1.0 + f) / f, 2) + math.log(1.0 + f, 2)


class Bo2Model:
    def __init__(self, doc_count: int, field_length: int):
        self.N = doc_count
        self.collection_total = field_length

    def normalizer(self, maxweight, top_total):
        if not self.collection_total:
            return maxweight
        f = maxweight * self.N / self.collection_total
        return maxweight * math.log((1.0 + f) / f, 2) + math.log(1.0 + f, 2)

    def score(self, weight_in_top, weight_in_collection, top_total):
        f = weight_in_top * top_total / self.collection_total
        return weight_in_top * math.log((1.0 + f) / f, 2) + math.log(1.0 + f, 2)


class KLModel:
    def __init__(self, doc_count: int, field_length: int):
        self.N = doc_count
        self.collection_total = field_length

    def normalizer(self, maxweight, top_total):
        if not self.collection_total:
            return maxweight
        return (
            maxweight * math.log(self.collection_total / top_total) / math.log(2.0) * top_total
        )

    def score(self, weight_in_top, weight_in_collection, top_total):
        wit_over_tt = weight_in_top / top_total
        wic_over_ct = weight_in_collection / self.collection_total
        if wit_over_tt < wic_over_ct:
            return 0
        return wit_over_tt * math.log(
            wit_over_tt / (weight_in_top / self.collection_total), 2
        )


class Expander:
    """Accumulate top-document term weights, then rank expansion terms."""

    def __init__(self, searcher, fieldname: str, model=Bo1Model):
        # accept the compat Reader / Searcher veneers (reference
        # classify.Expander takes an IndexReader) as well as the internal
        # IndexSearcher
        searcher = getattr(searcher, "_s", searcher)
        self.searcher = searcher
        self.fieldname = fieldname
        if isinstance(model, type):
            model = model(searcher.doc_count_all(), searcher.manifest.field_length(fieldname))
        self.model = model
        self.topN_weight: dict = defaultdict(float)
        self.top_total = 0.0

    def add_text(self, text: str):
        """Analyze with the field's analyzer; weight = term frequency
        (reference Expander.add over field.index output)."""
        from ..functions.analysis import make_analyzer

        spec = next(f for f in self.searcher.manifest.schema.fields if f.name == self.fieldname)
        toks = make_analyzer(spec.analyzer)(text or "")
        for word, w in Counter(t for t, _ in toks).items():
            self.topN_weight[word] += w
            self.top_total += w

    def expanded_terms(self, number: int, normalize: bool = True):
        if not self.topN_weight:
            return []
        freqs = self.searcher.frequencies(
            [(self.fieldname, w) for w in self.topN_weight]
        )
        tlist = []
        maxweight = 0.0
        for word, weight in self.topN_weight.items():
            cf = freqs.get((self.fieldname, word), 0.0)
            if cf <= 0:
                continue  # not in the collection vocabulary
            score = self.model.score(weight, cf, self.top_total)
            maxweight = max(maxweight, score)
            tlist.append((score, word))
        norm = self.model.normalizer(maxweight, self.top_total) if normalize else maxweight
        tlist = [(w / norm, t) for w, t in tlist]
        tlist.sort(key=lambda x: (0 - x[0], x[1]))
        return [(t, w) for w, t in tlist[:number]]


def key_terms(searcher, docnums, fieldname: str, numterms: int = 5, model=Bo1Model, normalize=True):
    """Most important terms of the given docs (reference
    Searcher.key_terms, searching.py:511-545); doc text comes back through
    the partition lineage (the index stores no content)."""
    from ..sources.corpus import fetch_rows

    exp = Expander(searcher, fieldname, model=model)
    rows = fetch_rows(searcher.manifest.partitions, list(docnums), columns=[fieldname])
    for text in rows[fieldname].to_pylist():
        exp.add_text(text)
    return exp.expanded_terms(numterms, normalize=normalize)


def key_terms_from_text(searcher, fieldname, text, numterms=5, model=Bo1Model, normalize=True):
    exp = Expander(searcher, fieldname, model=model)
    exp.add_text(text)
    return exp.expanded_terms(numterms, normalize=normalize)


def more_like(searcher, docnum: int, fieldname: str, limit: int = 10, numterms: int = 5, model=Bo1Model):
    """More-like-this (reference Searcher.more_like, searching.py:561-616):
    top key terms of the source doc ORed into a query; the source doc is
    excluded from results."""
    from . import ast

    kts = key_terms(searcher, [docnum], fieldname, numterms=numterms, model=model)
    q = ast.Or([ast.Term(fieldname, t, boost=w) for t, w in kts])
    res = searcher.search(q, limit=(limit + 1) if limit is not None else None)
    import numpy as np

    from ..state import storage

    mask = storage.as_numpy(res["docnum"]) != np.uint64(docnum)
    res = res.filter(storage.from_numpy(mask))
    return res.slice(0, limit) if limit is not None else res
