"""Block-max WAND top-k: exact pruned evaluation of Term / Or-of-Terms.

Mirrors the reference's block-quality pruning (collectors.py:376-420 +
codec/whoosh3.py:1085-1098 block_quality / skip_to_quality; scoring.py
WeightLengthScorer supplies the (block_max_weight, block_min_length) upper
bound) — re-expressed score-at-a-time over our per-block metadata columns
``(doc_min, doc_max, max_weight, min_len_byte)`` instead of a cursor tree.

Algorithm (exact; proof sketch in comments):
  * process terms rarest-first, accumulating EXACT partial scores per doc;
  * before decoding a block of term j, bound every doc d in its range by
        bound = max_partial_in_range + ub_block(j) + suffix_ub(j)
    where suffix_ub(j) = sum over not-yet-processed terms of their best
    block bound.  If bound < theta (current kth-best partial), no doc in the
    block can reach the final kth-best TRUE score (theta only grows, scores
    only grow), so the block is skipped without decode.
  * a doc with any skipped contribution is strictly below the final theta,
    so every reported top-k doc has an exact, complete score and ties break
    identically to the unpruned path (strict < keeps tie candidates).

Block doc ranges within one term are disjoint (blocks are consecutive runs
of the doc-sorted posting list), so a doc gets at most one contribution per
term.  Bounds are valid because BM25 is monotone increasing in tf(=weight)
and decreasing in field length, exactly the reference's argument for
``block_quality``.
"""

from __future__ import annotations

import numpy as np

from ..functions.quant import BYTE_TO_LENGTH
from . import ast

EMPTY = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64))


def wandable_terms(q: ast.Query):
    """Return (mode, [(field, term, boost)]) if q is Term / Or-of-Terms
    (mode="sum"), else None.  The compound's own boost multiplies each
    child.  NB: DisMax takes the separate conservative tail-prune path
    (``topk_dismax``) — the reference's DisjunctionMaxMatcher scores with
    a cursor quirk (it maxes the still-active subqueries' CURSOR scores
    without doc alignment, matching/binary.py:367-374) that rules out
    per-block max pruning but not tail pruning."""
    if isinstance(q, ast.Term):
        return ("sum", [(q.field, q.text, q.boost)])
    if isinstance(q, ast.Or):
        if q.scale:
            return None  # coordination bonus modifies scores; no block-max prune
        # dedupe (field, term) summing boosts: the full evaluator's Or sums
        # per-child scores (np.add.at in _union) and a Term's score is
        # linear in its boost, so 'a^b1 OR a^b2' == 'a^(b1+b2)' exactly —
        # duplicate children must not double the term's block bounds
        merged: dict = {}
        for s in q.subqueries:
            if not isinstance(s, ast.Term):
                return None
            key = (s.field, s.text)
            merged[key] = merged.get(key, 0.0) + s.boost * q.boost
        if not merged:
            return None
        return ("sum", [(f, t, b) for (f, t), b in merged.items()])
    return None


def wandable_dismax(q: ast.Query):
    """[(field, term, boost)] if q is DisMax-of-Terms with tiebreak 0
    (the pruned path), else None.  q.boost folds into each child (max
    scales linearly)."""
    if not isinstance(q, ast.DisMax) or q.tiebreak:
        return None
    out = []
    for s in q.subqueries:
        if not isinstance(s, ast.Term):
            return None
        out.append((s.field, s.text, s.boost * q.boost))
    return out or None


WAND_MODELS = ("bm25f", "tfidf", "frequency")


def _topk_cut(docs: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Doc-sorted indices of the top-k by (-score, doc).  A partition
    prefilter (keep only scores >= kth-largest — every score-tie at the
    boundary survives, so doc tie-breaks stay exact) cuts the O(n log n)
    two-key lexsort down to the ~k candidates."""
    n = scores.size
    if n > k:
        kth = np.partition(scores, n - k)[n - k]
        cand = np.flatnonzero(scores >= kth)
        order = cand[np.lexsort((docs[cand], -scores[cand]))[:k]]
    else:
        order = np.lexsort((docs, -scores))[:k]
    order.sort()  # return doc-sorted like the full evaluator
    return order


def _block_ub(meta, idf: float, avgfl, boost: float, ctx, _field: str = "") -> np.ndarray:
    """Per-block score upper bound (reference block_quality: BM25F uses
    (block_max_weight, block_min_length); TF_IDF / Frequency use
    block_max_weight — scoring.py:203-213, 453-484)."""
    maxw = meta["max_weight"].astype(np.float64)
    if not avgfl or ctx.model == "frequency":
        ub = maxw
    elif ctx.model == "tfidf":
        ub = maxw * idf
    else:  # bm25f
        B, K1 = ctx.field_B.get(_field, ctx.B), ctx.K1
        minlen = BYTE_TO_LENGTH[meta["min_len_byte"]].astype(np.float64)
        ub = idf * (maxw * (K1 + 1.0)) / (maxw + K1 * ((1.0 - B) + B * minlen / avgfl))
    return ub * boost


def topk_wand(
    reader,
    terms: list,
    ctx,
    k: int,
    stats_out: dict | None = None,
    excluded=None,
    allowed=None,
    mode: str = "sum",
    initial_theta: float = -np.inf,
):
    """Exact top-k (docs, scores) for sum- or max-scored terms on one
    segment.

    ``mode="max"`` implements DisMax pruning: a block whose bound is below
    theta cannot set any doc's max into the top-k (a doc ranking via
    another term is handled at that term's own blocks), so it is skipped
    outright — exact for the same reason the reference's
    DisjunctionMaxMatcher supports block quality.

    ``initial_theta``: a GLOBAL lower bound on the final kth-best score
    (e.g. the running threshold from previously evaluated segments) —
    pruning starts hot; docs below it may be dropped, which is safe for
    global top-k merging.  ``excluded`` / ``allowed``: sorted docnum arrays
    (tombstones+mask / filter) applied before ranking.  ``stats_out``
    (optional dict) receives {blocks_total, blocks_decoded, theta}."""
    metas, infos = [], []
    for f, t, b in terms:
        meta = reader.block_meta(f, t)
        if meta is None:
            continue
        idf = ctx.idf.get((f, t), 1.0)
        avgfl = ctx.avgfl.get(f)
        ub = _block_ub(meta, idf, avgfl, b, ctx, f)
        infos.append(
            {
                "field": f,
                "term": t,
                "boost": b,
                "idf": idf,
                "avgfl": avgfl,
                "meta": meta,
                "ub": ub,
                "n_postings": int(meta["count"].sum()),
            }
        )
    if not infos:
        return EMPTY
    # rarest first: short lists build theta cheaply before the hot lists
    infos.sort(key=lambda i: i["n_postings"])
    suffix = np.zeros(len(infos) + 1)
    for j in range(len(infos) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + float(infos[j]["ub"].max())

    pdocs = np.empty(0, dtype=np.uint64)  # partial docs (sorted)
    pscores = np.empty(0, dtype=np.float64)
    theta = initial_theta
    blocks_decoded = blocks_total = 0

    for j, info in enumerate(infos):
        meta, ub = info["meta"], info["ub"]
        nb = ub.size
        blocks_total += nb
        rest = suffix[j + 1]
        if np.isfinite(theta) and mode == "max":
            # max semantics: a block below theta cannot push any doc's MAX
            # into the top-k; other terms' contributions are judged at
            # their own blocks
            keep = ub >= theta
        elif np.isfinite(theta):
            # best partial score of any already-seen doc in each block's doc
            # range (unseen docs contribute best_in = 0)
            lo = np.searchsorted(pdocs, meta["doc_min"], side="left")
            hi = np.searchsorted(pdocs, meta["doc_max"], side="right")
            best_in = np.zeros(nb)
            if pscores.size:
                idx = np.flatnonzero(hi > lo)
                if idx.size:
                    # segment maxima in ONE reduceat pass: (lo, hi) pairs
                    # interleaved, even slots are the [lo, hi) reductions
                    # (odd slots — the inter-pair gaps — are discarded);
                    # a 0.0 sentinel keeps every index < len and never
                    # lands in an even slot since hi <= pscores.size
                    pairs = np.empty(idx.size * 2, dtype=np.int64)
                    pairs[0::2] = lo[idx]
                    pairs[1::2] = hi[idx]
                    ps_ext = np.append(pscores, 0.0)
                    best_in[idx] = np.maximum.reduceat(ps_ext, pairs)[0::2]
            keep = best_in + ub + rest >= theta
        else:
            keep = np.ones(nb, dtype=bool)
        if not keep.any():
            continue
        blocks_decoded += int(keep.sum())
        from .exec import _sorted_isin, score_postings, term_scores

        if keep.all():
            # full-list decode: per-posting scores are value-cached on the
            # PostingList (term_scores) — repeat searches on a warm reader
            # skip the formula entirely
            plist = reader.postings(info["field"], info["term"])
            docs = plist.docs
            s = term_scores(plist, info["field"], info["term"], ctx)
        else:
            docs, weights, lens = reader.decode_blocks(
                info["field"], info["term"], keep
            )
            s = score_postings(
                docs, weights, lens, info["field"], info["term"], ctx
            )
        # scores are elementwise in the posting, so candidate filters
        # commute with scoring (masks copy; the cached array stays intact)
        if excluded is not None and docs.size:
            m = ~_sorted_isin(docs, excluded)
            docs, s = docs[m], s[m]
        if allowed is not None and docs.size:
            m = _sorted_isin(docs, allowed)
            docs, s = docs[m], s[m]
        if info["boost"] != 1.0:
            s = s * info["boost"]
        if not docs.size:
            continue  # the partials, and so theta, stay as they are
        if not pdocs.size:
            # the first list is the partials as it is: doc-sorted and
            # unique, and never written to (every later merge builds new
            # arrays), so a cached list or score array is safe to hold
            pdocs, pscores = docs, s
        else:
            # merge into partials: both sides doc-sorted and internally
            # unique, so one stable sort + run-boundary reduceat replaces
            # union1d + np.add.at (buffered ufunc.at is the slow path)
            alld = np.concatenate([pdocs, docs])
            alls = np.concatenate([pscores, s])
            order = np.argsort(alld, kind="stable")
            alld = alld[order]
            alls = alls[order]
            newmask = np.empty(alld.size, dtype=bool)
            newmask[0] = True
            np.not_equal(alld[1:], alld[:-1], out=newmask[1:])
            starts = np.flatnonzero(newmask)
            pdocs = alld[starts]
            pscores = (
                np.maximum.reduceat(alls, starts)
                if mode == "max"
                else np.add.reduceat(alls, starts)
            )
        if pscores.size >= k:
            theta = max(
                theta,
                np.partition(pscores, pscores.size - k)[pscores.size - k],
            )

    if stats_out is not None:
        stats_out["blocks_total"] = stats_out.get("blocks_total", 0) + blocks_total
        stats_out["blocks_decoded"] = stats_out.get("blocks_decoded", 0) + blocks_decoded
        stats_out["theta"] = theta
    if pdocs.size == 0:
        return EMPTY
    order = _topk_cut(pdocs, pscores, k)
    return pdocs[order], pscores[order]


def topk_dismax(
    reader,
    terms: list,
    ctx,
    k: int,
    stats_out: dict | None = None,
    excluded=None,
    allowed=None,
    initial_theta: float = -np.inf,
):
    """Conservative block-max pruning for DisMax-of-Terms — exact under
    the reference DisjunctionMaxMatcher's CURSOR-quirk scoring (see
    exec._eval_dismax): at doc d each still-active child contributes the
    score at its first posting >= d, so a posting's score 'leaks' to
    EARLIER docs but never later ones.  Mid-list blocks therefore can't be
    dropped (an earlier doc may inherit a later block's score); what CAN
    be dropped is the common TAIL:

        d* = max{ block.doc_max : ub(block) >= theta } over all children.

    Every doc d > d* only receives contributions from blocks whose
    doc_max > d* — all of which have ub < theta by construction of d* —
    so no doc past d* can reach the top-k, and every block with
    doc_min > d* is skipped for every child.  Decoded blocks then form a
    doc-order PREFIX per child: a cursor lookup on the prefix either finds
    the true cursor posting, or finds nothing exactly when the true
    cursor lies in the skipped tail (whose contribution is provably
    < theta and can't be the max of any surviving top-k doc).  With
    theta = -inf (cold start) nothing is skipped — the hot path is a
    worker's later segments, where theta arrives pre-seeded from the
    segments it already evaluated."""
    from .exec import _sorted_isin, score_postings, term_scores

    infos = []
    for f, t, b in terms:
        meta = reader.block_meta(f, t)
        if meta is None:
            continue
        idf = ctx.idf.get((f, t), 1.0)
        ub = _block_ub(meta, idf, ctx.avgfl.get(f), b, ctx, f)
        infos.append((f, t, b, meta, ub))
    blocks_total = sum(i[4].size for i in infos)

    def _stats(decoded, theta):
        if stats_out is not None:
            stats_out["blocks_total"] = stats_out.get("blocks_total", 0) + blocks_total
            stats_out["blocks_decoded"] = stats_out.get("blocks_decoded", 0) + decoded
            stats_out["theta"] = theta

    if not infos:
        _stats(0, initial_theta)
        return EMPTY
    d_star = None
    if np.isfinite(initial_theta):
        qual_max = [
            meta["doc_max"][ub >= initial_theta] for _, _, _, meta, ub in infos
        ]
        qual_max = [m for m in qual_max if m.size]
        if not qual_max:
            _stats(0, initial_theta)
            return EMPTY
        d_star = max(int(m.max()) for m in qual_max)

    blocks_decoded = 0
    results = []
    for f, t, b, meta, ub in infos:
        keep = (
            np.ones(ub.size, dtype=bool)
            if d_star is None
            else meta["doc_min"] <= d_star
        )
        if not keep.any():
            continue
        blocks_decoded += int(keep.sum())
        if keep.all():
            plist = reader.postings(f, t)
            docs = plist.docs
            s = term_scores(plist, f, t, ctx)  # value-cached; read-only
        else:
            docs, weights, lens = reader.decode_blocks(f, t, keep)
            s = score_postings(docs, weights, lens, f, t, ctx)
        if b != 1.0:
            s = s * b
        results.append((docs, s))
    if not results:
        _stats(blocks_decoded, initial_theta)
        return EMPTY
    union = np.unique(np.concatenate([r[0] for r in results]))
    best = np.full(union.size, -np.inf)
    for docs, s in results:
        ia = np.searchsorted(docs, union, side="left")
        active = ia < docs.size
        val = np.full(union.size, -np.inf)
        val[active] = s[ia[active]]
        np.maximum(best, val, out=best)
    # tombstones / filter queries drop CANDIDATES only — their postings
    # still feed cursor contributions, matching the full evaluator (the
    # reference filters deletes at the collector, matchers see them)
    if excluded is not None and union.size:
        m = ~_sorted_isin(union, excluded)
        union, best = union[m], best[m]
    if allowed is not None and union.size:
        m = _sorted_isin(union, allowed)
        union, best = union[m], best[m]
    theta = initial_theta
    if best.size >= k:
        theta = max(
            theta, float(np.partition(best, best.size - k)[best.size - k])
        )
    _stats(blocks_decoded, theta)
    if union.size == 0:
        return EMPTY
    order = _topk_cut(union, best, k)
    return union[order], best[order]
