"""Index searcher: global stats + per-segment fan-out + exact top-k merge.

Mirrors the reference Searcher/MultiReader split (searching.py:104-173,
reading.py:1003-1050): IDF and average field length are GLOBAL (manifest
stats + summed per-segment doc_freq), per-segment evaluation is local, and
the driver merges per-segment results — exact, because scores depend only on
global stats, so per-segment top-k + heap merge equals whole-index top-k
(ties by ascending docnum, matching the reference's (score, -docnum) heap,
collectors.py:466-483).

Global statistics (doc frequencies, total term weights, the vocabulary
that prefix/wildcard/range/regex/fuzzy queries expand over, lexicon and
most-frequent-terms stats) come from the driver's ``_local_worker()``
readers: the process-wide shared readers, which read only terminfo row
groups for these.  The driver must therefore be able to read the index
directory on either executor.

Two executors, one fan-out path (``IndexSearcher._partials``):
  * local  — one in-process worker over every segment (tests, small
    indexes, and the driver-gate queries);
  * ray    — an actor pool, each actor pinning a disjoint set of segments
    with warm caches (terminfo/postings/doclens), by default one actor
    per ``POSTINGS_PER_ACTOR`` postings (``actor_groups``).  Each search
    is one fan-out: one message, ``(method, args)`` pickled once, sent to
    each actor's single entry point ``_SegmentWorker.call`` over one
    long-lived authenticated connection per actor (its channel), not as
    a Ray actor call.  Ray places, starts, restarts and kills the actors.
    This is the query-side scale path: segments partition the doc space,
    so adding nodes adds segment actors.
Either way each worker returns one partial per call and the driver merges
the partials once.  For block-max WAND top-k a worker threads its pruning
threshold (theta) across its own segments; workers do not share theta.
"""

from __future__ import annotations

import math
import os
import pickle
import secrets
import socket
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import AuthenticationError
from multiprocessing.connection import Client, Listener

import numpy as np
import pyarrow as pa

from ..query import ast
from ..query.exec import ScoreContext, SegmentReader, _sorted_isin, evaluate
from ..state import storage
from ..state.manifest import Manifest, load_manifest


def _sorted_order(docs, cols, fieldlist, flags, reverse, limit):
    """Composed sort order: per-field descending (``flags``) via
    dense-rank inversion (stable on any dtype), ascending docnum
    tiebreak; the global ``reverse`` flips every key including the
    tiebreak (the reference's whole-key reversal)."""
    dockey = docs.astype(np.int64)
    keys = [-dockey if reverse else dockey]
    for f, flag in zip(reversed(fieldlist), reversed(flags)):
        v = cols[f]
        if bool(flag) != bool(reverse):
            _, inv = np.unique(v, return_inverse=True)
            keys.append(-inv)
        else:
            keys.append(v)
    order = np.lexsort(keys)
    return order[:limit] if limit is not None else order


def _split_sort_spec(sortedby):
    """Normalize a sort spec (str | [str | (field, reverse)]) into
    (fieldlist, per-field reverse flags)."""
    if isinstance(sortedby, str):
        sortedby = [sortedby]
    fields, flags = [], []
    for s in sortedby:
        if isinstance(s, tuple):
            fields.append(s[0])
            flags.append(bool(s[1]))
        else:
            fields.append(s)
            flags.append(False)
    return fields, flags


# SegmentReaders of every segment some searcher in this process holds, keyed
# by the segment directory's stamp.  Weak values: a reader lives exactly as
# long as a searcher holds it, so a searcher opened while another is alive
# on the same segments reuses that one's warm caches (whoosh's
# ``Searcher.refresh`` reuse of unchanged segment readers), and nothing
# outlives the last searcher.
_READERS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_READERS_LOCK = threading.Lock()


def shared_reader(index_dir: str, seg) -> SegmentReader:
    """The live reader of segment ``seg`` if one exists in this process,
    else a new one.  The key is the segment directory's stamp (resolved
    path, inode, mtime), not its name, so a segment rebuilt under the same
    name never gets a reader of the old files; a hit must also describe the
    same segment.  A filesystem that gives no stamp gets no sharing."""
    key = storage.stamp(storage.join(index_dir, seg.name))
    if key is None:
        return SegmentReader(index_dir, seg)
    with _READERS_LOCK:
        r = _READERS.get(key)
        if r is None or r.seg != seg:
            r = _READERS[key] = SegmentReader(index_dir, seg)
        return r


# A fan-out that meets a lost channel is resent at most this many times,
# as a Ray actor call was retried (max_task_retries).
FANOUT_RETRIES = 4


def _nodelay(conn) -> None:
    """Send every write of a channel at once.  Without TCP_NODELAY the
    first message after the auth handshake's last small write waits for
    the peer's delayed ACK (Nagle), about 40 ms."""
    with socket.socket(fileno=os.dup(conn.fileno())) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _close_all(conns: list) -> None:
    """Close and forget a searcher's channels."""
    for c in conns:
        c.close()
    conns.clear()


def _error_reply(e: BaseException) -> bytes:
    """The pickled ``(False, e)`` reply of a call that raised ``e``, with
    the actor's traceback as a note; a ``RuntimeError`` carrying that
    traceback when ``e`` does not survive a pickle round trip."""
    import ray

    tb = "".join(traceback.format_exception(e))
    try:
        e.add_note(f"raised in a segment actor:\n{tb}")
        blob = ray.cloudpickle.dumps((False, e))
        pickle.loads(blob)
        return blob
    except Exception:
        return ray.cloudpickle.dumps((False, RuntimeError(f"segment actor error:\n{tb}")))


class _SegmentWorker:
    """Holds SegmentReaders for a subset of segments (used in-process or as
    the body of a Ray actor), taken from the process-wide registry."""

    def __init__(self, index_dir: str, manifest_dict: dict, seg_indices: list):
        # fault-injection hook (tests only; _rayutil.consume_fault_flag): a
        # flag file in the index dir crashes exactly one worker mid-query;
        # the actor's max_restarts/max_task_retries recover it and the
        # retried read is byte-identical (the index is an immutable snapshot)
        self._fault_flag = os.path.join(index_dir, ".fault_crash_eval")
        man = Manifest.from_dict(manifest_dict)
        self.field_kinds = {
            f.name: (f.kind, getattr(f, "numtype", "int"))
            for f in man.schema.fields
        }
        self.readers = [shared_reader(index_dir, man.segments[i]) for i in seg_indices]
        # tombstone mask (deleted docs stay in collection stats, exactly
        # like the reference's doc_count_all; they are filtered from every
        # result set at evaluation time)
        self.excluded = man.load_tombstones(index_dir)
        # process CPU when the last call ended: each call reports the CPU
        # since, so the transport's share of the actor is that less the
        # call's own
        self._cpu_mark = time.process_time()
        self._listener = None

    def node_id(self) -> str:
        """Ray node this worker landed on (placement probes)."""
        try:
            import ray

            return ray.get_runtime_context().get_node_id()
        except Exception:
            return "local"

    def call(self, msg: bytes):
        """The worker entry point: run the ``(method, args)`` message that
        ``IndexSearcher._partials`` packed once for its whole fan-out; in
        an actor it arrives over the channel (``open_channel``).
        Returns ``(partial, split)``: ``split`` is this call's process CPU
        in seconds as (unpickle, engine, process), ``process`` being the
        actor's CPU since its previous call ended (or since it started).
        The channel pickles and sends the reply after the call returns, so
        that work is in the next call's ``process``, not in this call's
        parts."""
        c0 = time.process_time()
        method, args = pickle.loads(msg)
        c1 = time.process_time()
        out = getattr(self, method)(*args)
        c2 = time.process_time()
        mark, self._cpu_mark = self._cpu_mark, c2
        return out, (c1 - c0, c2 - c1, c2 - mark)

    def open_channel(self, key: bytes) -> tuple:
        """The address of this actor's channel: a listener on its node's IP
        that accepts connections authenticated with ``key`` (the
        searcher's), started on the first call.  Each connection is served
        by a daemon thread of its own that blocks in ``recv`` between
        messages, so an idle actor uses no CPU."""
        if self._listener is None:
            import ray

            self._listener = Listener((ray.util.get_node_ip_address(), 0), authkey=key)
            threading.Thread(target=self._accept, daemon=True).start()
        return self._listener.address

    def _accept(self) -> None:
        while True:
            try:
                conn = self._listener.accept()
            except (AuthenticationError, EOFError, ConnectionError):
                continue  # a wrong key or a dropped handshake
            _nodelay(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn) -> None:
        """One channel: each message is a ``call``, answered with the
        pickled ``(True, call's result)``, or ``(False, exception)`` if it
        raised (cloudpickle, so user collectors' partials travel too).
        Ends when the searcher closes the connection."""
        import ray

        with conn:
            while True:
                try:
                    msg = conn.recv_bytes()
                except (EOFError, OSError):
                    return
                try:
                    reply = ray.cloudpickle.dumps((True, self.call(msg)))
                except Exception as e:
                    reply = _error_reply(e)
                try:
                    conn.send_bytes(reply)
                except OSError:
                    return

    def doc_values(self, field: str, docnums) -> tuple:
        """(docnums, values) arrays for the SORTED ``docnums`` owned by
        this worker's segments (sort/facet value fetch)."""
        docnums = np.asarray(docnums, dtype=np.uint64)
        subs, vals = [], []
        for r in self.readers:
            seg = r.seg
            lo = np.searchsorted(docnums, np.uint64(seg.doc_base))
            hi = np.searchsorted(docnums, np.uint64(seg.doc_base + seg.doc_count))
            sub = docnums[lo:hi]
            if sub.size:
                subs.append(sub)
                vals.append(r.column(field)[r.dense_index(sub)])
        if not subs:
            return np.empty(0, np.uint64), np.empty(0, object)
        return np.concatenate(subs), np.concatenate(vals)

    # ---- per-segment partial aggregates (facet/sort/collapse/parent) -----
    # The scale path for the aggregate searches: each worker evaluates the
    # query against ITS segments and reduces matches against the segment's
    # native columns locally; the driver merges bounded partials (per-key
    # counts / bests / top-n) instead of materializing every matching
    # docnum (reference collector semantics, distributed — see the
    # IndexSearcher methods for the merge laws).

    def _matches(self, q, ctx, scored):
        """(reader, docs, scores) per segment, tombstones applied."""
        excluded = self.excluded if self.excluded.size else None
        for r in self.readers:
            docs, scores = evaluate(r, q, ctx, scored=scored)
            if excluded is not None:
                m = ~_sorted_isin(docs, excluded)
                docs, scores = docs[m], scores[m]
            yield r, docs, scores

    def _keys_for(self, r, docs, fieldlist):
        cols = [
            self._norm_group_keys(r.column(f)[r.dense_index(docs)], f)
            for f in fieldlist
        ]
        if len(fieldlist) == 1:
            return cols[0]
        return np.fromiter(
            (tuple(vs) for vs in zip(*(c.tolist() for c in cols))),
            dtype=object, count=docs.size,
        )

    def _norm_group_keys(self, vals, field):
        """Missing values group under None (the reference's missing
        bucket); an int column whose nulls decayed the numpy array to
        float recovers int keys."""
        if getattr(vals, "dtype", None) is None or vals.dtype.kind != "f":
            return vals
        kind, numtype = self.field_kinds.get(field, (None, "int"))
        as_int = kind in ("numeric", "datetime") and numtype == "int"
        out = np.empty(vals.size, dtype=object)
        nan = np.isnan(vals)
        out[nan] = None
        if as_int:
            out[~nan] = [int(v) for v in vals[~nan]]
        else:
            out[~nan] = [float(v) for v in vals[~nan]]
        return out

    def facet_partial(self, q, ctx, field, mode="count", spec=None) -> dict:
        """mode "count": {value: n}; mode "range": {bucket_index: n} with
        spec = (lo, hi, gap, is_datetime)."""
        out: dict = {}
        for r, docs, _ in self._matches(q, ctx, scored=False):
            if not docs.size:
                continue
            vals = r.column(field)[r.dense_index(docs)]
            if mode == "range":
                lo, hi, g, is_dt = spec
                v = (
                    np.asarray(vals, dtype="datetime64[us]").astype(np.int64)
                    if is_dt
                    else np.asarray(vals, dtype=np.float64)
                )
                inb = (v >= lo) & (v < hi)
                vals = np.floor((v[inb] - lo) / g).astype(np.int64)
            uniq, cnt = np.unique(vals, return_counts=True)
            for u, c in zip(uniq.tolist(), cnt.tolist()):
                out[u] = out.get(u, 0) + int(c)
        return out

    def grouped_partial(self, q, ctx, fieldlist, maptype) -> dict:
        """Partial facet maps over ALL matches of this worker's segments:
        "count" -> {key: n}; "best" -> {key: (best_score, docnum)};
        "ordered" -> {key: [(score, docnum), ...]} (unsorted partial)."""
        out: dict = {}
        for r, docs, scores in self._matches(q, ctx, scored=True):
            if not docs.size:
                continue
            keys = self._keys_for(r, docs, fieldlist)
            if maptype == "count":
                uniq, cnt = np.unique(keys, return_counts=True)
                for u, c in zip(uniq.tolist(), cnt.tolist()):
                    out[u] = out.get(u, 0) + int(c)
            elif maptype == "best":
                order = np.lexsort((docs, -scores))
                ok, first = np.unique(keys[order], return_index=True)
                for u, i in zip(ok.tolist(), first.tolist()):
                    cand = (-scores[order][i], int(docs[order][i]))
                    cur = out.get(u)
                    if cur is None or cand < cur:
                        out[u] = cand
            else:  # ordered
                for k, s, d in zip(keys.tolist(), scores.tolist(), docs.tolist()):
                    out.setdefault(k, []).append((s, d))
        return out

    def sorted_partial(self, q, ctx, fieldlist, limit, reverse, flags=None) -> dict:
        """Matches ordered by field values, truncated to ``limit`` PER
        WORKER (a valid superset of the worker's contribution to the global
        top-``limit``).  Returns {"docnum": arr, f: values, ...}."""
        docs_l, col_l = [], {f: [] for f in fieldlist}
        for r, docs, _ in self._matches(q, ctx, scored=False):
            if not docs.size:
                continue
            docs_l.append(docs)
            for f in fieldlist:
                col_l[f].append(r.column(f)[r.dense_index(docs)])
        docs = np.concatenate(docs_l) if docs_l else np.empty(0, np.uint64)
        cols = {
            f: (np.concatenate(col_l[f]) if col_l[f] else np.empty(0, object))
            for f in fieldlist
        }
        flags = flags or [False] * len(fieldlist)
        order = _sorted_order(docs, cols, fieldlist, flags, reverse, limit)
        return {"docnum": docs[order], **{f: cols[f][order] for f in fieldlist}}

    @staticmethod
    def _collapse_rank_keep(keys, docs, scores, collapse_limit,
                            order_vals=None, order_reverse=False):
        """Vectorized per-key rank filter: keep a doc iff its rank within
        its key < collapse_limit.  Default rank = (-score, docnum); with
        ``order_vals`` (reference collapse_order facet) rank = (value
        asc — or desc when reverse — then docnum).  Docs with a missing
        (None) collapse key are never collapsed (reference
        CollapseCollector: no key -> not collapsed)."""
        none_mask = np.fromiter(
            (k is None for k in keys), dtype=bool, count=len(keys)
        )
        if none_mask.any():
            idx = np.flatnonzero(~none_mask)
            sub = _SegmentWorker._collapse_rank_keep(
                keys[idx], docs[idx], scores[idx], collapse_limit,
                None if order_vals is None else order_vals[idx],
                order_reverse,
            )
            return np.concatenate([np.flatnonzero(none_mask), idx[sub]])
        if order_vals is None:
            order = np.lexsort((docs, -scores, keys))
        else:
            # dense ranks make reverse work for ANY value dtype
            ranks = np.unique(order_vals, return_inverse=True)[1]
            if order_reverse:
                ranks = -ranks
            order = np.lexsort((docs, ranks, keys))
        ks = keys[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        rank = np.arange(ks.size) - np.repeat(starts, np.diff(np.r_[starts, ks.size]))
        kept = order[rank < collapse_limit]
        return kept

    def collapse_partial(self, q, ctx, field, collapse_limit,
                         order_spec=None) -> dict:
        """Per-key top-``collapse_limit`` candidates of this worker's
        matches (associative: re-ranking merged partials gives the global
        per-key top).  ``order_spec`` = (order_field, reverse) selects the
        survivor by column value instead of score (reference
        collapse_order facet)."""
        docs_l, scores_l, keys_l, ovals_l = [], [], [], []
        for r, docs, scores in self._matches(q, ctx, scored=True):
            if not docs.size:
                continue
            keys = r.column(field)[r.dense_index(docs)]
            if order_spec is not None:
                ovals = r.column(order_spec[0])[r.dense_index(docs)]
                kept = self._collapse_rank_keep(
                    keys, docs, scores, collapse_limit, ovals, order_spec[1]
                )
                ovals_l.append(ovals[kept])
            else:
                kept = self._collapse_rank_keep(keys, docs, scores, collapse_limit)
            docs_l.append(docs[kept])
            scores_l.append(scores[kept])
            keys_l.append(keys[kept])
        return {
            "docnum": np.concatenate(docs_l) if docs_l else np.empty(0, np.uint64),
            "score": np.concatenate(scores_l) if scores_l else np.empty(0, np.float64),
            "key": np.concatenate(keys_l) if keys_l else np.empty(0, object),
            "oval": (
                np.concatenate(ovals_l)
                if ovals_l
                else (np.empty(0, object) if order_spec is not None else None)
            ),
        }

    def parent_partial(self, q, ctx, parent_field) -> dict:
        """{parent_key: (max_child_score, n_children)} over this worker's
        matches — both components merge associatively (max, sum)."""
        out: dict = {}
        for r, docs, scores in self._matches(q, ctx, scored=True):
            if not docs.size:
                continue
            keys = r.column(parent_field)[r.dense_index(docs)]
            order = np.argsort(keys, kind="stable")
            ks = keys[order]
            starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            counts = np.diff(np.r_[starts, ks.size])
            smax = np.maximum.reduceat(scores[order], starts)
            for k, s, c in zip(ks[starts].tolist(), smax.tolist(), counts.tolist()):
                cur = out.get(k)
                if cur is None:
                    out[k] = (float(s), int(c))
                else:
                    out[k] = (max(cur[0], float(s)), cur[1] + int(c))
        return out

    def collector_partials(self, collector, q, ctx) -> list:
        """Run a user VectorCollector's ``collect`` against each of this
        worker's segments (query/collectors.py plug-point); returns the
        list of bounded partials."""
        return [
            collector.collect(r, docs, scores)
            for r, docs, scores in self._matches(q, ctx, scored=collector.scored)
        ]

    def evaluate(
        self,
        q: ast.Query,
        ctx: ScoreContext,
        limit,
        scored=True,
        allowed=None,
        forbidden=None,
        deadline: float | None = None,
    ):
        """Per-worker matches as ``(docs, scores, complete)``; top-`limit`
        per segment when limit is set.

        ``allowed``/``forbidden``: sorted docnum arrays from the search's
        filter/mask queries (reference collectors.py:659-761 FilterCollector)
        — applied before ranking, scores unchanged.

        Scored Term / Or-of-Terms top-k takes the block-max WAND path:
        per-block (max_weight, min_len_byte) bounds prune block decodes,
        mirroring the reference's block_quality skipping
        (collectors.py:376-420) — exact, so results match the full path.
        The WAND threshold (theta) threads across this worker's segments
        in order, like the reference's sequential per-segment loop
        (collectors.py:139-146).

        ``deadline`` (absolute ``time.time()``): checked before each
        segment; once passed, the remaining segments are skipped and
        ``complete`` is False (the matches so far are still returned)."""
        from .._rayutil import consume_fault_flag
        from ..query.wand import (
            WAND_MODELS, _topk_cut, topk_dismax, topk_wand, wandable_dismax,
            wandable_terms,
        )

        consume_fault_flag(self._fault_flag)

        can_wand = (
            scored
            and limit is not None
            and ctx.model in WAND_MODELS
            and not ctx.field_models
            and not ctx.reverse
        )
        wand_terms = wandable_terms(q) if can_wand else None
        dismax_terms = (
            wandable_dismax(q) if can_wand and wand_terms is None else None
        )
        docs_all, scores_all = [], []
        excluded = self.excluded if self.excluded.size else None
        if forbidden is not None:
            excluded = (
                np.union1d(excluded, forbidden) if excluded is not None else forbidden
            )
        complete = True
        theta = -np.inf  # threshold threads across this worker's segments
        for r in self.readers:
            if deadline is not None and time.time() >= deadline:
                complete = False
                break
            if wand_terms:
                mode, tlist = wand_terms
                st: dict = {}
                docs, scores = topk_wand(
                    r, tlist, ctx, limit, excluded=excluded, allowed=allowed,
                    mode=mode, initial_theta=theta, stats_out=st,
                )
                theta = max(theta, st.get("theta", -np.inf))
            elif dismax_terms:
                st = {}
                docs, scores = topk_dismax(
                    r, dismax_terms, ctx, limit, excluded=excluded,
                    allowed=allowed, initial_theta=theta, stats_out=st,
                )
                theta = max(theta, st.get("theta", -np.inf))
            else:
                docs, scores = evaluate(r, q, ctx, scored=scored)
                if excluded is not None:
                    m = ~_sorted_isin(docs, excluded)
                    docs, scores = docs[m], scores[m]
                if allowed is not None:
                    m = _sorted_isin(docs, allowed)
                    docs, scores = docs[m], scores[m]
                if limit is not None and docs.size > limit:
                    top = _topk_cut(docs, scores, limit)
                    docs, scores = docs[top], scores[top]
            docs_all.append(docs)
            scores_all.append(scores)
        return (
            np.concatenate(docs_all) if docs_all else np.empty(0, np.uint64),
            np.concatenate(scores_all) if scores_all else np.empty(0, np.float64),
            complete,
        )


# canonical home is the AST module (Regex._find_prefix / simplify use it)
from ..query.ast import regex_prefix as _regex_prefix  # noqa: E402


def _sum_partials(parts) -> dict:
    """Key-wise sum of per-worker {key: number} partials."""
    out: dict = {}
    for p in parts:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return out


# Postings per segment actor for the ray executor's default actor count.
# A second actor halves each actor's engine time, so it saves half the
# engine time on a query's wall time, and costs one more call's floor in
# CPU: one more actor pays when the engine time per query is more than
# twice the floor.  Measured on a 4-vCPU VM, Ray 2.49 at 4 CPUs, five
# runs (median run shown), perfbench's query set warm (4 queries of each
# kind, 10 passes), indexes built as perfbench builds them (4,096-turn
# segments, 8 shards), served over the channel by one actor:
#   * floor: a query's channel cost, 0.29 ms of driver CPU (pack + wait +
#     merge) + 0.17 ms of actor transport CPU (ray_actor_ms) per call =
#     0.47 ms (an absent term's call: 0.14 + 0.08 = 0.22 ms);
#   * engine CPU per query (FanoutStats.engine_ms, summed over actors):
#     8,192 turns, 249,596 postings: 0.73 ms; 65,536 turns, 1,999,390
#     postings: 4.39 ms; 204,800 turns, 6,245,056 postings: 14.1 ms;
#     a least-squares line through them: 0.06 ms + 0.22 ms per 100k
#     postings.  Two actors' summed engine CPU is 4-11% more on the same
#     indexes (each starts its WAND threshold at -inf).
# Engine = 2 x floor at 0.39M postings (five runs: 0.28M-0.45M).
POSTINGS_PER_ACTOR = 400_000


def actor_groups(segments, cpus: int, num_actors: int | None = None) -> list:
    """Segment indices (into ``segments``) held by each actor of a ray
    searcher, one list per actor.

    The count is ``num_actors`` when given, else one actor per
    ``POSTINGS_PER_ACTOR`` postings of the index, rounded up, and at most
    ``cpus // 2``; either way at least one and at most one per segment.
    Segments go largest first (by ``n_postings``) to the actor holding the
    fewest postings so far, and each actor keeps its segments in manifest
    order, the order its WAND threshold threads through them."""
    if num_actors is None:
        total = sum(s.n_postings for s in segments)
        num_actors = min(-(-total // POSTINGS_PER_ACTOR), max(1, cpus // 2))
    num_actors = max(1, min(num_actors, len(segments)))
    groups: list = [[] for _ in range(num_actors)]
    load = [0] * num_actors
    for i in sorted(range(len(segments)), key=lambda i: -segments[i].n_postings):
        a = min(range(num_actors), key=lambda a: (load[a], len(groups[a]), a))
        groups[a].append(i)
        load[a] += segments[i].n_postings
    return [sorted(g) for g in groups if g]


_FANOUT_LOCK = threading.Lock()


@dataclass
class FanoutStats:
    """A searcher's worker fan-outs so far (counters, not settings):
    ``calls`` (worker calls: one per actor per fan-out, one per fan-out on
    the local executor), ``msg_bytes`` (packed messages, once per fan-out;
    0 on the local executor), ``ms`` (round-trip wall time) and
    ``first_ms`` (the first fan-out's wall time, None before it: on the
    ray executor it includes the new actors' start, their channels'
    set-up and cold reads).

    The rest split the fan-outs' process CPU time (``time.process_time``,
    every thread of the process), in ms summed over fan-outs.  On the
    driver: ``pack_ms`` (pickling the message), ``wait_ms`` (sending it
    over every channel and receiving and unpickling the replies) and
    ``merge_ms`` (the caller's merge of the partials, ``search``'s top-k
    and result table).  In the workers, summed over calls: ``unpickle_ms``
    and ``engine_ms`` (the worker method), which make up ``in_call_ms``,
    and ``actor_ms``, each actor process's CPU from its previous call's
    end to this one's; ``ray_actor_ms`` = ``actor_ms`` - ``in_call_ms`` is
    the transport's share in the actors, not Ray's despite its name:
    pickling and sending the previous reply, receiving this message, and
    Ray's own background work.  The local executor runs
    its worker in the driver: ``engine_ms`` and ``actor_ms`` hold that
    call, and ``pack_ms``, ``wait_ms`` and ``unpickle_ms`` stay 0, so no
    millisecond is counted on both sides."""

    calls: int = 0
    msg_bytes: int = 0
    ms: float = 0.0
    first_ms: float | None = None
    pack_ms: float = 0.0
    wait_ms: float = 0.0
    merge_ms: float = 0.0
    unpickle_ms: float = 0.0
    engine_ms: float = 0.0
    actor_ms: float = 0.0

    @property
    def in_call_ms(self) -> float:
        return self.unpickle_ms + self.engine_ms

    @property
    def ray_actor_ms(self) -> float:
        return self.actor_ms - self.in_call_ms

    def add(self, calls: int, msg_bytes: int, secs: float, driver: tuple,
            splits: list) -> None:
        """One fan-out: its wall ``secs``, the driver's (pack, wait, merge)
        CPU seconds and each call's ``_SegmentWorker.call`` split."""
        with _FANOUT_LOCK:  # threads may share one searcher
            if self.first_ms is None:
                self.first_ms = secs * 1e3
            self.calls += calls
            self.msg_bytes += msg_bytes
            self.ms += secs * 1e3
            self.pack_ms += driver[0] * 1e3
            self.wait_ms += driver[1] * 1e3
            self.merge_ms += driver[2] * 1e3
            for unpickle, engine, process in splits:
                self.unpickle_ms += unpickle * 1e3
                self.engine_ms += engine * 1e3
                self.actor_ms += process * 1e3


class TimeLimitExceeded(Exception):
    """Raised when a ``timelimit`` search runs over budget (reference
    TimeLimitCollector, collectors.py:1012-1110); ``partial`` carries the
    results collected so far."""

    def __init__(self, partial: pa.Table):
        super().__init__("search time limit exceeded")
        self.partial = partial


class IndexSearcher:
    def __init__(
        self,
        index_dir: str,
        manifest: Manifest | None = None,
        executor: str = "local",
        num_actors: int | None = None,
        B: float = 0.75,
        K1: float = 1.2,
        field_B: dict | None = None,
        weighting: str = "bm25f",
        pl2_c: float = 1.0,
        weighting_fn=None,
        field_weighting: dict | None = None,
        reverse_weighting: bool = False,
        scheduling_strategy: str | None = None,
    ):
        """``weighting``: "bm25f" (default) | "tfidf" | "frequency" |
        "dfree" | "pl2" | "fn" (with ``weighting_fn(field, term, docnum,
        weight) -> score``, the reference's FunctionWeighting hook).
        ``num_actors``: the ray executor's actor count, by default sized
        to the index's postings (:func:`actor_groups`)."""
        self.index_dir = index_dir
        self.manifest = manifest or load_manifest(index_dir)
        if self.manifest is None:
            raise FileNotFoundError(f"no committed manifest in {index_dir}")
        self.B, self.K1 = B, K1
        self.field_B = field_B or {}
        self.weighting = weighting
        self.pl2_c = pl2_c
        self.weighting_fn = weighting_fn
        self.field_weighting = field_weighting or {}
        self.reverse_weighting = reverse_weighting
        self.executor = executor
        # memoized ScoreContext per term-set: the searcher is a SNAPSHOT
        # (manifest + weighting config fixed at construction), so global
        # stats (df/idf/avgfl/cf/fl) for a given term set never change for
        # this object's lifetime; bounded LRU caps driver memory
        self._ctx_cache: OrderedDict = OrderedDict()
        self.fanout = FanoutStats()
        if executor == "ray":
            import ray

            groups = actor_groups(
                self.manifest.segments,
                int(ray.cluster_resources().get("CPU", 4)),
                num_actors,
            )
            # workers are pure snapshot readers over an immutable index:
            # restart re-runs __init__ from the (small, driver-held)
            # constructor args and a resent fan-out returns byte-identical
            # results, so transparent actor restart + resend is safe — a
            # died worker (node loss, OOM kill) costs one fan-out resend,
            # not a failed search (tests/test_fault_injection)
            Actor = ray.remote(max_restarts=4, max_task_retries=4)(_SegmentWorker)
            if scheduling_strategy is not None:
                # e.g. "SPREAD": place segment actors across nodes so a
                # multi-node cluster's aggregate cache/IO is used
                Actor = Actor.options(scheduling_strategy=scheduling_strategy)
            mdict = self.manifest.to_dict()
            self.workers = [Actor.remote(index_dir, mdict, g) for g in groups]
            self._ray = ray
            # one channel per actor, opened on the first fan-out; the
            # addresses are asked for now, so that fan-out does not wait
            # on a second round of set-up
            self._key = secrets.token_bytes(32)
            self._addrs = [w.open_channel.remote(self._key) for w in self.workers]
            self._conns: list = []
            self._chan_lock = threading.Lock()
            weakref.finalize(self, _close_all, self._conns)
        else:
            self.local = _SegmentWorker(
                index_dir, self.manifest.to_dict(), list(range(len(self.manifest.segments)))
            )

    def close(self) -> None:
        """Close this searcher's channels and stop its segment actors now,
        not when it is collected.  Idempotent; a no-op on the local
        executor.  A ray searcher cannot search once closed."""
        if self.executor == "ray":
            with self._chan_lock:
                _close_all(self._conns)
            workers, self.workers = self.workers, []
            for w in workers:
                self._ray.kill(w)

    def __enter__(self) -> "IndexSearcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- global stats ----------------------------------------------------

    def _local_worker(self) -> "_SegmentWorker":
        """An in-process worker over ALL segments (lazily built on the
        ray executor, for the global term statistics and driver-side point
        lookups like doclens)."""
        w = getattr(self, "local", None)
        if w is None:
            w = self.local = _SegmentWorker(
                self.index_dir,
                self.manifest.to_dict(),
                list(range(len(self.manifest.segments))),
            )
        return w

    def term_info_full(self, field: str, term: str) -> dict | None:
        """Merged per-term statistics across segments (reference
        reading.TermInfo: weight/df/max_weight/min+max length/min+max id).
        Driver-side point API over the pinned segment readers (same shape
        as doc_field_length below); every stat is associative so the
        cross-segment merge is exact."""
        out = None
        for r in self._local_worker().readers:
            info = r.terminfo(field, term)
            if info is None:
                continue
            if out is None:
                out = dict(info)
                continue
            out["doc_freq"] += int(info["doc_freq"])
            out["weight_sum"] += float(info["weight_sum"])
            out["max_weight"] = max(out["max_weight"], info["max_weight"])
            out["doc_min"] = min(out["doc_min"], info["doc_min"])
            out["doc_max"] = max(out["doc_max"], info["doc_max"])
            out["min_len_byte"] = min(out["min_len_byte"], info["min_len_byte"])
            out["max_len_byte"] = max(out["max_len_byte"], info["max_len_byte"])
        return out

    def field_length_bounds(self, fieldname: str) -> tuple:
        """(min, max) stored per-doc length of a field across the index
        (reference reader.min_field_length / max_field_length), in the
        same lossy byte quantization the reference stores."""
        from ..functions.quant import BYTE_TO_LENGTH

        lo = hi = None
        for r in self._local_worker().readers:
            lens = r.doclens(fieldname)
            if lens is None:
                continue
            nz = lens[lens > 0]
            if not nz.size:
                continue
            mn, mx = int(nz.min()), int(nz.max())
            lo = mn if lo is None else min(lo, mn)
            hi = mx if hi is None else max(hi, mx)
        if lo is None:
            return (0, 0)
        return (int(BYTE_TO_LENGTH[lo]), int(BYTE_TO_LENGTH[hi]))

    def doc_field_length(self, docnum: int, fieldname: str, default: int = 0) -> int:
        """Stored (quantized) length of one doc's field (reference
        reader.doc_field_length — the reference also answers the lossy
        byte-quantized value)."""
        from ..functions.quant import BYTE_TO_LENGTH

        for r in self._local_worker().readers:
            bases, rows = r._part_bases, r._part_rows
            pi = int(np.searchsorted(bases, docnum, side="right")) - 1
            if pi < 0 or docnum >= bases[pi] + rows[pi]:
                continue  # docnum not in this segment
            lens = r.doclens(fieldname)
            if lens is None:
                continue
            i = int(r._part_cum[pi] + (docnum - bases[pi]))
            if 0 <= i < lens.size and lens[i]:
                return int(BYTE_TO_LENGTH[int(lens[i])])
        return default

    def position_boosts(self, docnum: int, fieldname: str, term: str) -> list:
        """[(position, boost), ...] for one doc/term from the
        PositionBoosts/CharacterBoosts payload (reference
        formats.py:378-388); boosts default to 1.0 when the field stores
        no payload."""
        for r in self._local_worker().readers:
            seg = r.seg
            if seg.doc_base <= docnum < seg.doc_base + seg.doc_count:
                return r.position_boosts(fieldname, term, docnum)
        return []

    def payload(self, docnum: int, fieldname: str, term: str) -> bytes | None:
        """Raw custom-Format posting payload for one doc/term (the
        formats.py plug point — reference custom Format subclass,
        formats.py:51-135).  Decode with the registered Format."""
        for r in self._local_worker().readers:
            seg = r.seg
            if seg.doc_base <= docnum < seg.doc_base + seg.doc_count:
                return r.payload(fieldname, term, docnum)
        return None

    def doc_count_all(self) -> int:
        return self.manifest.doc_count

    def avg_field_length(self, field: str) -> float:
        return self.manifest.avg_field_length(field)

    def doc_frequency(self, field: str, term: str) -> int:
        return self._doc_freqs([(field, term)])[(field, term)]

    def idf(self, field: str, term: str) -> float:
        df = self.doc_frequency(field, term)
        return math.log(self.doc_count_all() / (df + 1)) + 1

    def matched_spans(self, q) -> dict:
        """Per-document span occurrences of a span-expressible query:
        ``{docnum: [(start, end), ...]}`` of token positions — the
        reference matcher protocol's ``m.spans()`` (spans.py Span.start/
        Span.end, asserted throughout reference tests/test_spans.py),
        surfaced as one batch call instead of a cursor walk.  Driver-side
        point API over the pinned segment readers: span payloads are
        per-document position data the caller is about to consume anyway,
        so an actor fan-out would just move the same bytes twice."""
        from ..query import ast as _ast
        from ..query.exec import _POSMASK, _collect_spans, evaluate

        w = self._local_worker()
        excluded = set(w.excluded.tolist()) if w.excluded.size else ()
        out: dict = {}
        for r in w.readers:
            if isinstance(q, (_ast.Or, _ast.And)):
                # plain Union/Intersection matcher spans: sorted union of
                # the children's spans at docs the WHOLE query matches
                # (reference matching/binary.py:555 UnionMatcher.spans /
                # :219 IntersectionMatcher.spans)
                parts = [_collect_spans(r, s) for s in q.subqueries]
                sk = np.concatenate([p[0] for p in parts])
                ek = np.concatenate([p[1] for p in parts])
                docs_ok, _ = evaluate(r, q, None, scored=False)
                keep = np.isin(sk >> np.uint64(32), docs_ok.astype(np.uint64))
                from ..query.exec import _unique_spans

                sk, ek = _unique_spans(sk[keep], ek[keep])
            else:
                sk, ek = _collect_spans(r, q)
            docs = (sk >> np.uint64(32)).astype(np.int64).tolist()
            ss = (sk & _POSMASK).astype(np.int64).tolist()
            es = (ek & _POSMASK).astype(np.int64).tolist()
            for d, s, e in zip(docs, ss, es):
                if d in excluded:
                    continue
                out.setdefault(d, []).append((s, e))
        return out

    # Global term statistics come from the driver's shared readers, which
    # read only terminfo row groups, so a search's one actor fan-out is its
    # evaluation.  Doc frequencies count deleted docs, like the reference's.

    def _doc_freqs(self, terms: list) -> dict:
        out: dict = {}
        for r in self._local_worker().readers:
            for f, t in terms:
                out[(f, t)] = out.get((f, t), 0) + r.doc_frequency(f, t)
        return out

    def frequencies(self, terms: list) -> dict:
        """Total term weight (reference reader.frequency) per (field, term)."""
        out: dict = {}
        for r in self._local_worker().readers:
            for f, t in terms:
                info = r.terminfo(f, t)
                if info:
                    out[(f, t)] = out.get((f, t), 0.0) + float(info["weight_sum"])
        return out

    def _expand(self, specs: list) -> dict:
        """specs: list of (field, start, end, startexcl, endexcl) -> the
        sorted terms of the whole index in that range."""
        readers = self._local_worker().readers
        return {s: sorted(set().union(*(r.expand_terms(*s) for r in readers))) for s in specs}

    def _term_stats(self, field: str, prefix: str = "") -> dict:
        """{term: (weight_sum, doc_freq)} summed over every segment."""
        out: dict = {}
        for r in self._local_worker().readers:
            for term, (w, df) in r.terminfo_prefix(field, prefix).items():
                ow, odf = out.get(term, (0, 0))
                out[term] = (ow + w, odf + df)
        return out

    def lexicon(self, field: str, prefix: str = "") -> list:
        """Sorted terms of a field (reference reader.lexicon /
        iter_prefix)."""
        return sorted(self._term_stats(field, prefix))

    def most_frequent_terms(self, field: str, number: int = 5, prefix: str = "") -> list:
        """Top (total weight, term) pairs (reference reading.py:545-554)."""
        import heapq

        stats = self._term_stats(field, prefix)
        return heapq.nlargest(number, ((w, t) for t, (w, _) in stats.items()))

    def most_distinctive_terms(self, field: str, number: int = 5, prefix: str = "") -> list:
        """Top (tf·idf, term) pairs with idf = log(N/df) (reference
        reading.py:556-566)."""
        import heapq

        N = float(self.doc_count_all())
        stats = self._term_stats(field, prefix)
        return heapq.nlargest(
            number, ((w * math.log(N / df), t) for t, (w, df) in stats.items() if df)
        )

    # ---- spelling / key-term expansion -----------------------------------

    def spelling_fieldname(self, field: str) -> str:
        """Field to draw suggestions from (reference
        FieldType.spelling_fieldname, fields.py:306-314): the parallel
        unstemmed "spell_<field>" vocabulary when the schema declared
        ``spelling=True`` on a morphing analyzer."""
        spec = self.manifest.schema.by_name.get(field)
        if (
            spec is not None
            and getattr(spec, "spelling", False)
            and spec.analyzer is not None
            and (spec.analyzer.stemmer or spec.analyzer.kind == "stemming")
        ):
            return f"spell_{field}"
        return field

    def suggest(self, field: str, text: str, limit: int = 5, maxdist: int = 2, prefix: int = 0):
        from ..query.suggest import suggest as _suggest

        return _suggest(
            self, self.spelling_fieldname(field), text,
            limit=limit, maxdist=maxdist, prefix=prefix,
        )

    def correct_query(
        self, q, qstring, correctors=None, terms=None, maxdist=2, prefix=0, aliases=None
    ):
        """'Did you mean' (reference Searcher.correct_query): returns a
        Correction whose .query/.string replace out-of-vocabulary words
        with their top suggestion."""
        from ..query.suggest import correct_query as _cq

        return _cq(
            self, q, qstring, correctors=correctors, terms=terms,
            maxdist=maxdist, prefix=prefix, aliases=aliases,
        )

    def key_terms(self, docnums, fieldname, numterms=5, model=None, normalize=True):
        from ..query import expand

        return expand.key_terms(
            self, docnums, fieldname, numterms=numterms,
            model=model or expand.Bo1Model, normalize=normalize,
        )

    def key_terms_from_text(self, fieldname, text, numterms=5, model=None, normalize=True):
        from ..query import expand

        return expand.key_terms_from_text(
            self, fieldname, text, numterms=numterms,
            model=model or expand.Bo1Model, normalize=normalize,
        )

    def vector(self, docnum: int, fieldname: str) -> list:
        """Per-doc (term, weight) pairs sorted by term — the reference's
        ``vector_as("weight", docnum, field)``.  Derived by re-analyzing the
        source row (the source parquet IS the forward index; nothing extra
        is stored)."""
        from collections import Counter

        from ..functions.analysis import make_analyzer
        from ..sources.corpus import fetch_rows

        spec = next(f for f in self.manifest.schema.fields if f.name == fieldname)
        rows = fetch_rows(self.manifest.partitions, [docnum], columns=[fieldname])
        text = rows[fieldname][0].as_py() or ""
        toks = make_analyzer(spec.analyzer)(text)
        ctr = Counter(t for t, _ in toks)
        return sorted((t, float(c * spec.boost)) for t, c in ctr.items())

    def more_like(self, docnum, fieldname, limit=10, numterms=5, model=None):
        from ..query import expand

        return expand.more_like(
            self, docnum, fieldname, limit=limit, numterms=numterms,
            model=model or expand.Bo1Model,
        )

    # ---- query rewrite (global multiterm expansion) ----------------------

    def _rewrite(self, q: ast.Query) -> ast.Query:
        """Expand Prefix/Wildcard/TermRange into Or-of-Terms using the GLOBAL
        vocabulary so IDF is consistent across segments (the reference
        computes idf on the top-level searcher, scoring.py:314-325)."""
        import re as _re

        from ..query.exec import _wildcard_to_regex

        if isinstance(q, ast.Term):
            # Term over a COLUMNAR field (reference fields convert the
            # value to sortable terms; our columnar layout answers it as
            # an equality predicate): Term("price", 50) etc.
            spec = self.manifest.schema.by_name.get(q.field)
            if spec is not None and not spec.indexed:
                if spec.kind == "numeric":
                    text = q.text
                    if isinstance(text, bytes):
                        text = text.decode("utf-8", "replace")
                    try:
                        dp = getattr(spec, "decimal_places", 0)
                        if dp:
                            from ..schema import decimal_to_sortable

                            v = decimal_to_sortable(text, dp)
                        elif getattr(spec, "numtype", "int") == "float":
                            v = float(text)
                        else:
                            v = int(text)
                    except (ValueError, ArithmeticError):
                        # unparseable numeric value matches nothing — the
                        # reference's to_bytes failure yields a NullMatcher
                        # (ref tests/test_queries.py test_issue_355)
                        return ast.Or([])
                    return ast.NumericRange(q.field, v, v, boost=q.boost)
                if spec.kind == "datetime":
                    v = q.text
                    if isinstance(v, str):
                        from ..query.parser import _datetime_bounds

                        b = _datetime_bounds(v)
                        if b is None:
                            return ast.Or([])
                        return ast.NumericRange(
                            q.field, b[0], b[1], boost=q.boost
                        )
                    # datetime object equality (reference DATETIME
                    # to_bytes on the value): exact-µs range
                    return ast.NumericRange(q.field, v, v, boost=q.boost)
                if spec.kind == "boolean":
                    t = q.text
                    if isinstance(t, str):
                        t = t.lower() in ("true", "yes", "t", "1", "on")
                    return ast.ColumnQuery(q.field, bool(t), boost=q.boost)
            return q
        if isinstance(q, ast.Prefix):
            spec = (q.field, q.text, q.text + "￿", False, False)
            terms = self._expand([spec])[spec]
            return self._multiterm(
                q.field, terms, q.boost,
                getattr(q, "constantscore", True),
            )
        if isinstance(q, ast.Wildcard):
            m = _re.match(r"[^*?\[]*", q.pattern)
            prefix = m.group(0)
            if prefix == q.pattern:
                return ast.Term(q.field, q.pattern, boost=q.boost)
            spec = (
                q.field,
                prefix or None,
                (prefix + "￿") if prefix else None,
                False,
                False,
            )
            cands = self._expand([spec])[spec]
            rex = _re.compile(_wildcard_to_regex(q.pattern))
            return self._multiterm(
                q.field, [t for t in cands if rex.fullmatch(t)], q.boost,
                getattr(q, "constantscore", True),
            )
        if isinstance(q, ast.TermRange):
            spec = (q.field, q.start, q.end, q.startexcl, q.endexcl)
            terms = self._expand([spec])[spec]
            return self._multiterm(q.field, terms, q.boost, q.constantscore)
        if isinstance(q, ast.Regex):
            # reference Regex.matcher (query/terms.py:410-418): '.*' is
            # Every; otherwise prefix-pruned vocab scan + re.match filter
            if q.text == ".*":
                return ast.Every(q.field)
            prefix = _regex_prefix(q.text)
            spec = (
                q.field, prefix or None,
                (prefix + "￿") if prefix else None, False, False,
            )
            cands = self._expand([spec])[spec]
            rex = _re.compile(q.text)
            return self._multiterm(
                q.field, [t for t in cands if rex.match(t)], q.boost,
                getattr(q, "constantscore", True),
            )
        if isinstance(q, ast.FuzzyTerm):
            from ..query.suggest import levenshtein_within

            pre = q.text[: q.prefixlength]
            spec = (q.field, pre or None, (pre + "\uffff") if pre else None, False, False)
            cands = self._expand([spec])[spec]
            terms = [t for t in cands if levenshtein_within(q.text, t, q.maxdist)]
            return self._multiterm(q.field, terms, q.boost, q.constantscore)
        if isinstance(q, ast.Variations):
            from ..query.variations import variations as _vars

            cands = sorted(_vars(q.text))
            dfs = self._doc_freqs([(q.field, t) for t in cands])
            terms = [t for t in cands if dfs.get((q.field, t), 0) > 0]
            # ExpandingTerm = MultiTerm with constantscore=False: scored Or
            # of the existing variant terms; single expansion drops the
            # boost like the reference's single-term matcher (terms.py:409)
            if not terms:
                return ast.Or([])
            if len(terms) == 1:
                return ast.Term(q.field, terms[0])
            return ast.Or([ast.Term(q.field, t) for t in terms], boost=q.boost)
        if isinstance(q, ast.NumericRange):
            # NUMERIC(Decimal, decimal_places=n): every user/parser value
            # enters the stored int64 domain scaled by 10^n (the reference
            # converts all query values through NUMERIC.to_bytes)
            spec = self.manifest.schema.by_name.get(q.field)
            dp = getattr(spec, "decimal_places", 0) if spec is not None else 0
            if dp and spec.kind == "numeric":
                from ..schema import decimal_to_sortable

                return ast.NumericRange(
                    q.field,
                    None if q.start is None else decimal_to_sortable(q.start, dp),
                    None if q.end is None else decimal_to_sortable(q.end, dp),
                    startexcl=q.startexcl,
                    endexcl=q.endexcl,
                    boost=q.boost,
                )
            return q
        if isinstance(q, ast.NestedChildren):
            return self._rewrite_nested_children(q)
        if isinstance(q, ast.NestedParent):
            return self._rewrite_nested_parent(q)
        # recurse
        if isinstance(q, (ast.And, ast.Or, ast.DisMax)):
            subs = [self._rewrite(s) for s in q.subqueries]
            kw = {"tiebreak": q.tiebreak} if isinstance(q, ast.DisMax) else {}
            if isinstance(q, ast.Or):
                kw = {"scale": q.scale, "minmatch": q.minmatch}
            return type(q)(subs, boost=q.boost, **kw)
        if isinstance(q, ast.Not):
            return ast.Not(self._rewrite(q.subquery), boost=q.boost)
        if isinstance(q, (ast.AndNot, ast.AndMaybe, ast.Require, ast.Otherwise)):
            return type(q)(self._rewrite(q.a), self._rewrite(q.b), boost=q.boost)
        return q

    def _rewrite_nested_children(self, q: ast.NestedChildren) -> ast.Query:
        """Resolve NestedChildren to a DocSet: for each WANTED parent w
        (matching ``q.child``), the children are docnums in
        [w+1, next_parent_after(w+1)) — the reference NestedChildMatcher's
        interval walk (nested.py:283-360), vectorized over the global
        parent comb.  Needs whole-index docnum arithmetic (blocks can
        straddle segment boundaries), hence a searcher-level rewrite; the
        resulting DocSet intersects each segment's doc space during
        fan-out.  Scores are constant 1.0·boost (the reference forwards
        its already-advanced parent matcher's score — a cursor quirk we
        do not reproduce; see TODO.md)."""
        parents = storage.as_numpy(self.search(q.parents, limit=None, scored=False)["docnum"])
        wanted = storage.as_numpy(self.search(q.child, limit=None, scored=False)["docnum"])
        N = np.uint64(self.manifest.doc_count)
        if parents.size == 0 or wanted.size == 0:
            return ast.DocSet(np.empty(0, np.uint64), boost=q.boost)
        lo = wanted + np.uint64(1)
        nxt = np.searchsorted(parents, lo, side="right")
        hi = np.where(nxt < parents.size, parents[np.minimum(nxt, parents.size - 1)], N)
        lens = (hi - lo).astype(np.int64)
        keep = lens > 0
        lo, lens = lo[keep], lens[keep]
        if lo.size == 0:
            return ast.DocSet(np.empty(0, np.uint64), boost=q.boost)
        seg_starts = np.cumsum(lens) - lens
        flat = np.repeat(lo.astype(np.int64) - seg_starts, lens) + np.arange(
            int(lens.sum()), dtype=np.int64
        )
        return ast.DocSet(np.unique(flat).astype(np.uint64), boost=q.boost)

    def _rewrite_nested_parent(self, q: ast.NestedParent) -> ast.Query:
        """Resolve NestedParent to a ScoredDocSet: for each matching child
        doc, the result doc is the greatest ``parents`` match <= child
        docnum, scored by ``score_fn`` over its (first ``per_parent_limit``,
        in docnum order) children's scores — the reference
        NestedParentMatcher's _gather loop (nested.py:139-176), vectorized
        over the global parent comb.  Whole-index docnum arithmetic (blocks
        straddle segments) => searcher-level rewrite; the node then
        composes inside And/Or/collectors like any other."""
        parents = storage.as_numpy(self.search(q.parents, limit=None, scored=False)["docnum"])
        child_res = self.search(q.child, limit=None, scored=True)
        docs = storage.as_numpy(child_res["docnum"])
        scores = storage.as_numpy(child_res["score"])
        empty = (np.empty(0, np.uint64), np.empty(0, np.float64))
        if parents.size == 0 or docs.size == 0:
            return ast.ScoredDocSet(*empty, boost=q.boost)
        # children in docnum order (search returns (-score, doc) order; the
        # per-parent limit counts children in DOC order, nested.py:159-171)
        order = np.argsort(docs)
        docs, scores = docs[order], scores[order]
        pidx = np.searchsorted(parents, docs, side="right") - 1
        keep = pidx >= 0  # children before the first parent are dropped
        docs, scores, pidx = docs[keep], scores[keep], pidx[keep]
        if docs.size == 0:
            return ast.ScoredDocSet(*empty, boost=q.boost)
        starts = np.flatnonzero(np.r_[True, pidx[1:] != pidx[:-1]])
        if q.per_parent_limit:
            rank = np.arange(pidx.size) - np.repeat(
                starts, np.diff(np.r_[starts, pidx.size])
            )
            m = rank < q.per_parent_limit
            docs, scores, pidx = docs[m], scores[m], pidx[m]
            starts = np.flatnonzero(np.r_[True, pidx[1:] != pidx[:-1]])
        if q.score_fn == "max":
            pscores = np.maximum.reduceat(scores, starts)
        elif q.score_fn == "min":
            pscores = np.minimum.reduceat(scores, starts)
        elif q.score_fn == "mean":
            counts = np.diff(np.r_[starts, pidx.size])
            pscores = np.add.reduceat(scores, starts) / counts
        else:  # sum (reference default)
            pscores = np.add.reduceat(scores, starts)
        pdocs = parents[pidx[starts]].astype(np.uint64)
        return ast.ScoredDocSet(pdocs, pscores.astype(np.float64), boost=q.boost)

    # matcher-selection thresholds from the reference (compound.py:282,
    # 334-345): < TOO_MANY_CLAUSES terms AND (2 terms or doc_count > 5000)
    # -> real scored Or; otherwise the preloaded array matcher, which for
    # constant-score multiterm queries pins every score to exactly 1.
    TOO_MANY_CLAUSES = 1024

    def _multiterm(self, field: str, terms: list, boost: float,
                   constantscore: bool = True) -> ast.Query:
        """Rewrite an expanded Prefix/Wildcard/TermRange per the
        reference's matcher selection (terms.py:215-241): one term ->
        plain Term (boost DROPPED — reference MultiTerm.matcher builds the
        single term without boost, terms.py:409); constantscore=False ->
        scored Or of the terms (the reference never nulls the weighting
        then); constantscore=True -> scored Or only where the reference's
        union would still surface real weights (2 terms or doc_count >
        5000, compound.py:334-345), else the array matcher pinning every
        score to exactly 1."""
        n = len(terms)
        if n == 0:
            return ast.Or([])
        if n == 1:
            return ast.Term(field, terms[0])
        if not constantscore and n < self.TOO_MANY_CLAUSES:
            return ast.Or([ast.Term(field, t) for t in terms], boost=boost)
        if n < self.TOO_MANY_CLAUSES and (n == 2 or self.doc_count_all() > 5000):
            return ast.Or([ast.Term(field, t) for t in terms], boost=boost)
        return ast.ConstantTerms(field, terms)

    def _context(self, q: ast.Query) -> ScoreContext:
        terms = sorted(set(q.terms()))
        ckey = tuple(terms)
        ctx = self._ctx_cache.get(ckey)
        if ctx is not None:
            self._ctx_cache.move_to_end(ckey)
            return ctx
        dfs = self._doc_freqs(terms) if terms else {}
        N = self.doc_count_all()
        idf = {k: math.log(N / (df + 1)) + 1 for k, df in dfs.items()}
        avgfl = {
            f.name: self.manifest.avg_field_length(f.name) or 1
            for f in self.manifest.schema.scorable_fields
        }
        cf = fl = None
        models = {self.weighting, *self.field_weighting.values()}
        if models & {"dfree", "pl2"}:
            cf = self.frequencies(terms) if terms else {}
            fl = {
                f.name: self.manifest.field_length(f.name)
                for f in self.manifest.schema.scorable_fields
            }
        ctx = ScoreContext(
            N, avgfl, idf, B=self.B, K1=self.K1, field_B=self.field_B,
            model=self.weighting, cf=cf, fl=fl,
            pl2_c=self.pl2_c, user_fn=self.weighting_fn,
            field_models=self.field_weighting, reverse=self.reverse_weighting,
        )
        self._ctx_cache[ckey] = ctx
        if len(self._ctx_cache) > 512:
            self._ctx_cache.popitem(last=False)
        return ctx

    # ---- search ----------------------------------------------------------

    def search(
        self,
        q: ast.Query,
        limit: int | None = 10,
        scored: bool = True,
        filter: ast.Query | None = None,
        mask: ast.Query | None = None,
        timelimit: float | None = None,
    ) -> pa.Table:
        """Top-`limit` (or all, limit=None) matches as an Arrow table
        (docnum:uint64, score:float64) ordered by (-score, docnum).

        ``filter`` restricts results to docs matching it; ``mask`` excludes
        docs matching it (reference search(filter=..., mask=...)); scores
        are unaffected.  ``timelimit`` (seconds) raises
        :class:`TimeLimitExceeded` with partial results if evaluation runs
        over budget (each worker checks the deadline between its segments,
        like the reference's matcher-step checks)."""
        deadline = None if timelimit is None else time.time() + timelimit
        allowed = forbidden = None
        # in docnum order: workers filter by sorted search (_sorted_isin)
        if filter is not None:
            allowed = np.sort(storage.as_numpy(self.search(filter, limit=None, scored=False)["docnum"]))
        if mask is not None:
            forbidden = np.sort(storage.as_numpy(self.search(mask, limit=None, scored=False)["docnum"]))
        q = self._rewrite(q)
        ctx = self._context(q)
        res, complete = self._partials(
            "evaluate", q, ctx, limit, scored, allowed, forbidden, deadline,
            merge=lambda parts: (
                self._format_results(
                    np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]),
                    limit,
                ),
                all(p[2] for p in parts),
            ),
        )
        if not complete:
            raise TimeLimitExceeded(res)
        return res

    def _format_results(self, docs, scores, limit) -> pa.Table:
        n = docs.size
        if limit is not None and n > max(64, 4 * limit):
            # partition prefilter before the two-key lexsort: every
            # score-tie at the kth boundary survives, so tie-breaks stay
            # exact (same trick as wand._topk_cut, but rank-ordered here)
            kth = np.partition(scores, n - limit)[n - limit]
            cand = np.flatnonzero(scores >= kth)
            docs, scores = docs[cand], scores[cand]
        order = np.lexsort((docs, -scores))
        if limit is not None:
            order = order[:limit]
        return pa.table(
            {
                "docnum": storage.from_numpy(docs[order].astype(np.uint64, copy=False)),
                "score": storage.from_numpy(scores[order].astype(np.float64, copy=False)),
            }
        )

    # ---- sorting / faceting / collapse -----------------------------------
    # Mirrors the reference's SortingCollector (collectors.py:536-583),
    # FacetCollector group maps (collectors.py:764-851, sorting.py:950-1076)
    # and CollapseCollector (collectors.py:854-1009) over our columnar
    # source fields (sort/facet values are native Parquet columns — the
    # reference builds per-segment column caches for the same purpose).

    def _doc_values(self, field: str, docnums: np.ndarray) -> np.ndarray:
        """Field values aligned to the given SORTED docnums, fetched from
        the owning segments' columns."""
        parts = [p for p in self._partials("doc_values", field, docnums) if p[0].size]
        if not parts:
            return np.empty(0, dtype=object)
        docs = np.concatenate([p[0] for p in parts])
        vals = np.concatenate([p[1] for p in parts])
        return vals[np.argsort(docs, kind="stable")]

    def _partials(self, method: str, *args, merge=None):
        """Run one ``_SegmentWorker`` method on every worker and return the
        list of partials, or ``merge(partials)`` when ``merge`` is given.
        On the ray executor ``(method, args)`` is pickled once into one
        message, and each actor gets one ``_SegmentWorker.call`` with it
        over its channel (``_fanout``).  The local executor makes one
        in-process call.  Every worker operation goes through here, so
        this is the one place that knows the executor; each fan-out and
        its CPU split are counted in ``self.fanout``."""
        t0 = time.perf_counter()
        c0 = time.process_time()
        if self.executor == "ray":
            if not self.workers:
                raise RuntimeError(
                    f"no segment actors on {self.index_dir}: the searcher is "
                    "closed or the index has no segments"
                )
            msg = self._ray.cloudpickle.dumps((method, args))
            nbytes = len(msg)
            c1 = time.process_time()
            replies = self._fanout(msg)
            c2 = time.process_time()
            parts = [r[0] for r in replies]
            splits = [r[1] for r in replies]
            pack, wait = c1 - c0, c2 - c1
        else:
            nbytes = 0
            parts = [getattr(self.local, method)(*args)]
            c2 = time.process_time()
            # the in-process call is the worker's CPU, not the driver's
            splits = [(0.0, c2 - c0, c2 - c0)]
            pack = wait = 0.0
        t1 = time.perf_counter()
        out = parts if merge is None else merge(parts)
        driver = (pack, wait, time.process_time() - c2)
        self.fanout.add(len(parts), nbytes, t1 - t0, driver, splits)
        return out

    def _fanout(self, msg: bytes) -> list:
        """Each actor's ``call(msg)`` result, in actor order.  Under the
        searcher's lock ``msg`` goes to every actor before any reply is
        read, so the actors run in parallel and threads that share the
        searcher never read each other's replies.

        A lost channel (an actor died or was restarted) closes every
        channel, asks each actor for its address again through Ray, which
        waits for a restarted actor and raises ``RayActorError`` for a dead
        one, and resends the whole fan-out (reads are idempotent), at most
        ``FANOUT_RETRIES`` times.  An exception raised in an actor is raised
        here with its own type, once every reply is read."""
        with self._chan_lock:
            for attempt in range(FANOUT_RETRIES + 1):
                try:
                    if not self._conns:
                        for addr in self._ray.get(self._addrs):
                            conn = Client(addr, authkey=self._key)
                            _nodelay(conn)
                            self._conns.append(conn)
                    for conn in self._conns:
                        conn.send_bytes(msg)
                    replies = [pickle.loads(conn.recv_bytes()) for conn in self._conns]
                    break
                except (EOFError, OSError):
                    _close_all(self._conns)
                    if attempt == FANOUT_RETRIES:
                        raise
                    self._addrs = [w.open_channel.remote(self._key) for w in self.workers]
                except BaseException:
                    _close_all(self._conns)  # replies may be left unread
                    raise
        for ok, out in replies:
            if not ok:
                raise out
        return [out for _, out in replies]

    def search_sorted(
        self, q: ast.Query, sortedby, limit: int | None = None, reverse: bool = False
    ) -> pa.Table:
        """Matches ordered by field value(s) (reference ``sortedby``):
        ascending, ties by ascending docnum; ``reverse`` flips the whole
        ordering (including the docnum tiebreak, matching the reference's
        key-reversal).  Distributed: each worker sorts + truncates its own
        matches against its segment columns; the driver merges at most
        n_workers x limit rows."""
        fieldlist, flags = _split_sort_spec(sortedby)
        q = self._rewrite(q)
        ctx = self._context(q)
        parts = self._partials(
            "sorted_partial", q, ctx, fieldlist, limit, reverse, flags
        )
        docs = np.concatenate([p["docnum"] for p in parts])
        cols = {f: np.concatenate([p[f] for p in parts]) for f in fieldlist}
        order = _sorted_order(docs, cols, fieldlist, flags, reverse, limit)
        out = {"docnum": storage.from_numpy(docs[order].astype(np.uint64, copy=False))}
        for f in fieldlist:
            out[f] = storage.from_numpy(cols[f][order])
        return pa.table(out)

    def search_grouped(
        self,
        q: ast.Query,
        groupedby,
        limit: int | None = None,
        maptype: str = "ordered",
    ):
        """Scored search + ``results.groups()`` (reference FacetCollector +
        facet maps, sorting.py:950-1076).  ``groupedby`` may be one field
        or a list (the reference's MultiFacet — keys become tuples).
        ``maptype``: "ordered" -> {key: [docnum, ...]} in score order
        (OrderedList); "count" -> {key: n} (Count); "best" -> {key: docnum
        of the highest-scoring hit} (Best).

        With ``limit`` the groups cover only the global top-``limit`` docs
        (the reference's collector sees only collected docs).  Without it,
        workers reduce ALL their matches locally (count/best partials are
        key-bounded; "ordered" output is inherently match-sized)."""
        fieldlist = [groupedby] if isinstance(groupedby, str) else list(groupedby)
        if limit is not None:
            # bounded: group the global top-limit docs
            res = self.search(q, limit=limit)
            docs = storage.as_numpy(res["docnum"])
            sorted_docs = np.sort(docs)
            cols = [self._doc_values(f, sorted_docs) for f in fieldlist]
            if len(fieldlist) == 1:
                keys = dict(zip(sorted_docs.tolist(), cols[0].tolist()))
            else:
                keys = dict(zip(sorted_docs.tolist(), zip(*(c.tolist() for c in cols))))
            groups: dict = {}
            for d in docs.tolist():  # docs are in (-score, doc) order
                k = keys[d]
                if maptype == "count":
                    groups[k] = groups.get(k, 0) + 1
                elif maptype == "best":
                    groups.setdefault(k, d)
                else:
                    groups.setdefault(k, []).append(d)
            return groups
        q = self._rewrite(q)
        ctx = self._context(q)
        parts = self._partials("grouped_partial", q, ctx, fieldlist, maptype)
        if maptype == "count":
            groups = _sum_partials(parts)
        elif maptype == "best":
            merged: dict = {}
            for p in parts:
                for k, cand in p.items():
                    cur = merged.get(k)
                    if cur is None or tuple(cand) < tuple(cur):
                        merged[k] = tuple(cand)
            groups = {k: int(doc) for k, (_, doc) in merged.items()}
        else:  # ordered: global (-score, docnum) order per key
            acc: dict = {}
            for p in parts:
                for k, pairs in p.items():
                    acc.setdefault(k, []).extend(pairs)
            groups = {
                k: [int(d) for _, d in sorted(pairs, key=lambda sd: (-sd[0], sd[1]))]
                for k, pairs in acc.items()
            }
        return groups

    def search_with_collector(self, q: ast.Query, collector):
        """Run a custom :class:`~whoosh_reloaded_ray.query.collectors.
        VectorCollector` (reference ``Searcher.search_with_collector``,
        searching.py:718-740, re-expressed as distributed segment
        partials): ``collector.collect`` runs inside each segment worker,
        ``collector.combine`` merges the bounded partials on the driver.
        Returns ``combine``'s result."""
        q = self._rewrite(q)
        ctx = self._context(q)
        parts = self._partials("collector_partials", collector, q, ctx)
        return collector.combine([p for worker in parts for p in worker])

    def facet_counts(self, q: ast.Query, field: str) -> dict:
        """{facet value: matching doc count} (reference Count facet map) —
        per-segment np.unique partials, key-bounded driver merge."""
        q = self._rewrite(q)
        ctx = self._context(q)
        return _sum_partials(self._partials("facet_partial", q, ctx, field, "count", None))

    def facet_counts_range(
        self, q: ast.Query, field: str, start, end, gap
    ) -> dict:
        """{(bucket_lo, bucket_hi): matching doc count} over numeric OR
        datetime buckets [start + i*gap, start + (i+1)*gap) — the
        reference's RangeFacet / DateRangeFacet + Count map
        (sorting.py:414-483; values outside [start, end) fall in the
        missing bucket, omitted here).  For datetimes pass
        datetime/np.datetime64 bounds and a timedelta gap.  Bucketing
        happens segment-side; the driver merges bucket counts."""
        is_dt = (
            isinstance(start, np.datetime64)
            or hasattr(start, "toordinal")
            or any(
                f.name == field and getattr(f, "kind", None) == "datetime"
                for f in self.manifest.schema.fields
            )
        )
        if is_dt:
            lo = int(np.datetime64(start, "us").astype(np.int64))
            hi = int(np.datetime64(end, "us").astype(np.int64))
            g = int(np.timedelta64(gap, "us").astype(np.int64))
        else:
            lo, hi, g = start, end, gap
        q = self._rewrite(q)
        ctx = self._context(q)
        counts = _sum_partials(self._partials(
            "facet_partial", q, ctx, field, "range", (lo, hi, g, is_dt)
        ))
        if is_dt:
            return {
                (
                    np.datetime64(int(lo + int(i) * g), "us"),
                    np.datetime64(int(lo + (int(i) + 1) * g), "us"),
                ): int(c)
                for i, c in sorted(counts.items())
            }
        return {
            (lo + int(i) * g, lo + (int(i) + 1) * g): int(c)
            for i, c in sorted(counts.items())
        }

    def search_collapsed(
        self, q: ast.Query, collapse: str, limit: int | None = 10,
        collapse_limit: int = 1, collapse_order=None,
    ) -> pa.Table:
        """Top-`limit` after keeping at most ``collapse_limit`` best-scoring
        docs per collapse-key (reference CollapseCollector semantics: lower
        ranked duplicates beyond the per-key budget are removed).

        Distributed: workers pre-filter to their per-key top
        ``collapse_limit`` (associative), the driver re-ranks the merged
        candidates — at most n_keys x collapse_limit x n_workers rows."""
        q = self._rewrite(q)
        ctx = self._context(q)
        parts = self._partials(
            "collapse_partial", q, ctx, collapse, collapse_limit, collapse_order
        )
        docs = np.concatenate([p["docnum"] for p in parts])
        scores = np.concatenate([p["score"] for p in parts])
        keys = np.concatenate([p["key"] for p in parts])
        if collapse_order is not None:
            ovals = np.concatenate([p["oval"] for p in parts])
            kept = _SegmentWorker._collapse_rank_keep(
                keys, docs, scores, collapse_limit, ovals, collapse_order[1]
            )
        else:
            kept = _SegmentWorker._collapse_rank_keep(keys, docs, scores, collapse_limit)
        sub_docs, sub_scores = docs[kept], scores[kept]
        order = np.lexsort((sub_docs, -sub_scores))
        if limit is not None:
            order = order[:limit]
        return pa.table(
            {
                "docnum": storage.from_numpy(sub_docs[order].astype(np.uint64, copy=False)),
                "score": storage.from_numpy(sub_scores[order].astype(np.float64, copy=False)),
            }
        )

    def parent_search(
        self, q: ast.Query, parent_field: str = "conv_id", limit: int | None = None
    ) -> pa.Table:
        """Block-join analog of the reference's NestedParent (nested.py:33-
        231) for the transcripts layout: the PARENT is the conversation
        (grouping key column), children are its turns.  Returns one row per
        parent with a matching child: (parent, score=max child score,
        n_children=matching turns), ordered by (-score, parent) — the
        reference's default best-child scoring.  Workers aggregate
        (max score, count) per parent locally; the driver merge is
        key-bounded."""
        q = self._rewrite(q)
        ctx = self._context(q)
        agg: dict = {}
        for p in self._partials("parent_partial", q, ctx, parent_field):
            for k, (s, n) in p.items():
                cur = agg.get(k)
                if cur is None:
                    agg[k] = (s, n)
                else:
                    agg[k] = (max(cur[0], s), cur[1] + n)
        items = sorted(agg.items(), key=lambda kv: (-kv[1][0], kv[0]))
        if limit is not None:
            items = items[:limit]
        return pa.table(
            {
                parent_field: storage.from_numpy(np.array([k for k, _ in items], dtype=object)),
                "score": storage.from_numpy(np.array([v[0] for _, v in items], np.float64)),
                "n_children": storage.from_numpy(np.array([v[1] for _, v in items], np.int64)),
            }
        )

    def search_with_fields(self, q, limit=10, columns=None) -> pa.Table:
        """search() + stored fields fetched from the source parquet via the
        manifest's partition lineage (the index stores no doc content)."""
        from ..sources.corpus import fetch_rows

        res = self.search(q, limit=limit)
        if res.num_rows == 0:
            return res
        rows = fetch_rows(self.manifest.partitions, res["docnum"].to_pylist(), columns=columns)
        rows = rows.sort_by("docnum")
        res = res.sort_by("docnum")
        joined = res.join(rows, keys="docnum") if rows is not None else res
        order = np.lexsort(
            (storage.as_numpy(joined["docnum"]), -storage.as_numpy(joined["score"]))
        )
        return joined.take(storage.from_numpy(order))
