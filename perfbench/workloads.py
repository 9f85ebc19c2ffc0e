"""The benchmark's workloads: ``search_served`` and ``ingest``.

Every workload generates its corpus with ``sources.corpus.generate_transcripts``
from the run's seed (outside any timed region), drives the engine's public
API from one closed-loop client thread, and checks what the engine returned
against the brute-force oracle.

``search_served`` sends warm, cached queries through the Ray actor-pool
executor, so fan-out and scoring dominate; ``ingest`` writes and queries
searchers opened on just-written segments, so first-touch posting reads
dominate its queries and only it runs the write and merge layers.

The query traffic is modelled on what the repository already has, not on
measured traffic: query words are drawn with the Zipf exponent
``generate_transcripts`` draws corpus words with, and the query kinds are
those of ``bench.py``'s query set (``_query_set``), one of each in turn.

Set-up is the same for both: SETUP_REPS times, a fresh two-segment
``build_index`` of the corpus, a searcher opened on it, and its warm-up
queries answered.  The first repetition also starts the Ray worker pool
and runs slow; a median of three rides over it.  ``search_served`` runs a
third of its timed loop after each repetition; ``ingest`` drives the last
repetition's index.

Each workload reports the same end-to-end metrics.  Every time among them
is scaled to a machine of fixed speed by a reference computation timed
through the run (speed.py):

- ``setup_s``: median set-up repetition.
- ``turns_per_s``: turns indexed per second of write-call wall time
  (``search_served``: the set-up ``build_index`` calls; ``ingest``: each
  ``append_documents`` batch); median over the calls.
- ``index_bytes_per_input_byte``: index directory bytes per byte of UTF-8
  turn text indexed.
- ``query_cpu_mean_ms`` / ``query_cpu_p90_ms``: CPU time of a client
  query, parse + search, in the client process and, on ``search_served``,
  the searcher's actor processes that answer it.  CPU time rather than
  wall-clock latency: the host steals a varying share of the VM's CPU
  time, and on ``ingest`` the Ray session's own worker churn after each
  write competes with the queries; neither counts in a query's CPU time
  (see procs.py).  A mean rather than a median: ``ingest``'s query kinds
  cost 2-3x apart, and the median of their mix jumps from one kind to
  another from seed to seed.
- ``visible_p50_s``: from the write call (the set-up ``build_index``, or
  ``append_documents`` in ``ingest``) until a freshly opened searcher
  returns the written documents.
- ``peak_rss_mb``: peak resident memory of the benchmark process, which is
  the Ray session's client.
"""

from __future__ import annotations

import collections
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import _active, layers
from .oracle import Oracle, check_ranked
from .procs import QueryClock
from .speed import Speed
from .trace import Tracer

CORPUS_TURNS = 8192  # corpus of every workload's starting index
SEGMENT_TURNS = 4096  # -> two segments
PARTITION_ROWS = 2048
NUM_SHARDS = 8
BATCH_TURNS = 512  # ingest append batch
CYCLES_PER_SECOND = 1  # ingest cycles per second of --seconds, whatever the VM speed
INGEST_QUERIES = 32  # queries after each ingest cycle
SERVED_PER_KIND = 1  # search_served's fixed, warmed set: one query of each kind
SETUP_REPS = 3
PROBE_EVERY = 4  # timed queries per sample of the machine's speed
VERIFY_MAX = 48  # oracle-checked queries per run
OVERHEAD_QUERIES = 32  # traced runs: queries timed with and without the tracer
QUERY_ZIPF = 1.1  # generate_transcripts draws corpus words with this exponent
GOLDEN = (5 ** 0.5 - 1) / 2
LIMIT = 10
# bench.py's _query_set kinds in its order, one of each in turn, without the
# four the oracle cannot take as query strings: dismax and sequence have no
# query-string syntax, fuzzy's is off by default, and the numeric range is
# on turn_idx, not text.  Words per query as there: AND 2, OR 3, phrase 2.
KIND_CYCLE = ("term", "and", "or", "phrase", "not", "prefix", "wildcard", "range")
# checked as doc sets; the rest as ranked top-k
SET_KINDS = ("phrase", "prefix", "wildcard", "range")
# ingest's queries leave out the multi-word-expansion and phrase kinds: its
# 160 queries per run would otherwise put its mean at the mercy of the tail
RANKED_CYCLE = tuple(k for k in KIND_CYCLE if k not in SET_KINDS)


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


@contextmanager
def _paused():
    """Run checks without recording them as client work."""
    saved = _active.tracer
    _active.tracer = None
    try:
        yield
    finally:
        _active.tracer = saved


class Run:
    """State of one benchmark run: inputs, counters, samples."""

    def __init__(self, work: str, seed: int, seconds: float, tracer: Tracer | None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.latencies: list = []  # wall seconds, parse + search
        self.cpu: list = []  # CPU seconds of the same queries
        self.clock = QueryClock()
        self.speed = Speed()
        self.pending: list = []  # recorded query results awaiting the oracle
        self.ops = 1
        self.extra: dict = {}
        self.query_range = (0, 0)
        self._dirs = 0
        self._t0 = time.perf_counter()

    def log(self, msg: str) -> None:
        _log(f"{time.perf_counter() - self._t0:7.1f}s {msg}")

    def fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        return os.path.join(self.work, f"{tag}-{self._dirs}")

    def attempt(self, fn, *args, **kwargs):
        """Call a client operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None

    def expect(self, ok: bool, what: str) -> None:
        """Count a check of an operation already attempted."""
        self.verified += 1
        if not ok:
            self.failed += 1
            _log(f"check failed: {what}")

    @contextmanager
    def traced(self, keep_range: bool = True):
        """Activate the tracer (if any) around client work; by default the
        spans recorded are the ones the query metrics are taken from."""
        lo = len(self.tracer.spans) if self.tracer else 0
        _active.tracer = self.tracer
        try:
            yield
        finally:
            _active.tracer = None
            if keep_range:
                self.query_range = (lo, len(self.tracer.spans) if self.tracer else 0)

    def replay_build(self, segments) -> None:
        """Traced runs: the build stages over ``segments``, each a list of
        the partitions one segment of the index was built from."""
        if self.tracer is None:
            return
        with self.traced(keep_range=False):
            self.extra.update(layers.replay_build(
                self.tracer, segments, self.fresh_dir("replay"), NUM_SHARDS, per=self.ops,
            ))

    def trace_overhead(self, searcher, qp, texts) -> None:
        """Traced runs: what recording spans adds to a query, measured on
        ``texts``: each is run once to warm, then untraced and traced, in
        alternating order.  Stored as the median of the paired differences,
        in percent of the median untraced latency."""
        if self.tracer is None or searcher is None:
            return
        plain, diffs = [], []
        for i, text in enumerate(texts[:OVERHEAD_QUERIES]):
            searcher.search(qp.parse(text), limit=LIMIT)
            times = {}
            for tracer in (None, self.tracer)[::1 if i % 2 else -1]:
                _active.tracer = tracer
                t0 = time.perf_counter()
                searcher.search(qp.parse(text), limit=LIMIT)
                times[tracer is None] = time.perf_counter() - t0
            _active.tracer = None
            plain.append(times[True])
            diffs.append(times[False] - times[True])
        overhead = statistics.median(diffs) / statistics.median(plain)
        self.extra["trace.overhead_pct"] = 100.0 * overhead


# ---------------------------------------------------------------- inputs ----

def make_corpus(path: str, n_turns: int, seed: int, marker: str | None = None) -> list:
    """Write a generated transcripts corpus; returns its turn texts.  A
    ``marker`` token is appended to every turn (ingest batches)."""
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts

    generate_transcripts(path, n_turns=n_turns, seed=seed, rows_per_file=2048)
    table = pq.read_table(path)
    texts = table["text"].to_pylist()
    if marker is not None:
        texts = [f"{t} {marker}" for t in texts]
        idx = table.schema.get_field_index("text")
        pq.write_table(table.set_column(idx, "text", pa.array(texts)), path)
    return texts


def stopwords_of(texts) -> set:
    """Corpus words the text field's analyzer drops."""
    from whoosh_reloaded_ray.functions.analysis import make_analyzer
    from whoosh_reloaded_ray.schema import transcript_schema

    spec = next(f for f in transcript_schema().fields if f.name == "text").analyzer
    analyze = make_analyzer(spec)
    words = {w for t in texts for w in t.split()}
    return {w for w in words if not analyze(w)}


class QueryStream:
    """Seeded query strings: terms drawn Zipf-skewed over the corpus
    vocabulary ranked by frequency; phrases are adjacent word pairs of a
    random turn; prefixes, wildcards and ranges are made from a drawn word
    ``w`` like bench.py's ``pre*``, ``s?ar*`` and ``[sa TO sc]``: ``w[:3]*``,
    ``w[0]?w[2:4]*`` and ``[w[:3] TO w[:2]+(w[2]+2)]``.  The range is one
    letter deeper than bench.py's, as deep as the prefix: the generator's
    most frequent words share their first two letters, and a two-letter
    range over them expands to most of the corpus's postings.

    Word ranks come from a golden-ratio sequence started at a seeded
    offset, through the Zipf distribution's inverse CDF: a low-discrepancy
    draw, so a run's few hundred words follow the distribution closely
    whatever the seed, and the seed changes which words they are, not how
    many frequent (slow) ones a run gets."""

    def __init__(self, texts: list, stopwords: set, seed, kinds=KIND_CYCLE):
        self.rng = np.random.default_rng(seed)
        self.u = float(self.rng.random())
        self.kinds = kinds
        counts = collections.Counter(w for t in texts for w in t.split())
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        self.vocab = [w for w, _ in ranked if w not in stopwords]
        self.counts = counts
        w = np.cumsum(1.0 / np.arange(1, len(self.vocab) + 1) ** QUERY_ZIPF)
        self.cdf = w / w[-1]
        self.texts = texts
        self.stopwords = stopwords
        self.issued = 0

    def words(self, n: int) -> list:
        out: list = []
        while len(out) < n:
            self.u = (self.u + GOLDEN) % 1.0
            rank = int(np.searchsorted(self.cdf, self.u, side="right"))
            w = self.vocab[min(rank, len(self.vocab) - 1)]
            if w not in out:
                out.append(w)
        return out

    def next(self) -> tuple:
        """(kind, query string, words)."""
        kind = self.kinds[self.issued % len(self.kinds)]
        self.issued += 1
        if kind == "term":
            ws = self.words(1)
            return kind, ws[0], ws
        if kind == "and":
            ws = self.words(2)
            return kind, " AND ".join(ws), ws
        if kind == "or":
            ws = self.words(3)
            return kind, " OR ".join(ws), ws
        if kind == "not":
            ws = self.words(2)
            return kind, f"{ws[0]} AND NOT {ws[1]}", ws
        if kind == "phrase":
            while True:
                toks = [
                    w for w in self.texts[int(self.rng.integers(len(self.texts)))].split()
                    if w not in self.stopwords
                ]
                if len(toks) >= 2:
                    i = int(self.rng.integers(len(toks) - 1))
                    ws = toks[i:i + 2]
                    return kind, '"' + " ".join(ws) + '"', ws
        while True:
            w = self.words(1)[0]
            if len(w) < 4:
                continue
            if kind == "prefix":
                return kind, w[:3] + "*", [w[:3]]
            if kind == "wildcard":
                pattern = w[0] + "?" + w[2:4] + "*"
                return kind, pattern, [pattern]
            lo, hi = w[:3], w[:2] + chr(min(ord(w[2]) + 2, ord("z")))
            return kind, f"[{lo} TO {hi}]", [lo, hi]


# --------------------------------------------------------------- engine ----

def build(corpus: str, index_dir: str):
    from whoosh_reloaded_ray.pipelines.build import build_index

    return build_index(
        [corpus], index_dir, num_shards=NUM_SHARDS,
        rows_per_segment=SEGMENT_TURNS, partition_rows=PARTITION_ROWS,
    )


def text_bytes(texts) -> int:
    return sum(len(t.encode("utf-8")) for t in texts)


def parser():
    from whoosh_reloaded_ray.query import QueryParser
    from whoosh_reloaded_ray.schema import transcript_schema

    return QueryParser("text", transcript_schema())


def _actor_pids(searcher) -> list:
    """PIDs of a ray-executor searcher's actor processes."""
    import ray

    return ray.get([w.__ray_call__.remote(lambda _: os.getpid()) for w in searcher.workers])


def _close(searcher) -> None:
    """Stop a ray-executor searcher's actors now rather than at GC."""
    workers = getattr(searcher, "workers", None)
    if workers:
        import ray

        for w in workers:
            ray.kill(w)


class Setup:
    """The set-up repetitions' samples and the last one's index and searcher.
    ``between``, if given, is called with this object after each
    repetition, outside its timing."""

    def __init__(self, run: Run, corpus: str, qp, warm: list, executor: str = "local",
                 between=None):
        from whoosh_reloaded_ray.state.searcher import IndexSearcher

        self.times, self.rates, self.visible = [], [], []
        self.index_dir = self.searcher = None
        for _ in range(SETUP_REPS):
            if self.searcher is not None:
                _close(self.searcher)
                shutil.rmtree(self.index_dir)
            self.index_dir = run.fresh_dir("index")
            run.speed.sample()
            t0 = time.perf_counter()
            man = build(corpus, self.index_dir)
            built = time.perf_counter()
            if man.doc_count != CORPUS_TURNS:
                raise RuntimeError(f"built {man.doc_count} docs of {CORPUS_TURNS}")
            self.searcher = IndexSearcher(self.index_dir, executor=executor)
            for i, text in enumerate(warm):
                self.searcher.search(qp.parse(text), limit=LIMIT)
                if i == 0:
                    self.visible.append(time.perf_counter() - t0)
            self.times.append(time.perf_counter() - t0)
            self.rates.append(CORPUS_TURNS / (built - t0))
            run.speed.sample()
            run.log(f"set-up repetition took {self.times[-1]:.2f}s")
            if between is not None:
                between(self)


def timed_query(run: Run, searcher, qp, query: tuple, ndocs: int, deleted=frozenset()):
    """One client query: parse + search, timed in wall-clock and CPU time;
    the hits are kept for the oracle check."""
    def call():
        c0 = run.clock.start()
        t0 = time.perf_counter()
        res = searcher.search(qp.parse(query[1]), limit=LIMIT)
        t1 = time.perf_counter()
        return t1 - t0, run.clock.elapsed_s(c0), res

    ok, out = run.attempt(call)
    if not ok:
        return None
    dt, cpu, res = out
    run.latencies.append(dt)
    run.cpu.append(cpu)
    run.pending.append({
        "query": query, "docs": res["docnum"].to_numpy().astype(np.int64),
        "scores": res["score"].to_numpy(), "full": None,
        "ndocs": ndocs, "deleted": deleted,
    })
    return res


def fetch_full(items, searcher, qp) -> None:
    """Full doc sets of recorded set-checked queries, fetched untraced
    from ``searcher`` (one the timed queries did not warm) for the
    string-match check."""
    with _paused():
        for item in items:
            kind, text, _ = item["query"]
            if kind in SET_KINDS and item["full"] is None:
                res = searcher.search(qp.parse(text), limit=None, scored=False)
                item["full"] = set(res["docnum"].to_numpy().tolist())


def verify_pending(run: Run, oracle: Oracle, checker=None, qp=None) -> None:
    """Check up to VERIFY_MAX recorded queries, evenly spread over the run;
    ``checker`` fetches the doc sets not fetched yet."""
    items = run.pending
    if len(items) > VERIFY_MAX:
        pick = np.linspace(0, len(items) - 1, VERIFY_MAX).round().astype(int)
        items = [items[i] for i in sorted(set(pick.tolist()))]
    if checker is not None:
        fetch_full(items, checker, qp)
    for it in items:
        kind, text, words = it["query"]
        ndocs, deleted = it["ndocs"], it["deleted"]
        if kind in SET_KINDS:
            run.expect(it["full"] == oracle.doc_set(kind, words, ndocs, deleted), f"{kind} {text}")
        else:
            expected = oracle.bm25(kind, words, ndocs, deleted)
            ok = check_ranked(expected, it["docs"], it["scores"], LIMIT)
            want = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
            run.expect(ok, ok or f"{kind} {text} over {ndocs} docs: got "
                       f"{list(zip(it['docs'][:3].tolist(), it['scores'][:3].round(4).tolist()))}"
                       f" want {[(d, round(v, 4)) for d, v in want]}")
    run.pending = []


def _percentile(xs, q):
    return float(np.percentile(np.asarray(xs, np.float64), q))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metrics(run: Run, setup: Setup, turns_per_s: float, bytes_ratio: float,
             visible: list) -> dict:
    by_kind: dict = {}
    for item, dt, cpu in zip(run.pending, run.latencies, run.cpu):
        by_kind.setdefault(item["query"][0], []).append((dt * 1e3, cpu * 1e3))
    run.log("query ms by kind (n, wall p50, CPU p50): " + ", ".join(
        f"{k} {len(v)} {statistics.median(w for w, _ in v):.1f} "
        f"{statistics.median(c for _, c in v):.1f}" for k, v in by_kind.items()
    ))
    wall, cpu = run.speed.wall_scale(), run.speed.cpu_scale()
    run.log(f"times scaled by {wall:.3f} (wall-clock), {cpu:.3f} (CPU); unscaled: "
            f"setup {statistics.median(setup.times):.3f}s, {turns_per_s:.1f} turns/s, "
            f"query CPU mean {statistics.fmean(run.cpu) * 1e3:.2f}ms, "
            f"visible {statistics.median(visible):.3f}s")
    return {
        "setup_s": statistics.median(setup.times) * wall,
        "turns_per_s": turns_per_s / wall,
        "index_bytes_per_input_byte": bytes_ratio,
        "query_cpu_mean_ms": statistics.fmean(run.cpu) * 1e3 * cpu,
        "query_cpu_p90_ms": _percentile(run.cpu, 90) * 1e3 * cpu,
        "visible_p50_s": statistics.median(visible) * wall,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _segments(index_dir: str, skip_path: str | None = None) -> list:
    """Partitions of each segment of the index's manifest, leaving out
    segments built from ``skip_path``."""
    from whoosh_reloaded_ray.state.manifest import load_manifest

    return [
        s.partitions for s in load_manifest(index_dir).segments
        if not any(p.path == skip_path for p in s.partitions)
    ]


def _oracle(stop: set, texts: list) -> Oracle:
    oracle = Oracle(stop)
    oracle.add(texts)
    return oracle


# ------------------------------------------------------------ workloads ----

def run_search_served(run: Run) -> dict:
    """The index served by the Ray actor-pool executor, cycling a fixed
    query set warmed in set-up: worker caches always hit.  Every answer is
    checked against the local executor's on the same index."""
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    corpus = os.path.join(run.work, "corpus.parquet")
    texts = make_corpus(corpus, CORPUS_TURNS, run.seed)
    stop = stopwords_of(texts)
    stream = QueryStream(texts, stop, [run.seed, 3])
    queries = [stream.next() for _ in range(SERVED_PER_KIND * len(KIND_CYCLE))]
    qp = parser()

    # the timed loop runs in one window after each set-up repetition, on
    # that repetition's searcher: spread over the run, its samples ride over
    # a slow spell of the machine that one unbroken loop would sit in
    served = []  # (query index, docs, scores, reference answer) per timed query

    def window(setup):
        nonlocal local
        # the local executor is the reference for every served answer
        local = IndexSearcher(setup.index_dir)
        want = [local.search(qp.parse(q[1]), limit=LIMIT) for q in queries]
        run.clock = QueryClock(_actor_pids(setup.searcher))
        deadline = time.perf_counter() + run.seconds / SETUP_REPS
        with run.traced():
            i = 0
            while time.perf_counter() < deadline:
                qi = i % len(queries)
                res = timed_query(run, setup.searcher, qp, queries[qi], CORPUS_TURNS)
                if res is not None:
                    docs, scores = res["docnum"].to_numpy(), res["score"].to_numpy()
                    served.append((qi, docs, scores, want[qi]))
                i += 1
                if i % PROBE_EVERY == 0:
                    run.speed.sample()

    local = None
    setup = Setup(run, corpus, qp, [q[1] for q in queries], executor="ray", between=window)
    metrics = _metrics(
        run, setup, statistics.median(setup.rates),
        layers.dir_bytes(setup.index_dir) / text_bytes(texts), setup.visible,
    )
    run.trace_overhead(setup.searcher, qp, [q[1] for q in queries])
    _close(setup.searcher)
    for qi, docs, scores, want in served:
        run.expect(
            np.array_equal(docs, want["docnum"].to_numpy())
            and np.allclose(scores, want["score"].to_numpy(), rtol=0, atol=1e-9),
            f"served == local for {queries[qi][1]}",
        )

    if run.tracer is not None:
        # replay the served stream on the warm local searcher: the
        # difference per query is what the actor fan-out adds
        local_lat = []
        with run.traced():
            for qi, _, _, _ in served:
                t0 = time.perf_counter()
                local.search(qp.parse(queries[qi][1]), limit=LIMIT)
                local_lat.append(time.perf_counter() - t0)
        run.extra["state.searcher.fanout_ms"] = statistics.median(
            (a - b) * 1e3 for a, b in zip(run.latencies, local_lat)
        )
    run.replay_build(_segments(setup.index_dir))

    # one oracle check per distinct query: every repeat equals local above
    seen: set = set()
    run.pending = [
        p for p in run.pending if not (p["query"][1] in seen or seen.add(p["query"][1]))
    ]
    run.log("timed loop and trace replays done")
    verify_pending(run, _oracle(stop, texts), local, qp)
    run.log("checks done")
    return metrics


def _merge_small(segments):
    """Tiered merge policy for ``maybe_merge``: once three segments smaller
    than a base segment exist, merge them into one."""
    small = [s for s in segments if s.doc_count < SEGMENT_TURNS]
    if len(small) < 3:
        return [], segments
    return small, [s for s in segments if s.doc_count >= SEGMENT_TURNS]


def run_ingest(run: Run) -> dict:
    """Writes beside reads on the index: per cycle, append a batch, delete
    a rare term, maybe merge, reopen, and query the fresh segments.  The
    number of cycles follows ``--seconds`` only, so every run does the same
    work however fast the machine is."""
    from whoosh_reloaded_ray.pipelines import merge, write_ops
    from whoosh_reloaded_ray.query import Term
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    corpus = os.path.join(run.work, "corpus.parquet")
    texts = make_corpus(corpus, CORPUS_TURNS, run.seed)
    n_cycles = max(1, round(run.seconds * CYCLES_PER_SECOND))
    batches = []
    for i in range(n_cycles):
        marker = f"mk{i:03d}x{run.seed}"
        path = os.path.join(run.work, f"batch-{i:03d}.parquet")
        batches.append((path, marker, make_corpus(path, BATCH_TURNS, run.seed * 1000 + i + 1, marker)))
    # the batches' words too: a stopword that only a batch holds would
    # otherwise count in the oracle's field lengths
    stop = stopwords_of(texts + [t for _, _, bt in batches for t in bt])
    stream = QueryStream(texts, stop, [run.seed, 4], kinds=RANKED_CYCLE)
    qp = parser()
    rare = [w for w in stream.vocab if 2 <= stream.counts[w] <= 4]
    rare = [rare[int(j)] for j in stream.rng.permutation(len(rare))[:n_cycles]]
    setup = Setup(run, corpus, qp, [stream.vocab[0]])
    index_dir = setup.index_dir

    oracle = _oracle(stop, texts)
    ndocs, deleted = CORPUS_TURNS, frozenset()
    rates, visible, merged_bytes = [], [], 0
    known = set()
    cycles = 0
    s = None  # the searcher of the last cycle
    with run.traced():
        while cycles < n_cycles:
            path, marker, btexts = batches[cycles]
            term = rare[cycles]
            cycles += 1
            run.speed.sample()
            t0 = time.perf_counter()
            ok, _ = run.attempt(write_ops.append_documents, index_dir, [path])
            if not ok:
                break
            rates.append(BATCH_TURNS / (time.perf_counter() - t0))
            s = IndexSearcher(index_dir)
            with _paused():  # a check, not one of the client's queries
                hits = s.search(Term("text", marker), limit=None, scored=False)
            visible.append(time.perf_counter() - t0)
            run.speed.sample()
            run.expect(
                np.array_equal(np.sort(hits["docnum"].to_numpy()),
                               np.arange(ndocs, ndocs + BATCH_TURNS)),
                f"appended batch {marker} visible",
            )
            oracle.add(btexts)
            ndocs += BATCH_TURNS

            ok, n_new = run.attempt(write_ops.delete_by_term, index_dir, "text", term)
            gone = set(oracle.docs_with(term, ndocs)[0].tolist())
            if ok:
                run.expect(n_new == len(gone - deleted), f"delete {term} count")
            deleted = deleted | gone

            ok, man = run.attempt(merge.maybe_merge, index_dir, policy=_merge_small)
            if ok:
                for seg in man.segments:
                    if seg.name.endswith("-merged") and seg.name not in known:
                        known.add(seg.name)
                        merged_bytes += layers.dir_bytes(os.path.join(index_dir, seg.name))

            s = IndexSearcher(index_dir)
            with _paused():
                left = s.search(Term("text", term), limit=None)
            run.expect(left.num_rows == 0, f"deleted term {term} returns nothing")
            for j in range(INGEST_QUERIES):
                timed_query(run, s, qp, stream.next(), ndocs, deleted)
                if (j + 1) % PROBE_EVERY == 0:
                    run.speed.sample()
    run.ops = max(cycles, 1)
    all_texts = texts + [t for _, _, bt in batches[:cycles] for t in bt]
    metrics = _metrics(
        run, setup, statistics.median(rates),
        layers.dir_bytes(index_dir) / text_bytes(all_texts), visible,
    )
    run.extra["pipelines.merge.bytes_rewritten"] = merged_bytes / run.ops
    run.trace_overhead(s, qp, [p["query"][1] for p in run.pending])
    run.replay_build(_segments(index_dir, skip_path=corpus))
    run.log("timed loop and trace replays done")
    verify_pending(run, oracle)
    run.log("checks done")
    return metrics


WORKLOADS = {
    "search_served": run_search_served,
    "ingest": run_ingest,
}
