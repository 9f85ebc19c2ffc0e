#!/usr/bin/env python
"""10x scale-stress proof (round-5 VERDICT item 1).

Runs the full-text engine one order of magnitude above the per-round
bench: a 10M-turn index build + query set (BASELINE.md's older scaling
probes used 1M), and the N->4N scaling criterion measured at that size.
It is the repository's one scaling tool.

Every phase runs in a FRESH subprocess that owns its own Ray session, so
  * peak driver RSS (resource.getrusage ru_maxrss) is per-phase — the
    "no driver-side blowup" evidence;
  * object-store spill is read from Ray's memory summary after the phase —
    the "streams under backpressure instead of OOMing" evidence.

Usage:
  python scripts/scale_stress.py                 # full run
  python scripts/scale_stress.py --turns 500000  # smoke
  python scripts/scale_stress.py --work DIR      # another work directory
Works in ``--work`` (default ``.scale_stress/`` in the checkout, so two
checkouts measured in turn never share a directory), writes
``<work>/report.json`` and prints the report; paste the summary into
BASELINE.md (see the round-5 block there).  The corpus is generated once
per turn count, seed and chunk count: a later run with the same three
reuses ``<work>/corpus-<turns>`` and skips the gen phase.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

WORK = os.path.join(REPO, ".scale_stress")
SEED = 42  # corpus seed


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spill_stats() -> dict:
    """Object-store spill of THIS Ray session, by scanning its spill dir
    (``{session}/ray_spilled_objects``) — works without the grpc-backed
    memory_summary API."""
    try:
        import glob

        import ray

        session = ray._private.worker._global_node.get_session_dir_path()
        files = glob.glob(os.path.join(session, "ray_spilled_objects*", "*"))
        return {
            "spilled_mib": sum(os.path.getsize(f) for f in files) / (1 << 20),
            "spilled_files": len(files),
        }
    except Exception as exc:  # pragma: no cover - diagnostic only
        return {"spill_probe_error": repr(exc)}


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )


# ---------------------------------------------------------------------------
# phases (each runs in its own subprocess)
# ---------------------------------------------------------------------------


def _corpus_dir(work: str, turns: int) -> str:
    return os.path.join(work, f"corpus-{turns}")


def _corpus_key(turns: int, cpus: int) -> dict:
    """What a generated corpus is made from; its marker file holds it."""
    return {"turns": turns, "seed": SEED, "chunks": max(64, cpus * 2)}


def _corpus_ready(work: str, turns: int, cpus: int) -> bool:
    """Whether ``work`` holds a finished corpus made from these inputs."""
    try:
        with open(os.path.join(_corpus_dir(work, turns), "corpus.json")) as f:
            return json.load(f) == _corpus_key(turns, cpus)
    except (OSError, ValueError):
        return False


def phase_gen(turns: int, cpus: int, work: str) -> dict:
    """Generate the corpus into an empty directory; the marker is written
    last, so an interrupted run is never taken for a finished one (and
    files of another seed are never mixed in)."""
    import shutil

    from whoosh_reloaded_ray.sources.corpus import generate_transcripts_distributed

    _init_ray(cpus)
    out = _corpus_dir(work, turns)
    shutil.rmtree(out, ignore_errors=True)
    key = _corpus_key(turns, cpus)
    t0 = time.perf_counter()
    files = generate_transcripts_distributed(out, turns, n_chunks=key["chunks"], seed=SEED)
    el = time.perf_counter() - t0
    with open(os.path.join(out, "corpus.json"), "w") as f:
        json.dump(key, f)
    return {
        "turns": turns,
        "files": len(files),
        "gen_sec": el,
        "turns_per_sec": turns / el,
        "driver_peak_rss_mb": _rss_mb(),
    }


def phase_build(turns: int, cpus: int, work: str, index_dir: str,
                rows_per_segment: int = 0) -> dict:
    """rows_per_segment=0 -> ONE segment spanning the corpus (the naive
    config: its term-shard exchange spans all postings at once — measured
    11.2k turns/s with 29.6 GiB of object-store spill at 10M turns, with
    the former Ray Data groupby exchange).
    rows_per_segment>0 -> BOUNDED segments, the 100 TB configuration: each
    segment is one exchange whose working set fits the object store, at
    most two in flight (the next one's map tasks run while the last one
    writes), committed in plan order with a manifest commit after each
    (resume unit).  Size it so postings-per-segment ~ a third of the
    aggregate object store: two in flight then fit."""
    import glob
    import shutil

    from whoosh_reloaded_ray.pipelines.build import build_index

    _init_ray(cpus)
    files = sorted(glob.glob(os.path.join(_corpus_dir(work, turns), "part-*.parquet")))
    if os.path.exists(index_dir):
        shutil.rmtree(index_dir)
    t0 = time.perf_counter()
    man = build_index(
        files, index_dir, num_shards=32, partition_rows=32768,
        rows_per_segment=rows_per_segment or None,
    )
    el = time.perf_counter() - t0
    postings = sum(s.n_postings for s in man.segments)
    return {
        "turns": turns,
        "rows_per_segment": rows_per_segment,
        "build_sec": el,
        "turns_per_sec": turns / el,
        "postings": postings,
        "segments": len(man.segments),
        "driver_peak_rss_mb": _rss_mb(),
        **_spill_stats(),
    }


def phase_query(index_dir: str, cpus: int) -> dict:
    import statistics

    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    _init_ray(cpus)
    sys.path.insert(0, REPO)
    import bench

    searcher = IndexSearcher(index_dir)
    qs = bench._query_set()
    lat = {}
    for name, q in qs.items():
        searcher.search(q, limit=10)  # warm
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            searcher.search(q, limit=10)
            times.append(time.perf_counter() - t0)
        lat[name] = statistics.median(times)
    sps = bench._searches_per_sec(searcher)
    return {
        "queries": lat,
        "searches_per_sec": sps,
        "docs": searcher.manifest.doc_count,
        "driver_peak_rss_mb": _rss_mb(),
    }


# ---------------------------------------------------------------------------
# parent orchestration
# ---------------------------------------------------------------------------


def _run_phase(name: str, cpus: int, work: str, **kw) -> dict:
    outp = os.path.join(work, f"phase-{name}-{cpus}.json")
    args = [
        sys.executable,
        os.path.abspath(__file__),
        "--_phase",
        name,
        "--cpus",
        str(cpus),
        "--out",
        outp,
        "--work",
        work,
    ]
    for k, v in kw.items():
        args += [f"--{k}", str(v)]
    t0 = time.perf_counter()
    subprocess.run(args, check=True, cwd=REPO)
    with open(outp) as f:
        rep = json.load(f)
    rep["phase_wall_sec"] = time.perf_counter() - t0
    print(f"== {name}@{cpus}cpus: {json.dumps(rep)}", flush=True)
    return rep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--turns", type=int, default=10_000_000)
    ap.add_argument("--cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--scale-cpus", nargs=2, type=int, default=[8, 32])
    ap.add_argument("--skip-scaling", action="store_true")
    ap.add_argument("--_phase", dest="phase")
    ap.add_argument("--out")
    ap.add_argument("--work", default=WORK,
                    help="work directory: corpus, indexes, phase outputs, report")
    ap.add_argument("--index-dir", help="default: <work>/index")
    ap.add_argument("--rows-per-segment", type=int, default=0)
    args = ap.parse_args()
    args.work = os.path.abspath(args.work)
    args.index_dir = args.index_dir or os.path.join(args.work, "index")

    if args.phase:
        import ray

        fn = {
            "gen": lambda: phase_gen(args.turns, args.cpus, args.work),
            "build": lambda: phase_build(
                args.turns, args.cpus, args.work, args.index_dir, args.rows_per_segment
            ),
            "query": lambda: phase_query(args.index_dir, args.cpus),
        }[args.phase]
        rep = fn()
        with open(args.out, "w") as f:
            json.dump(rep, f)
        if ray.is_initialized():
            ray.shutdown()
        return

    os.makedirs(args.work, exist_ok=True)
    # bounded-segment default: ~4 segments at the full 10M size — build
    # keeps at most two segments in flight, so in-flight exchange state is
    # at most half of the corpus; 0 would mean one corpus-spanning exchange
    # (29.6 GiB spill at 10M, measured with the former Ray Data groupby)
    rps = args.rows_per_segment or max(args.turns // 4, 250_000)
    report = {"turns": args.turns}
    if _corpus_ready(args.work, args.turns, args.cpus):
        report["gen"] = {"reused": _corpus_dir(args.work, args.turns)}
        print(f"== gen: reusing {report['gen']['reused']}", flush=True)
    else:
        report["gen"] = _run_phase("gen", args.cpus, args.work, turns=args.turns)
    report["build"] = _run_phase(
        "build", args.cpus, args.work, turns=args.turns,
        **{"index-dir": args.index_dir, "rows-per-segment": rps},
    )
    report["query"] = _run_phase(
        "query", args.cpus, args.work, **{"index-dir": args.index_dir}
    )

    if not args.skip_scaling:
        lo, hi = args.scale_cpus
        b_lo = _run_phase(
            "build", lo, args.work, turns=args.turns,
            **{"index-dir": os.path.join(args.work, f"index-{lo}"), "rows-per-segment": rps},
        )
        r_lo = args.turns / b_lo["build_sec"]
        r_hi = report["build"]["turns_per_sec"]
        report["scaling"] = {
            "cpus_lo": lo,
            "cpus_hi": hi,
            "rows_per_segment": rps,
            "turns_per_sec_lo": r_lo,
            "turns_per_sec_hi": r_hi,
            "efficiency": (r_hi / r_lo) / (hi / lo),
        }

    with open(os.path.join(args.work, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
