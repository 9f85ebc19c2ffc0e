#!/usr/bin/env python
"""10x scale-stress proof (round-5 VERDICT item 1).

Runs the full-text engine one order of magnitude above the per-round
bench: a 10M-turn index build + query set (vs the 1M-turn scaling probe),
and the N->4N scaling criterion re-measured AT the 10x size.

Every phase runs in a FRESH subprocess that owns its own Ray session, so
  * peak driver RSS (resource.getrusage ru_maxrss) is per-phase — the
    "no driver-side blowup" evidence;
  * object-store spill is read from Ray's memory summary after the phase —
    the "streams under backpressure instead of OOMing" evidence.

Usage:
  python scripts/scale_stress.py                 # full run
  python scripts/scale_stress.py --turns 500000  # smoke
Writes /tmp/wrr_scale10x/report.json and prints the report; paste the
summary into BASELINE.md (see the round-5 block there).
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

WORK = "/tmp/wrr_scale10x"


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


def phase_gen(turns: int, cpus: int) -> dict:
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts_distributed

    _init_ray(cpus)
    t0 = time.perf_counter()
    files = generate_transcripts_distributed(
        os.path.join(WORK, f"corpus-{turns}"), turns, n_chunks=max(64, cpus * 2)
    )
    el = time.perf_counter() - t0
    return {
        "turns": turns,
        "files": len(files),
        "gen_sec": el,
        "turns_per_sec": turns / el,
        "driver_peak_rss_mb": _rss_mb(),
    }


def phase_build(turns: int, cpus: int, index_dir: str, rows_per_segment: int = 0) -> dict:
    """rows_per_segment=0 -> ONE segment spanning the corpus (the naive
    config: its term-shard exchange spans all postings at once — measured
    11.2k turns/s with 29.6 GiB of object-store spill at 10M turns, with
    the former Ray Data groupby exchange).
    rows_per_segment>0 -> BOUNDED segments, the 100 TB configuration: each
    segment is one exchange whose working set fits the object store,
    built one at a time with a manifest commit after each (resume unit).
    Size it so postings-per-segment ~ a third of the aggregate object
    store."""
    import glob
    import shutil

    from whoosh_reloaded_ray.pipelines.build import build_index

    _init_ray(cpus)
    files = sorted(glob.glob(os.path.join(WORK, f"corpus-{turns}", "part-*.parquet")))
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


def _run_phase(name: str, cpus: int, **kw) -> dict:
    outp = os.path.join(WORK, f"phase-{name}-{cpus}.json")
    args = [
        sys.executable,
        os.path.abspath(__file__),
        "--_phase",
        name,
        "--cpus",
        str(cpus),
        "--out",
        outp,
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
    ap.add_argument("--index-dir", default=os.path.join(WORK, "index"))
    ap.add_argument("--rows-per-segment", type=int, default=0)
    args = ap.parse_args()

    if args.phase:
        import ray

        fn = {
            "gen": lambda: phase_gen(args.turns, args.cpus),
            "build": lambda: phase_build(
                args.turns, args.cpus, args.index_dir, args.rows_per_segment
            ),
            "query": lambda: phase_query(args.index_dir, args.cpus),
        }[args.phase]
        rep = fn()
        with open(args.out, "w") as f:
            json.dump(rep, f)
        if ray.is_initialized():
            ray.shutdown()
        return

    os.makedirs(WORK, exist_ok=True)
    # bounded-segment default: ~4 segments at the full 10M size — build
    # runs one segment at a time, so in-flight exchange state is a quarter
    # of the corpus; 0 would mean one corpus-spanning exchange (29.6 GiB
    # spill at 10M, measured with the former Ray Data groupby)
    rps = args.rows_per_segment or max(args.turns // 4, 250_000)
    report = {"turns": args.turns}
    report["gen"] = _run_phase("gen", args.cpus, turns=args.turns)
    report["build"] = _run_phase(
        "build", args.cpus, turns=args.turns,
        **{"index-dir": args.index_dir, "rows-per-segment": rps},
    )
    report["query"] = _run_phase("query", args.cpus, **{"index-dir": args.index_dir})

    if not args.skip_scaling:
        lo, hi = args.scale_cpus
        b_lo = _run_phase(
            "build", lo, turns=args.turns,
            **{"index-dir": os.path.join(WORK, f"index-{lo}"), "rows-per-segment": rps},
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

    with open(os.path.join(WORK, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
