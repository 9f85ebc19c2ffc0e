"""Command-line entry point — the ``ray job submit``-able surface.

    # build (or RESUME a killed build — committed segments are skipped)
    ray job submit -- python -m whoosh_reloaded_ray build \\
        --input /data/transcripts/*.parquet --index /data/index \\
        --num-shards 256 --rows-per-segment 50000000 --salt-df-ratio 0.02

    # query
    python -m whoosh_reloaded_ray search --index /data/index \\
        --query 'error AND role:assistant' --limit 10

    # tiered merge / full optimize
    python -m whoosh_reloaded_ray merge --index /data/index [--optimize]

The script owns its Ray session (``ray.init(address=...)``) and shuts it
down on exit; resumability comes from the manifest's per-partition lineage
(state/manifest.py) — re-submitting the same build after a kill reprocesses
only uncommitted segments.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import time


def _init_ray(args):
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address=args.ray_address, **kwargs)
    return ray


def cmd_build(args):
    ray = _init_ray(args)
    from .pipelines.build import build_index

    paths = sorted(p for pat in args.input for p in glob.glob(pat))
    if not paths:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2
    t0 = time.time()
    man = build_index(
        paths,
        args.index,
        num_shards=args.num_shards,
        partition_rows=args.partition_rows,
        rows_per_segment=args.rows_per_segment,
        resume=not args.no_resume,
        salt_df_ratio=args.salt_df_ratio,
    )
    el = time.time() - t0
    print(
        json.dumps(
            {
                "docs": man.doc_count,
                "segments": len(man.segments),
                "postings": sum(s.n_postings for s in man.segments),
                "generation": man.generation,
                "elapsed_sec": round(el, 2),
                "docs_per_sec": round(man.doc_count / el, 1) if el else None,
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_search(args):
    ray = _init_ray(args)
    from .query.parser import QueryParser
    from .state.manifest import load_manifest
    from .state.searcher import IndexSearcher

    man = load_manifest(args.index)
    if man is None:
        print(f"no index at {args.index}", file=sys.stderr)
        return 2
    s = IndexSearcher(args.index, executor=args.executor, weighting=args.weighting)
    default_field = next(
        (f.name for f in man.schema.fields if f.kind == "text"), man.schema.fields[0].name
    )
    q = QueryParser(default_field, man.schema).parse(args.query)
    res = s.search(q, limit=args.limit)
    for d, sc in zip(res["docnum"].to_pylist(), res["score"].to_pylist()):
        print(json.dumps({"docnum": d, "score": round(sc, 6)}))
    ray.shutdown()
    return 0


def cmd_merge(args):
    ray = _init_ray(args)
    from .pipelines.merge import maybe_merge

    man = maybe_merge(args.index, optimize=args.optimize)
    print(json.dumps({"segments": len(man.segments), "generation": man.generation}))
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="whoosh_reloaded_ray")
    ap.add_argument("--ray-address", default=None, help="Ray address (default: auto/local)")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build or resume an index")
    b.add_argument("--input", nargs="+", required=True, help="parquet file(s)/glob(s)")
    b.add_argument("--index", required=True)
    b.add_argument("--num-shards", type=int, default=64)
    b.add_argument("--partition-rows", type=int, default=250_000)
    b.add_argument("--rows-per-segment", type=int, default=None)
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--salt-df-ratio", type=float, default=None)
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="run a query string")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--limit", type=int, default=10)
    s.add_argument("--executor", choices=["local", "ray"], default="local")
    s.add_argument("--weighting", default="bm25f")
    s.set_defaults(fn=cmd_search)

    m = sub.add_parser("merge", help="apply the merge policy (or --optimize)")
    m.add_argument("--index", required=True)
    m.add_argument("--optimize", action="store_true")
    m.set_defaults(fn=cmd_merge)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
