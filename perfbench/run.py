"""Benchmark of the whoosh_reloaded_ray engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository.  Workloads (see
workloads.py): ``search_served`` and ``ingest``.  Every
input is generated from ``--seed``.  One process, one closed-loop client
thread; the engine's Ray session has ``num_cpus=4`` and is shut down before
the process exits, so no run inherits another's workers or objects.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with span recorders around the layers' entry points and reports
the per-layer metrics instead, writing the spans to
``.perfbench/traces/<workload>-<seed>.jsonl``.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Scratch data lives under ``.perfbench/`` in the checkout and is removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets about
# 64 bytes below its temp dir
RAY_TMP_MAX = 43

E2E_UNITS = {
    "setup_s": "s",
    "turns_per_s": "1/s",
    "index_bytes_per_input_byte": "ratio",
    "query_cpu_mean_ms": "ms",
    "query_cpu_p90_ms": "ms",
    "visible_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def _wait_ended(pids: set, timeout: float = 30.0) -> None:
    """Wait for ``pids`` to exit; kill what is left after ``timeout``."""
    from perfbench.procs import running

    deadline = time.monotonic() + timeout
    while True:
        pids = {p for p in pids if running(p)}
        if not pids:
            return
        if time.monotonic() > deadline:
            for p in pids:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def _start_ray(ray_tmp: str):
    # workers are fresh interpreters: they import the package (and this
    # benchmark's trace holder) from the checkout root
    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import ray

    kwargs = {}
    if len(ray_tmp) <= RAY_TMP_MAX:
        kwargs["_temp_dir"] = ray_tmp
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        **kwargs,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ray


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "whoosh_reloaded_ray", "__init__.py")):
        _fail(f"no whoosh_reloaded_ray package under {ROOT}")
    sys.path.insert(0, ROOT)
    from perfbench import _active, layers, workloads
    from perfbench.procs import descendants
    from perfbench.trace import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    scratch = os.path.join(ROOT, ".perfbench")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    ray_tmp = os.path.join(ROOT, ".pbray")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if args.trace else None
    patches = layers.install() if args.trace else None
    run = workloads.Run(work, args.seed, args.seconds, tracer)
    ray = None
    try:
        ray = _start_ray(ray_tmp)
        run.log("ray started")
        e2e = workloads.WORKLOADS[args.workload](run)
    finally:
        _active.tracer = None
        if patches is not None:
            patches.restore()
        if ray is not None:
            started = descendants()
            ray.shutdown()
            _wait_ended(started)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        run.log("ray shut down")

    if tracer is not None:
        values = layers.per_layer_metrics(tracer, run.query_range, run.ops, run.extra)
        units = layers.PER_LAYER
        trace_dir = os.path.join(scratch, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"))
    else:
        values, units = e2e, E2E_UNITS
    print(f"perfbench: {run.attempted} operations, {run.verified} checks, "
          f"{run.failed} failed", file=sys.stderr, flush=True)
    result = {
        "correct": run.failed == 0 and run.verified > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
