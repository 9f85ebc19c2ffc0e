"""Small helpers shared by the Ray pipelines and the ray searcher.

Ray workers import ``whoosh_reloaded_ray`` by module path, like any other
library: whatever starts Ray must make the package importable in every
worker, by putting the checkout on ``PYTHONPATH`` (or installing it) on a
single machine, or by passing it as job-level
``ray.init(runtime_env={"py_modules": [...]})`` on a cluster (Ray rejects a
local directory in a per-actor or per-task ``runtime_env``).  UDFs, actor
classes and query objects then pickle by reference, so an actor call ships
only its arguments' data.

Every write task (build's map and shard write, merge's per-shard merge,
update's key match) is a module-level function made remote by
``remote_task``, once per process.  Build's and merge's tasks return their
counters (``counters``), which the driver sums per stage
(``sum_counters``) into ``SegmentMeta.metrics``.
"""

from __future__ import annotations

import functools
import sys
import time


@functools.cache
def remote_task(fn):
    """``fn``, a module-level function, as a plain ``num_cpus=1`` Ray remote
    function.  Each ``ray.remote`` wrapper has its own function id, which
    the driver exports and each worker fetches before its first run of it;
    made once, a process pays that once rather than per call.  Ray retries
    a task whose worker died, so ``fn`` must be safe to run twice."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def counters(rows: int, nbytes: int, t0: float) -> dict:
    """A task's counters: rows it handled, bytes it produced, and seconds
    since ``t0`` (a ``time.perf_counter()`` taken as it started)."""
    return {"rows": int(rows), "bytes": int(nbytes), "busy_s": time.perf_counter() - t0}


def sum_counters(tasks) -> dict:
    """One stage's counters: the sum of its tasks'."""
    tasks = list(tasks)
    return {
        "rows": sum(c["rows"] for c in tasks),
        "bytes": sum(c["bytes"] for c in tasks),
        "busy_s": round(sum(c["busy_s"] for c in tasks), 4),
    }


def segment_test_hook(seg_dir: str) -> None:
    """TEST-ONLY delay/failure hook for one segment's map tasks.

    If the index root holds ``.test_hook_<segment name>``, each map task of
    that segment reads it first: ``sleep <seconds>`` sleeps that long, any
    other text raises ``RuntimeError``.  No-op when the file is absent,
    which is always true outside tests (only tests/test_build_pipeline.py
    creates one)."""
    import os

    root, name = os.path.split(seg_dir.rstrip("/"))
    path = os.path.join(root, f".test_hook_{name}")
    if not os.path.exists(path):
        return
    with open(path) as f:
        action = f.read().split()
    if action[:1] == ["sleep"]:
        time.sleep(float(action[1]))
    else:
        raise RuntimeError(f"test hook: segment {name} fails")


def consume_fault_flag(flag_path: str) -> None:
    """TEST-ONLY crash hook (fault-injection for the Ray restart paths).

    If ``flag_path`` exists, atomically consume it (os.rename — exactly one
    process wins) and kill THIS worker process with ``os._exit(1)``: a real
    mid-task process death, not a Python exception, so Ray's actor-restart
    + task-retry machinery is what recovers.  No-op when the flag file is
    absent, which is always true outside tests (the file lives inside the
    index dir and is only ever created by tests/test_fault_injection.py).

    Fires only inside a Ray worker process: a driver (its local searcher
    evaluating a query) or a caller writing a segment in process returns
    at once, without even looking for the flag, and leaves it in place.
    """
    import os

    if not _in_ray_worker() or not flag_path or not os.path.exists(flag_path):
        return
    try:
        os.rename(flag_path, flag_path + ".consumed")
    except OSError:
        return  # another worker already consumed it
    os._exit(1)


def _in_ray_worker() -> bool:
    """Whether this process is a Ray worker (a task's or an actor's), not a
    driver or a process that never started Ray."""
    ray = sys.modules.get("ray")
    return ray is not None and ray._private.worker.global_worker.mode == ray.WORKER_MODE
