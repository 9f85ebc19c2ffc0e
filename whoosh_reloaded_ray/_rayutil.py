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
``remote_task``, once per process.
"""

from __future__ import annotations

import functools


@functools.cache
def remote_task(fn):
    """``fn``, a module-level function, as a plain ``num_cpus=1`` Ray remote
    function.  Each ``ray.remote`` wrapper has its own function id, which
    the driver exports and each worker fetches before its first run of it;
    made once, a process pays that once rather than per call.  Ray retries
    a task whose worker died, so ``fn`` must be safe to run twice."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def consume_fault_flag(flag_path: str) -> None:
    """TEST-ONLY crash hook (fault-injection for the Ray restart paths).

    If ``flag_path`` exists, atomically consume it (os.rename — exactly one
    process wins) and kill THIS worker process with ``os._exit(1)``: a real
    mid-task process death, not a Python exception, so Ray's actor-restart
    + task-retry machinery is what recovers.  No-op when the flag file is
    absent, which is always true outside tests (the file lives inside the
    index dir and is only ever created by tests/test_fault_injection.py).
    """
    import os

    if not flag_path or not os.path.exists(flag_path):
        return
    try:
        os.rename(flag_path, flag_path + ".consumed")
    except OSError:
        return  # another worker already consumed it
    os._exit(1)
