"""The processes the benchmark started, and the CPU time of a query.

The host steals a varying share of the VM's vCPU time from it (10-50% of
busy time while the benchmark runs, by ``/proc/stat``), so the same query
takes a different wall-clock time from one run to the next.  The kernel
does not charge stolen time, or time spent waiting for a CPU, to a
thread's CPU time, so a query's CPU time does not stretch with either.
It still stretches when the host's load slows the CPUs themselves, which
speed.py scales out.
"""

from __future__ import annotations

import os
import time


def _stat(pid: int) -> list:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def descendants() -> set:
    """PIDs of every process descended from this one."""
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_stat(int(name))[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = set(), [os.getpid()]
    while todo:
        for pid in children.get(todo.pop(), []):
            out.add(pid)
            todo.append(pid)
    return out


def running(pid: int) -> bool:
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False


def threads_cpu_ns(pids) -> int:
    """CPU nanoseconds used so far by every live thread of ``pids``, from
    the scheduler's per-thread run time."""
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total


class QueryClock:
    """CPU time of one query: this process's, plus that of ``servers``
    (PIDs of the processes that answer it, if not this one).  Reading the
    servers' times falls outside the interval on both ends."""

    def __init__(self, servers=()):
        self.servers = list(servers)

    def start(self) -> tuple:
        servers = threads_cpu_ns(self.servers)
        return time.process_time_ns(), servers

    def elapsed_s(self, start: tuple) -> float:
        own = time.process_time_ns() - start[0]
        return (own + threads_cpu_ns(self.servers) - start[1]) * 1e-9
