"""The machine's speed during a run, which the end-to-end times are scaled by.

The VM shares its host, and its speed drifts over minutes: in ten ``ingest``
runs in a row on a 4-vCPU VM, a query's CPU time fell from 53 to 36 ms and
the append rate rose from 206 to 313 turns/s, as the host's load eased.  CPU
time drifts with wall-clock time there, so it is not enough to leave out
stolen time (procs.py).

A fixed reference computation, of the kinds of work the engine does
(splitting and counting words in Python, a numpy sort, a parquet write and
read with pyarrow), is timed around the measured work: before and after each
set-up repetition and each ingest append, and after every few queries.  The
run's end-to-end times are multiplied by ``REF_S`` over the median time of
the reference, in wall-clock or CPU time as the metric is.  They read as the
times on a machine that runs the reference in ``REF_S``, which a change to
the engine moves and a change in the machine's speed does not.  The median
of many samples, rather than the pair around each measured piece: the
reference's own run-to-run noise would otherwise add to the metrics'.
"""

from __future__ import annotations

import collections
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# a round figure for the reference's time on the 4-vCPU VM the benchmark was
# tuned on, where it measured 40-77 ms as the host's load changed
REF_S = 0.060


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        words = [f"w{int(x)}" for x in rng.zipf(1.3, 50_000) % 5000]
        self._text = " ".join(words)
        self._floats = rng.random(200_000)
        self._table = pa.table({"n": rng.integers(0, 1000, len(words)), "w": words})
        self._reference()  # first call pays for imports and caches
        self.wall: list = []
        self.cpu: list = []

    def _reference(self) -> None:
        collections.Counter(self._text.split())
        np.cumsum(self._floats[np.argsort(self._floats, kind="stable")])
        buf = pa.BufferOutputStream()
        pq.write_table(self._table, buf)
        pq.read_table(pa.BufferReader(buf.getvalue()), use_threads=False)

    def sample(self) -> None:
        """Time the reference once, in wall-clock and CPU time (this
        thread's: the reference runs on this thread only)."""
        t0, c0 = time.perf_counter(), time.thread_time()
        self._reference()
        self.cpu.append(time.thread_time() - c0)
        self.wall.append(time.perf_counter() - t0)

    def wall_scale(self) -> float:
        return REF_S / statistics.median(self.wall)

    def cpu_scale(self) -> float:
        return REF_S / statistics.median(self.cpu)
