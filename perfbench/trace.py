"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent): the benchmark wraps calls into the
engine's layers, each wrapped call records one span, and a call made while
another wrapped call is running records that call as its parent.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at exit.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

from . import _active


class Tracer:
    def __init__(self):
        # one record per span: [name, start, end, parent index or -1]
        self.spans: list = []
        self._stacks: dict = {}
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def roots(self) -> list:
        """Index of each span's outermost ancestor (parents precede their
        children in the list, so one forward pass resolves every chain)."""
        out = []
        for i, rec in enumerate(self.spans):
            out.append(i if rec[3] < 0 else out[rec[3]])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def wrap(fn, name: str):
    """``fn`` recording a span named ``name`` while a tracer is active."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _active.tracer
        if tracer is None:
            return fn(*args, **kwargs)
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return wrapper


class Patches:
    """Replaces attributes with span-recording wrappers; ``restore`` puts
    the originals back."""

    def __init__(self, targets):
        self._saved = []
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig, name))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

