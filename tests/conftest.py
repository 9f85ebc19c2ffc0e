from __future__ import annotations

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

# The reference implementation (read-only) doubles as the parity ORACLE in
# tests: we import the real whoosh and compare behavior, never copy code.
WHOOSH_SRC = "/root/reference/src"


@pytest.fixture(scope="session")
def whoosh():
    # parity tests need the reference checkout; they run wherever it is
    if not os.path.isdir(os.path.join(WHOOSH_SRC, "whoosh")):
        pytest.skip(f"reference whoosh checkout not found at {WHOOSH_SRC}")
    # whoosh-reloaded imports the py2-era `cached_property` package; shim it
    # with the stdlib implementation.
    import functools
    import types

    if "cached_property" not in sys.modules:
        m = types.ModuleType("cached_property")
        m.cached_property = functools.cached_property
        sys.modules["cached_property"] = m
    if WHOOSH_SRC not in sys.path:
        sys.path.insert(0, WHOOSH_SRC)
    import whoosh as w

    return w


@pytest.fixture(scope="session")
def ray_session():
    """Session-scoped Ray: init once for all tests that need it."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield ray
    ray.shutdown()
