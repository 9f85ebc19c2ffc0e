"""Ray Data corpus pipelines that sit outside the full-text engine.

Dedup and near-dup detection, curation, BPE, ANN, sketches, TPC-H-style
relational queries, multimodal decoders and windowed event analytics.
They import ``whoosh_reloaded_ray`` for a few helpers; the engine never
imports them, and none of them is in ``__ray_entry__.queries()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def actor_pool_size(divisor: int = 2, floor: int = 2) -> int:
    """Actor-pool concurrency derived from the cluster's CPU count
    (cpus // divisor, at least ``floor``) — stages must scale with the
    cluster, never a hardcoded cap (a fixed concurrency=2 starves 30 of
    32 cores)."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(floor, cpus // divisor)


def tagged_union(
    sf_dir: str,
    cases: list[tuple[str, Callable[[str], Any]]],
    columns: list[str],
    renames: dict[str, dict[str, str]] | None = None,
):
    """Run several pipelines and union their results into one DataFrame.

    Each sub-result is tagged with ``which`` = its case name and reindexed
    to the shared ``columns`` (a column a case lacks becomes NaN).  This is
    the shape of the committed fixtures in ``tests/fixtures``."""
    import pandas as pd

    parts = []
    for which, fn in cases:
        res = fn(sf_dir)
        df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        if renames and which in renames:
            df = df.rename(columns=renames[which])
        df = df.reindex(columns=columns)
        df.insert(0, "which", which)
        parts.append(df)
    return pd.concat(parts, ignore_index=True)
