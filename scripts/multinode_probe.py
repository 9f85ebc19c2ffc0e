"""Fake 2-node Ray cluster probe (round-3 'multi-node-shaped CI' check).

Exercises the scale paths TODO.md lists as untested on real hardware, as
far as a single machine allows:

- a 2-raylet cluster via ray.cluster_utils.Cluster (two nodes, separate
  object stores + raylets, shared filesystem standing in for shared
  storage);
- runtime_env ``py_modules`` packaging of the whoosh_reloaded_ray package
  (workers import the uploaded copy; the repo path is NOT injected);
- the full index build pipeline (map and write tasks across both raylets);
- the ray-executor searcher with segment actors placed on BOTH nodes
  (SPREAD scheduling), verified against the local executor's results,
  each actor's channel listening on its own node's IP;
- with --fs-uri, the index lives behind a pyarrow.fs URI (file://<tmp>)
  instead of a plain path, proving the remote-storage seam
  (state/storage.py) end to end: manifest commit/read, segment shard
  writes, and query-side reads all route through pyarrow.fs.

Usage: python scripts/multinode_probe.py [--fs-uri]
Prints one JSON line with the measured outcome.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    os.environ.pop("RAY_ADDRESS", None)  # explicit cluster below
    import ray
    from ray.cluster_utils import Cluster

    cluster = Cluster(
        initialize_head=True,
        head_node_args={"num_cpus": 8, "include_dashboard": False},
    )
    cluster.add_node(num_cpus=8)
    ray.init(
        address=cluster.address,
        runtime_env={"py_modules": [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "whoosh_reloaded_ray")]},
        include_dashboard=False,
        logging_level="ERROR",
        ignore_reinit_error=True,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    nodes = [n for n in ray.nodes() if n["Alive"]]
    assert len(nodes) == 2, f"expected 2 nodes, got {len(nodes)}"

    from whoosh_reloaded_ray.pipelines.build import build_index
    from whoosh_reloaded_ray.query import Or, Term
    from whoosh_reloaded_ray.sources.corpus import generate_transcripts
    from whoosh_reloaded_ray.state.searcher import IndexSearcher

    tmp = tempfile.mkdtemp(prefix="wrr_mnode_")
    corpus = os.path.join(tmp, "t.parquet")
    generate_transcripts(corpus, n_turns=20_000, avg_turn_words=25, seed=41,
                         rows_per_file=2_500)
    use_fs_uri = "--fs-uri" in sys.argv
    idx = ("file://" + os.path.join(tmp, "idx")) if use_fs_uri else os.path.join(tmp, "idx")
    t0 = time.time()
    build_index([corpus], idx, num_shards=8, partition_rows=2_500,
                rows_per_segment=5_000)
    build_s = time.time() - t0

    # searcher actors forced onto both nodes via SPREAD
    s = IndexSearcher(idx, executor="ray", num_actors=4,
                      scheduling_strategy="SPREAD")
    placed = ray.get([w.node_id.remote() for w in s.workers])
    s_local = IndexSearcher(idx)
    import numpy as np

    from collections import Counter
    import pyarrow.parquet as pq

    c = Counter(w for t in pq.read_table(corpus, columns=["text"])["text"].to_pylist()
                for w in t.lower().split())
    probes = [w for w, _ in c.most_common(60) if len(w) > 3][:6]
    checked = 0
    for i in range(0, len(probes), 2):
        q = Or([Term("text", probes[i]), Term("text", probes[i + 1])])
        a = s.search(q, limit=10)
        b = s_local.search(q, limit=10)
        assert a["docnum"].to_pylist() == b["docnum"].to_pylist(), probes[i]
        assert a["score"].to_pylist() == b["score"].to_pylist(), probes[i]
        checked += 1
    # each actor's channel listens on the IP of the node it landed on
    node_ip = {n["NodeID"]: n["NodeManagerAddress"] for n in nodes}
    hosts = [addr[0] for addr in ray.get(s._addrs)]
    assert hosts == [node_ip[n] for n in placed], (hosts, placed)
    s.close()
    out = {
        "nodes": len(nodes),
        "actor_nodes": len(set(placed)),
        "build_sec": round(build_s, 2),
        "turns": 20_000,
        "queries_verified": checked,
        "channel_hosts": sorted(set(hosts)),
        "py_modules_packaged": True,
        "index_dir_scheme": "file://" if use_fs_uri else "local-path",
    }
    print(json.dumps(out))
    ray.shutdown()
    cluster.shutdown()


if __name__ == "__main__":
    main()
