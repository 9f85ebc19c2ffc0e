"""Fixture-oracle freshness guard.

``bpe_token_counts``, ``neardup_embedding_pairs_lsh``, ``sketches_approx``
and ``ann_approx_topk`` (``corpus_pipelines``) are checked against
COMMITTED parquet fixtures generated by independent naive single-process
implementations (scripts/gen_gate_fixtures.py).  These tests (a) regenerate
the naive results and assert the committed fixtures match — so a pipeline
or generator change cannot silently leave a stale fixture — and (b) assert
the distributed pipeline reproduces the fixture exactly.
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXDIR = os.path.join(REPO, "tests", "fixtures")
sys.path.insert(0, os.path.join(REPO, "scripts"))

from gen_gate_fixtures import (  # noqa: E402
    gen_ann_approx_topk,
    gen_bpe_token_counts,
    gen_neardup_embedding_lsh,
    gen_sketches_approx,
)

SCALES = [("sf0.001", "/root/testdata/sf0.001"), ("sf0.01", "/root/testdata/sf0.01")]


@pytest.mark.parametrize("tag,sf", SCALES)
def test_bpe_fixture_fresh(tag, sf):
    fresh = gen_bpe_token_counts(sf).to_pandas()
    committed = pq.read_table(
        os.path.join(FIXDIR, f"bpe_token_counts_{tag}.parquet")
    ).to_pandas()
    assert fresh.equals(committed), "committed BPE fixture is stale — rerun scripts/gen_gate_fixtures.py"


@pytest.mark.parametrize("tag,sf", SCALES)
def test_lsh_fixture_fresh(tag, sf):
    fresh = gen_neardup_embedding_lsh(sf).to_pandas()
    committed = pq.read_table(
        os.path.join(FIXDIR, f"neardup_embedding_lsh_{tag}.parquet")
    ).to_pandas()
    assert fresh.equals(committed), "committed LSH fixture is stale — rerun scripts/gen_gate_fixtures.py"


@pytest.mark.parametrize("tag,sf", SCALES)
def test_sketches_fixture_fresh(tag, sf):
    fresh = gen_sketches_approx(sf).to_pandas()
    committed = pq.read_table(
        os.path.join(FIXDIR, f"sketches_approx_{tag}.parquet")
    ).to_pandas()
    assert fresh.equals(committed), "committed sketches fixture is stale — rerun scripts/gen_gate_fixtures.py"


def test_pipeline_matches_sketches_fixture(ray_session):
    from corpus_pipelines.sketches import sketches_approx

    tag, sf = SCALES[0]
    mine = sketches_approx(sf)
    committed = pq.read_table(
        os.path.join(FIXDIR, f"sketches_approx_{tag}.parquet")
    ).to_pandas()
    assert mine.reset_index(drop=True).equals(committed)


def test_pipeline_matches_bpe_fixture(ray_session):
    from corpus_pipelines import bpe

    tag, sf = SCALES[0]
    mine = bpe.bpe_token_counts(sf).to_pandas()
    committed = pq.read_table(
        os.path.join(FIXDIR, f"bpe_token_counts_{tag}.parquet")
    ).to_pandas()
    assert mine.reset_index(drop=True).equals(committed)


def test_pipeline_matches_lsh_fixture(ray_session):
    from corpus_pipelines import ann

    tag, sf = SCALES[0]
    mine = ann.neardup_embedding_pairs_lsh(sf).to_pandas()
    committed = pq.read_table(
        os.path.join(FIXDIR, f"neardup_embedding_lsh_{tag}.parquet")
    ).to_pandas()
    assert mine.reset_index(drop=True).equals(committed)


@pytest.mark.parametrize("tag,sf", SCALES)
def test_ann_approx_fixture_fresh(tag, sf):
    fresh = gen_ann_approx_topk(sf).to_pandas()
    committed = pq.read_table(
        os.path.join(FIXDIR, f"ann_approx_topk_{tag}.parquet")
    ).to_pandas()
    assert fresh.equals(committed), (
        "committed ANN fixture is stale — rerun scripts/gen_gate_fixtures.py"
    )


@pytest.mark.parametrize("tag,sf", SCALES)
def test_pipeline_matches_ann_approx_fixture(ray_session, tag, sf):
    """The distributed IVF/HNSW/PQ pipelines reproduce the naive fixture
    EXACTLY at both scales — bit-determinism under blocking is the point
    (fixed-point Lloyd sums; splitmix64(vec_id)-sharded HNSW; raw-sim
    batching-invariant merges)."""
    from corpus_pipelines.ann import ann_approx_topk

    mine = ann_approx_topk(sf)
    committed = pq.read_table(
        os.path.join(FIXDIR, f"ann_approx_topk_{tag}.parquet")
    ).to_pandas()
    assert mine.reset_index(drop=True).equals(committed)
