"""Curation ops (n-gram stats / decontamination / repetition / PII /
packing) vs DuckDB oracles at sf0.001, plus invariant tests the oracles
can't express."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["documents", "events"]:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _assert_match(mine, con, sql):
    orc = con.sql(sql).df()
    m = mine.to_pandas().sort_index(axis=1)
    o = orc.sort_index(axis=1)
    m = m.sort_values(list(m.columns)).reset_index(drop=True)
    o = o.sort_values(list(o.columns)).reset_index(drop=True)
    assert len(m) == len(o)
    o = o.astype({c: m[c].dtype for c in m.columns})
    for c in m.columns:
        assert (m[c].values == o[c].values).all(), f"column {c} mismatch"


def test_top_ngrams(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.top_ngrams(SF)
    _assert_match(res, con, cu.oracle_top_ngrams())
    n = res["n"].to_numpy(zero_copy_only=False)
    assert (n[:-1] >= n[1:]).all(), "descending counts"


def test_decontaminate(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.decontaminate(SF)
    _assert_match(res, con, cu.oracle_decontaminate())
    docs = res["doc_id"].to_numpy(zero_copy_only=False)
    assert (docs % cu.DECON_BENCH_MOD != 0).all(), "benchmark docs never flagged"


def test_decontaminate_hot_ngram(ray_session):
    """Skew: one n-gram shared by EVERY doc lands in one group; the
    pipeline must still flag all non-benchmark docs, not OOM or drop."""
    import ray

    from corpus_pipelines import curation as cu

    hot = "alpha beta gamma delta"
    rows = [{"doc_id": i, "text": f"{hot} filler{i} x{i} y{i} z{i}"} for i in range(60)]
    import os
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(
            pa.Table.from_pylist(rows), os.path.join(d, "documents.parquet")
        )
        res = cu.decontaminate(d, n=4, bench_mod=10)
    got = set(res["doc_id"].to_pylist())
    assert got == {i for i in range(60) if i % 10 != 0}


def test_repetition_stats(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.repetition_stats(SF)
    _assert_match(res, con, cu.oracle_repetition_stats())
    t = res.to_pandas()
    assert (t["n_distinct"] <= t["n_tokens"]).all()
    assert ((t["top_bigram_frac"] >= 0) & (t["top_bigram_frac"] <= 1)).all()


def test_redact_pii(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.redact_pii(SF)
    _assert_match(res, con, cu.oracle_redact_pii())
    assert res.to_pandas()["n_nums"].sum() > 0, "props contain numbers"


def test_redact_pii_patterns(ray_session):
    """Email and IPv4 patterns fire (the sf corpus only has numbers)."""
    import pyarrow.compute as pc

    from corpus_pipelines import curation as cu

    s = pa.array(["mail bob@example.com from 10.0.0.1 port 443"])
    for pat, repl in ((cu.PII_EMAIL, "<EMAIL>"), (cu.PII_IPV4, "<IP>"), (cu.PII_NUM, "<NUM>")):
        s = pc.replace_substring_regex(s, pat, repl)
    assert s.to_pylist() == ["mail <EMAIL> from <IP> port <NUM>"]


def test_doc_keywords(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.doc_keywords(SF)
    _assert_match(res, con, cu.oracle_doc_keywords())
    t = res.to_pandas()
    assert set(t["rank"]) == {1, 2, 3}
    # rank 1 has the max score within each doc
    g = t.groupby("doc_id")["score"]
    assert (g.transform("max") >= t["score"]).all()


def test_lazy_dataset_variants(ray_session):
    """collect=False returns a lazy Dataset (the 100 TB path: feed it to
    write_parquet instead of collecting)."""
    import ray.data

    from corpus_pipelines import curation as cu

    for fn in (cu.repetition_stats, cu.redact_pii, cu.pack_sequences, cu.doc_keywords):
        ds = fn(SF, collect=False)
        assert isinstance(ds, ray.data.Dataset), fn.__name__
    assert cu.repetition_stats(SF, collect=False).count() == 500


def test_dup_spans(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.dup_spans(SF)
    _assert_match(res, con, cu.oracle_dup_spans())
    assert res.num_rows > 0, "sf corpus plants near-duplicate docs"


def test_pack_sequences(ray_session, con):
    from corpus_pipelines import curation as cu

    res = cu.pack_sequences(SF)
    _assert_match(res, con, cu.oracle_pack_sequences())
    t = res.to_pandas()
    # every doc packed exactly once
    assert t["doc_id"].is_unique and len(t) > 0
    # bin fill <= budget unless the bin holds a single over-budget doc
    fills = t.groupby(["source", "bin_id"]).agg(
        fill=("n_tokens", "sum"), ndocs=("doc_id", "count")
    )
    over = fills[fills["fill"] > cu.PACK_BUDGET]
    assert (over["ndocs"] == 1).all()
    # bin ids are dense per source starting at 0
    for _, g in t.groupby("source"):
        bins = np.sort(g["bin_id"].unique())
        assert bins[0] == 0 and (np.diff(bins) == 1).all()


def test_heavy_hitters_cms(ray_session, con):
    """CMS top-k equals exact top-k on the gate corpus; estimates never
    undercount and overshoot within the e/w * total_tokens bound."""
    from corpus_pipelines.sketches import CMS_W, heavy_hitters_cms

    t = heavy_hitters_cms(SF).to_pandas()
    exact = con.sql(
        """SELECT w AS term, CAST(count(*) AS BIGINT) AS n FROM
             (SELECT unnest(string_split(lower(text), ' ')) AS w FROM documents)
           GROUP BY w ORDER BY n DESC, w LIMIT 10"""
    ).df()
    total = con.sql(
        "SELECT sum(len(string_split(lower(text), ' '))) FROM documents"
    ).fetchone()[0]
    assert list(t["term"]) == list(exact["term"])
    over = t["est_count"].values - exact["n"].values
    assert (over >= 0).all()
    assert (over <= 2.7182818 * total / CMS_W).all()
