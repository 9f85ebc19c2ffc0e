"""Relational analytics (TPC-H-style tables) vs DuckDB oracles at
sf0.001: Q1-shape partial aggregation, broadcast dim join, top-k with
post-cut lookup.  Monetary sums are exact integer cents so distributed
summation order cannot diverge from the oracle."""

from __future__ import annotations

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "nation", "region", "part", "supplier"]:
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


def test_lineitem_pricing_summary(ray_session, con):
    from corpus_pipelines import relational as rel

    res = rel.lineitem_pricing_summary(SF)
    _assert_match(res, con, rel.oracle_lineitem_pricing_summary())
    assert res.num_rows > 0


def test_orders_by_segment(ray_session, con):
    from corpus_pipelines import relational as rel

    res = rel.orders_by_segment(SF)
    _assert_match(res, con, rel.oracle_orders_by_segment())
    # every (segment, priority) combo count is positive
    assert min(res["n_orders"].to_pylist()) >= 1


def test_top_customers_by_spend(ray_session, con):
    from corpus_pipelines import relational as rel

    res = rel.top_customers_by_spend(SF)
    _assert_match(res, con, rel.oracle_top_customers_by_spend())
    spend = res["total_spend_c"].to_pylist()
    assert spend == sorted(spend, reverse=True)
    assert res.num_rows == rel.TOP_CUSTOMERS_K


def test_revenue_by_nation(ray_session, con):
    from corpus_pipelines import relational as rel

    res = rel.revenue_by_nation(SF)
    _assert_match(res, con, rel.oracle_revenue_by_nation())
    assert res.num_rows > 0


def test_part_type_revenue(ray_session, con):
    from corpus_pipelines import relational as rel

    res = rel.part_type_revenue(SF)
    _assert_match(res, con, rel.oracle_part_type_revenue())
    assert res.num_rows > 0


def test_supplier_revenue(ray_session, con):
    from corpus_pipelines import relational as rel

    res = rel.supplier_revenue(SF)
    _assert_match(res, con, rel.oracle_supplier_revenue())
    rev = res["revenue_e4"].to_pylist()
    assert rev == sorted(rev, reverse=True)
