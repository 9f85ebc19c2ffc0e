"""Relational analytics over the TPC-H-style tables (lineitem / orders /
customer): wide aggregates with per-batch partial combine, and a
broadcast hash join against a small dimension table.

These demonstrate the two workhorse shapes of warehouse-style pipelines
on Ray Data:

  * ``lineitem_pricing_summary`` — TPC-H Q1 shape: filtered scan ->
    per-batch partial aggregation (the combiner collapses 10^5-row
    batches to <= 6 group rows BEFORE the shuffle) -> tiny global
    groupby.  Monetary sums use exact integer cents (doubles summed in
    nondeterministic order would diverge from the SQL oracle in the
    last ulp), so results are bit-identical and order-independent.
  * ``orders_by_segment`` — broadcast hash join: the 1500-row customer
    dimension is ``ray.put`` ONCE and looked up inside every orders
    batch (no shuffle join for a small side), then the annotated fact
    rows pre-aggregate per batch as above.
  * ``top_customers_by_spend`` — aggregate-then-lookup: the big-table
    groupby produces per-customer totals, top-k selects 10 rows, and
    only those 10 keys touch the dimension table (pruned read).

Scale notes: the only all-to-all in each op moves one row per group per
batch; the dimension broadcast is O(dim) per node, not per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SHIP_CUTOFF = "1998-09-02"  # TPC-H Q1's dateadd('-90 days', max) analog
TOP_CUSTOMERS_K = 10


def _read(sf_dir: str, table: str, columns):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


def _cents(col) -> np.ndarray:
    """Exact integer cents from a 2-decimal double column (round-to-
    nearest; inputs sit within 1e-9 of true cents so DuckDB's round
    agrees bit-for-bit)."""
    v = col.to_numpy(zero_copy_only=False)
    return np.rint(v * 100.0).astype(np.int64)


# ---------------------------------------------------------------------------
# TPC-H Q1 shape
# ---------------------------------------------------------------------------


def lineitem_pricing_summary(sf_dir: str) -> pa.Table:
    """Pricing summary per (returnflag, linestatus) for lineitems shipped
    on or before SHIP_CUTOFF: quantity, base price (cents), discounted
    price (1e-4 units), charged price (1e-6 units), order counts —
    all exact integers (see module docstring)."""
    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    cutoff = np.datetime64(SHIP_CUTOFF, "us")

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ship <= cutoff.astype("datetime64[us]").astype(np.int64)
        if not keep.any():
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_price_c": pa.array([], pa.int64()),
                    "sum_disc_price_e4": pa.array([], pa.int64()),
                    "sum_charge_e6": pa.array([], pa.int64()),
                    "count_order": pa.array([], pa.int64()),
                }
            )
        rf = batch["l_returnflag"].to_numpy(zero_copy_only=False)[keep]
        ls = batch["l_linestatus"].to_numpy(zero_copy_only=False)[keep]
        qty = np.rint(batch["l_quantity"].to_numpy(zero_copy_only=False)[keep]).astype(
            np.int64
        )
        price_c = _cents(batch["l_extendedprice"])[keep]
        disc_pct = np.rint(
            batch["l_discount"].to_numpy(zero_copy_only=False)[keep] * 100.0
        ).astype(np.int64)
        tax_pct = np.rint(
            batch["l_tax"].to_numpy(zero_copy_only=False)[keep] * 100.0
        ).astype(np.int64)
        disc_e4 = price_c * (100 - disc_pct)
        charge_e6 = disc_e4 * (100 + tax_pct)
        key = np.char.add(np.char.add(rf.astype(str), "|"), ls.astype(str))
        uk, inv = np.unique(key, return_inverse=True)
        ngroups = len(uk)
        parts = np.char.partition(uk, "|")
        return pa.table(
            {
                "l_returnflag": pa.array(parts[:, 0].tolist(), pa.string()),
                "l_linestatus": pa.array(parts[:, 2].tolist(), pa.string()),
                "sum_qty": pa.array(np.bincount(inv, qty, ngroups).astype(np.int64)),
                "sum_base_price_c": pa.array(
                    np.bincount(inv, price_c, ngroups).astype(np.int64)
                ),
                "sum_disc_price_e4": pa.array(
                    np.bincount(inv, disc_e4, ngroups).astype(np.int64)
                ),
                "sum_charge_e6": pa.array(
                    np.bincount(inv, charge_e6, ngroups).astype(np.int64)
                ),
                "count_order": pa.array(np.bincount(inv, minlength=ngroups).astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .sum(["sum_qty", "sum_base_price_c", "sum_disc_price_e4", "sum_charge_e6", "count_order"])
    )
    t = pa.concat_tables(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    t = t.rename_columns(
        [c.replace("sum(", "").replace(")", "") if c.startswith("sum(") else c for c in t.column_names]
    )
    return t.sort_by(
        [("l_returnflag", "ascending"), ("l_linestatus", "ascending")]
    )


def oracle_lineitem_pricing_summary() -> str:
    return f"""
SELECT l_returnflag, l_linestatus,
  CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_c,
  CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
      * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS sum_disc_price_e4,
  CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
      * (100 - CAST(round(l_discount * 100) AS BIGINT))
      * (100 + CAST(round(l_tax * 100) AS BIGINT))) AS BIGINT) AS sum_charge_e6,
  CAST(count(*) AS BIGINT) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{SHIP_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# broadcast hash join: orders x customer dimension
# ---------------------------------------------------------------------------


def orders_by_segment(sf_dir: str) -> pa.Table:
    """Orders annotated with the customer's market segment via a
    BROADCAST hash join (customer is ray.put once; every orders batch
    does a numpy lookup — no shuffle join for a dim table), then
    aggregated per (mktsegment, orderpriority): order count + total
    spend in exact cents."""
    import pyarrow.parquet as pq
    import ray

    dim = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    keys = dim["c_custkey"].to_numpy()
    segs = dim["c_mktsegment"].to_numpy(zero_copy_only=False)
    order_ = np.argsort(keys)
    dim_ref = ray.put((keys[order_], segs[order_]))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        dkeys, dsegs = ray.get(dim_ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(dkeys, ck)
        idx = np.clip(idx, 0, len(dkeys) - 1)
        seg = dsegs[idx]
        # orders with no matching customer would mis-join; fact tables
        # reference the dim by construction, assert instead of masking
        assert (dkeys[idx] == ck).all(), "orphan o_custkey"
        pr = batch["o_orderpriority"].to_numpy(zero_copy_only=False)
        cents = _cents(batch["o_totalprice"])
        key = np.char.add(np.char.add(seg.astype(str), "|"), pr.astype(str))
        uk, inv = np.unique(key, return_inverse=True)
        parts = np.char.partition(uk, "|")
        return pa.table(
            {
                "c_mktsegment": pa.array(parts[:, 0].tolist(), pa.string()),
                "o_orderpriority": pa.array(parts[:, 2].tolist(), pa.string()),
                "n_orders": pa.array(np.bincount(inv, minlength=len(uk)).astype(np.int64)),
                "total_spend_c": pa.array(
                    np.bincount(inv, cents, len(uk)).astype(np.int64)
                ),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["c_mktsegment", "o_orderpriority"])
        .sum(["n_orders", "total_spend_c"])
    )
    t = pa.concat_tables(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    t = t.rename_columns(
        [c[4:-1] if c.startswith("sum(") else c for c in t.column_names]
    )
    return t.sort_by(
        [("c_mktsegment", "ascending"), ("o_orderpriority", "ascending")]
    )


def oracle_orders_by_segment() -> str:
    return """
SELECT c_mktsegment, o_orderpriority,
  CAST(count(*) AS BIGINT) AS n_orders,
  CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_spend_c
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment, o_orderpriority
ORDER BY c_mktsegment, o_orderpriority
"""


# ---------------------------------------------------------------------------
# aggregate-then-lookup top-k
# ---------------------------------------------------------------------------


def top_customers_by_spend(sf_dir: str, k: int = TOP_CUSTOMERS_K) -> pa.Table:
    """Top-k customers by total order spend (exact cents), with names
    attached AFTER the top-k cut: only k keys ever touch the dimension
    table (filtered read), so the join cost is O(k) regardless of fact
    size.  Ties break on c_custkey."""
    import pyarrow.parquet as pq

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        cents = _cents(batch["o_totalprice"])
        uk, inv = np.unique(ck, return_inverse=True)
        return pa.table(
            {
                "c_custkey": pa.array(uk, pa.int64()),
                "total_spend_c": pa.array(
                    np.bincount(inv, cents, len(uk)).astype(np.int64)
                ),
                "n_orders": pa.array(np.bincount(inv, minlength=len(uk)).astype(np.int64)),
            }
        )

    top = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("c_custkey")
        .sum(["total_spend_c", "n_orders"])
        .sort(["sum(total_spend_c)", "c_custkey"], descending=[True, False])
        .limit(k)
    )
    t = pa.concat_tables(top.iter_batches(batch_format="pyarrow", batch_size=None))
    t = t.rename_columns(
        [c[4:-1] if c.startswith("sum(") else c for c in t.column_names]
    )
    names = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in", t["c_custkey"].to_pylist())],
    )
    nm = dict(zip(names["c_custkey"].to_pylist(), names["c_name"].to_pylist()))
    t = t.append_column(
        "c_name", pa.array([nm[c] for c in t["c_custkey"].to_pylist()], pa.string())
    )
    return t.select(["c_custkey", "c_name", "total_spend_c", "n_orders"])


def oracle_top_customers_by_spend() -> str:
    k = TOP_CUSTOMERS_K
    return f"""
WITH spend AS (
  SELECT o_custkey AS c_custkey,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_spend_c,
         CAST(count(*) AS BIGINT) AS n_orders
  FROM orders GROUP BY o_custkey)
SELECT s.c_custkey, c.c_name, s.total_spend_c, s.n_orders
FROM spend s JOIN customer c USING (c_custkey)
ORDER BY s.total_spend_c DESC, s.c_custkey LIMIT {k}
"""


# ---------------------------------------------------------------------------
# multi-dimension broadcast chain: orders -> customer -> nation -> region
# ---------------------------------------------------------------------------


def revenue_by_nation(sf_dir: str) -> pa.Table:
    """Order revenue (exact cents) per customer nation and region — a
    three-table dimension chain (customer 1.5k x nation 25 x region 5)
    pre-joined ON THE DRIVER into one custkey -> (nation, region) lookup
    and broadcast once; the orders fact table only ever flows through
    map_batches.  TPC-H Q5's join shape without the supplier leg."""
    import pyarrow.parquet as pq
    import ray

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    n2r = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    nk2name = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))
    nk2region = {
        k: n2r[r]
        for k, r in zip(
            nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()
        )
    }
    ckeys = cust["c_custkey"].to_numpy()
    cnk = cust["c_nationkey"].to_numpy()
    order_ = np.argsort(ckeys)
    names = np.array([nk2name[int(k)] for k in cnk], object)[order_]
    regions = np.array([nk2region[int(k)] for k in cnk], object)[order_]
    dim_ref = ray.put((ckeys[order_], names, regions))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        dkeys, dnames, dregions = ray.get(dim_ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(dkeys, ck), 0, len(dkeys) - 1)
        assert (dkeys[idx] == ck).all(), "orphan o_custkey"
        cents = _cents(batch["o_totalprice"])
        key = np.char.add(
            np.char.add(dregions[idx].astype(str), "|"), dnames[idx].astype(str)
        )
        uk, inv = np.unique(key, return_inverse=True)
        parts = np.char.partition(uk, "|")
        return pa.table(
            {
                "r_name": pa.array(parts[:, 0].tolist(), pa.string()),
                "n_name": pa.array(parts[:, 2].tolist(), pa.string()),
                "revenue_c": pa.array(np.bincount(inv, cents, len(uk)).astype(np.int64)),
                "n_orders": pa.array(np.bincount(inv, minlength=len(uk)).astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["r_name", "n_name"])
        .sum(["revenue_c", "n_orders"])
    )
    t = pa.concat_tables(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    t = t.rename_columns([c[4:-1] if c.startswith("sum(") else c for c in t.column_names])
    return t.sort_by([("r_name", "ascending"), ("n_name", "ascending")])


def oracle_revenue_by_nation() -> str:
    return """
SELECT r_name, n_name,
  CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_c,
  CAST(count(*) AS BIGINT) AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name, n_name ORDER BY r_name, n_name
"""


# ---------------------------------------------------------------------------
# lineitem x part / supplier dimension joins
# ---------------------------------------------------------------------------


def part_type_revenue(sf_dir: str) -> pa.Table:
    """Lineitem revenue (discounted, exact 1e-4 units) per part type:
    broadcast the part dimension's partkey -> type map, pre-aggregate
    per batch, one tiny groupby."""
    import pyarrow.parquet as pq
    import ray

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pkeys = part["p_partkey"].to_numpy()
    ptypes = part["p_type"].to_numpy(zero_copy_only=False)
    order_ = np.argsort(pkeys)
    dim_ref = ray.put((pkeys[order_], ptypes[order_]))

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        dkeys, dtypes = ray.get(dim_ref)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(dkeys, pk), 0, len(dkeys) - 1)
        assert (dkeys[idx] == pk).all(), "orphan l_partkey"
        price_c = _cents(batch["l_extendedprice"])
        disc_pct = np.rint(
            batch["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        rev_e4 = price_c * (100 - disc_pct)
        uk, inv = np.unique(dtypes[idx], return_inverse=True)
        return pa.table(
            {
                "p_type": pa.array(uk.tolist(), pa.string()),
                "revenue_e4": pa.array(np.bincount(inv, rev_e4, len(uk)).astype(np.int64)),
                "n_items": pa.array(np.bincount(inv, minlength=len(uk)).astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("p_type")
        .sum(["revenue_e4", "n_items"])
    )
    t = pa.concat_tables(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    t = t.rename_columns([c[4:-1] if c.startswith("sum(") else c for c in t.column_names])
    return t.sort_by("p_type")


def oracle_part_type_revenue() -> str:
    return """
SELECT p_type,
  CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
      * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4,
  CAST(count(*) AS BIGINT) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_type ORDER BY p_type
"""


def supplier_revenue(sf_dir: str, k: int = TOP_CUSTOMERS_K) -> pa.Table:
    """Top-k suppliers by discounted lineitem revenue, names attached
    after the cut (aggregate-then-lookup, same shape as
    top_customers_by_spend)."""
    import pyarrow.parquet as pq

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        price_c = _cents(batch["l_extendedprice"])
        disc_pct = np.rint(
            batch["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        rev_e4 = price_c * (100 - disc_pct)
        uk, inv = np.unique(sk, return_inverse=True)
        return pa.table(
            {
                "s_suppkey": pa.array(uk, pa.int64()),
                "revenue_e4": pa.array(np.bincount(inv, rev_e4, len(uk)).astype(np.int64)),
            }
        )

    top = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .sum("revenue_e4")
        .sort(["sum(revenue_e4)", "s_suppkey"], descending=[True, False])
        .limit(k)
    )
    t = pa.concat_tables(top.iter_batches(batch_format="pyarrow", batch_size=None))
    t = t.rename_columns([c[4:-1] if c.startswith("sum(") else c for c in t.column_names])
    names = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", t["s_suppkey"].to_pylist())],
    )
    nm = dict(zip(names["s_suppkey"].to_pylist(), names["s_name"].to_pylist()))
    t = t.append_column(
        "s_name", pa.array([nm[s] for s in t["s_suppkey"].to_pylist()], pa.string())
    )
    return t.select(["s_suppkey", "s_name", "revenue_e4"])


def oracle_supplier_revenue() -> str:
    k = TOP_CUSTOMERS_K
    return f"""
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4
  FROM lineitem GROUP BY l_suppkey)
SELECT r.s_suppkey, s.s_name, r.revenue_e4
FROM rev r JOIN supplier s USING (s_suppkey)
ORDER BY r.revenue_e4 DESC, r.s_suppkey LIMIT {k}
"""
