"""Driver contract: every ``__ray_entry__.queries()`` gate against its
``oracle_sql()`` in DuckDB, at sf0.01.

Each gate must match its oracle in row count, column names and an
order-insensitive value hash (columns sorted by name, rows sorted, values
stringified), which is how the driver scores the gates.
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd
import pytest

import __ray_entry__ as entrymod

# the driver runs the gates on this scale factor (entry() uses sf0.001)
SF_DIR = "/root/testdata/sf0.01"
TABLES = ("events", "documents")


def _value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    rows = sorted(tuple(str(v) for v in row) for row in df.itertuples(index=False))
    h = hashlib.sha256()
    for r in rows:
        h.update("|".join(r).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(SF_DIR, f"{t}.parquet")
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    yield con
    con.close()


def test_every_gate_has_an_oracle():
    assert set(entrymod.queries()) == set(entrymod.oracle_sql())


@pytest.mark.parametrize("name", list(entrymod.queries()))
def test_gate_matches_oracle(name, ray_session, duck):
    mine = entrymod.queries()[name](SF_DIR).to_pandas()
    theirs = duck.sql(entrymod.oracle_sql()[name]).df()
    assert len(mine) == len(theirs)
    assert sorted(map(str, mine.columns)) == sorted(map(str, theirs.columns))
    assert _value_hash(mine) == _value_hash(theirs)
