"""The exchange key: every posting row Tokenizer emits carries the shard that
``SegmentReader._shards_for`` will look in.

Each analysis path (vectorized standard text, vectorized id, the chars
loop, the analyzer loop for stemming fields, the custom-Format loop) is
checked, with and without a salted hot term, against the rule stated
row by row: a term goes to ``_shard_of(field, term)``, a sentinel
doc-length row to ``docnum % num_shards``, and a salted term to
``_salted_shard_of(field, term, salt)`` with ``salt`` its docnum range.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray import formats
from whoosh_reloaded_ray.functions.analysis import stemming_analyzer
from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.stages.tokenize import (
    LEN_SENTINEL,
    Tokenizer,
    _salted_shard_of,
    _shard_of,
)

SHARDS = 8
BASE = 1000  # first docnum of the batch's segment, so salts use an offset

PATHS = {
    "standard": (text_field("text"), "_vector_field"),
    "id": (id_field("role"), "_vector_id_field"),
    "chars": (text_field("text", chars=True), "_chars_field"),
    "stemming": (
        text_field("text", analyzer=stemming_analyzer(), spelling=True),
        "_loop_field",
    ),
    "format": (text_field("text", format="routing_pb"), "_loop_field"),
}


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    formats.register_format("routing_pb", formats.PositionBoostsFormat())
    path = str(tmp_path_factory.mktemp("routing") / "t.parquet")
    generate_transcripts(path, n_turns=400, avg_turn_words=20, seed=9)
    t = pq.read_table(path)
    yield t.append_column("docnum", pa.array(range(BASE, BASE + t.num_rows), pa.uint64()))
    formats.unregister_format("routing_pb")


def _expected(postings, salted):
    want = []
    for f, t, d in zip(*(postings[c].to_pylist() for c in ("field", "term", "docnum"))):
        if t == LEN_SENTINEL:
            want.append(d % SHARDS)
        elif (f, t) in salted:
            n_salts = salted[(f, t)]
            salt = (d - BASE) * n_salts // 400
            want.append(_salted_shard_of(f, t, salt, SHARDS))
        else:
            want.append(_shard_of(f, t, SHARDS))
    return want


@pytest.mark.parametrize("salt", [False, True], ids=["unsalted", "salted"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_shard_column_follows_the_routing_rule(batch, path, salt, monkeypatch):
    spec, method = PATHS[path]
    calls = []
    real = getattr(Tokenizer, method)

    def spy(self, *args, **kwargs):
        calls.append(method)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Tokenizer, method, spy)
    schema = IndexSchema(fields=[spec])
    postings = Tokenizer(schema, num_shards=SHARDS, doc_range=(BASE, 400))(batch)
    assert calls, f"{path} did not take {method}"

    salted = {}
    if salt:
        # the two hottest terms of each emitted field, split 3 and 5 ways
        fields = Counter(postings["field"].to_pylist())
        for f in fields:
            terms = Counter(
                t for ff, t in zip(postings["field"].to_pylist(), postings["term"].to_pylist())
                if ff == f and t != LEN_SENTINEL
            )
            for (t, _), n in zip(terms.most_common(2), (3, 5)):
                salted[(f, t)] = n
        postings = Tokenizer(
            schema, num_shards=SHARDS, salted=salted, doc_range=(BASE, 400)
        )(batch)

    assert postings["shard"].to_pylist() == _expected(postings, salted)
    if salt:
        for f, t in salted:
            rows = [
                s for ff, tt, s in zip(*(postings[c].to_pylist() for c in ("field", "term", "shard")))
                if ff == f and tt == t
            ]
            assert len(set(rows)) >= 2, f"salted {f}:{t} stayed in one shard"
