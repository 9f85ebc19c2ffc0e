"""The exchange key: every posting row Tokenizer emits carries the shard that
``SegmentReader`` will look in.

Each analysis path (vectorized standard text, vectorized id, the chars
loop, the analyzer loop for stemming fields, the custom-Format loop) is
checked against the rule stated row by row: a term goes to
``_shard_of(field, term)``, its one shard, and a sentinel doc-length row
to ``docnum % num_shards``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whoosh_reloaded_ray import formats
from whoosh_reloaded_ray.functions.analysis import stemming_analyzer
from whoosh_reloaded_ray.schema import IndexSchema, id_field, text_field
from whoosh_reloaded_ray.sources.corpus import generate_transcripts
from whoosh_reloaded_ray.stages.tokenize import LEN_SENTINEL, Tokenizer, _shard_of

SHARDS = 8
BASE = 1000  # first docnum of the batch's segment

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


def _expected(postings):
    return [
        d % SHARDS if t == LEN_SENTINEL else _shard_of(f, t, SHARDS)
        for f, t, d in zip(*(postings[c].to_pylist() for c in ("field", "term", "docnum")))
    ]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_shard_column_follows_the_routing_rule(batch, path, monkeypatch):
    spec, method = PATHS[path]
    calls = []
    real = getattr(Tokenizer, method)

    def spy(self, *args, **kwargs):
        calls.append(method)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Tokenizer, method, spy)
    schema = IndexSchema(fields=[spec])
    postings = Tokenizer(schema, num_shards=SHARDS)(batch)
    assert calls, f"{path} did not take {method}"
    assert postings["shard"].to_pylist() == _expected(postings)
