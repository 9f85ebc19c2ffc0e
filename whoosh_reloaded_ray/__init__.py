"""whoosh_reloaded_ray — a Ray-Data-native full-text index + BM25 query engine.

A from-scratch rebuild of the *capabilities* of Sygil-Dev/whoosh-reloaded
(reference at /root/reference, studied for semantics only — no code copied):
schema-driven analysis chain -> distributed posting-list construction
(tokenize map tasks -> term-shard exchange -> segment write tasks) ->
immutable segments with a manifest (TOC equivalent) -> BM25F query execution
with whoosh-parity scoring and matcher semantics.

Work runs as Ray tasks over zero-copy Arrow batches; actors only where a
shared searcher state is genuinely needed.
"""

__version__ = "0.1.0"
