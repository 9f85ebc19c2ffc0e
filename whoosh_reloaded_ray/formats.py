"""User-registrable posting Format plug point.

Reference parity: ``whoosh.formats`` (formats.py:51-135) lets a user define
a new posting payload codec — what extra bytes each (doc, term) posting
carries, how its weight derives from the token occurrences, and how
payloads decode/combine.  The six shipped formats (Existence, Frequency,
Positions, Characters, PositionBoosts, CharacterBoosts) are implemented
natively as FieldSpec flags for speed; THIS module is the plug point for
formats the engine does not ship.

Usage::

    from whoosh_reloaded_ray import formats

    class MyFormat(formats.Format):
        def encode(self, occurrences):  # -> bytes | None
            ...
        def decode(self, payload):      # -> anything
            ...
        def weight(self, occurrences):  # -> float (posting weight)
            ...

    formats.register_format("myfmt", MyFormat())
    # FieldSpec(name=..., ..., format="myfmt") routes the field through the
    # codec: encode runs in the tokenizer stage (once per (doc, term)),
    # the payload rides the posting exchange in the generic binary
    # ``payload`` column (varint-length-framed per posting inside each
    # 128-posting block), and Searcher.payload(docnum, field, term) /
    # SegmentReader.payload(...) hand the raw bytes back for decode().

Engine mapping: a field with a custom format always takes the row-at-a-time
tokenize path (the codec is arbitrary Python), so reserve custom formats
for fields that need them — the shipped formats keep the vectorized path.

Occurrences passed to ``encode``/``weight`` are ``Occurrence`` namedtuples
``(pos, startchar, endchar, boost)`` in position order; startchar/endchar
are None unless the analyzer records spans (chars-path analyzers), and
boost is the per-token boost (DelimitedAttributeFilter payloads, else 1.0).
"""

from __future__ import annotations

import struct
from collections import namedtuple

Occurrence = namedtuple("Occurrence", "pos startchar endchar boost")


class Format:
    """Base class for custom posting payload codecs (reference
    formats.py:51-135 ``Format``)."""

    def encode(self, occurrences: list) -> bytes | None:
        """Payload bytes for one (doc, term) posting from its occurrence
        list (reference ``word_values`` valuestring)."""
        raise NotImplementedError

    def decode(self, payload: bytes | None):
        """Inverse of encode (reference ``decoder``/``decode_*``)."""
        raise NotImplementedError

    def weight(self, occurrences: list) -> float:
        """Posting weight from the occurrences (before field/doc boosts).
        Default: summed token boosts — the reference's Frequency-family
        behavior (formats.py:352-366)."""
        return float(sum(o.boost for o in occurrences))

    def combine(self, payloads: list) -> bytes | None:
        """Merge payloads of the same (doc, term) posting produced by
        separate values (reference ``Format.combine``).  Default re-encodes
        the concatenated decode — override for a cheaper merge."""
        raise NotImplementedError


_REGISTRY: dict = {}


def register_format(name: str, fmt: Format) -> None:
    """Register a Format instance (or class) under ``name`` — referenced
    by ``FieldSpec(format=name)``.  The registry is consulted on the
    DRIVER when the tokenizer stage is constructed; the resolved codec
    instance ships to the workers inside the serialized stage, so user
    classes defined anywhere picklable work."""
    if isinstance(fmt, type):
        fmt = fmt()
    _REGISTRY[name] = fmt


def get_format(name: str) -> Format:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"posting format {name!r} is not registered; call "
            "formats.register_format(name, fmt) at module level"
        ) from None


def unregister_format(name: str) -> None:
    _REGISTRY.pop(name, None)


class PositionBoostsFormat(Format):
    """The reference PositionBoosts format (formats.py:345-409)
    re-implemented through the PUBLIC plug point, as both a demonstration
    and a parity check against the native ``FieldSpec(boosts=True)`` path:
    payload = [count:varint][pos-deltas:varint...][f32 boosts...], weight =
    summed token boosts."""

    def encode(self, occurrences: list) -> bytes | None:
        out = bytearray()
        _write_varint(out, len(occurrences))
        prev = 0
        for o in occurrences:
            _write_varint(out, o.pos - prev)
            prev = o.pos
        for o in occurrences:
            out += struct.pack("<f", o.boost)
        return bytes(out)

    def decode(self, payload: bytes | None) -> list:
        """[(position, boost), ...]"""
        if not payload:
            return []
        cnt, i = _read_varint(payload, 0)
        poss = []
        cur = 0
        for _ in range(cnt):
            d, i = _read_varint(payload, i)
            cur += d
            poss.append(cur)
        boosts = struct.unpack_from(f"<{cnt}f", payload, i)
        return list(zip(poss, (float(b) for b in boosts)))

    def combine(self, payloads: list) -> bytes | None:
        pairs = sorted(p for pl in payloads for p in self.decode(pl))
        return self.encode(
            [Occurrence(pos, None, None, boost) for pos, boost in pairs]
        )


def _write_varint(out: bytearray, v: int) -> None:
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)


def _read_varint(buf: bytes, i: int) -> tuple:
    shift = v = 0
    while True:
        b = buf[i]
        i += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, i
        shift += 7


def entoken(texts, positions=False, chars=False, start_pos=0, **kw):
    """Token stream from pre-tokenized strings (reference
    formats.py entoken): one Token per string, positions counted from
    ``start_pos``."""
    from .compat import Token

    pos = start_pos
    for text in texts:
        yield Token(text, pos, **{k: v for k, v in kw.items()
                                  if k in ("mode", "boost")})
        pos += 1


def tokens(value, analyzer, kwargs):
    """Analyze ``value`` (or wrap a pre-tokenized list/tuple) into a Token
    stream (reference formats.tokens, formats.py:35-42)."""
    if isinstance(value, (tuple, list)):
        gen = entoken(value, **kwargs)
    else:
        gen = analyzer(value, **kwargs)
    return gen
