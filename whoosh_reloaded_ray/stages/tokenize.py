"""Posting emission: corpus batches -> exploded posting table.

Replaces the reference's row-at-a-time ``add_document`` + PostingPool
(writing.py:748-822): one call turns a batch of documents (one partition,
inside a build map task) into an Arrow posting table

    (field, term, docnum, weight, positions, len_byte, shard)

with one extra *sentinel* row per (scorable-field, doc) carrying the true
field length (term = "\\x00" — the analyzer can never produce it, since its
tokens are non-empty word characters), so doc lengths ride the same exchange
instead of forcing a second tokenize pass over the corpus.

Weight semantics (parity-critical): BM25's "tf" is the summed token boost
per (doc, term) — 1.0 per occurrence without boosts — and positions are
post-stop-filter, renumbered (reference formats.py:190-236).

``shard`` is the exchange key, set in one place (``Tokenizer._route``) from
each posting's (field, term, docnum) after the analysis path that emitted
it: ``crc32(field:term) % num_shards`` (stable across processes, unlike
Python's ``hash``); sentinel rows shard by docnum so doc lengths spread
evenly.  Every term lives in exactly one shard of a segment.  The analysis
paths know nothing of shards.  Hot-term skew: a single term's postings land
in one shard, but a shard holds ~|vocab|/R terms of one segment's rows, so
the skew is bounded by the hottest term's posting count in a segment; see
stages/segment_write.py for the block layout that keeps even a giant
posting list streamable.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import itertools
import re as _re

from ..functions.analysis import make_analyzer
from ..functions.quant import length_to_byte, lengths_to_bytes
from ..functions.varint import binary_array_from_offsets, encode_varints, encode_varints_with_offsets
from ..schema import IndexSchema

LEN_SENTINEL = "\x00"

POSTING_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("docnum", pa.uint64()),
        ("weight", pa.float32()),
        # per-posting varint stream: varint(count) + delta-varints — encoded
        # ONCE here so the exchange moves compact bytes and the segment
        # writer can blockify by pure buffer slicing
        ("positions", pa.binary()),
        # optional char-offset payload (reference Characters format,
        # formats.py:344-409): varint stream [count, s1, e1-s1, s2-e1,
        # e2-s2, ...] per posting; null unless the field spec sets chars
        ("chars", pa.binary()),
        # optional per-position boost payload (reference PositionBoosts /
        # CharacterBoosts formats, formats.py:345-470): varint stream
        # [count, f32bits(b1), f32bits(b2), ...] per posting; null unless
        # the field spec sets boosts (missing payload decodes as all-1.0)
        ("boosts", pa.binary()),
        # generic USER-FORMAT payload (whoosh_reloaded_ray/formats.py —
        # the custom posting Format plug point): varint-length-framed
        # bytes per posting so per-posting boundaries survive the block
        # concatenation in the segment writer; null unless the field spec
        # names a registered format
        ("payload", pa.binary()),
        ("len_byte", pa.uint8()),
        ("shard", pa.int32()),
    ]
)


def _shard_of(field: str, term: str, num_shards: int) -> int:
    return zlib.crc32(f"{field}:{term}".encode("utf-8")) % num_shards


class Tokenizer:
    """Callable: a batch of documents (with ``docnum``) -> POSTING_SCHEMA
    postings.  Analyzers compile once per instance; a build ships one
    instance to its map tasks through the object store."""

    def __init__(
        self,
        schema: IndexSchema,
        num_shards: int = 16,
        doc_range: tuple | None = None,  # ignored; perfbench's replay_build still passes it
    ):
        """``num_shards``: the shard count ``_route`` keys postings by."""
        self.schema = schema
        self.num_shards = num_shards
        self.specs = [
            (f.name, f.analyzer, f.scorable, f.positions, f.boost)
            for f in schema.indexed_fields
        ]
        # fields storing char-offset payloads (reference Characters format)
        self.chars_fields = {
            f.name for f in schema.indexed_fields if getattr(f, "chars", False)
        }
        # fields storing per-position boost payloads (reference
        # PositionBoosts/CharacterBoosts formats)
        self.boosts_fields = {
            f.name for f in schema.indexed_fields if getattr(f, "boosts", False)
        }
        # user-registered posting Format codecs (formats.py plug point):
        # resolved HERE on the driver so the codec instances ship to the
        # workers inside the serialized stage
        from ..formats import get_format

        self.custom_formats = {
            f.name: get_format(f.format)
            for f in schema.indexed_fields
            if getattr(f, "format", None)
        }
        self.analyzers = [
            (f.name, make_analyzer(f.analyzer), f.scorable, f.positions, f.boost)
            for f in schema.indexed_fields
        ]
        # separate spelling fields (reference TEXT(spelling=True),
        # fields.py:296-330): unstemmed word forms -> "spell_<name>",
        # weight 1 per unique word per doc (frequency == doc frequency,
        # matching the reference's one-post-per-spellable-word)
        import dataclasses as _dc

        self.spell_specs = [
            (
                f"spell_{f.name}",
                f.name,
                _dc.replace(f.analyzer, kind="standard", stemmer=None),
            )
            for f in schema.indexed_fields
            if getattr(f, "spelling", False)
            and f.analyzer is not None
            and (f.analyzer.stemmer or f.analyzer.kind == "stemming")
        ]
        self._vec_pats: dict = {}

    @staticmethod
    def _row_boosts(fname, batch):
        """Per-row write-time boost (reference writing.py:417-426 via
        add_document's ``_boost`` / ``_<field>_boost`` kwargs): the
        field-specific column REPLACES the doc-level one when present.
        None when neither column exists (the common case — zero cost)."""
        key = f"_{fname}_boost"
        have_f = key in batch.column_names
        have_d = "_boost" in batch.column_names
        if not (have_f or have_d):
            return None
        doc = (
            batch["_boost"].to_numpy(zero_copy_only=False).astype(np.float64)
            if have_d
            else np.ones(len(batch), dtype=np.float64)
        )
        doc = np.where(np.isnan(doc), 1.0, doc)
        if not have_f:
            return doc
        fld = batch[key].to_numpy(zero_copy_only=False).astype(np.float64)
        return np.where(np.isnan(fld), doc, fld)

    @staticmethod
    def _delim_kw(aspec):
        """kwargs of a single trailing ``delimited_attribute`` post filter
        (the boost-payload source), or None for any other chain."""
        pf = getattr(aspec, "post_filters", None) or []
        if len(pf) == 1 and pf[0][0] == "delimited_attribute":
            return dict(pf[0][1])
        return None

    @staticmethod
    def _encode_boosts(blist) -> bytes:
        """Per-posting boost payload: varint stream
        [count, f32bits(b1), ...] — float32 precision, matching the
        stored weight column's precision."""
        arr = np.empty(len(blist) + 1, dtype=np.uint64)
        arr[0] = len(blist)
        arr[1:] = np.asarray(blist, dtype=np.float32).view(np.uint32).astype(np.uint64)
        return encode_varints(arr)

    # ---- vectorized standard/simple path ---------------------------------

    def _vector_field(self, fname, spec_tuple, batch, docnums, out, unit_weight=False):
        """Vectorized analysis for standard/simple analyzers: one regex C
        call per row; pyarrow kernels for lowercase + dictionary encode;
        stop/size masks computed per UNIQUE term; whoosh position
        renumbering and per-(doc,term) aggregation as numpy segment ops —
        no per-token Python loop."""
        _, analyzer_spec, scorable, keep_pos, boost = spec_tuple
        pat = self._vec_pats.setdefault(
            fname, _re.compile(analyzer_spec.pattern, _re.UNICODE)
        )
        stops = analyzer_spec.stopwords
        minsize = analyzer_spec.minsize
        maxsize = analyzer_spec.maxsize

        texts = batch[fname].to_pylist()
        valid = np.array([t is not None for t in texts])
        if pat.groups:
            # group-bearing patterns (e.g. the reference url_pattern) must
            # yield whole matches, not findall's group tuples
            toks_per_row = [
                [m.group(0) for m in pat.finditer(t)] if t is not None else []
                for t in texts
            ]
        else:
            toks_per_row = [pat.findall(t) if t is not None else [] for t in texts]
        counts = np.fromiter((len(r) for r in toks_per_row), dtype=np.int64, count=len(texts))
        n = int(counts.sum())
        row_idx = np.repeat(np.arange(len(texts)), counts)
        arr = pa.array(list(itertools.chain.from_iterable(toks_per_row)), type=pa.string())
        if analyzer_spec.lowercase:
            # arrow's utf8_lower diverges from Python str.lower on a few
            # codepoints (Turkish dotted I, Greek final sigma) — the
            # reference lowers with str.lower, so only use the C kernel for
            # pure-ASCII batches and fall back to Python otherwise
            if n == 0 or pc.all(pc.string_is_ascii(arr)).as_py():
                arr = pc.ascii_lower(arr)
            else:
                arr = pa.array([v.lower() for v in arr.to_pylist()], pa.string())

        # dictionary-encode FIRST: stop/size masks computed once per UNIQUE
        # term (a few thousand) instead of per token (hundreds of thousands)
        denc = pc.dictionary_encode(arr)
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniques = denc.dictionary
        nu = len(uniques)
        keep_u = np.ones(nu, dtype=bool)
        ulen = pc.utf8_length(uniques).to_numpy(zero_copy_only=False)
        if minsize:
            keep_u &= ulen >= minsize
        if maxsize is not None:
            keep_u &= ulen <= maxsize
        if stops:
            keep_u &= ~pc.is_in(uniques, value_set=pa.array(list(stops), pa.string())).to_numpy(
                zero_copy_only=False
            )
        keep = keep_u[codes] if n else np.zeros(0, dtype=bool)

        # positions: pre-filter index within row, then whoosh renumbering
        # (first survivor keeps its ORIGINAL index, rest consecutive)
        row_tok_start = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(counts[:-1], out=row_tok_start[1:])
        pre_pos = np.arange(n) - np.repeat(row_tok_start, counts)
        csum = np.cumsum(keep)
        # rows with zero tokens at the END have row_tok_start == n; they
        # contribute nothing via repeat(counts=0) but must not index OOB
        rts_safe = np.minimum(row_tok_start, max(n - 1, 0))
        base = np.repeat(csum[rts_safe] - keep[rts_safe], counts) if n else np.zeros(0, np.int64)
        srank = csum - base  # 1-based survivor rank within row (on survivors)
        survivors_per_row = np.zeros(len(texts), dtype=np.int64)
        if n:
            np.add.at(survivors_per_row, row_idx, keep)
        # first survivor's pre-filter position per row, scattered back
        p_first = np.zeros(len(texts), dtype=np.int64)
        first_mask = keep & (srank == 1)
        p_first[row_idx[first_mask]] = pre_pos[first_mask]
        pos_final = np.repeat(p_first, counts) + srank - 1

        # filtered posting stream
        r_f = row_idx[keep]
        c_f = codes[keep]
        p_f = pos_final[keep]

        # per-(row, term) aggregation via stable sort on the composite key
        key = r_f * nu + c_f
        order = np.argsort(key, kind="stable")  # stable: positions stay ascending
        ks = key[order]
        gstart = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if ks.size else np.empty(0, np.int64)
        gcount = np.diff(np.r_[gstart, ks.size])
        g_row = r_f[order][gstart] if ks.size else np.empty(0, np.int64)
        g_code = c_f[order][gstart] if ks.size else np.empty(0, np.int64)
        g_doc = docnums[g_row]

        lb_rows = lengths_to_bytes(survivors_per_row) if scorable else np.zeros(len(texts), np.uint8)
        g_lb = lb_rows[g_row]

        # positions column: per-posting varint(count)+delta stream
        if keep_pos and ks.size:
            p_s = p_f[order].astype(np.uint64)
            deltas = np.empty_like(p_s)
            if p_s.size:
                deltas[0] = p_s[0]
                np.subtract(p_s[1:], p_s[:-1], out=deltas[1:])
                deltas[gstart] = p_s[gstart]
            ng = len(gstart)
            # interleave count + deltas: count of group g sits at gstart[g]+g
            cpos = gstart + np.arange(ng)
            comb = np.empty(ng + p_s.size, dtype=np.uint64)
            comb[cpos] = gcount.astype(np.uint64)
            mask = np.ones(comb.size, dtype=bool)
            mask[cpos] = False
            comb[mask] = deltas
            buf, off = encode_varints_with_offsets(comb)
            bounds = off[np.append(cpos, comb.size)]
            pos_col = binary_array_from_offsets(buf, bounds, large=False)
        else:
            pos_col = pa.nulls(len(gstart), pa.binary())

        out["field"].append(pa.array(np.full(len(gstart), fname, dtype=object), pa.string()))
        # dictionary-encoded, so _route hashes each distinct term once
        out["term"].append(pa.DictionaryArray.from_arrays(pa.array(g_code, pa.int64()), uniques))
        out["docnum"].append(pa.array(g_doc.astype(np.uint64), pa.uint64()))
        w = np.ones_like(gcount, dtype=np.float64) if unit_weight else gcount * boost
        rb = self._row_boosts(fname, batch)
        if not unit_weight and rb is not None and ks.size:
            w = w * rb[g_row]
        out["weight"].append(pa.array(w.astype(np.float32), pa.float32()))
        out["positions"].append(pos_col)
        out["chars"].append(pa.nulls(len(gstart), pa.binary()))
        out["boosts"].append(pa.nulls(len(gstart), pa.binary()))
        out["payload"].append(pa.nulls(len(gstart), pa.binary()))
        out["len_byte"].append(pa.array(g_lb, pa.uint8()))

        if scorable:
            # sentinel doc-length rows for every non-null row
            v = np.flatnonzero(valid)
            out["field"].append(pa.array(np.full(v.size, fname, dtype=object), pa.string()))
            # NB: np.full(n, "\x00") silently yields "" (C-string fill)
            out["term"].append(pa.array([LEN_SENTINEL] * v.size, pa.string()))
            out["docnum"].append(pa.array(docnums[v].astype(np.uint64), pa.uint64()))
            out["weight"].append(pa.array(survivors_per_row[v].astype(np.float32), pa.float32()))
            out["positions"].append(pa.nulls(v.size, pa.binary()))
            out["chars"].append(pa.nulls(v.size, pa.binary()))
            out["boosts"].append(pa.nulls(v.size, pa.binary()))
            out["payload"].append(pa.nulls(v.size, pa.binary()))
            out["len_byte"].append(pa.array(lb_rows[v], pa.uint8()))

    def _vector_id_field(self, fname, aspec, keep_pos, boost, batch, docnums, out):
        """Vectorized IDTokenizer: whole value = one token at pos 1
        (reference analysis/tokenizers.py:44-76); null/empty values emit
        nothing (non-scorable fields only)."""
        col = batch[fname]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        arr = col
        if aspec.lowercase:
            arr = pc.utf8_lower(arr)
        ok = pc.and_(pc.is_valid(arr), pc.not_equal(arr, "")).to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(ok)
        out["field"].append(pa.array(np.full(idx.size, fname, dtype=object), pa.string()))
        out["term"].append(arr.take(pa.array(idx, pa.int64())))
        out["docnum"].append(pa.array(docnums[idx].astype(np.uint64), pa.uint64()))
        w_id = np.full(idx.size, boost, dtype=np.float64)
        rb = self._row_boosts(fname, batch)
        if rb is not None and idx.size:
            w_id *= rb[idx]
        out["weight"].append(pa.array(w_id.astype(np.float32), pa.float32()))
        if keep_pos:
            # every id posting is one token at position 1: stream = [1, 1]
            out["positions"].append(
                pa.array([b"\x01\x01"] * idx.size, pa.binary())
            )
        else:
            out["positions"].append(pa.nulls(idx.size, pa.binary()))
        out["chars"].append(pa.nulls(idx.size, pa.binary()))
        out["boosts"].append(pa.nulls(idx.size, pa.binary()))
        out["payload"].append(pa.nulls(idx.size, pa.binary()))
        out["len_byte"].append(pa.array(np.zeros(idx.size, dtype=np.uint8), pa.uint8()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        docnums = batch["docnum"].to_numpy(zero_copy_only=False)
        out = {k: [] for k in POSTING_SCHEMA.names}
        for i, spec_tuple in enumerate(self.specs):
            fname, aspec, scorable, keep_pos, boost = spec_tuple
            if fname not in batch.column_names:
                continue
            first = len(out["term"])
            if fname in self.custom_formats:
                # custom Format codec: arbitrary Python encode -> loop path
                self._loop_field(self.analyzers[i], batch, docnums, out)
            elif fname in self.chars_fields and aspec is not None and (
                aspec.kind == "fancy"
                or aspec.kind in ("standard", "simple", "stemming")
                and (not aspec.post_filters or self._delim_kw(aspec) is not None)
            ):
                self._chars_field(fname, spec_tuple, batch, docnums, out)
            elif (
                aspec is not None
                and aspec.kind in ("standard", "simple")
                and aspec.renumber
                and not aspec.gaps  # gap-split mode takes the loop path
                and not aspec.charmap  # charset folding too
                and not aspec.post_filters  # trailing filters too
            ):
                self._vector_field(fname, spec_tuple, batch, docnums, out)
            elif aspec is not None and aspec.kind == "id" and not scorable:
                self._vector_id_field(fname, aspec, keep_pos, boost, batch, docnums, out)
            else:
                self._loop_field(self.analyzers[i], batch, docnums, out)
            self._route(fname, out, first)
        for spell_name, src, aspec in self.spell_specs:
            if src not in batch.column_names:
                continue
            first = len(out["term"])
            shim = pa.table({spell_name: batch[src]})
            self._vector_field(
                spell_name,
                (spell_name, aspec, False, False, 1.0),
                shim,
                docnums,
                out,
                unit_weight=True,
            )
            self._route(spell_name, out, first)
        cols = []
        for name in POSTING_SCHEMA.names:
            chunks = out[name]
            if chunks:
                cols.append(pa.chunked_array(chunks).combine_chunks())
            else:
                cols.append(pa.array([], type=POSTING_SCHEMA.field(name).type))
        return pa.Table.from_arrays(cols, schema=POSTING_SCHEMA)

    def _route(self, fname, out, first):
        """Set ``shard``, the exchange key, for the postings one field's run
        appended to ``out`` (its chunks from ``first`` on); the write-side
        statement of the rule ``SegmentReader`` reads back:

        * a term goes to ``_shard_of(field, term)``, one crc32 per distinct
          term of the chunk, so all of a term's postings are in one shard;
        * a sentinel doc-length row goes to ``docnum % num_shards``, so doc
          lengths spread evenly.

        A term chunk may come dictionary-encoded; it is decoded here."""
        R = self.num_shards
        prefix = zlib.crc32(f"{fname}:".encode("utf-8"))
        for k in range(first, len(out["term"])):
            terms = out["term"][k]
            if pa.types.is_dictionary(terms.type):
                out["term"][k] = terms.dictionary.take(terms.indices)
            else:
                terms = pc.dictionary_encode(terms)
            uniques = terms.dictionary
            codes = terms.indices.to_numpy(zero_copy_only=False)
            # _shard_of per distinct term, its crc32 continued from the
            # field prefix's (equal, without a string join per term);
            # to_numpy, as to_pylist takes several times as long
            shard = np.array(
                [
                    zlib.crc32(t.encode("utf-8"), prefix) % R
                    for t in uniques.to_numpy(zero_copy_only=False)
                ],
                dtype=np.int32,
            )[codes]
            code = pc.index(uniques, LEN_SENTINEL).as_py()
            if code >= 0:
                m = codes == code
                docs = out["docnum"][k].to_numpy(zero_copy_only=False).astype(np.int64)
                shard[m] = docs[m] % R
            out["shard"].append(pa.array(shard, pa.int32()))

    def _span_tokens(self, fname, aspec):
        """text -> [(term, position, startchar, endchar, boost)] for a
        chars-enabled field: each surviving token with its raw span."""
        if aspec.kind == "fancy":
            from ..functions.analysis import make_fancy

            fancy = make_fancy(aspec, chars=True)
            return lambda text: [(t, p, s, e, 1.0) for t, p, s, e in fancy(text)]
        pat = self._vec_pats.setdefault(
            fname, _re.compile(aspec.pattern, _re.UNICODE)
        )
        stops, minsize, maxsize = aspec.stopwords, aspec.minsize, aspec.maxsize
        renumber = aspec.renumber
        lower = aspec.lowercase
        stem = None
        if aspec.kind == "stemming":
            # indexed term is the stem; the span still covers the RAW token
            # (whoosh records t.startchar/endchar before StemFilter mutates
            # t.text) — exactly what payload highlighting needs
            from ..functions.analysis import resolve_stemmer

            stem = resolve_stemmer(aspec)
        from ..functions.analysis import charmap_table

        cmap = charmap_table(aspec.charmap) if aspec.charmap else None
        # CharacterBoosts mode: a trailing delimited_attribute filter
        # supplies per-token boosts; the span is trimmed to exclude the
        # delimiter + payload, like the reference (filters.py:473-477)
        dk = self._delim_kw(aspec)
        delim = dk.get("delimiter", "^") if dk is not None else None
        ddefault = dk.get("default", 1.0) if dk is not None else 1.0
        from ..functions.analysis import resolve_delim_typ

        dtyp = resolve_delim_typ(dk.get("typ", float)) if dk is not None else float

        def tokens(text):
            # tokenize with spans, lower, stop+renumber (whoosh rule: first
            # survivor keeps its raw index, later survivors go consecutive)
            surv = []
            pos = None
            for idx, m in enumerate(pat.finditer(text)):
                t = m.group(0)
                end = m.end()
                tb = ddefault
                if delim is not None and (di := t.find(delim)) >= 0:
                    tb = dtyp(t[di + len(delim):])
                    end -= len(t) - di
                    t = t[:di]
                if lower:
                    t = t.lower()
                if cmap is not None:
                    t = t.translate(cmap)
                lt = len(t)
                if (
                    lt >= minsize
                    and (maxsize is None or lt <= maxsize)
                    and (stops is None or t not in stops)
                ):
                    if stem is not None:
                        t = stem(t)
                    if renumber:
                        pos = idx if pos is None else pos + 1
                        surv.append((t, pos, m.start(), end, tb))
                    else:
                        surv.append((t, idx, m.start(), end, tb))
            return surv

        return tokens

    def _chars_field(self, fname, spec_tuple, batch, docnums, out):
        """Loop path for chars-enabled fields (reference Characters format,
        formats.py:344-409): the analyzer keeps each surviving token's raw
        (startchar, endchar) span alongside the renumbered position; the
        per-posting chars payload is the varint stream
        [count, s1, e1-s1, s2-e1, e2-s2, ...]."""
        _, aspec, scorable, keep_pos, boost = spec_tuple
        tokens = self._span_tokens(fname, aspec)
        want_boosts = fname in self.boosts_fields

        fields_out, terms_out, docs_out = [], [], []
        weights_out, pos_out, chars_out, boosts_out, lens_out = [], [], [], [], []
        rb = self._row_boosts(fname, batch)
        for i, text in enumerate(batch[fname].to_pylist()):
            if text is None:
                continue
            docnum = int(docnums[i])
            surv = tokens(text)
            if not surv and not scorable:
                continue
            agg: dict = {}
            eff_boost = boost if rb is None else boost * rb[i]
            for t, p, s, e, tb in surv:
                entry = agg.get(t)
                if entry is None:
                    agg[t] = entry = [0.0, [], [], []]
                entry[0] += eff_boost * tb
                entry[1].append(p)
                entry[2].append((s, e))
                entry[3].append(tb)
            length = len(surv)
            lb = length_to_byte(length) if scorable else 0
            for term, (w, poss, spans, tboosts) in agg.items():
                fields_out.append(fname)
                terms_out.append(term)
                docs_out.append(docnum)
                weights_out.append(w)
                if keep_pos:
                    pp = np.asarray(poss, dtype=np.uint64)
                    stream = np.empty(pp.size + 1, dtype=np.uint64)
                    stream[0] = pp.size
                    if pp.size:
                        stream[1] = pp[0]
                        np.subtract(pp[1:], pp[:-1], out=stream[2:])
                    pos_out.append(encode_varints(stream))
                else:
                    pos_out.append(None)
                cstream = np.empty(2 * len(spans) + 1, dtype=np.uint64)
                cstream[0] = len(spans)
                prev = 0
                for k, (s, e) in enumerate(spans):
                    cstream[1 + 2 * k] = s - prev
                    cstream[2 + 2 * k] = e - s
                    prev = e
                chars_out.append(encode_varints(cstream))
                boosts_out.append(self._encode_boosts(tboosts) if want_boosts else None)
                lens_out.append(lb)
            if scorable:
                fields_out.append(fname)
                terms_out.append(LEN_SENTINEL)
                docs_out.append(docnum)
                weights_out.append(float(length))
                pos_out.append(None)
                chars_out.append(None)
                boosts_out.append(None)
                lens_out.append(lb)

        out["field"].append(pa.array(fields_out, type=pa.string()))
        out["term"].append(pa.array(terms_out, type=pa.string()))
        out["docnum"].append(pa.array(docs_out, type=pa.uint64()))
        out["weight"].append(pa.array(weights_out, type=pa.float32()))
        out["positions"].append(pa.array(pos_out, type=pa.binary()))
        out["chars"].append(pa.array(chars_out, type=pa.binary()))
        out["boosts"].append(pa.array(boosts_out, type=pa.binary()))
        out["payload"].append(pa.nulls(len(fields_out), pa.binary()))
        out["len_byte"].append(pa.array(lens_out, type=pa.uint8()))

    def _loop_field(self, analyzer_tuple, batch, docnums, out):
        """Row-at-a-time fallback for stateful/exotic analyzers (stemming,
        ngram, id, keyword)."""
        fields_out, terms_out, docs_out = [], [], []
        weights_out, pos_out, boosts_out, lens_out = [], [], [], []
        payload_out: list = []

        for fname, analyze, scorable, keep_pos, boost in [analyzer_tuple]:
            want_boosts = fname in self.boosts_fields
            fmt = self.custom_formats.get(fname)
            col = batch[fname].to_pylist()
            rb = self._row_boosts(fname, batch)
            for i, text in enumerate(col):
                if text is None:
                    continue
                toks = analyze(text)
                if not toks and not scorable:
                    continue
                docnum = int(docnums[i])
                eff_boost = boost if rb is None else boost * rb[i]
                # aggregate per (doc, term): weight = sum of boosts,
                # positions = renumbered post-filter positions; a
                # delimited_attribute filter yields (term, pos, boost)
                # 3-tuples (reference PositionBoosts word_values,
                # formats.py:352-366: weight = summed token boost)
                agg: dict = {}
                for tok in toks:
                    term, pos = tok[0], tok[1]
                    tb = tok[2] if len(tok) > 2 else 1.0
                    e = agg.get(term)
                    if e is None:
                        agg[term] = e = [0.0, [], []]
                    e[0] += eff_boost * tb
                    e[1].append(pos)
                    e[2].append(tb)
                length = len(toks)
                lb = length_to_byte(length) if scorable else 0
                for term, (w, poss, tboosts) in agg.items():
                    fields_out.append(fname)
                    terms_out.append(term)
                    docs_out.append(docnum)
                    if fmt is not None:
                        # custom Format: the codec owns weight + payload
                        # (reference word_values, formats.py:84-135); the
                        # payload is varint-length-framed so per-posting
                        # boundaries survive block concatenation
                        from ..formats import Occurrence, _write_varint

                        occs = [
                            Occurrence(int(p), None, None, float(tb))
                            for p, tb in zip(poss, tboosts)
                        ]
                        weights_out.append(fmt.weight(occs) * eff_boost)
                        pl = fmt.encode(occs)
                        if pl is None:
                            payload_out.append(None)
                        else:
                            framed = bytearray()
                            _write_varint(framed, len(pl))
                            framed += pl
                            payload_out.append(bytes(framed))
                    else:
                        weights_out.append(w)
                        payload_out.append(None)
                    if keep_pos:
                        pp = np.asarray(poss, dtype=np.uint64)
                        stream = np.empty(pp.size + 1, dtype=np.uint64)
                        stream[0] = pp.size
                        if pp.size:
                            stream[1] = pp[0]
                            np.subtract(pp[1:], pp[:-1], out=stream[2:])
                        pos_out.append(encode_varints(stream))
                    else:
                        pos_out.append(None)
                    boosts_out.append(
                        self._encode_boosts(tboosts) if want_boosts else None
                    )
                    lens_out.append(lb)
                if scorable:
                    # sentinel doc-length row
                    fields_out.append(fname)
                    terms_out.append(LEN_SENTINEL)
                    docs_out.append(docnum)
                    weights_out.append(float(length))
                    pos_out.append(None)
                    boosts_out.append(None)
                    payload_out.append(None)
                    lens_out.append(lb)

        out["field"].append(pa.array(fields_out, type=pa.string()))
        out["term"].append(pa.array(terms_out, type=pa.string()))
        out["docnum"].append(pa.array(docs_out, type=pa.uint64()))
        out["weight"].append(pa.array(weights_out, type=pa.float32()))
        out["positions"].append(pa.array(pos_out, type=pa.binary()))
        out["chars"].append(pa.nulls(len(fields_out), pa.binary()))
        out["boosts"].append(pa.array(boosts_out, type=pa.binary()))
        out["payload"].append(pa.array(payload_out, type=pa.binary()))
        out["len_byte"].append(pa.array(lens_out, type=pa.uint8()))
