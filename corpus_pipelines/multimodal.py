"""Multimodal column stages: opaque binary payloads + actor-pool decoders.

Real multimodal corpora carry image/audio/video as opaque ``binary``
columns with typed metadata.  PPM(P6), 8-bit PNG (all five scanline
filters, gray/RGB/palette/alpha — pure numpy + stdlib zlib) and PCM WAV
decode for REAL; JPEG and other compressed formats are a DECLARED SCOPE
CUT (no imaging libs in this container; see README).  The Ray-side
plumbing is identical for any codec:

  * payloads are a ``large_binary`` column (here derived deterministically
    from ``text`` so the sample tables can exercise the path);
  * decoders are CALLABLE CLASSES run via ``map_batches(Cls,
    concurrency=N, batch_size=B)`` — codec setup happens once per actor in
    ``__init__``, per-batch work in ``__call__``;
  * batch_size stays SMALL for binary payloads (a batch x concurrency of
    multi-MB blobs must fit each worker's heap — at 100 TB the payload
    column dominates block size, so ``target_max_block_size`` and
    ``batch_size`` are sized to the payload, not the row count).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

FRAME_BYTES = 256  # fake "video" frame granularity
FRAME_SAMPLE_EVERY = 4


def attach_payload(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Derive the deterministic fake binary payload column (utf-8 bytes of
    the text).  A real pipeline reads this column straight from parquet."""
    payload = pa.array(
        [t.encode("utf-8") if t is not None else None for t in batch[text_col].to_pylist()],
        type=pa.large_binary(),
    )
    return batch.append_column("payload", payload)


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def decode_png(blob: bytes) -> tuple:
    """REAL pure-Python/numpy PNG decode (stdlib zlib): returns (width,
    height, channels, mean_pixel).

    Supported: bit depth 8, color types 0 (gray), 2 (RGB), 3 (palette ->
    decoded to RGB), 4 (gray+alpha), 6 (RGBA), all five scanline filters
    (None/Sub/Up/Average/Paeth).  DECLARED SCOPE CUT: 1/2/4/16-bit depths
    and Adam7 interlace raise ValueError (rare in training corpora and a
    resample-to-8-bit away).  mean_pixel averages the decoded channel
    bytes (palette images over their RGB expansion)."""
    import struct
    import zlib

    if not blob or not blob.startswith(_PNG_SIG):
        raise ValueError("not a PNG")
    pos = 8
    idat = bytearray()
    w = h = bitdepth = ctype = interlace = None
    plte = None
    while pos + 8 <= len(blob):
        (ln,), typ = struct.unpack_from(">I", blob, pos), blob[pos + 4 : pos + 8]
        pos += 8
        data = blob[pos : pos + ln]
        pos += ln + 4  # payload + CRC
        if typ == b"IHDR":
            w, h, bitdepth, ctype, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", data
            )
        elif typ == b"PLTE":
            plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
        elif typ == b"IDAT":
            idat += data
        elif typ == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    if bitdepth != 8:
        raise ValueError(f"only 8-bit PNG supported (got depth {bitdepth})")
    if interlace:
        raise ValueError("Adam7-interlaced PNG not supported")
    nch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[ctype]
    raw = np.frombuffer(zlib.decompress(bytes(idat)), np.uint8)
    stride = w * nch
    if raw.size != h * (stride + 1):
        raise ValueError("bad IDAT payload size")
    rows = raw.reshape(h, stride + 1)
    ftypes = rows[:, 0]
    img = np.zeros((h, stride), dtype=np.int32)
    bpp = nch
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        line = rows[y, 1:].astype(np.int32)
        f = int(ftypes[y])
        if f == 0:  # None
            cur = line
        elif f == 1:  # Sub: x-chain -> cumsum per pixel lane, mod 256
            cur = (line.reshape(w, bpp).cumsum(axis=0) & 0xFF).reshape(stride)
        elif f == 2:  # Up
            cur = (line + prev) & 0xFF
        elif f == 3:  # Average: sequential in x, vector over channels
            cur = np.empty(stride, np.int32)
            left = np.zeros(bpp, np.int32)
            for x in range(0, stride, bpp):
                seg = (line[x : x + bpp] + ((left + prev[x : x + bpp]) >> 1)) & 0xFF
                cur[x : x + bpp] = seg
                left = seg
        elif f == 4:  # Paeth
            cur = np.empty(stride, np.int32)
            left = np.zeros(bpp, np.int32)
            upleft = np.zeros(bpp, np.int32)
            for x in range(0, stride, bpp):
                up = prev[x : x + bpp]
                p = left + up - upleft
                pa_ = np.abs(p - left)
                pb = np.abs(p - up)
                pc_ = np.abs(p - upleft)
                pred = np.where(
                    (pa_ <= pb) & (pa_ <= pc_), left, np.where(pb <= pc_, up, upleft)
                )
                seg = (line[x : x + bpp] + pred) & 0xFF
                cur[x : x + bpp] = seg
                left, upleft = seg, up
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        img[y] = cur
        prev = cur
    if ctype == 3:
        if plte is None:
            raise ValueError("palette PNG missing PLTE")
        rgb = plte[img.reshape(-1)]
        return w, h, 3, float(rgb.mean())
    return w, h, nch, float(img.mean())


def make_png(doc_id: int) -> bytes:
    """Deterministic REAL PNG for a doc (round-trips through decode_png):
    color type cycles gray/RGB/palette by doc_id%3; width doc_id%5+1,
    height doc_id%4+1, every sample = doc_id%251 (so mean_pixel ==
    doc_id%251 in SQL)."""
    import struct
    import zlib

    w, h, v = doc_id % 5 + 1, doc_id % 4 + 1, doc_id % 251
    ctype = (0, 2, 3)[doc_id % 3]
    nch = 3 if ctype == 2 else 1

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + typ
            + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    scan = (b"\x00" + bytes([0 if ctype == 3 else v]) * (w * nch)) * h
    out = _PNG_SIG + chunk(b"IHDR", ihdr)
    if ctype == 3:
        out += chunk(b"PLTE", bytes([v, v, v]))  # palette index 0 -> (v,v,v)
    out += chunk(b"IDAT", zlib.compress(scan)) + chunk(b"IEND", b"")
    return out


class FakeImageDecoder:
    """Actor-pool decode stage: payload -> (n_bytes, width, height, channels).

    Deterministic fake (first-byte/length arithmetic) so outputs are
    SQL-checkable; the actor shape (init-once state, per-batch vectorized
    work, small batch_size) is exactly what a real decoder uses."""

    def __init__(self):
        # stands in for loading a codec / model checkpoint once per actor
        self.channels = 3

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["payload"].to_pylist()
        n_bytes = np.array([len(b) if b else 0 for b in blobs], dtype=np.int64)
        first = np.array([b[0] if b else 0 for b in blobs], dtype=np.int64)
        width = first % 64 + 1
        height = n_bytes % 64 + 1
        out = {name: batch[name] for name in batch.column_names if name != "payload"}
        out.update(
            {
                "n_bytes": pa.array(n_bytes),
                "width": pa.array(width),
                "height": pa.array(height),
                "channels": pa.array(np.full(len(blobs), self.channels, dtype=np.int64)),
            }
        )
        return pa.table(out)


class FrameSampler:
    """Actor-pool "video" stage: split payload into FRAME_BYTES frames and
    keep every FRAME_SAMPLE_EVERY-th — the frame-sampling access pattern of
    a video pipeline, over fake frames."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["payload"].to_pylist()
        n_bytes = np.array([len(b) if b else 0 for b in blobs], dtype=np.int64)
        n_frames = -(-n_bytes // FRAME_BYTES)  # ceil
        n_sampled = -(-n_frames // FRAME_SAMPLE_EVERY)
        out = {name: batch[name] for name in batch.column_names if name != "payload"}
        out.update(
            {
                "n_frames": pa.array(n_frames),
                "n_sampled": pa.array(n_sampled),
            }
        )
        return pa.table(out)


def decode_image_meta(sf_dir: str) -> pa.Table:
    """Gate query: attach payloads to documents, run the actor-pool decoder,
    return per-doc metadata."""
    import ray.data

    from . import actor_pool_size

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ds = ds.map_batches(attach_payload, batch_format="pyarrow")
    ds = ds.drop_columns(["text"])
    ds = ds.map_batches(
        FakeImageDecoder, concurrency=actor_pool_size(), batch_size=128, batch_format="pyarrow"
    )
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return t.sort_by("doc_id")


def oracle_decode_image_meta() -> str:
    return """
SELECT doc_id,
       octet_length(encode(text))::BIGINT AS n_bytes,
       (ascii(text) % 64 + 1)::BIGINT AS width,
       (octet_length(encode(text)) % 64 + 1)::BIGINT AS height,
       3::BIGINT AS channels
FROM documents ORDER BY doc_id
"""


def frame_sample_meta(sf_dir: str) -> pa.Table:
    import ray.data

    from . import actor_pool_size

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ds = ds.map_batches(attach_payload, batch_format="pyarrow").drop_columns(["text"])
    ds = ds.map_batches(
        FrameSampler, concurrency=actor_pool_size(), batch_size=128, batch_format="pyarrow"
    )
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return t.sort_by("doc_id")


def oracle_frame_sample_meta() -> str:
    return f"""
SELECT doc_id,
       CEIL(octet_length(encode(text)) / {FRAME_BYTES}.0)::BIGINT AS n_frames,
       CEIL(CEIL(octet_length(encode(text)) / {FRAME_BYTES}.0)
            / {FRAME_SAMPLE_EVERY}.0)::BIGINT AS n_sampled
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# REAL decoders — pure numpy / stdlib, no imaging libs needed.
# PPM (P6) and PCM WAV are fully parsed from bytes; JPEG/PNG stay behind
# the PIL gate in _decode_image_real.
# ---------------------------------------------------------------------------


def make_ppm(doc_id: int) -> bytes:
    """Deterministic real PPM(P6) image for a doc: width = doc_id%16+1,
    height = doc_id%8+1, every pixel = doc_id%256 in all three channels."""
    w, h, v = doc_id % 16 + 1, doc_id % 8 + 1, doc_id % 256
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + bytes([v]) * (3 * w * h)


def decode_ppm(blob: bytes) -> tuple:
    """Parse a binary PPM (P6): returns (width, height, channels,
    mean_pixel).  Real byte-level decode — ASCII header with
    whitespace/comment handling, then a numpy view over the raster."""
    if not blob.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    # header = magic, width, height, maxval as whitespace-separated ASCII
    # tokens; '#' starts a comment running to end-of-line
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval, then the raster
    w, h, maxval = fields
    if maxval > 255:
        raise ValueError("16-bit PPM not supported")
    raster = np.frombuffer(blob, dtype=np.uint8, count=3 * w * h, offset=pos)
    return w, h, 3, float(raster.mean())


def make_wav(doc_id: int) -> bytes:
    """Deterministic real PCM16 mono WAV: doc_id%100+10 samples at 8 kHz,
    constant amplitude doc_id%1000."""
    import io
    import wave

    n, amp = doc_id % 100 + 10, doc_id % 1000
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(np.full(n, amp, dtype=np.int16).tobytes())
    return buf.getvalue()


def decode_wav(blob: bytes) -> tuple:
    """Parse a PCM WAV (stdlib wave + numpy): returns (sample_rate,
    n_channels, n_samples, peak_amplitude)."""
    import io
    import wave

    with wave.open(io.BytesIO(blob), "rb") as f:
        rate, nch, n = f.getframerate(), f.getnchannels(), f.getnframes()
        data = np.frombuffer(f.readframes(n), dtype=np.int16)
    peak = int(np.abs(data.astype(np.int32)).max()) if data.size else 0
    return rate, nch, n, peak


class ImageDecoder:
    """Actor-pool image decode: sniffs the magic bytes — PPM(P6) and PNG
    decode for REAL (pure numpy / stdlib zlib); unsupported formats raise
    ValueError with the declared scope (JPEG is out of scope in this
    container: no imaging libs, and a clean-room baseline-JPEG decoder is
    not worth its maintenance here — README documents the cut).  Same
    actor shape as FakeImageDecoder (init-once, small batches)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {"width": [], "height": [], "channels": [], "mean_pixel": []}
        for blob in batch["payload"].to_pylist():
            if blob and blob.startswith(b"P6"):
                w, h, c, mean = decode_ppm(blob)
            elif blob and blob.startswith(_PNG_SIG):
                w, h, c, mean = decode_png(blob)
            else:
                raise ValueError(
                    "unsupported image format (PPM P6 and 8-bit PNG decode "
                    "for real; JPEG et al. are a declared scope cut)"
                )
            rows["width"].append(w)
            rows["height"].append(h)
            rows["channels"].append(c)
            rows["mean_pixel"].append(round(mean, 6))
        out = {n: batch[n] for n in batch.column_names if n != "payload"}
        out.update(
            {
                "width": pa.array(rows["width"], pa.int64()),
                "height": pa.array(rows["height"], pa.int64()),
                "channels": pa.array(rows["channels"], pa.int64()),
                "mean_pixel": pa.array(rows["mean_pixel"], pa.float64()),
            }
        )
        return pa.table(out)


class AudioDecoder:
    """Actor-pool audio decode: PCM WAV via stdlib wave — a real decode,
    no external libs."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {"sample_rate": [], "n_channels": [], "n_samples": [], "peak": []}
        for blob in batch["payload"].to_pylist():
            rate, nch, n, peak = decode_wav(blob)
            rows["sample_rate"].append(rate)
            rows["n_channels"].append(nch)
            rows["n_samples"].append(n)
            rows["peak"].append(peak)
        out = {n: batch[n] for n in batch.column_names if n != "payload"}
        out.update({k: pa.array(v, pa.int64()) for k, v in rows.items()})
        return pa.table(out)


def _attach_real_payload(make_fn):
    def attach(batch: pa.Table) -> pa.Table:
        payload = pa.array(
            [make_fn(d) for d in batch["doc_id"].to_pylist()], type=pa.large_binary()
        )
        return batch.append_column("payload", payload)

    return attach


def _decode_meta_pipeline(sf_dir: str, make_fn, decoder_cls) -> pa.Table:
    import ray.data

    from . import actor_pool_size

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    ds = ds.map_batches(_attach_real_payload(make_fn), batch_format="pyarrow")
    ds = ds.map_batches(
        decoder_cls, concurrency=actor_pool_size(), batch_size=128, batch_format="pyarrow"
    )
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return t.sort_by("doc_id")


def decode_ppm_meta(sf_dir: str) -> pa.Table:
    """Gate query: REAL image decode — generate a PPM per doc, parse its
    bytes in the actor pool, emit decoded metadata.  The oracle recomputes
    the expected values from the generation rule; the pipeline only ever
    sees bytes."""
    return _decode_meta_pipeline(sf_dir, make_ppm, ImageDecoder)


def oracle_decode_ppm_meta() -> str:
    return """
SELECT doc_id,
       (doc_id % 16 + 1)::BIGINT AS width,
       (doc_id % 8 + 1)::BIGINT AS height,
       3::BIGINT AS channels,
       ROUND((doc_id % 256) * 1.0, 6) AS mean_pixel
FROM documents ORDER BY doc_id
"""


def decode_png_meta(sf_dir: str) -> pa.Table:
    """Gate query: REAL PNG decode — a deterministic PNG per doc (color
    type cycling gray/RGB/palette), parsed byte-for-byte in the actor
    pool."""
    return _decode_meta_pipeline(sf_dir, make_png, ImageDecoder)


def oracle_decode_png_meta() -> str:
    return """
SELECT doc_id,
       (doc_id % 5 + 1)::BIGINT AS width,
       (doc_id % 4 + 1)::BIGINT AS height,
       (CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 3 END)::BIGINT AS channels,
       ROUND((doc_id % 251) * 1.0, 6) AS mean_pixel
FROM documents ORDER BY doc_id
"""


def decode_wav_meta(sf_dir: str) -> pa.Table:
    """Gate query: REAL audio decode — PCM WAV per doc via stdlib wave."""
    return _decode_meta_pipeline(sf_dir, make_wav, AudioDecoder)


def oracle_decode_wav_meta() -> str:
    return """
SELECT doc_id,
       8000::BIGINT AS sample_rate,
       1::BIGINT AS n_channels,
       (doc_id % 100 + 10)::BIGINT AS n_samples,
       (doc_id % 1000)::BIGINT AS peak
FROM documents ORDER BY doc_id
"""
