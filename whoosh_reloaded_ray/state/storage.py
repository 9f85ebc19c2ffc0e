"""Storage seam: index paths may be plain local paths OR pyarrow.fs URIs.

All manifest/segment IO routes through these helpers.  Plain paths take the
exact same os/pyarrow calls as before (zero overhead on the hot local
path); paths carrying a ``scheme://`` resolve through
``pyarrow.fs.FileSystem.from_uri`` — ``file://`` exercises the seam in the
sandbox (scripts/multinode_probe.py --fs-uri), and an S3/GCS URI slots in
unchanged on a real cluster (the reference's Storage abstraction,
re-expressed as parquet-over-pyarrow.fs).

Atomicity note: local writes keep the write-temp-then-rename protocol
(os.replace / LocalFileSystem.move).  Object stores have no rename, but a
single PUT is already atomic there — the direct-write branch documents and
relies on that.
"""

from __future__ import annotations

import functools
import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def is_uri(path: str) -> bool:
    return bool(re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*://", path or ""))


def resolve(path: str):
    """(pyarrow FileSystem, fs-local path) for a URI path."""
    from pyarrow import fs as pafs

    return pafs.FileSystem.from_uri(path)


def join(base: str, *parts: str) -> str:
    if is_uri(base):
        return "/".join([base.rstrip("/"), *parts])
    return os.path.join(base, *parts)


def exists(path: str) -> bool:
    if not is_uri(path):
        return os.path.exists(path)
    from pyarrow import fs as pafs

    f, p = resolve(path)
    return f.get_file_info(p).type != pafs.FileType.NotFound


def stamp(path: str):
    """Identity of the directory or file at ``path`` as it is now: its
    resolved path, inode and modification time in ns (for a URI the
    filesystem type, its path and modification time).  A directory deleted
    and made again under the same name gets a new stamp.  None when
    ``path`` is missing or its filesystem keeps no modification time (an
    object store's directories)."""
    if not is_uri(path):
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return None
        return os.path.realpath(path), st.st_ino, st.st_mtime_ns
    from pyarrow import fs as pafs

    f, p = resolve(path)
    info = f.get_file_info(p)
    if info.type == pafs.FileType.NotFound or info.mtime_ns is None:
        return None
    return f.type_name, p, info.mtime_ns


def makedirs(path: str) -> None:
    if not is_uri(path):
        os.makedirs(path, exist_ok=True)
        return
    f, p = resolve(path)
    f.create_dir(p, recursive=True)


def listdir(path: str) -> list:
    """Base names of entries directly under ``path`` ([] if missing)."""
    if not is_uri(path):
        try:
            return sorted(os.listdir(path))
        except FileNotFoundError:
            return []
    from pyarrow import fs as pafs

    f, p = resolve(path)
    try:
        infos = f.get_file_info(pafs.FileSelector(p, recursive=False))
    except FileNotFoundError:
        return []
    return sorted(i.base_name for i in infos)


def remove(path: str) -> None:
    if not is_uri(path):
        os.remove(path)
        return
    f, p = resolve(path)
    f.delete_file(p)


def rmtree(path: str) -> None:
    if not is_uri(path):
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        return
    f, p = resolve(path)
    f.delete_dir(p)


def getsize(path: str) -> int:
    if not is_uri(path):
        return os.path.getsize(path)
    f, p = resolve(path)
    return int(f.get_file_info(p).size or 0)


def read_text(path: str) -> str:
    if not is_uri(path):
        with open(path) as fh:
            return fh.read()
    f, p = resolve(path)
    with f.open_input_stream(p) as fh:
        return fh.read().decode("utf-8")


def write_text_atomic(path: str, text: str) -> None:
    """Temp+rename locally; direct single-object write on URI filesystems
    (atomic-PUT semantics on object stores; LocalFileSystem URIs get the
    move protocol)."""
    if not is_uri(path):
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        return
    f, p = resolve(path)
    data = text.encode("utf-8")
    try:
        tmp = f"{p}.tmp-{os.getpid()}"
        with f.open_output_stream(tmp) as fh:
            fh.write(data)
        f.move(tmp, p)
    except NotImplementedError:
        with f.open_output_stream(p) as fh:
            fh.write(data)


def read_json(path: str):
    return json.loads(read_text(path))


def read_parquet(path: str, row_groups=None, metadata=None):
    """One parquet file as a table; every index data read goes through here.

    Reads the whole file, or only ``row_groups`` (a list of indices), through
    one ``ParquetFile``, optionally with an already parsed footer passed as
    ``metadata``.  On a one-row-group shard file that costs about half of
    ``pq.read_table`` for the same table."""
    with parquet_file(path, metadata) as pf:
        if row_groups is None:
            return pf.read()
        return pf.read_row_groups(row_groups)


# ---- Arrow <-> numpy without pandas ------------------------------------
#
# pyarrow converts through its pandas layer: the first ``to_numpy()``,
# ``pa.array(...)`` or ``pa.scalar(...)`` in a process imports pandas, about
# 0.37 s, which a fresh segment actor would pay inside its first query and
# a client inside its first append.  The read path and the write stages
# therefore convert only through the functions below, which read and build
# the Arrow buffers directly and fall back to pyarrow only for types they
# do not cover (tests/test_no_pandas.py holds query/, state/, stages/ and
# the write tasks' modules to it).

@functools.lru_cache(maxsize=None)
def _view_dtype(t):
    """(numpy dtype of Arrow type ``t``'s fixed-width value buffer, dtype of
    the converted values), or None when ``t`` is not fixed width."""
    if pa.types.is_date32(t):
        return np.dtype("i4"), np.dtype("datetime64[D]")
    if pa.types.is_integer(t):
        dt = np.dtype(f"{'i' if pa.types.is_signed_integer(t) else 'u'}{t.bit_width // 8}")
    elif pa.types.is_floating(t):
        dt = np.dtype(f"f{t.bit_width // 8}")
    elif pa.types.is_timestamp(t):
        dt = np.dtype(f"datetime64[{t.unit}]")  # tz-aware: UTC values, as pyarrow
    elif pa.types.is_duration(t):
        dt = np.dtype(f"timedelta64[{t.unit}]")
    elif pa.types.is_date64(t):
        dt = np.dtype("datetime64[ms]")
    else:
        return None
    return dt, dt


def _validity(a: pa.Array) -> np.ndarray:
    bits = np.frombuffer(a.buffers()[0], np.uint8)
    return np.unpackbits(bits, bitorder="little")[a.offset : a.offset + len(a)].view(bool)


def _offsets(a: pa.Array) -> np.ndarray:
    width = 8 if pa.types.is_large_string(a.type) or pa.types.is_large_binary(a.type) else 4
    return np.frombuffer(a.buffers()[1], f"i{width}", len(a) + 1, a.offset * width)


def _is_text(t) -> bool:
    return (
        pa.types.is_string(t) or pa.types.is_large_string(t)
        or pa.types.is_binary(t) or pa.types.is_large_binary(t)
    )


def binary_values(col) -> np.ndarray:
    """Every value of a string or binary column laid end to end, as one
    uint8 array: ``b"".join(col.to_pylist())`` without a Python object per
    value (a zero-copy view for a one-chunk column)."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = []
    for a in chunks:
        if not len(a):
            continue
        offs = _offsets(a)
        data = a.buffers()[2]
        parts.append(
            np.frombuffer(data, np.uint8)[offs[0] : offs[-1]]
            if data is not None else np.empty(0, np.uint8)
        )
    if len(parts) == 1:
        parts[0].flags.writeable = False  # a view: Arrow data is immutable
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, np.uint8)


def _chunk_strings(a: pa.Array) -> list:
    n = len(a)
    if not n:
        return []
    offs = _offsets(a)
    data = a.buffers()[2]
    raw = np.frombuffer(data, np.uint8)[offs[0] : offs[-1]] if data is not None else np.empty(0, np.uint8)
    rel = offs - offs[0]
    text = pa.types.is_string(a.type) or pa.types.is_large_string(a.type)
    out = None
    if text:
        # one decode and one str.split for the whole chunk: the values
        # joined with NUL separators
        joined = np.zeros(raw.size + n - 1, np.uint8)
        keep = np.ones(joined.size, bool)
        keep[rel[1:-1] + np.arange(n - 1)] = False
        joined[keep] = raw
        out = joined.tobytes().decode("utf-8").split("\x00")
    if out is None or len(out) != n:  # binary, or a value holding a NUL
        blob = raw.tobytes()
        out = [blob[s:e] for s, e in zip(rel[:-1].tolist(), rel[1:].tolist())]
        if text:
            out = [v.decode("utf-8") for v in out]
    if a.null_count:
        for i in np.flatnonzero(~_validity(a)).tolist():
            out[i] = None
    return out


def string_list(col) -> list:
    """A string (or binary) column's values as a Python list of str (bytes),
    None for nulls: ``col.to_pylist()`` at about the speed of pyarrow's own
    object-array conversion, and without its pandas import."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    if len(chunks) == 1:
        return _chunk_strings(chunks[0])
    return [v for a in chunks for v in _chunk_strings(a)]


def _chunk_numpy(a: pa.Array) -> np.ndarray:
    t = a.type
    dts = _view_dtype(t)
    if dts is not None:
        dt, out_dt = dts
        data = a.buffers()[1]
        vals = (
            np.frombuffer(data, dt, len(a), a.offset * dt.itemsize)
            if data is not None else np.empty(0, dt)
        )
        if out_dt is not dt:
            vals = vals.astype(out_dt)
        if not a.null_count:
            vals.flags.writeable = out_dt is not dt  # a view: Arrow data is immutable
            return vals
        # pyarrow's rules: integers with nulls become float64 with NaN,
        # floats keep their width with NaN, temporals take NaT
        kind = vals.dtype.kind
        vals = vals.astype(np.float64 if kind in "iu" else vals.dtype)
        vals[~_validity(a)] = np.nan if kind in "iuf" else np.array("NaT", vals.dtype)
        return vals
    if pa.types.is_boolean(t):
        bits = np.frombuffer(a.buffers()[1], np.uint8)
        vals = np.unpackbits(bits, bitorder="little")[a.offset : a.offset + len(a)].astype(bool)
        if not a.null_count:
            return vals
        out = vals.astype(object)
        out[~_validity(a)] = None
        return out
    if _is_text(t):
        out = np.empty(len(a), dtype=object)
        out[:] = _chunk_strings(a)
        return out
    return a.to_numpy(zero_copy_only=False)  # other types: pyarrow's own path


def as_numpy(col) -> np.ndarray:
    """``col.to_numpy(zero_copy_only=False)`` (same values, same dtype) for
    an Arrow Array or ChunkedArray, read from its buffers.

    A fixed-width, null-free one-chunk column is a zero-copy, read-only view
    of its value buffer at the array's offset; strings and binaries become
    object arrays (None for nulls); integers with nulls float64 with NaN;
    booleans with nulls an object array.  Types other than numbers,
    temporals, booleans, strings and binaries fall back to pyarrow."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            return _chunk_numpy(col.chunk(0))
        if col.num_chunks == 0:
            dts = _view_dtype(col.type)
            return np.empty(0, dts[1] if dts is not None else object)
        return np.concatenate([_chunk_numpy(a) for a in col.chunks])
    return _chunk_numpy(col)


def _bitmap(valid: np.ndarray):
    """(Arrow validity buffer, null count) of a bool mask; no buffer when
    nothing is null."""
    nulls = valid.size - int(np.count_nonzero(valid))
    return (pa.py_buffer(np.packbits(valid, bitorder="little")) if nulls else None), nulls


def from_numpy(values) -> pa.Array:
    """``pa.array(values)`` for a 1-d numpy array, built from its buffer:
    numbers (NaN kept), booleans, datetime64/timedelta64 in s/ms/us/ns (NaT
    as null) and object arrays of str and None.  Other arrays fall back to
    ``pa.array``."""
    values = np.ascontiguousarray(values)
    kind, n = values.dtype.kind, values.size
    if kind in "iuf":
        typ = pa.from_numpy_dtype(values.dtype)
        return pa.Array.from_buffers(typ, n, [None, pa.py_buffer(values)])
    if kind == "b":
        bits = np.packbits(values, bitorder="little")
        return pa.Array.from_buffers(pa.bool_(), n, [None, pa.py_buffer(bits)])
    if kind in "mM" and np.datetime_data(values.dtype)[0] in ("s", "ms", "us", "ns"):
        unit = np.datetime_data(values.dtype)[0]
        typ = pa.timestamp(unit) if kind == "M" else pa.duration(unit)
        bitmap, nulls = _bitmap(~np.isnat(values))
        return pa.Array.from_buffers(
            typ, n, [bitmap, pa.py_buffer(values.view(np.int64))], null_count=nulls
        )
    items = values.tolist() if kind == "O" else None
    if items is not None and all(v is None for v in items):
        return pa.nulls(n)  # pa.array's type for no values or only None
    if items is not None and all(v is None or type(v) is str for v in items):
        return from_strings(items)
    return pa.array(values)


def from_strings(values: list, typ=pa.string()) -> pa.Array:
    """``pa.array(values, typ)`` for a list of str (``typ`` string) or of
    bytes (``typ`` binary), None for null, built from its buffers.

    Strings are joined by NUL, encoded once and cut back apart by Arrow's
    ``split_pattern``, about the speed of ``pa.array`` for a list of short
    tokens; a list holding None or a string holding a NUL takes one
    encode per value instead."""
    n = len(values)
    text = pa.types.is_string(typ)
    if not n:
        return pa.nulls(0, typ)
    if text:
        try:
            data = "\x00".join(values).encode("utf-8")
        except TypeError:  # a None among the values
            pass
        else:
            one = _from_offsets(typ, np.array([0, len(data)], np.int32), data, None, 0)
            out = pc.split_pattern(one, "\x00").flatten()
            if len(out) == n:
                return out
    valid = np.fromiter((v is not None for v in values), bool, n)
    empty = "" if text else b""
    parts = [empty if v is None else v for v in values]
    if text:
        parts = [v.encode("utf-8") for v in parts]
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(np.fromiter(map(len, parts), np.int64, n), out=offs[1:])
    bitmap, nulls = _bitmap(valid)
    return _from_offsets(typ, offs.astype(np.int32), b"".join(parts), bitmap, nulls)


def _from_offsets(typ, offs: np.ndarray, data: bytes, bitmap, nulls: int) -> pa.Array:
    return pa.Array.from_buffers(
        typ, offs.size - 1, [bitmap, pa.py_buffer(offs), pa.py_buffer(data)], null_count=nulls
    )


def parquet_file(path: str, metadata=None):
    import pyarrow.parquet as pq

    if not is_uri(path):
        return pq.ParquetFile(path, metadata=metadata)
    f, p = resolve(path)
    return pq.ParquetFile(f.open_input_file(p), metadata=metadata)


def write_parquet_atomic(tbl, path: str, row_group_size: int = 8192) -> int:
    """Write ``tbl`` to ``path`` through a temporary file and a rename;
    returns the file's size in bytes."""
    import pyarrow.parquet as pq

    if not is_uri(path):
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(tbl, tmp, row_group_size=row_group_size)
        os.replace(tmp, path)
        return os.path.getsize(path)
    f, p = resolve(path)
    try:
        tmp = f"{p}.tmp-{os.getpid()}"
        pq.write_table(tbl, tmp, filesystem=f, row_group_size=row_group_size)
        f.move(tmp, p)
    except NotImplementedError:
        pq.write_table(tbl, p, filesystem=f, row_group_size=row_group_size)
    return getsize(path)
