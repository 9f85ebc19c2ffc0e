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

import json
import os
import re


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


def parquet_file(path: str, metadata=None):
    import pyarrow.parquet as pq

    if not is_uri(path):
        return pq.ParquetFile(path, metadata=metadata)
    f, p = resolve(path)
    return pq.ParquetFile(f.open_input_file(p), metadata=metadata)


def write_parquet_atomic(tbl, path: str, row_group_size: int = 8192) -> None:
    import pyarrow.parquet as pq

    if not is_uri(path):
        tmp = f"{path}.tmp-{os.getpid()}"
        pq.write_table(tbl, tmp, row_group_size=row_group_size)
        os.replace(tmp, path)
        return
    f, p = resolve(path)
    try:
        tmp = f"{p}.tmp-{os.getpid()}"
        pq.write_table(tbl, tmp, filesystem=f, row_group_size=row_group_size)
        f.move(tmp, p)
    except NotImplementedError:
        pq.write_table(tbl, p, filesystem=f, row_group_size=row_group_size)
