"""Persistent invariant cache keyed by canonical expression digests.

Only `ring inspect` and `ring sets` read it; `verify` and `check` always
compute their bundles. An entry (format version 5) is a header (magic,
version, order and the table checksum of the ring), the six bitsets U,
Id, Nil, Z, J and J# packed little-endian, and a SHA-256 over all of
that; Nil* is J on a finite ring and is not stored. A stored entry is
used only when that digest and the table checksum of the compiled ring
both match, so a corrupted file or a builder change silently invalidates
the entry instead of poisoning results. Any malformed or mismatched file
is a silent miss, and a cache directory that cannot be written is
skipped: the bundle is still returned.

A cold write hashes both tables while the bundle is computed:
`get_or_compute` starts one thread that runs `_digest_into`, computes the
bundle on the calling thread, joins the thread (also when the bundle
raises), and hands the digest to `save_bundle`. `hashlib` releases the
GIL while it hashes a large buffer, so on a second core the checksum
leaves the critical path. Only `_digest_into` and `_table_digest` run on
that thread; keep them out of the benchmark tracer's targets
(`perfbench/spans.py`), whose one span stack is not thread-safe. A load
checksums on the calling thread, through `table_checksum`.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np

from .core import ElemSet, TableRing
from .subsets import InvariantBundle, compute_bundle

MAGIC = b"RGLB"
FORMAT_VERSION = 5

_SETS = ("units", "idempotents", "nilpotents", "center", "jacobson", "jsharp")
_HEAD = len(MAGIC) + 6 + 32  # magic, version and order, table checksum
_DIGEST = 32


def cache_dir() -> Path:
    env = os.environ.get("RINGLAB_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "ringlab"


def table_checksum(ring: TableRing) -> bytes:
    """SHA-256 of the order, zero, one and both tables as the little-endian
    uint16 the ring stores them in.

    The tables are hashed in place; a copy is made only on a host whose
    native byte order is not little-endian. Format 4 hashed an int32 copy
    of each table, so format-5 checksums differ from format-4 ones.
    """
    return _table_digest(ring)


def _table_digest(ring: TableRing) -> bytes:
    """`table_checksum`'s body, which the hashing thread also runs."""
    h = hashlib.sha256()
    h.update(struct.pack("<IIII", ring.order, ring.zero, ring.one, 0))
    h.update(np.ascontiguousarray(ring.add, dtype="<u2"))
    h.update(np.ascontiguousarray(ring.mul, dtype="<u2"))
    return h.digest()


def _digest_into(ring: TableRing, out: list) -> None:
    """Thread body: append `_table_digest(ring)`, or the exception it raised, to `out`."""
    try:
        out.append(_table_digest(ring))
    except BaseException as exc:  # re-raised on the calling thread
        out.append(exc)


def _entry_path(ring: TableRing) -> Path | None:
    if not ring.expr_text:
        return None
    digest = hashlib.sha256(ring.expr_text.encode("ascii")).hexdigest()
    return cache_dir() / f"{digest}.v{FORMAT_VERSION}.bin"


def serialize_bundle(bundle: InvariantBundle, checksum: bytes | None = None) -> bytes:
    """The entry bytes; `checksum` is the ring's `table_checksum` if the caller has it."""
    ring = bundle.ring
    if checksum is None:
        checksum = table_checksum(ring)
    out = [MAGIC, struct.pack("<HI", FORMAT_VERSION, ring.order), checksum]
    for name in _SETS:
        out.append(np.packbits(getattr(bundle, name).mask(), bitorder="little").tobytes())
    payload = b"".join(out)
    return payload + hashlib.sha256(payload).digest()


def deserialize_bundle(data: bytes, ring: TableRing) -> InvariantBundle | None:
    nbytes = (ring.order + 7) // 8
    if len(data) != _HEAD + len(_SETS) * nbytes + _DIGEST or data[:4] != MAGIC:
        return None
    if hashlib.sha256(data[:-_DIGEST]).digest() != data[-_DIGEST:]:
        return None
    version, order = struct.unpack_from("<HI", data, 4)
    if version != FORMAT_VERSION or order != ring.order:
        return None
    if data[10:_HEAD] != table_checksum(ring):
        return None
    sets = {}
    offset = _HEAD
    for name in _SETS:
        raw = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset)
        mask = np.unpackbits(raw, count=ring.order, bitorder="little").view(bool)  # 0/1 bytes as bools
        mask.setflags(write=False)  # so from_mask wraps it without a copy
        sets[name] = ElemSet.from_mask(ring, mask)
        offset += nbytes
    return InvariantBundle(ring=ring, prime_radical=sets["jacobson"], **sets)


def load_bundle(ring: TableRing) -> InvariantBundle | None:
    path = _entry_path(ring)
    if path is None:
        return None
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        return deserialize_bundle(data, ring)
    except Exception:
        return None


def save_bundle(bundle: InvariantBundle, checksum: bytes | None = None) -> None:
    """Write the bundle's entry, best effort: any OSError, from creating the
    directory on, skips the write. `checksum` is as in `serialize_bundle`."""
    path = _entry_path(bundle.ring)
    if path is None:
        return
    data = serialize_bundle(bundle, checksum)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".bin")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)  # atomic publish; concurrent writers race benignly
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def get_or_compute(ring: TableRing) -> InvariantBundle:
    """The cached bundle of `ring`, or one computed and saved; a miss
    hashes the tables on a second thread (see the module docstring)."""
    cached = load_bundle(ring)
    if cached is not None:
        return cached
    if _entry_path(ring) is None:
        return compute_bundle(ring)
    digest: list = []
    worker = threading.Thread(target=_digest_into, args=(ring, digest), name="ringlab-table-checksum")
    worker.start()
    try:
        bundle = compute_bundle(ring)
    finally:
        worker.join()
    (checksum,) = digest
    if isinstance(checksum, BaseException):
        raise checksum
    save_bundle(bundle, checksum)
    return bundle


def stats() -> dict:
    directory = cache_dir()
    entries = 0
    total = 0
    if directory.is_dir():
        for p in directory.iterdir():
            if p.suffix == ".bin" and not p.name.startswith(".tmp-"):
                entries += 1
                total += p.stat().st_size
    return {"path": str(directory), "entries": entries, "bytes": total}


def clear() -> int:
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for p in directory.iterdir():
            if p.suffix == ".bin":
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed
