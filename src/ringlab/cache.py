"""Persistent invariant cache keyed by canonical expression digests.

Only `ring inspect` and `ring sets` read it; `verify` and `check` always
compute their bundles. An entry (format version 6) is a header (magic,
version, order and the table checksum of the ring), the six bitsets U,
Id, Nil, Z, J and J# packed little-endian, and a SHA-256 over all of
that; Nil* is J on a finite ring and is not stored. A stored entry is
used only when that digest and the table checksum of the compiled ring
both match, so a corrupted file or a builder change silently invalidates
the entry instead of poisoning results. Any malformed or mismatched file
is a silent miss, and a cache directory that cannot be written is
skipped: the bundle is still returned.

The table checksum hashes only the rows of `add` and `mul` at the ring's
additive generators (`TableRing.basis`), or every row on a ring without
one; see `table_checksum` for why those rows fix both tables. It reads
the rows of `add` through `core.sums` and those of `mul` through
`core.products`, so a ring whose tables are deferred (a cap ring built
bitwise) is checked without filling either.
A miss computes the bundle, then saves it.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .core import ElemSet, TableRing, products, sums
from .subsets import InvariantBundle, compute_bundle

MAGIC = b"RGLB"
FORMAT_VERSION = 6

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
    """SHA-256 of the order, zero, one, the number of rows hashed and the
    rows `add[rows]` and `mul[rows]` as the little-endian uint16 the ring
    stores them in, where `rows` is `ring.basis`, or every element when
    the ring has no basis.

    The basis rows fix both tables. A basis is kept only on a ring above
    order 64 whose axioms were decided on every triple, which happens only
    on the bitwise addition, where each element is the sum of the distinct
    bit generators at its bits. Then the generator rows of `add` give each
    such sum, associativity gives every row of `add` (add[g + x] =
    add[g][add[x]]) and right distributivity every row of `mul` (mul[x +
    g] = add[mul[x], mul[g]]). The row count keeps these checksums apart
    from whole-table ones. The rows are read as `sums` and `products`
    give them, so a deferred table is not filled; the bytes are those of
    the filled table's rows.
    """
    rows = slice(None) if ring.basis is None else list(ring.basis)
    h = hashlib.sha256()
    h.update(struct.pack("<IIII", ring.order, ring.zero, ring.one, ring.order if ring.basis is None else len(rows)))
    for read in (sums, products):  # without a basis, the whole tables as views; one read alive at a time
        h.update(np.ascontiguousarray(read(ring, rows), dtype="<u2"))
    return h.digest()


def _entry_path(ring: TableRing) -> Path | None:
    if not ring.expr_text:
        return None
    digest = hashlib.sha256(ring.expr_text.encode("ascii")).hexdigest()
    return cache_dir() / f"{digest}.v{FORMAT_VERSION}.bin"


def serialize_bundle(bundle: InvariantBundle) -> bytes:
    ring = bundle.ring
    out = [MAGIC, struct.pack("<HI", FORMAT_VERSION, ring.order), table_checksum(ring)]
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


def save_bundle(bundle: InvariantBundle) -> None:
    """Write the bundle's entry, best effort: any OSError, from creating the
    directory on, skips the write."""
    path = _entry_path(bundle.ring)
    if path is None:
        return
    data = serialize_bundle(bundle)
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
    """The cached bundle of `ring`, or one computed and saved."""
    cached = load_bundle(ring)
    if cached is not None:
        return cached
    bundle = compute_bundle(ring)
    save_bundle(bundle)
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
